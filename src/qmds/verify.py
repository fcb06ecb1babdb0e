"""Verification: quantum parameters, self-orthogonality, MDS certification.

The MDS property is certified by two independent routes that must agree:

  * rank route  - every k-subset of columns has a nonsingular k x k minor
                  (budgeted by C(n, k)).  The minors that share their first
                  k - 1 columns P share their elimination: expanding along
                  the last column, det[G_P | g_c] = lambda * (y_P . g_c)
                  with lambda != 0, where y_P spans the left null space of
                  the k x (k - 1) block G_P.  So the column prefixes are
                  walked as a tree, depth first in
                  ``itertools.combinations`` order, in blocks of at most
                  ``MINOR_ENTRIES`` entries per level.  Each node keeps a
                  basis W of the left null space of its columns, the
                  identity at the root; extending it by column c gives
                  u = W.g_c, which is zero exactly when the columns become
                  dependent, and otherwise one pivot step drops one basis
                  vector.  At depth k - 1 one length-k dot per column
                  decides each minor exactly.  The first singular minor in
                  combinations order is the witness;
  * enumeration - the minimum weight over all nonzero codewords equals
                  n - k + 1.  Weight is invariant under nonzero scalars,
                  so only the (q^(2k) - 1)/(q^2 - 1) messages whose first
                  nonzero coordinate is 1 are enumerated; the budget still
                  counts all q^(2k) messages.

Both routes run on the field's exp/log tables, which exist only for fields
of at most 2^22 elements (``CapacityExceeded`` otherwise); every artifact
``build`` makes lies in such a field.  Both take a k x n matrix with
1 <= k <= n and raise ``InvalidDims`` for any other shape, so neither can
certify something that is not a code.  The tests check both routes against
scalar Gaussian elimination and a codeword-by-codeword enumeration.

Budgets raise ``BudgetExceeded`` rather than silently skipping, so callers
always know which route actually ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeArtifact, gram_zero, packed_sums
from .errors import BudgetExceeded, CapacityExceeded, InvalidDims
from .field import Field

MINORS_BUDGET_DEFAULT = 2_000_000
ENUM_BUDGET_DEFAULT = 20_000_000
# verify_artifact materialises the k x n matrix as Python elements, so a
# matrix of more entries is refused (CapacityExceeded) before it is built
MATRIX_ENTRY_LIMIT = 100_000_000


@dataclass(frozen=True)
class QuantumParams:
    """[[n, k, d]]_q parameters derived from a k-dim self-orthogonal code."""

    n: int
    k: int
    d: int
    q: int
    singleton_ok: bool

    def triple(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.d)


def quantum_params(n: int, k: int, q: int) -> QuantumParams:
    """Parameters [[n, n - 2k, k + 1]]_q induced by a Hermitian
    self-orthogonal MDS [n, k] code over GF(q^2)."""
    if k < 0 or 2 * k > n:
        raise InvalidDims(f"need 0 <= 2k <= n, got n={n}, k={k}")
    kq, d = n - 2 * k, k + 1
    return QuantumParams(n, kq, d, q, singleton_ok=(kq == n - 2 * d + 2))


# --------------------------------------------------------------------------
# MDS route 1: all maximal minors are nonsingular
# --------------------------------------------------------------------------

# Entries per block of the prefix walk: a block of children of depth-d
# prefixes holds at most MINOR_ENTRIES // ((k - d) * k) of them, which
# bounds every level's arrays and temporaries whatever k and n are.
MINOR_ENTRIES = 1 << 15


@dataclass(frozen=True)
class MinorsReport:
    is_mds: bool
    minors_checked: int
    witness: tuple[int, ...] | None  # column set of the first singular minor


def _log_array(field: Field, matrix) -> np.ndarray:
    """The k x n matrix, 1 <= k <= n, as int32 exponents in [0, N), with -1
    for zero.  Both routes read the field's tables, so a field without them
    raises ``CapacityExceeded`` here, before a budget that no size could
    meet."""
    rows = [list(row) for row in matrix]
    k, n = len(rows), len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise InvalidDims("rows of unequal lengths "
                          f"{sorted({len(row) for row in rows})}")
    if not 1 <= k <= n:
        raise InvalidDims(f"need a k x n matrix with 1 <= k <= n, "
                          f"got {k} x {n}")
    field.tables
    return np.array([[-1 if e is None else e % field.N for e in row]
                     for row in rows], dtype=np.int32)


def _dot(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of a and b (broadcasting), all in
    log form with -1 for zero.  A product adds logs, so its exponent stays
    below 2N, as ``packed_sums`` needs; it is zero when a factor is."""
    zero = (a < 0) | (b < 0)
    sums = packed_sums(field, a + b, [0], zero if zero.any() else None)
    return field.tables[1][sums[..., 0]]


def _lex_rank(cols: tuple[int, ...], n: int) -> int:
    """Index of the k-subset ``cols`` of range(n) in combinations order: at
    each position i, the subsets that agree before i and take a smaller
    column at i, summed in closed form by the hockey-stick identity."""
    k, rank, prev = len(cols), 0, -1
    for i, c in enumerate(cols):
        rank += math.comb(n - prev - 1, k - i) - math.comb(n - c, k - i)
        prev = c
    return rank


def _pivot_out(field: Field, W: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Null-space bases of the children: for each row of the (b, r, k) stack
    W with u = W.g != 0, the r - 1 rows u_i*w_j - u_j*w_i (j != i), i the
    first nonzero entry of u, span the vectors of span(W) orthogonal to g."""
    b, r, k = W.shape
    neg = 0 if field.p == 2 else field.N // 2
    piv = (u >= 0).argmax(axis=1)
    at = np.arange(b)
    keep = np.arange(r) != piv[:, None]
    rest, u_rest = W[keep].reshape(b, r - 1, k), u[keep].reshape(b, r - 1)
    minus_u = np.where(u_rest >= 0, (u_rest + neg) % field.N, -1)[:, :, None]
    w_i, u_i = W[at, None, piv], u[at, piv, None, None]  # u_i != 0
    terms = np.stack((rest + u_i, w_i + minus_u), axis=-1)
    zero = np.stack((rest < 0, (w_i < 0) | (minus_u < 0)), axis=-1)
    return field.tables[1][packed_sums(field, terms, [0], zero)[..., 0]]


def _first_singular(field: Field, logs: np.ndarray, prefixes: np.ndarray,
                    W: np.ndarray) -> tuple[int, ...] | None:
    """The first singular minor, in combinations order, among those whose
    columns begin with one of the lex-ordered, independent depth-d
    ``prefixes`` (m, d); W (m, k - d, k) holds a basis of the left null space
    of each prefix's columns, in log form.

    The children of the prefixes, taken in order in blocks of at most
    ``MINOR_ENTRIES`` entries, are each a prefix P and one more column c,
    and u = W_P.g_c is zero exactly when g_c lies in the span of P's
    columns.  At depth k - 1 the child is a whole minor, singular exactly
    when u = 0.  Above it, every minor below a dependent child is singular,
    and the first is the child followed by the next columns; the children
    before it are searched first, a depth deeper."""
    k, n = logs.shape
    m, d = prefixes.shape
    r = k - d
    last = prefixes[:, -1] if d else np.full(m, -1)
    counts = n - r - last  # children take columns last + 1 .. n - r
    ends = np.cumsum(counts)
    step = max(1, MINOR_ENTRIES // (r * k))
    for lo in range(0, int(ends[-1]), step):
        pos = np.arange(lo, min(lo + step, int(ends[-1])))
        node = np.searchsorted(ends, pos, side="right")
        col = last[node] + 1 + pos - (ends[node] - counts[node])
        g = logs[:, col].T
        u = _dot(field, W[node], g[:, None, :]) if d else g  # W = I at d = 0
        dependent = ~(u >= 0).any(axis=1)
        stop = int(dependent.argmax()) if dependent.any() else len(pos)
        if r > 1 and stop:
            found = _first_singular(
                field, logs,
                np.column_stack((prefixes[node[:stop]], col[:stop])),
                _pivot_out(field, W[node[:stop]], u[:stop]))
            if found is not None:
                return found
        if stop < len(pos):
            c = int(col[stop])
            return (tuple(prefixes[node[stop]].tolist())
                    + tuple(range(c, c + r)))
    return None


def check_mds_rank(field: Field, matrix,
                   budget: int = MINORS_BUDGET_DEFAULT) -> MinorsReport:
    """Decide every maximal minor exactly, walking the column prefixes
    depth first from the root, whose null-space basis is the identity, and
    report the first singular minor in ``itertools.combinations`` order and
    its 1-based index there."""
    logs = _log_array(field, matrix)
    k, n = logs.shape
    total = math.comb(n, k)
    if total > budget:
        raise BudgetExceeded(f"C({n},{k}) = {total} exceeds budget {budget}")
    identity = np.eye(k, dtype=np.int32)[None] - 1  # logs: 0 is 1, -1 is 0
    witness = _first_singular(field, logs, np.empty((1, 0), dtype=np.int64),
                              identity)
    if witness is None:
        return MinorsReport(True, total, None)
    return MinorsReport(False, _lex_rank(witness, n) + 1, witness)


# --------------------------------------------------------------------------
# MDS route 2: exhaustive minimum weight
# --------------------------------------------------------------------------

def _words(field: Field, logs: np.ndarray) -> np.ndarray:
    """The words of the elements ``logs`` (log form, -1 for zero), indices
    below 2N: for p = 2 the packed masks of ``Field.mask_ext``, a shape
    like logs', and for odd p the rows of ``Field.digits``, one more axis
    of lane words."""
    table = field.mask_ext if field.p == 2 else field.digits
    words = table[np.maximum(logs, 0)]
    words[logs < 0] = 0
    return words


def _np_multiples(field: Field, row: np.ndarray) -> np.ndarray:
    """The words (``_words``) of c * row for every scalar c, zero first: an
    array of q^2 rows; ``row`` is in log form."""
    shifted = np.where(row >= 0, row + np.arange(field.N)[:, None], -1)
    words = _words(field, shifted)
    return np.concatenate((np.zeros_like(words[:1]), words))


def _np_min_weight(field: Field, logs: np.ndarray) -> int:
    """Minimum weight over the messages whose first nonzero coordinate is 1.

    Every nonzero message is a nonzero scalar times exactly one of them, and
    scaling keeps the weight, so this is the minimum over all of them.
    Leading position i fixes coordinate i to 1 and those before it to 0,
    and runs the rows after i over every multiple.  The codewords are sums
    of words (``_words``): XORs of masks for p = 2, and for odd p sums of
    digit-lane words, where each lane adds at most k digits below p.  A
    lane holds 65535 without carrying into the next, and k*(p - 1) stays
    below 2^16 for every run the enumeration budget admits: past it,
    k >= 32 and the q^(2k) >= 9^32 messages could not be enumerated.  So
    each lane mod p is one coordinate digit of the sum.
    """
    k, n = logs.shape
    p = field.p
    add = np.bitwise_xor if p == 2 else np.add
    mults = [_np_multiples(field, r) for r in logs[1:]]
    best = n
    for i in range(k):
        words = _words(field, logs[i])[None]
        for m in mults[i:]:
            words = add(words[:, None], m[None]).reshape(
                (-1,) + words.shape[1:])
        if p != 2:  # a coordinate is zero when every lane is 0 mod p
            lanes = words.view(np.uint16)
            lanes -= lanes // p * p  # a division by a scalar is fast
            words = np.bitwise_or.reduce(words, axis=-1)
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def check_mds_enumeration(field: Field, matrix,
                          budget: int = ENUM_BUDGET_DEFAULT) -> int:
    """Exhaustive minimum weight of the row space; MDS iff it is n - k + 1.
    The budget counts all q^(2k) messages, although only one per line
    through the origin is enumerated."""
    logs = _log_array(field, matrix)
    total = field.q2 ** len(logs)
    if total > budget:
        raise BudgetExceeded(f"q^(2k) = {total} exceeds budget {budget}")
    return _np_min_weight(field, logs)


# --------------------------------------------------------------------------
# combined report
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    self_orthogonal: bool
    gram_witness: tuple[int, int] | None
    minors: MinorsReport | None
    minors_skipped: str | None
    min_weight: int | None
    enum_skipped: str | None
    mds_expected_weight: int
    routes_agree: bool | None
    quantum: QuantumParams

    @property
    def all_passed(self) -> bool:
        if not self.self_orthogonal:
            return False
        if self.minors is not None and not self.minors.is_mds:
            return False
        if self.min_weight is not None and \
                self.min_weight != self.mds_expected_weight:
            return False
        return True


def verify_artifact(artifact: CodeArtifact,
                    budget_minors: int = MINORS_BUDGET_DEFAULT,
                    budget_enum: int = ENUM_BUDGET_DEFAULT) -> VerificationReport:
    """Run the Gram check plus both MDS routes (where budgets allow).  A
    matrix of more than ``MATRIX_ENTRY_LIMIT`` entries raises
    ``CapacityExceeded`` before anything is computed."""
    if artifact.k * artifact.n > MATRIX_ENTRY_LIMIT:
        raise CapacityExceeded(
            f"the {artifact.k} x {artifact.n} matrix has more than "
            f"{MATRIX_ENTRY_LIMIT} entries")
    f = artifact.field
    ok, witness = gram_zero(artifact)
    matrix = artifact.matrix()
    minors = minors_skipped = None
    try:
        minors = check_mds_rank(f, matrix, budget_minors)
    except BudgetExceeded as exc:
        minors_skipped = str(exc)
    min_weight = enum_skipped = None
    try:
        min_weight = check_mds_enumeration(f, matrix, budget_enum)
    except BudgetExceeded as exc:
        enum_skipped = str(exc)
    expected = artifact.n - artifact.k + 1
    agree = None
    if minors is not None and min_weight is not None:
        agree = minors.is_mds == (min_weight == expected)
    return VerificationReport(
        self_orthogonal=ok,
        gram_witness=witness,
        minors=minors,
        minors_skipped=minors_skipped,
        min_weight=min_weight,
        enum_skipped=enum_skipped,
        mds_expected_weight=expected,
        routes_agree=agree,
        quantum=quantum_params(artifact.n, artifact.k, f.q),
    )
