"""Verification: quantum parameters, self-orthogonality, MDS certification.

The MDS property is certified by two independent routes that must agree:

  * rank route  - every k-subset of columns has a nonsingular k x k minor
                  (budgeted by C(n, k)); the minors are taken in
                  ``itertools.combinations`` order and eliminated in numpy
                  chunks, and the first singular one is the witness;
  * enumeration - the minimum weight over all nonzero codewords equals
                  n - k + 1.  Weight is invariant under nonzero scalars,
                  so only the (q^(2k) - 1)/(q^2 - 1) messages whose first
                  nonzero coordinate is 1 are enumerated; the budget still
                  counts all q^(2k) messages.

Both routes run on the field's exp/log tables, which exist only for fields
of at most 2^22 elements (``CapacityExceeded`` otherwise); every artifact
``build`` makes lies in such a field.  The tests check both routes against
scalar Gaussian elimination and a codeword-by-codeword enumeration.

Budgets raise ``BudgetExceeded`` rather than silently skipping, so callers
always know which route actually ran.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeArtifact, gram_zero
from .errors import BudgetExceeded, InvalidDims
from .field import Field

MINORS_BUDGET_DEFAULT = 2_000_000
ENUM_BUDGET_DEFAULT = 20_000_000


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

# Entries of the (c, k, k) stack of minors eliminated at once: a chunk holds
# c = MINOR_ENTRIES // k^2 column sets (4096 at k = 4), which bounds the
# stack and its temporaries whatever k is.
MINOR_ENTRIES = 1 << 16


@dataclass(frozen=True)
class MinorsReport:
    is_mds: bool
    minors_checked: int
    witness: tuple[int, ...] | None  # column set of the first singular minor


def _log_array(field: Field, matrix) -> np.ndarray:
    """The matrix as int64 exponents in [0, N), with -1 for zero.  Both
    routes read the field's tables, so a field without them raises
    ``CapacityExceeded`` here, before a budget that no size could meet."""
    field.tables
    return np.array([[-1 if e is None else e % field.N for e in row]
                     for row in matrix], dtype=np.int64)


def _singular_minors(field: Field, M: np.ndarray) -> np.ndarray:
    """Mask of the singular matrices in a (c, k, k) stack in log form,
    by Gaussian elimination of the whole stack at once; M is overwritten.

    Column j pivots on the first nonzero entry at or below the diagonal and
    subtracts (a_i / pivot) * pivot row from each row i below.  Products
    add logs mod N (-1 is theta^(N/2) for odd p); sums go through the
    packed vectors.  A matrix is singular when some column has no pivot.
    """
    c, k, _ = M.shape
    N = field.N
    neg = 0 if field.p == 2 else N // 2
    exp0, log = field.exp0, field.tables[1]
    at = np.arange(c)
    singular = np.zeros(c, dtype=bool)
    for j in range(k):
        nonzero = M[:, j:, j] >= 0
        singular |= ~nonzero.any(axis=1)
        piv = j + nonzero.argmax(axis=1)
        prow = M[at, piv, j:]
        M[at, piv, j:] = M[:, j, j:]  # row j is not read again
        a = M[:, j + 1:, j, None]
        b = prow[:, None, 1:]
        term = np.where((a >= 0) & (b >= 0),
                        (a - prow[:, :1, None] + neg + b) % N, -1)
        rest = M[:, j + 1:, j + 1:]
        rest[...] = log[field.np_packed_add(exp0[rest], exp0[term])]
    return singular


def check_mds_rank(field: Field, matrix,
                   budget: int = MINORS_BUDGET_DEFAULT) -> MinorsReport:
    """Scan the maximal minors in ``itertools.combinations`` order, a chunk
    of column sets at a time, and report the first singular one."""
    logs = _log_array(field, matrix)
    k, n = logs.shape
    total = math.comb(n, k)
    if total > budget:
        raise BudgetExceeded(f"C({n},{k}) = {total} exceeds budget {budget}")
    chunk = max(1, MINOR_ENTRIES // (k * k))
    combos = itertools.combinations(range(n), k)
    for offset in range(0, total, chunk):
        c = min(chunk, total - offset)
        cols = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, c)),
            dtype=np.int64, count=c * k).reshape(c, k)
        M = logs[:, cols].transpose(1, 0, 2).copy()
        hits = np.flatnonzero(_singular_minors(field, M))
        if hits.size:
            i = int(hits[0])
            return MinorsReport(False, offset + i + 1, tuple(cols[i].tolist()))
    return MinorsReport(True, total, None)


# --------------------------------------------------------------------------
# MDS route 2: exhaustive minimum weight
# --------------------------------------------------------------------------

def _np_multiples(field: Field, row: np.ndarray) -> np.ndarray:
    """(q^2, n) packed coefficient vectors of c * row for every scalar c,
    zero first; ``row`` is in log form."""
    scalars = np.arange(field.N)[:, None]
    shifted = np.where(row >= 0, (row + scalars) % field.N, -1)
    return np.vstack((np.zeros((1, len(row)), dtype=np.int64),
                      field.exp0[shifted]))


def _np_min_weight(field: Field, logs: np.ndarray) -> int:
    """Minimum weight over the messages whose first nonzero coordinate is 1.

    Every nonzero message is a nonzero scalar times exactly one of them, and
    scaling keeps the weight, so this is the minimum over all of them.
    Leading position i fixes coordinate i to 1 and those before it to 0,
    and runs the rows after i over every multiple.
    """
    k, n = logs.shape
    mults = [_np_multiples(field, r) for r in logs[1:]]
    best = n
    for i in range(k):
        words = field.exp0[logs[i]][None, :]
        for m in mults[i:]:
            words = field.np_packed_add(words[:, None, :],
                                        m[None, :, :]).reshape(-1, n)
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
    """Run the Gram check plus both MDS routes (where budgets allow)."""
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
