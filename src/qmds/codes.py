"""Generator matrices over GF(q^2) and Hermitian Gram computations.

A code artifact is a k-row generalized evaluation matrix: row l evaluates
x^(shift+l) at every point of a weighted evaluation set, scaled per column by
a (q+1)-st root of the column weight so that Hermitian inner products of rows
reproduce the weighted power sums.  The extended variant prepends one border
column that is nonzero only in row 0.

``gram_zero`` is the self-orthogonality check.  Entry (l1, l2) of the
upper triangle is sum_j theta^(B_j + E_j*t) with t = l1 + q*l2, over the
point exponents E_j and B_j = w_j + shift*(q+1)*E_j.  Every evaluation set
is a weighted union of subgroups, and a power sum over a subgroup of order
M vanishes unless M divides its exponent.  The check reads that symmetry
off the arrays themselves, never off the construction, so it still covers
the matrix as built: it finds the largest M | N such that the sorted
points are M cosets of the first r = n/M, each the one before times
theta^L (L = N/M), with B stepping by one constant c*L.  Every entry is
then M times its sum over the r representatives when M | c + t and zero
otherwise, so only those live entries are summed, and over r points.  A set
without such symmetry has M = 1: every entry is summed over every point.

The sums split q^2 - 1 = a1*a2 into coprime factors, the split that needs
the fewest gathers for the input, so that each point exponent splits into
its residues mod a1 and mod a2.  They run in two stages: first over the
points of each class mod a2, once per value of t mod a1; then over the
classes, for each entry.  For p = 2 a sum is the XOR of packed int32
coefficient masks.  For odd p a term is one row of ``Field.digits``, its 2h
base-p digits as 16-bit lanes of one or a few words, and the terms' words
are added as integers: a lane of at most 65535 // (p-1) digits cannot carry
into the next, so each lane is an exact digit sum, reduced mod p once per
sum (longer runs are added in sub-runs of that many terms).  The points
are grouped into their classes mod a2, and the entries by t mod a1, by one
stable sort of the residues as the smallest unsigned integers that hold
them, which numpy sorts by radix up to 16 bits.  Stage 1 looks up each
point's residue times t, mod a1, in a table of a1 entries rather than
taking a ``%`` per point.  The sums read the field's exp/log tables, which
are built only when some entry is live; a field of more than 2^22 elements
has none and is refused either way (``CapacityExceeded``).  The witness is
the first offending row pair in row-major order, so the tests' scalar
references, which compute each entry directly from the field arithmetic,
cross-check it witness for witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityExceeded, DimensionTooLarge, UsageError
from .evalsets import EvalSet
from .field import TABLE_LIMIT, Elt, Field

# Terms per block of the Gram route's gathers; a stage-1 block takes at
# least one whole row of n points.
GRAM_BLOCK = 1 << 14


@dataclass(eq=False)
class CodeArtifact:
    """A k x n generator matrix in structured (evaluation) form.

    ``border_entry`` is the single nonzero entry of the optional border
    column (column 0, row 0); the matrix is materialized lazily because the
    structured form is all the verification paths need.
    """

    field: Field
    evalset: EvalSet
    k: int
    shift: int
    has_border: bool = False
    border_entry: Elt = None

    @property
    def n(self) -> int:
        return len(self.evalset) + (1 if self.has_border else 0)

    @cached_property
    def column_scales(self) -> np.ndarray:
        """Exponent of the smallest (q+1)-st root of each column weight."""
        return self.evalset.weights // (self.field.q + 1)

    def row(self, l: int) -> tuple[Elt, ...]:
        N = self.field.N
        cols = self.column_scales + _mulmod(self.shift + l,
                                            self.evalset.points, N)
        body = tuple((cols % N).tolist())
        if self.has_border:
            return ((self.border_entry if l == 0 else None),) + body
        return body

    def matrix(self) -> tuple[tuple[Elt, ...], ...]:
        return tuple(self.row(l) for l in range(self.k))


def _mulmod(c: int, e: np.ndarray, N: int) -> np.ndarray:
    """c*e mod N for exponents 0 <= e < N <= 2^40, exactly in int64: c is
    split into 20-bit halves so that no product reaches 2^61."""
    hi, lo = divmod(c % N, 1 << 20)
    return (hi * e % N * (1 << 20) + lo * e) % N


def eval_code(field: Field, evalset: EvalSet, k: int,
              shift: int) -> CodeArtifact:
    """Rows x^(shift+l), l = 0..k-1, evaluated over the weighted set."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if k > len(evalset):
        raise DimensionTooLarge(f"k = {k} exceeds length {len(evalset)}")
    return CodeArtifact(field, evalset, k, shift)


def extend_c1(field: Field, m: int, k: int, es: EvalSet) -> CodeArtifact:
    """Length-(n+1) extension of the subgroup code: rows 1, x, .., x^(k-1)
    on ``es``, the order-N/m subgroup with unit weights, plus a border
    column (b, 0, .., 0)^T.

    The border weight is forced by self-orthogonality of row 0: with column
    weight v0 = m mod p the (0,0) Gram entry is v0 * c^2 + n = 0 mod p,
    where c = ((q+1)/m) mod p is the border coordinate before scaling.
    """
    if k < 2:
        raise UsageError(f"extended code needs k >= 2, got {k}")
    if k > len(es) + 1:
        raise DimensionTooLarge(f"k = {k} exceeds length {len(es) + 1}")
    v0 = field.embed_int(m % field.p)
    c = field.embed_int(((field.q + 1) // m) % field.p)
    border = field.mul(field.norm_root(v0), c)
    return CodeArtifact(field, es, k, shift=0, has_border=True,
                        border_entry=border)


# --------------------------------------------------------------------------
# the Hermitian Gram check
# --------------------------------------------------------------------------

def gram_zero(artifact: CodeArtifact) -> tuple[bool, tuple[int, int] | None]:
    """Whether the Hermitian Gram matrix of the rows vanishes.  Only the
    upper triangle is computed: <r_j, r_i> = <r_i, r_j>^q.  The witness is
    the first nonzero entry of ``gram_nonzero_mask`` in row-major order."""
    hits = np.flatnonzero(gram_nonzero_mask(artifact))
    if hits.size:
        l1, l2 = divmod(int(hits[0]), artifact.k)
        return False, (l1, l2)
    return True, None


def gram_nonzero_mask(artifact: CodeArtifact) -> np.ndarray:
    """k x k boolean mask of the nonzero upper-triangle Gram entries, on
    exponent arrays.

    Entry (l1, l2) is sum_j theta^(B_j + E_j*(l1 + q*l2)) with
    B_j = w_j + shift*(q+1)*E_j, plus the border term at (0, 0); every
    entry is computed by ``_gram_bad``.
    """
    f = artifact.field
    N, q = f.N, f.q
    E = artifact.evalset.points
    B = (artifact.evalset.weights + artifact.shift * (q + 1) % N * E) % N
    border_packed = 0
    if artifact.has_border:
        b = artifact.border_entry
        border_packed = int(f.tables[0][f.mul(b, f.frobenius_q(b))])
    return _gram_bad(f, artifact.k, B, E, border_packed)


def _gram_bad(f: Field, k: int, B: np.ndarray, E: np.ndarray,
              border_packed: int) -> np.ndarray:
    """k x k upper-triangular mask of the nonzero Gram entries: entry
    (l1, l2) is sum_j theta^(B_j + E_j*t) with t = l1 + q*l2, for
    exponents 0 <= B_j, E_j < N, plus ``border_packed`` at (0, 0).

    The points are sorted (with their B) and ``_orbit`` finds the largest
    M with r = n/M, L = N/M and D = c*L such that point i + r is point i
    times theta^L and its B is B_i + D.  Then every entry factors exactly as
    R(t) * sum_(a<M) theta^(a*L*(c + t)), with R(t) the sum over the first
    r points; the second factor is M, a unit mod p since M | N, when
    M | c + t, and zero otherwise.  So only the live entries, t = -c mod M,
    are summed (``_gram_sums``), over the r representatives, and with a
    border entry (0, 0) is M*R(0) (when live) plus the border.  With M = 1
    every entry is live and every point is summed.  The field tables are
    read only when an entry is live, but a field past 2^22 elements is
    refused either way (``CapacityExceeded``), as no entry could be summed.
    """
    if f.q2 > TABLE_LIMIT:
        raise CapacityExceeded(f"field size {f.q2} exceeds 2^22 "
                               "(no exp/log tables for the Gram sums)")
    N, q = f.N, f.q
    E, B = E.astype(np.int32), B.astype(np.int32)
    if (E[1:] < E[:-1]).any():
        order = np.argsort(E, kind="stable")
        E, B = E[order], B[order]
    M, c = _orbit(N, f.n_factors, E, B)
    # in row l2 the live l1 <= l2 are first, first + M, ...; the entries
    # are listed by l2, then l1, so that t ascends whenever k <= q
    l2 = np.arange(k)
    first = (-c - q * l2) % M
    count = (l2 - first + M) // M
    rows = np.repeat(l2, count)
    starts = np.cumsum(count) - count
    cols = np.repeat(first - M * starts, count) + M * np.arange(len(rows))
    mask = np.zeros((k, k), dtype=bool)
    if len(rows):
        r = len(E) // M
        vals = _gram_sums(f, (cols + q * rows).astype(np.int32), B[:r], E[:r])
        mask[cols, rows] = vals != 0
    if border_packed:
        v0 = 0  # M*R(0) when entry (0, 0) is live, the first one listed
        if c == 0 and vals[0]:
            exp, log = f.tables
            v0 = exp[(int(log[vals[0]]) + int(log[M % f.p])) % N]
        mask[0, 0] = f.np_packed_add(np.int64(v0), np.int64(border_packed))
    return mask


def _orbit(N: int, primes, E: np.ndarray, B: np.ndarray) -> tuple[int, int]:
    """(M, c) for the largest cyclic symmetry of the point list that the
    arrays show: M divides N and n, and with r = n/M, L = N/M,
    E[i + r] = E[i] + L and B[i + r] = B[i] + c*L (mod N) for every
    i < n - r, for ascending E.  M grows one prime at a time, each step
    tested only at a few entries; the final M is then tested at every
    entry, and on a failure the last prime is taken off again.  M = 1
    (c = 0) always holds."""
    n = len(E)

    def sampled_step(M):
        """D = c*L from the first orbit step, if the few entries tested
        are consistent with M; else None."""
        r, L = n // M, N // M
        D = int(B[r] - B[0]) % N
        if (E[r - 1] < L and E[r] - E[0] == L == E[-1] - E[-1 - r]
                and int(B[-1] - B[-1 - r]) % N == D and M * D % N == 0):
            return D
        return None

    M, grown = 1, []
    for prime in primes:
        while (N % (M * prime) == 0 and n % (M * prime) == 0
               and sampled_step(M * prime) is not None):
            M *= prime
            grown.append(prime)
    while M > 1:
        r, L, D = n // M, N // M, sampled_step(M)
        step = B[r:] - B[:-r]
        if ((E[r:] - E[:-r] == L).all()
                and ((step == D) | (step == D - N)).all()):
            return M, D // L
        M //= grown.pop()
    return 1, 0


def _unitary_splits(N: int, primes) -> list[tuple[int, int]]:
    """Every (a1, a2) with a1*a2 = N and gcd(a1, a2) = 1: a1 is the product
    of some of the prime-power parts of N and a2 of the others."""
    splits = [(1, N)]
    for r in primes:
        part = r
        while N % (part * r) == 0:
            part *= r
        splits += [(a1 * part, a2 // part) for a1, a2 in splits]
    return splits


def _choose_split(f: Field, t: np.ndarray, E: np.ndarray) -> tuple[int, int]:
    """The coprime split N = a1*a2 that needs the fewest gathers in
    ``_gram_sums``: (distinct t mod a1)*n in stage 1 plus
    len(t)*(distinct E mod a2) in stage 2, for ascending E.

    The residues are counted only for splits whose lower bound on that
    number is below the best count so far, in the order of the bound.  A
    class mod a holds at most ceil(span/a) of distinct values that span
    ``span`` consecutive integers, so the distinct t and the n distinct
    points fill at least that many classes mod a1 and mod a2.  Mod a1 the
    distinct t also take at least min(a1, run) values, where run is the
    length of the last run of consecutive integers among them.

    x mod a is (x mod m) mod a whenever a | m, so each count reduces the
    shortest array of distinct residues already found mod a multiple of
    a; the distinct t and E themselves are their residues mod 0.
    """
    n, K = len(E), len(t)
    u = t if (t[1:] > t[:-1]).all() else np.unique(t)
    run = 1
    while run < len(u) and u[-1 - run] == u[-1] - run:
        run += 1
    span_t, span_E = int(u[-1] - u[0]) + 1, int(E[-1] - E[0]) + 1

    def bound(a1, a2):
        s1 = max(min(a1, run), -(-len(u) // -(-span_t // a1)))
        return s1 * n + K * -(-n // -(-span_E // a2))

    def distinct(found, a):
        x = min((r for m, r in found.items() if m % a == 0), key=len) % a
        # a table of a counts is no longer than x
        found[a] = (np.unique(x) if a > len(x)
                    else np.bincount(x, minlength=a).nonzero()[0])
        return len(found[a])

    found_t, found_E = {0: u}, {0: E}
    best, best_cost = None, 0
    for low, a1, a2 in sorted((bound(a1, a2), a1, a2)
                              for a1, a2 in _unitary_splits(f.N, f.n_factors)):
        if best is not None and low >= best_cost:
            break
        cost = distinct(found_t, a1) * n + K * distinct(found_E, a2)
        if best is None or cost < best_cost:
            best, best_cost = (a1, a2), cost
    return best


def _classes(x: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """x grouped by its residues mod a: the stable order of the residues,
    the residues in that order and the start of each class, wherever the
    sorted residues change.  The residues are sorted as the smallest
    unsigned dtype that holds a - 1, so numpy sorts them by radix whenever
    a <= 65536."""
    key = (x % a).astype(np.min_scalar_type(a - 1))
    order = np.argsort(key, kind="stable")
    r = key[order]
    changes = (r[1:] != r[:-1]).nonzero()[0] + 1
    return order, r, np.concatenate(([0], changes))


def packed_sums(f: Field, idx: np.ndarray, starts,
                zero: np.ndarray | None = None) -> np.ndarray:
    """int32 packed sums of theta^idx over the runs of the last axis that
    begin at ``starts`` (strictly increasing), for exponents below 2N.  The
    terms that the boolean array ``zero`` marks, if given, are zero and add
    nothing; their idx need only be a valid index."""
    return _pack(f, _lane_sums(f, idx, starts, zero))


def _lane_sums(f: Field, idx: np.ndarray, starts,
               zero: np.ndarray | None = None) -> np.ndarray:
    """The sums of ``packed_sums`` before packing.  For p = 2 they are the
    XOR of the int32 coefficient masks, already packed.  For odd p they are
    2h uint16 lanes per sum, each congruent mod p to the sum of one base-p
    digit: the terms' rows of ``Field.digits`` are added as whole words,
    lane by lane, and a lane of at most 65535 // (p-1) digits cannot carry
    into the next.  Longer runs are added in sub-runs of that many terms,
    whose lanes are reduced mod p and added again."""
    if f.p == 2:
        vals = f.mask_ext.take(idx)
        if zero is not None:
            vals[zero] = 0
        return np.bitwise_xor.reduceat(vals, starts, axis=-1)
    p, words = f.p, f.digits
    vals = words.take(idx, axis=0)
    if zero is not None:
        vals[zero] = 0
    axis, cap, n = idx.ndim - 1, 65535 // (p - 1), idx.shape[-1]
    starts = np.asarray(starts)
    # only runs that span more than cap terms together can hold a long one
    runs = (np.concatenate((starts[1:], [n])) - starts
            if n - starts[0] > cap else None)
    if runs is None or runs.max() <= cap:
        return np.add.reduceat(vals, starts, axis=axis,
                               dtype=words.dtype).view(np.uint16)
    parts = -(-runs // cap)
    first = np.cumsum(parts) - parts
    subs = (np.repeat(starts - cap * first, parts)
            + cap * np.arange(parts.sum()))
    lanes = np.add.reduceat(vals, subs, axis=axis,
                            dtype=words.dtype).view(np.uint16) % p
    return (np.add.reduceat(lanes, first, axis=-2, dtype=np.int64)
            % p).astype(np.uint16)


def _pack(f: Field, lanes: np.ndarray) -> np.ndarray:
    """Packed vectors from ``_lane_sums``: for odd p the lanes reduced mod
    p are the base-p digits, lowest first."""
    if f.p == 2:
        return lanes
    digits = lanes % f.p
    out = digits[..., -1].astype(np.int32)
    for d in range(2 * f.h - 2, -1, -1):
        out = out * f.p + digits[..., d]
    return out


def _gram_sums(f: Field, t: np.ndarray, B: np.ndarray,
               E: np.ndarray) -> np.ndarray:
    """int32 packed sum_j theta^(B_j + E_j*t) for each t in the int32 array
    ``t``, for int32 exponents 0 <= B_j, E_j < N.

    For a split N = a1*a2 into coprime factors (``_choose_split``) each
    point exponent is E_j = a2*e1_j + a1*e2_j (mod N) with
    e1 = E*a2^-1 mod a1 and e2 = E*a1^-1 mod a2, so with s = t mod a1 and
    d = t mod a2 the term is theta^(B_j + a2*(e1_j*s mod a1)) times
    theta^(a1*(e2_j*d mod a2)).  Stage 1 (``_stage1_logs``) sums the first
    factor over the points of each class e2_j = g, once per distinct s:
    R[s, g] = sum_(e2_j = g) theta^(B_j + a2*(e1_j*s mod a1)).  Stage 2
    sums each t as sum_g R[s, g]*theta^(a1*(g*d mod a2)) over the nonzero
    R[s, g], all t of one s at a time; their lane sums are packed at once
    at the end.  Either trivial split gives back the direct sum.  Every
    term is still summed exactly, and every gathered exponent is below 2N
    (``packed_sums``).  The index arithmetic runs in int32 unless a product
    of two residues, below max(a1, a2)^2, could overflow it, in blocks of
    at most ``GRAM_BLOCK`` terms.
    """
    a1, a2 = _choose_split(f, t, E)
    dt = np.int32 if max(a1, a2) ** 2 < 1 << 31 else np.int64
    by_s, s, firsts = _classes(t, a1)
    ends = np.concatenate((firsts[1:], [len(t)]))
    g, logR = _stage1_logs(f, a1, a2, s[firsts].astype(dt), B, E)

    d = (t % a2).astype(dt)[:, None]
    nonzero = logR >= 0
    sums = None  # lane sums per t, zero where every R[s, g] is
    for r in np.flatnonzero(nonzero.any(axis=1)):
        live = nonzero[r]
        gs, logs = g[live], logR[r, live]
        step = max(1, GRAM_BLOCK // len(gs))
        for lo in range(firsts[r], ends[r], step):
            ent = by_s[lo:min(lo + step, ends[r])]
            lanes = _lane_sums(f, logs + a1 * (d[ent] * gs % a2), [0])
            if sums is None:
                sums = np.zeros((len(t),) + lanes.shape[1:], lanes.dtype)
            sums[ent] = lanes
    if sums is None:
        return np.zeros(len(t), dtype=np.int32)
    return _pack(f, sums)[:, 0]


def _stage1_logs(f: Field, a1: int, a2: int, svals: np.ndarray,
                 B: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1 of ``_gram_bad``: the classes g and the logs of R[s, g] for
    s in ``svals`` (-1 where R[s, g] = 0), for int32 point exponents E.
    The points are grouped by E mod a2 (``_classes``), so a class is
    found by one radix sort of small keys whenever a2 <= 65536, and
    g = (E mod a2)*a1^-1 mod a2 is computed once per class; the classes
    come in the order of E mod a2, which leaves every sum unchanged.  The
    lane sums of all the blocks of s are collected first, then packed and
    looked up at once."""
    dt, n = svals.dtype, len(E)
    order, r2, starts = _classes(E, a2)
    g = r2[starts].astype(dt) * pow(a1, -1, a2) % a2
    e1 = (E[order] % a1).astype(dt) * pow(a2, -1, a1) % a1
    B = B[order].astype(dt, copy=False)
    sums = np.concatenate([
        _lane_sums(f, index, starts)
        for index in _stage1_index(a1, a2, B, e1, svals,
                                   max(1, GRAM_BLOCK // n))])
    return g, f.tables[1][_pack(f, sums)]


def _stage1_index(a1: int, a2: int, B: np.ndarray, e1: np.ndarray,
                  svals: np.ndarray, step: int):
    """B + a2*(e1*s mod a1), one row per s, in blocks of ``step`` values of
    s.  The products come from a table of the a1 values a2*(x*s mod a1)
    per s, read with one flat take at e1 plus a1 times the row, so no point
    pays a ``%``.  When a1 exceeds the number of points the table would be
    the longer array, and the products are taken directly."""
    dt = svals.dtype
    blocks = (svals[r0:r0 + step, None] for r0 in range(0, len(svals), step))
    if a1 > len(e1):
        for s in blocks:
            yield B + a2 * (e1 * s % a1)
        return
    rows = min(step, len(svals))  # one row needs no offset, nor a copy of e1
    at = (e1[None] if rows == 1
          else e1 + a1 * np.arange(rows, dtype=dt)[:, None])
    x = np.arange(a1, dtype=dt)
    for s in blocks:
        index = (a2 * (x * s % a1)).take(at[:len(s)])
        index += B
        yield index


def matrix_to_strings(matrix) -> list[str]:
    """Rows rendered as space-separated exponents, 'z' for zero."""
    return [" ".join(Field.element_str(e) for e in row) for row in matrix]
