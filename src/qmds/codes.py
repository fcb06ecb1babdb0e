"""Generator matrices over GF(q^2) and Hermitian Gram computations.

A code artifact is a k-row generalized evaluation matrix: row l evaluates
x^(shift+l) at every point of a weighted evaluation set, scaled per column by
a (q+1)-st root of the column weight so that Hermitian inner products of rows
reproduce the weighted power sums.  The extended variant prepends one border
column that is nonzero only in row 0.

``gram_zero`` is the self-orthogonality check.  On table-mode fields it
runs ``gram_zero_vectorized``, which computes every entry of the upper
triangle, with one route per field regime.  For p = 2 it splits each point
exponent modulo q - 1 and q + 1 (coprime for even q, with product q^2 - 1)
and sums in two stages: first over the points of each class mod q + 1, then
over the classes, XOR-reducing packed int32 coefficient masks throughout.
For odd p float64 matmuls of base-p coefficient planes give every entry at
once, exact because each sum stays below 2^53.  The scalar and structured
checks compute each entry directly from the field arithmetic.  Every route
reports the first offending row pair in row-major order as its witness, so
they can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (CapacityExceeded, DimensionTooLarge, LengthMismatch,
                     UsageError)
from .evalsets import EvalSet, subgroup_set
from .field import Elt, Field

# Columns per chunk of the odd-p Gram route.  It bounds what a chunk
# gathers, whatever n is: two (2h*k) x GRAM_CHUNK float64 plane stacks.
GRAM_CHUNK = 128

# Elements per block of the p = 2 Gram route's int32 index and mask arrays;
# a stage-1 block takes at least one whole row of n points.
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
    label: str = ""
    has_border: bool = False
    border_entry: Elt = None

    @property
    def n(self) -> int:
        return len(self.evalset) + (1 if self.has_border else 0)

    @cached_property
    def column_scales(self) -> tuple[int, ...]:
        """Exponent of the (q+1)-st root of each column weight."""
        return tuple(self.field.norm_root(w) for w in self.evalset.weights)

    def row(self, l: int) -> tuple[Elt, ...]:
        N = self.field.N
        body = tuple((t + (self.shift + l) * e) % N
                     for t, e in zip(self.column_scales, self.evalset.points))
        if self.has_border:
            return ((self.border_entry if l == 0 else None),) + body
        return body

    def matrix(self) -> tuple[tuple[Elt, ...], ...]:
        return tuple(self.row(l) for l in range(self.k))


def eval_code(field: Field, evalset: EvalSet, k: int, shift: int,
              label: str = "") -> CodeArtifact:
    """Rows x^(shift+l), l = 0..k-1, evaluated over the weighted set."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if k > len(evalset):
        raise DimensionTooLarge(f"k = {k} exceeds length {len(evalset)}")
    return CodeArtifact(field, evalset, k, shift, label)


def extend_c1(field: Field, m: int, k: int) -> CodeArtifact:
    """Length-(n+1) extension of the subgroup code: rows 1, x, .., x^(k-1)
    plus a border column (b, 0, .., 0)^T.

    The border weight is forced by self-orthogonality of row 0: with column
    weight v0 = m mod p the (0,0) Gram entry is v0 * c^2 + n = 0 mod p,
    where c = ((q+1)/m) mod p is the border coordinate before scaling.
    """
    if k < 2:
        raise UsageError(f"extended code needs k >= 2, got {k}")
    es = subgroup_set(field, m)
    if k > len(es) + 1:
        raise DimensionTooLarge(f"k = {k} exceeds length {len(es) + 1}")
    v0 = field.embed_int(m % field.p)
    c = field.embed_int(((field.q + 1) // m) % field.p)
    border = field.mul(field.norm_root(v0), c)
    return CodeArtifact(field, es, k, shift=0, label=f"extended(m={m})",
                        has_border=True, border_entry=border)


# --------------------------------------------------------------------------
# Hermitian inner products and Gram matrices
# --------------------------------------------------------------------------

def hermitian_ip(field: Field, u: tuple[Elt, ...], v: tuple[Elt, ...]) -> Elt:
    """<u, v> = sum_i u_i * v_i^q."""
    if len(u) != len(v):
        raise LengthMismatch(f"lengths {len(u)} != {len(v)}")
    acc: Elt = None
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, field.frobenius_q(b)))
    return acc


def gram_hermitian(field: Field, matrix) -> tuple[tuple[Elt, ...], ...]:
    """Full Hermitian Gram matrix of the rows."""
    rows = [tuple(r) for r in matrix]
    return tuple(tuple(hermitian_ip(field, ri, rj) for rj in rows)
                 for ri in rows)


def gram_zero_scalar(field: Field, matrix) -> tuple[bool, tuple[int, int] | None]:
    """Scalar check that the Gram matrix vanishes.

    Only the upper triangle is computed: <r_j, r_i> = <r_i, r_j>^q, so the
    Gram matrix is zero iff its upper triangle is.
    """
    rows = [tuple(r) for r in matrix]
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            if hermitian_ip(field, rows[i], rows[j]) is not None:
                return False, (i, j)
    return True, None


def weighted_pair_sum(field: Field, evalset: EvalSet, shift: int,
                      l1: int, l2: int) -> Elt:
    """Gram entry (l1, l2) straight from the weighted power-sum form:
    sum_j w_j * x_j^((q+1)shift + l1 + q*l2)."""
    N = field.N
    expo = ((field.q + 1) * shift + l1 + field.q * l2) % N
    acc: Elt = None
    for e, w in zip(evalset.points, evalset.weights):
        acc = field.add(acc, (w + e * expo) % N)
    return acc


def gram_entry(artifact: CodeArtifact, l1: int, l2: int) -> Elt:
    """Gram entry (l1, l2) of an artifact, including any border column."""
    f = artifact.field
    val = weighted_pair_sum(f, artifact.evalset, artifact.shift, l1, l2)
    if artifact.has_border and l1 == 0 and l2 == 0:
        b = artifact.border_entry
        val = f.add(val, f.mul(b, f.frobenius_q(b)))
    return val


def gram_zero_structured(artifact: CodeArtifact) -> tuple[bool, tuple[int, int] | None]:
    """Scalar Gram check in structured form (no matrix materialization)."""
    for l1 in range(artifact.k):
        for l2 in range(l1, artifact.k):
            if gram_entry(artifact, l1, l2) is not None:
                return False, (l1, l2)
    return True, None


def gram_zero_vectorized(artifact: CodeArtifact) -> tuple[bool, tuple[int, int] | None]:
    """Vectorized Gram check (table-mode fields).  The witness is the first
    nonzero entry of ``gram_nonzero_mask`` in row-major order."""
    hits = np.flatnonzero(gram_nonzero_mask(artifact))
    if hits.size:
        l1, l2 = divmod(int(hits[0]), artifact.k)
        return False, (l1, l2)
    return True, None


def gram_nonzero_mask(artifact: CodeArtifact) -> np.ndarray:
    """k x k boolean mask of the nonzero upper-triangle Gram entries, on
    exponent arrays (table-mode fields).

    Entry (l1, l2) is sum_j X[l1, j] * Y[l2, j] with X[l1, j] =
    theta^(B_j + l1*E_j), Y[l2, j] = theta^(q*l2*E_j) and
    B_j = w_j + shift*(q+1)*e_j.  Every entry is computed: for p = 2 by
    two gather stages over the exponents split mod q - 1 and q + 1, with
    XOR-reductions of int32 coefficient masks (``_gram_bad_char2``); for
    odd p by float64 matmuls of coefficient planes in column chunks
    (``_gram_bad_odd``).
    """
    f = artifact.field
    N, q = f.N, f.q
    E = np.asarray(artifact.evalset.points, dtype=np.int64)
    W = np.asarray(artifact.evalset.weights, dtype=np.int64)
    B = (W + (artifact.shift * (q + 1) % N) * E) % N
    QE = (E * q) % N
    border_packed = 0
    if artifact.has_border:
        b = artifact.border_entry
        border_packed = f.backend.exp_packed(f.mul(b, f.frobenius_q(b)))
    route = _gram_bad_char2 if f.p == 2 else _gram_bad_odd
    return route(f, artifact.k, B, E, QE, border_packed)


def _gram_bad_char2(f: Field, k: int, B: np.ndarray, E: np.ndarray,
                    QE: np.ndarray, border_packed: int) -> np.ndarray:
    """k x k upper-triangular mask of the nonzero Gram entries, p = 2.

    Entry (l1, l2) is sum_j theta^(B_j + E_j*t) with t = l1 + q*l2.  For
    even q, N = a1*a2 with a1 = q - 1 and a2 = q + 1 coprime, so each point
    exponent splits as E_j = a2*e1_j + a1*e2_j (mod N), and t is l1 + l2
    mod a1 and l1 - l2 mod a2.  With s = (l1 + l2) mod a1 and
    d = (l1 - l2) mod a2 the term is theta^(B_j + a2*(e1_j*s mod a1))
    times theta^(a1*(e2_j*d mod a2)).  Stage 1 sums the first factor over
    the points of each class e2_j = g:
    R[s, g] = sum_(e2_j = g) theta^(B_j + a2*(e1_j*s mod a1)).  Stage 2
    sums entry(l1, l2) = sum_g R[s, g] * theta^(a1*(g*d mod a2)) over the
    nonzero R[s, g], one antidiagonal l1 + l2 = T at a time, since s
    depends on T only.  Every term is still summed exactly; over GF(2)
    a sum is the XOR of the packed masks of its terms, and every gathered
    exponent is below 2N, the length of the mask table.  All index
    arithmetic is int32: table mode has q <= 2^11, so every product is
    below (q+1)^2 and every index below 2N, both under 2^23.
    """
    q, n = f.q, len(E)
    a1, a2 = q - 1, q + 1
    mask = f.np_mask_ext()
    E = E.astype(np.int32)
    e1 = E % a1 * pow(a2, -1, a1) % a1
    e2 = E % a2 * pow(a1, -1, a2) % a2
    order = np.argsort(e2, kind="stable")
    e1, B = e1[order], B[order].astype(np.int32)
    g, starts = np.unique(e2[order], return_index=True)

    n_s = min(a1, 2 * k - 1)
    R = np.empty((n_s, len(g)), dtype=mask.dtype)
    step = max(1, GRAM_BLOCK // n)
    for s0 in range(0, n_s, step):
        s = np.arange(s0, min(s0 + step, n_s), dtype=np.int32)[:, None]
        terms = mask.take(B + a2 * (e1 * s % a1))
        R[s0:s0 + step] = np.bitwise_xor.reduceat(terms, starts, axis=1)

    logR = np.asarray(f.backend.log, dtype=np.int32)[R]
    acc = np.zeros((k, k), dtype=mask.dtype)
    for T in range(2 * k - 1):
        live = logR[T % a1] >= 0
        if not live.any():
            continue
        gs, logs = g[live], logR[T % a1, live]
        step = max(1, GRAM_BLOCK // len(gs))
        for lo in range(max(0, T - k + 1), T // 2 + 1, step):
            l1 = np.arange(lo, min(lo + step, T // 2 + 1), dtype=np.int32)
            d = ((2 * l1 - T) % a2)[:, None]
            terms = mask.take(logs + a1 * (d * gs % a2))
            acc[l1, T - l1] = np.bitwise_xor.reduce(terms, axis=1)
    acc[0, 0] ^= border_packed
    return acc != 0


def _gram_bad_odd(f: Field, k: int, B: np.ndarray, E: np.ndarray,
                  QE: np.ndarray, border_packed: int) -> np.ndarray:
    """k x k upper-triangular mask of the nonzero Gram entries, odd p.

    With X_d and Y_d the degree-d coefficient planes of X and Y, the
    coefficient of t^s in the unreduced product sum is C_s = sum over
    d1 + d2 = s of X_d1 @ Y_d2^T.  Per chunk of c columns, one matmul of
    X_d1 (k x c) with the whole (2h*k) x c stack of Y yields the blocks
    (d1, d2) for every d2, which are folded into C_(d1+d2).  The float64
    sums are exact because every partial sum is an integer at most
    2h*n*(p-1)^2 < 2^53.  C is then reduced mod p, and degrees 2h..4h-2 by
    the monic modulus t^2h = -sum f_i t^i.
    """
    p, N, h2, n = f.p, f.N, 2 * f.h, len(E)
    if h2 * n * (p - 1) ** 2 >= 1 << 53:
        raise CapacityExceeded(f"2h*n*(p-1)^2 = {h2 * n * (p - 1) ** 2} "
                               "is not exact in float64")
    planes = f.np_planes()
    rows = np.arange(k, dtype=np.int64)[:, None]
    C = np.zeros((2 * h2 - 1, k, k))
    for a in range(0, n, GRAM_CHUNK):
        cols = slice(a, a + GRAM_CHUNK)
        U = rows * E[cols]
        U += B[cols]
        X = np.take(planes, np.remainder(U, N, out=U), axis=1)
        np.multiply(rows, QE[cols], out=U)
        Y = np.take(planes, np.remainder(U, N, out=U), axis=1)
        Y = Y.reshape(h2 * k, -1).T
        for d1 in range(h2):
            blocks = (X[d1] @ Y).reshape(k, h2, k)
            for d2 in range(h2):
                C[d1 + d2] += blocks[:, d2]
    np.fmod(C, p, out=C)
    low = np.asarray(f.modulus[:h2], dtype=np.float64)[:, None, None]
    for s in range(2 * h2 - 2, h2 - 1, -1):
        C[s - h2:s] -= low * np.fmod(C[s], p)
    C = C[:h2]
    for d in range(h2):
        C[d, 0, 0] += border_packed // p ** d % p
    return np.triu((np.fmod(C, p) != 0).any(axis=0))


def gram_zero(artifact: CodeArtifact) -> tuple[bool, tuple[int, int] | None]:
    """Dispatch: vectorized when the field has tables, structured otherwise."""
    if artifact.field.mode == "table":
        return gram_zero_vectorized(artifact)
    return gram_zero_structured(artifact)


def matrix_to_strings(matrix) -> list[str]:
    """Rows rendered as space-separated exponents, 'z' for zero."""
    return [" ".join(Field.element_str(e) for e in row) for row in matrix]
