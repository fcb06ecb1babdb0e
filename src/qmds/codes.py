"""Generator matrices over GF(q^2) and Hermitian Gram computations.

A code artifact is a k-row generalized evaluation matrix: row l evaluates
x^(shift+l) at every point of a weighted evaluation set, scaled per column by
a (q+1)-st root of the column weight so that Hermitian inner products of rows
reproduce the weighted power sums.  The extended variant prepends one border
column that is nonzero only in row 0.

``gram_zero`` is the self-orthogonality check.  Entry (l1, l2) of the
upper triangle is sum_j theta^(B_j + E_j*t) with t = l1 + q*l2, over the
point exponents E_j and B_j = w_j + shift*(q+1)*E_j, plus theta^(b*(q+1))
at (0, 0) for a border entry theta^b.  Every set is a weighted union of
parts (m_i, alpha_i, beta_i), and ``EvalSet`` has checked on construction
that its points are exactly that union, so the
entry is sum_i theta^beta_i * S(M_i, alpha_i + shift*(q+1) + t) with
M_i = N/m_i: the sum S(M, s) of x^s over the subgroup of order M is
M mod p, a unit since M | N, when M | s, and zero otherwise.  For each l2
the l1 <= l2 that part i hits form one residue class mod M_i, so the check
costs O(n + sum_i k^2/M_i), the n being the parts check.  An entry that
several parts hit is tested for zero on the GF(p)-coefficients of its few
distinct theta^beta: each is c_0^j theta^r with r = beta mod N/(p-1), and
two distinct theta^r are independent over GF(p), so when the r number at
most two each r's coefficient is tested on its own (``_beta_basis``).
Every route's set has at most two, so its check searches no modulus;
three or more take ``Field.power_vectors``.  Nothing in this module reads
a field table, so the check runs on fields past 2^22 elements as well.

The result (``gram_nonzero``) is the list of nonzero entries as ascending
keys l1*k + l2, so the check's memory is O(k + hits), not k^2.  The witness
is its first key, the first offending row pair in row-major order, so the
tests' scalar references, which compute each entry directly from the field
arithmetic, and their direct sum over every point cross-check the route
witness for witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionTooLarge, UsageError
from .evalsets import EvalSet
from .field import Elt, Field, mulmod
from .numtheory import least_primitive_root


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
        cols = self.column_scales + mulmod(self.shift + l,
                                           self.evalset.points, N)
        body = tuple((cols % N).tolist())
        if self.has_border:
            return ((self.border_entry if l == 0 else None),) + body
        return body

    def matrix(self) -> tuple[tuple[Elt, ...], ...]:
        return tuple(self.row(l) for l in range(self.k))


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
    the first key of ``gram_nonzero``, in row-major order."""
    keys = gram_nonzero(artifact)
    if keys.size:
        l1, l2 = divmod(int(keys[0]), artifact.k)
        return False, (l1, l2)
    return True, None


def gram_nonzero(artifact: CodeArtifact) -> np.ndarray:
    """Ascending int64 keys l1*k + l2 of the nonzero Gram entries, l1 <= l2.

    Entry (l1, l2) is sum_j theta^(B_j + E_j*(l1 + q*l2)) with
    B_j = w_j + shift*(q+1)*E_j, plus the border term at (0, 0).  It is
    read off the set's parts (``_parts_nonzero``).
    """
    f = artifact.field
    border = None  # the exponent of the border term
    if artifact.has_border and artifact.border_entry is not None:
        border = f.norm(artifact.border_entry)
    return _parts_nonzero(f, artifact.k, artifact.shift,
                          artifact.evalset.parts, border)


def _parts_nonzero(f: Field, k: int, shift: int,
                   parts: tuple[tuple[int, int, int], ...],
                   border: int | None) -> np.ndarray:
    """The keys of ``gram_nonzero`` from the parts: entry (l1, l2) is
    sum_i theta^beta_i * (M_i mod p) * [M_i | c_i + t], with M_i = N/m_i,
    c_i = alpha_i + shift*(q+1) and t = l1 + q*l2, plus theta^border at
    (0, 0).  In row l2 the l1 <= l2 that part i hits are first, first +
    M_i, ..., with first = -(c_i + q*l2) mod M_i.  The hits are sorted by
    key, each adds M_i mod p times the coefficient vector of its
    theta^beta_i on the basis of ``_beta_basis``, and an entry is nonzero
    when its sum has a nonzero coefficient mod p."""
    N, q, p = f.N, f.q, f.p
    betas = sorted({beta for _, _, beta in parts}
                   | ({border} if border is not None else set()))
    vectors = _beta_basis(f, betas)
    l2 = np.arange(k)
    keys, which = [], []  # each hit's entry, and its row of terms
    terms = []  # per part, M mod p times the vector of its theta^beta
    for i, (m, alpha, beta) in enumerate(parts):
        M = N // m
        first = (-((alpha + shift * (q + 1)) % M) - q * l2) % M
        count = (l2 - first + M) // M
        rows = np.repeat(l2, count)
        starts = np.cumsum(count) - count
        cols = np.repeat(first - M * starts, count) + M * np.arange(len(rows))
        keys.append(cols * k + rows)
        which.append(np.full(len(rows), i))
        terms.append(M % p * vectors[betas.index(beta)])
    if border is not None:
        keys.append([0])
        which.append([len(parts)])
        terms.append(vectors[betas.index(border)])
    keys, which = np.concatenate(keys), np.concatenate(which)
    if not len(keys):
        return keys
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(np.array(terms)[which[order]], starts)
    return keys[starts[(sums % p).any(axis=1)]]


def _beta_basis(f: Field, betas: list[int]) -> np.ndarray:
    """int64 coefficient vectors of the theta^beta over GF(p), on a basis
    in which a sum of them is zero exactly when its vector is zero mod p.

    With R = N/(p-1), theta^R = c_0 generates GF(p)*, so theta^beta is
    c_0^j * theta^r with j, r = divmod(beta, R).  Two distinct r below R
    give theta^r independent over GF(p), as their ratio is a power of
    theta that is not in GF(p)*.  So when the distinct r number at most
    two, the theta^r are the basis and row i is c_0^j_i times the unit
    vector of r_i: no modulus is searched.  Three or more take
    ``Field.power_vectors``, which searches the modulus only for an r of
    2h or more."""
    R = f.N // (f.p - 1)
    split = [divmod(beta, R) for beta in betas]
    rs = sorted({r for _, r in split})
    if len(rs) > 2:
        return f.power_vectors(betas)
    c0 = least_primitive_root(f.p)
    out = np.zeros((len(betas), len(rs)), dtype=np.int64)
    for row, (j, r) in enumerate(split):
        out[row, rs.index(r)] = pow(c0, j, f.p)
    return out


def matrix_to_strings(matrix) -> list[str]:
    """Rows rendered as space-separated exponents, 'z' for zero."""
    return [" ".join("z" if e is None else str(e) for e in row)
            for row in matrix]
