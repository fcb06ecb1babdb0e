"""Brute-force reference implementations used only as test oracles.

Everything here is written for clarity over speed.  The polynomial helpers
share no code with the package: polynomials are plain coefficient tuples
(index i is the coefficient of x^i), reduction is long division,
irreducibility is trial division by every lower-degree monic polynomial, and
multiplicative orders are found by repeated multiplication.  Only tiny
fields go through these.  ``rabin_canonical_modulus`` selects the canonical
modulus of larger fields by Rabin's irreducibility test and an explicit
primitivity test, on the same tuples.  The scalar linear-algebra, Gram and
power-sum references and the evaluation-set builders at the end use only a
``Field``'s element-by-element arithmetic, so they check the package's
batched numpy kernels and closed forms against the scalar field operations.
``doubling_exp_table`` is a vectorized reference: it reaches the large
fields that stepping one power at a time cannot.  So is ``direct_sum_mask``,
the Gram mask summed over every point of the arrays by the package's
``packed_sums``: it reaches the sweeps' sets that the scalar sums cannot.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from qmds.codes import CodeArtifact, packed_sums
from qmds.errors import (BadDivisor, HypothesisViolated,
                         NotChar2, NotCoprime, WeightSumVanishes)
from qmds.evalsets import EvalSet
from qmds.field import Elt, Field
from qmds.numtheory import factorize


def trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def poly_add(a, b, p):
    m = max(len(a), len(b))
    out = [0] * m
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(tuple(out))


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return trim(tuple(out))


def poly_mod(a, f, p):
    """Remainder of a modulo f (f need not be monic)."""
    a = list(trim(a))
    f = trim(f)
    dn = len(f) - 1
    lead_inv = pow(f[-1], -1, p)
    while len(a) - 1 >= dn and a:
        c = a[-1] * lead_inv % p
        shift = len(a) - 1 - dn
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        a = list(trim(tuple(a)))
    return trim(tuple(a))


def monic_polys(p: int, deg: int):
    """Every monic polynomial of exact degree deg over GF(p)."""
    for lower in itertools.product(range(p), repeat=deg):
        yield tuple(lower) + (1,)


def naive_is_irreducible(f, p) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg(f)//2."""
    n = len(f) - 1
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for g in monic_polys(p, d):
            if not poly_mod(f, g, p):
                return False
    return True


def naive_order_of_x(f, p) -> int | None:
    """Multiplicative order of x modulo irreducible f, by iteration."""
    n = len(f) - 1
    bound = p**n - 1
    v = poly_mod((0, 1), f, p)
    cur = v
    for e in range(1, bound + 1):
        if cur == (1,):
            return e
        cur = poly_mod(poly_mul(cur, v, p), f, p)
    return None


def naive_canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """Independent re-derivation of the canonical modulus: scan candidates in
    the same digit order and take the first irreducible one with x primitive."""
    for J in range(p**n):
        coeffs = [(J // p ** (n - 1 - i)) % p for i in range(n)]
        if coeffs[0] == 0:
            continue
        f = tuple(coeffs) + (1,)
        if naive_is_irreducible(f, p) and naive_order_of_x(f, p) == p**n - 1:
            return f
    raise AssertionError(f"no candidate found for p={p}, n={n}")


# --------------------------------------------------------------------------
# the canonical modulus by Rabin's irreducibility test followed by the
# primitivity test, on coefficient tuples; fast enough for every q <= 2048
# --------------------------------------------------------------------------

def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return trim(tuple(out))


def _pmod(a, f, p):
    """a mod f for monic f."""
    n = len(f) - 1
    buf = list(a)
    for d in range(len(buf) - 1, n - 1, -1):
        c = buf[d]
        if c:
            buf[d] = 0
            for i in range(n):
                buf[d - n + i] = (buf[d - n + i] - c * f[i]) % p
    return trim(tuple(buf))


def _pmulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(base, e, f, p):
    result = (1,)
    acc = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, acc, f, p)
        acc = _pmulmod(acc, acc, f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = tuple(c * inv % p for c in b)  # monic version of b
        a, b = b, _pmodm(a, bm, p)
    return a


def _pmodm(a, f, p):
    if not f:
        return trim(a)
    if len(f) == 1:
        return ()
    return _pmod(a, f, p)


def _is_irreducible(f, p):
    """Monic f of degree n >= 1 irreducible over GF(p)."""
    n = len(f) - 1
    x = (0, 1)
    powers = []
    t = x
    for _ in range(n):
        t = _ppowmod(t, p, f, p)
        powers.append(t)  # powers[i-1] = x^(p^i) mod f
    if powers[n - 1] != _pmod(x, f, p):
        return False
    for r in set(factorize(n)):
        g = _psub(powers[n // r - 1], x, p)
        if len(_pgcd(f, g, p)) > 1:
            return False
    return True


def _psub(a, b, p):
    m = max(len(a), len(b))
    out = [0] * m
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(tuple(out))


def _x_is_primitive(f, p, n_factors):
    N = p ** (len(f) - 1) - 1
    for r in n_factors:
        if _ppowmod((0, 1), N // r, f, p) == (1,):
            return False
    return True


def rabin_canonical_modulus(p: int, n: int, n_factors: tuple[int, ...]) -> tuple[int, ...]:
    """First monic degree-n polynomial (in digit order, constant coefficient
    most significant) that passes Rabin's irreducibility test and then has
    x primitive; ``qmds.field.canonical_modulus`` must select the same
    polynomial by the order of x alone.

    Whole c_0 blocks are skipped when (-1)^n c_0 — the norm of x down to
    GF(p) — fails to generate GF(p)*, a necessary condition for x to be
    primitive; this prunes only candidates the explicit order test would
    reject, so the selected polynomial is unchanged.
    """
    pm1_factors = tuple(factorize(p - 1)) if p > 2 else ()
    sign = 1 if n % 2 == 0 else -1
    for c0 in range(1, p):
        norm_x = sign * c0 % p
        if any(pow(norm_x, (p - 1) // r, p) == 1 for r in pm1_factors):
            continue
        for rest in range(p ** (n - 1)):
            coeffs = [c0] + [0] * (n - 1)
            rem = rest
            for i in range(1, n):  # c_1 is the most significant digit of rest
                coeffs[i] = (rem // p ** (n - 1 - i)) % p
            f = tuple(coeffs) + (1,)
            if _is_irreducible(f, p) and _x_is_primitive(f, p, n_factors):
                return f
    raise AssertionError(f"no candidate found for p={p}, n={n}")


class PolyModel:
    """GF(p^n) as coefficient tuples modulo an explicit monic polynomial."""

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = len(modulus) - 1
        self.f = modulus

    def add(self, a, b):
        return poly_add(a, b, self.p)

    def mul(self, a, b):
        return poly_mod(poly_mul(a, b, self.p), self.f, self.p)

    def x_powers(self) -> list[tuple[int, ...]]:
        """x^0 .. x^(p^n - 2)."""
        out = [(1,)]
        for _ in range(self.p**self.n - 2):
            out.append(self.mul(out[-1], (0, 1)))
        return out


def shared_weight_obstructions(q: int, m1: int, m2: int) -> tuple[int, ...]:
    """Every exponent H must avoid in the mixed union, by enumeration: on
    each shared point x (exponent a multiple of lcm(m1, m2)) the combined
    weight is a(a + H) with a = x^((q+1)/2), so H = -a is forbidden."""
    N = q * q - 1
    L = math.lcm(m1, m2)
    bad = set()
    for e in range(0, N, L):
        bad.add((N // 2 + e * (q + 1) // 2) % N)
    return tuple(sorted(bad))


def scan_first_violation(M: int, s: int, q: int) -> int:
    """Smallest max(t1, t2) over solutions of s + t1 + t2*q = 0 (mod M), by
    scanning t2 upwards: each t2 has best partner t1 = (-s - t2*q) mod M,
    and no t2 beyond the best bound so far can improve on it."""
    best = (-s) % M
    t2 = 1
    while t2 < best:
        best = min(best, max(t2, (-s - t2 * q) % M))
        t2 += 1
    return best


def brute_first_violation(M: int, s: int, q: int) -> int:
    """Reference implementation: grow B until a solution appears."""
    for B in range(M + 1):
        for t2 in range(B + 1):
            if (-s - t2 * q) % M <= B:
                return B
    raise AssertionError("unreachable")  # pragma: no cover


def trial_division_sweep_params(construction: str, q: int) -> list[dict]:
    """The parameter choices a sweep tries at q, in its order, found by
    trial division of q + 1 and q - 1 over every candidate below q + 2.
    mixed_union lists every pair; the sweep drops those without a shift."""
    odd = [m for m in range(3, q + 2, 2) if (q + 1) % m == 0]
    even = [m for m in range(2, q, 2) if (q - 1) % m == 0]
    even6 = [m for m in range(6, q, 2) if (q - 1) % m == 0]
    if construction in ("c1", "c1_ext"):
        return [{"m": m} for m in odd]
    if construction in ("char2_union", "odd_union"):
        return [{"m1": m1, "m2": m2} for i, m1 in enumerate(odd)
                for m2 in odd[i + 1:] if math.gcd(m1, m2) == 1]
    if construction == "half_power":
        return [{"m": m} for m in even6]
    if construction == "half_power_union":
        return [{"ms": (m1, m2)} for i, m1 in enumerate(even6)
                for m2 in even6[i + 1:] if math.lcm(m1, m2) == q - 1]
    if construction == "mixed_union":
        return [{"m1": m1, "m2": m2} for m1 in odd for m2 in even]
    raise ValueError(f"unknown construction {construction!r}")


def stepping_tables(p: int, n: int, modulus) -> tuple[list, list]:
    """exp and log tables of GF(p^n) by stepping theta^e -> theta^(e+1) one
    coefficient vector at a time (exp packs coefficient i as digit i in base
    p; log maps a packed vector to its exponent and the zero vector to -1)."""
    q2 = p ** n
    weights = [p ** i for i in range(n)]
    exp = []
    cur = [1] + [0] * (n - 1)
    for _ in range(q2 - 1):
        exp.append(sum(c * w for c, w in zip(cur, weights)))
        top = cur[n - 1]
        for i in range(n - 1, 0, -1):
            cur[i] = (cur[i - 1] - top * modulus[i]) % p
        cur[0] = (-top * modulus[0]) % p
    log = [-1] * q2
    for e, v in enumerate(exp):
        log[v] = e
    return exp, log


def doubling_exp_table(p: int, n: int, modulus) -> np.ndarray:
    """Packed theta^e for e in [0, p^n - 1), by doubling: P holds the
    coefficient rows of theta^0 .. theta^(L-1) and S the matrix of
    multiplication by theta^L, so P @ S holds theta^L .. theta^(2L-1).
    The int32 products are exact: each sum is at most n(p-1)^2 < 2^27
    whenever p^n <= 2^22."""
    S = np.zeros((n, n), dtype=np.int32)
    S[np.arange(n - 1), np.arange(1, n)] = 1  # x * x^i = x^(i+1)
    S[n - 1] = [(-c) % p for c in modulus[:n]]  # x^n = -sum f_i x^i
    N = p ** n - 1
    P = np.zeros((N, n), dtype=np.int32)
    P[0, 0] = 1
    L = 1
    while L < N:
        m = min(L, N - L)
        np.remainder(P[:m] @ S, p, out=P[L:L + m])
        S = S @ S % p
        L += m
    return P @ p ** np.arange(n, dtype=np.int32)


def rank(field, matrix) -> int:
    """Rank by scalar Gaussian elimination."""
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] is not None),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        for i in range(r + 1, len(rows)):
            if rows[i][c] is not None:
                factor = field.mul(rows[i][c], inv)
                rows[i] = [field.sub(a, field.mul(factor, b))
                           for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def is_nonsingular(field, square) -> bool:
    """Nonsingularity of a square matrix by scalar Gaussian elimination."""
    rows = [list(r) for r in square]
    k = len(rows)
    for c in range(k):
        piv = next((i for i in range(c, k) if rows[i][c] is not None), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = field.inv(rows[c][c])
        for i in range(c + 1, k):
            if rows[i][c] is not None:
                factor = field.mul(rows[i][c], inv)
                rows[i] = [field.sub(a, field.mul(factor, b))
                           for a, b in zip(rows[i], rows[c])]
    return True


def minors_scan(field, matrix) -> tuple[bool, int, tuple[int, ...] | None]:
    """(is_mds, minors checked, witness) of a scan of every maximal minor in
    combinations order that stops at the first singular one."""
    rows = [tuple(r) for r in matrix]
    k, n = len(rows), len(rows[0])
    checked = 0
    for cols in itertools.combinations(range(n), k):
        checked += 1
        if not is_nonsingular(field, [[row[c] for c in cols] for row in rows]):
            return False, checked, cols
    return True, checked, None


def scalar_min_weight(field, rows) -> int:
    """Minimum weight over all nonzero messages, one codeword at a time.

    The messages are walked depth first, a row per level: every multiple
    c*row of each row is computed once, and a level adds one of them to the
    partial codeword of the levels above, so messages that agree on their
    leading coordinates share those partial sums.  Every sum is a
    ``Field.add`` result, memoized per pair of summands (at most q^4
    entries, for the tiny fields that come here)."""
    k, n = len(rows), len(rows[0])
    elems = [None] + list(range(field.q2 - 1))
    multiples = [[tuple(field.mul(c, x) for x in row) for c in elems]
                 for row in rows]
    add = functools.cache(field.add)
    best = n

    def walk(level, acc, nonzero):
        nonlocal best
        if level == k:
            if nonzero:
                best = min(best, n - acc.count(None))
            return
        walk(level + 1, acc, nonzero)  # coordinate 0 adds nothing
        for mult in multiples[level][1:]:
            walk(level + 1, list(map(add, acc, mult)), True)

    walk(0, [None] * n, False)
    return best


# --------------------------------------------------------------------------
# Hermitian inner products and Gram matrices, one scalar field operation at
# a time; each Gram check reports the first nonzero upper-triangle entry in
# row-major order, as ``qmds.codes.gram_zero`` does
# --------------------------------------------------------------------------

def hermitian_ip(field: Field, u: tuple[Elt, ...], v: tuple[Elt, ...]) -> Elt:
    """<u, v> = sum_i u_i * v_i^q."""
    if len(u) != len(v):
        raise ValueError(f"lengths {len(u)} != {len(v)}")
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
    for e, w in zip(evalset.points.tolist(), evalset.weights.tolist()):
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


def direct_sum_mask(f: Field, k: int, B: np.ndarray, E: np.ndarray,
                    border: int) -> np.ndarray:
    """k x k upper-triangular mask of the nonzero entries
    sum_j theta^(B_j + E_j*t), t = l1 + q*l2, for exponents
    0 <= B_j, E_j < N, plus the packed vector ``border`` at (0, 0) (0 for
    none): the direct sum of every entry over every point, by
    ``packed_sums`` in blocks of about 2^16 terms.  It reads the field's
    tables, so it takes fields up to 2^22 elements."""
    N, q, p = f.N, f.q, f.p
    B, E = np.asarray(B, dtype=np.int64), np.asarray(E, dtype=np.int64)
    l1, l2 = np.triu_indices(k)
    t = (l1 + q * l2) % N
    sums = np.zeros(len(t), dtype=np.int64)  # an empty set sums to zero
    step = max(1, (1 << 16) // max(1, len(E)))
    for lo in range(0, len(t) if len(E) else 0, step):
        sums[lo:lo + step] = packed_sums(
            f, B + E * t[lo:lo + step, None] % N, [0])[:, 0]
    if border and len(t):  # the packed vectors added digit by digit
        a, b = int(sums[0]), int(border)
        sums[0] = sum((a // p ** d + b // p ** d) % p * p ** d
                      for d in range(2 * f.h))
    mask = np.zeros((k, k), dtype=bool)
    mask[l1, l2] = sums != 0
    return mask


# --------------------------------------------------------------------------
# power sums over subgroups, by direct accumulation
# --------------------------------------------------------------------------

def _check_divisor(field: Field, m: int) -> int:
    if m < 1 or field.N % m != 0:
        raise BadDivisor(f"m = {m} does not divide {field.N}")
    return field.N // m


def subgroup_power_sum(field: Field, m: int, t: int) -> Elt:
    """S(m, t) by direct accumulation over the order-N/m subgroup."""
    order = _check_divisor(field, m)
    acc: Elt = None
    for j in range(1, order + 1):
        acc = field.add(acc, (j * t * m) % field.N)
    return acc


def union_power_sum_char2(field: Field, ms: tuple[int, ...], t: int) -> Elt:
    """Sum of u^t over the char-2 parity-filtered union of subgroups.

    Points lying in an even number of the subgroups M_{m_i} cancel in
    characteristic two, so only odd-membership points contribute.  Divisors
    must be pairwise coprime.
    """
    if field.p != 2:
        raise NotChar2("parity-filtered union needs characteristic 2")
    for m in ms:
        _check_divisor(field, m)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if math.gcd(ms[i], ms[j]) != 1:
                raise NotCoprime(f"gcd({ms[i]}, {ms[j]}) != 1")
    acc: Elt = None
    for e in range(field.N):
        hits = sum(1 for m in ms if e % m == 0)
        if hits % 2 == 1:
            acc = field.add(acc, (e * t) % field.N)
    return acc


# --------------------------------------------------------------------------
# evaluation sets: dict-and-loop builders, one point and one scalar field
# addition at a time; each returns (points, weights) as tuples of ints
# --------------------------------------------------------------------------

def _subgroup_exponents(field, m: int) -> range:
    if m < 1 or field.N % m != 0:
        raise HypothesisViolated(f"m = {m} does not divide {field.N}")
    return range(0, field.N, m)


def subgroup_set(field, m: int) -> tuple[tuple, tuple]:
    """The order-N/m subgroup with unit weights."""
    pts = tuple(_subgroup_exponents(field, m))
    return pts, (0,) * len(pts)


def parity_union_char2(field, ms: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Char-2 union keeping points that lie in an odd number of subgroups."""
    if field.p != 2:
        raise NotChar2("parity-filtered union needs characteristic 2")
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if math.gcd(ms[i], ms[j]) != 1:
                raise NotCoprime(f"gcd({ms[i]}, {ms[j]}) != 1")
    members: dict[int, list[int]] = {}
    for i, m in enumerate(ms):
        for e in _subgroup_exponents(field, m):
            members.setdefault(e, []).append(i)
    pts = tuple(sorted(e for e, hit in members.items() if len(hit) % 2 == 1))
    return pts, (0,) * len(pts)


def weighted_union(field, parts: tuple[tuple[int, int, int], ...],
                   label: str,
                   vanish_error: type[HypothesisViolated] = WeightSumVanishes,
                   ) -> tuple[tuple, tuple]:
    """Full union where part (m, alpha, beta) weights its subgroup by
    theta^beta * x^alpha; overlap points get the sum of their parts'
    weights.  A point whose combined weight is zero is left out in
    characteristic 2; otherwise it raises ``vanish_error``."""
    members: dict[int, list[int]] = {}
    for i, (m, _, _) in enumerate(parts):
        for e in _subgroup_exponents(field, m):
            members.setdefault(e, []).append(i)
    pts, weights = [], []
    for e in sorted(members):
        w = None
        for i in members[e]:
            _, alpha, beta = parts[i]
            w = field.add(w, (beta + alpha * e) % field.N)
        if w is None:
            if field.p == 2:
                continue
            raise vanish_error(
                f"combined weight vanishes at point exponent {e} ({label})")
        pts.append(e)
        weights.append(w)
    return tuple(pts), tuple(weights)
