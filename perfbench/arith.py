"""Independent arithmetic for checking qmds outputs.

Nothing here imports qmds.  Each quantity the benchmark checks is derived
again from the definitions, by code written apart from the program:

  * factoring by trial division, primality by Miller-Rabin, prime powers by
    integer k-th roots (exact for every 64-bit input);
  * code lengths by inclusion-exclusion with math.lcm, with the
    parity-weighted count for the characteristic-2 union;
  * the vanishing conditions (M, s) of each construction, derived from its
    evaluation set and column weights, and the sharp dimension bound they
    give, found by a vectorized scan over t2;
  * the admissible subfield shift H of the mixed union, from the closed-form
    forbidden coset;
  * irreducibility and primitivity of a field modulus, with polynomial
    arithmetic over GF(p).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SCAN_CHUNK = 1 << 18


# --------------------------------------------------------------------------
# integers
# --------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact below 3.3 * 10^24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(n: int, e: int) -> int:
    """Largest r with r^e <= n, in integer arithmetic only."""
    if n < 2 or e == 1:
        return n
    r = 1 << ((n.bit_length() + e - 1) // e)  # r^e >= n
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            break
        r = s
    while r ** e > n:
        r -= 1
    return r


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e and p prime, or None."""
    for e in range(max(n.bit_length(), 1), 0, -1):
        r = iroot(n, e)
        if r >= 2 and r ** e == n and is_prime(r):
            return r, e
    return None


def factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n up to about 10^14)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, a in factor(n).items():
        ds = [d * p ** i for d in ds for i in range(a + 1)]
    return sorted(ds)


# --------------------------------------------------------------------------
# lengths, conditions, dimension bound
# --------------------------------------------------------------------------

def union_length(N: int, ms, parity: bool = False) -> int:
    """Points in the union of the subgroups of index m in Z_N^*.

    The full union counts each point once.  The parity union keeps only the
    points that lie in an odd number of subgroups; a point in exactly j of
    them is counted by inclusion-exclusion with weight (-2)^(i-1) on the
    i-fold intersections, which sums to 1 for odd j and 0 for even j.
    """
    total = 0
    for size in range(1, len(ms) + 1):
        weight = (-2) ** (size - 1) if parity else (-1) ** (size - 1)
        for chosen in itertools.combinations(ms, size):
            total += weight * (N // math.lcm(*chosen))
    return total


def code_length(kind: str, q: int, params: dict) -> int:
    N = q * q - 1
    if kind == "c1":
        return N // params["m"]
    if kind == "char2_union":
        return union_length(N, (params["m1"], params["m2"]), parity=True)
    if kind in ("odd_union", "mixed_union"):
        return union_length(N, (params["m1"], params["m2"]))
    if kind == "half_power_union":
        return union_length(N, tuple(params["ms"]))
    raise ValueError(kind)


def conditions(kind: str, q: int, params: dict) -> list[tuple[int, int]]:
    """Vanishing conditions (M, s) from the construction's definition.

    Row l evaluates x^(shift + l) on a subgroup G of order M, scaled by a
    (q+1)-st root of the column weight x^a.  Gram entry (t1, t2) is then
    sum over G of x^(s + t1 + q*t2) with s = (q+1)*shift + a, which vanishes
    iff M does not divide the exponent.  c1 and the odd-subgroup unions use
    shift 1 and unit weights (s = q+1); the half-power parts use shift 0
    and weight x^((q+1)/2); the mixed union's odd part uses weight x^(q+1).
    """
    N = q * q - 1
    half = (q + 1) // 2
    if kind == "c1":
        return [(N // params["m"], q + 1)]
    if kind in ("char2_union", "odd_union"):
        return [(N // params["m1"], q + 1), (N // params["m2"], q + 1)]
    if kind == "half_power_union":
        return [(N // m, half) for m in params["ms"]]
    if kind == "mixed_union":
        return [(N // params["m1"], q + 1), (N // params["m2"], half)]
    raise ValueError(kind)


def sharp_bound(conds, q: int) -> int:
    """Smallest B such that some condition has a solution of
    s + t1 + q*t2 = 0 (mod M) with max(t1, t2) = B.

    For fixed t2 the smallest t1 is (-s - q*t2) mod M; t2 is scanned in
    vectorized chunks until it passes the best bound found so far.
    """
    best_all = None
    for M, s in conds:
        best = (-s) % M
        lo = 1
        while lo < best:
            hi = min(best, lo + _SCAN_CHUNK)
            t2 = np.arange(lo, hi, dtype=np.int64)
            t1 = np.remainder(-s - t2 * q, M)
            best = min(best, int(np.maximum(t1, t2).min()))
            lo = hi
        best_all = best if best_all is None else min(best_all, best)
    return best_all


def full_dimension(kind: str, q: int, params: dict) -> int:
    """Dimension a certificate takes when no k is given."""
    return min(sharp_bound(conditions(kind, q, params), q),
               code_length(kind, q, params))


def quantum_triple(n: int, k: int) -> tuple[int, int, int]:
    return (n, n - 2 * k, k + 1)


# --------------------------------------------------------------------------
# the mixed-union shift H
# --------------------------------------------------------------------------

def h_coset_step(q: int, m1: int, m2: int) -> int:
    """The forbidden H exponents are N/2 + j*g (mod N), j in Z.

    A shared point x = theta^e has e a multiple of L = lcm(m1, m2) and
    combined weight a(a + H) with a = x^((q+1)/2); H = -a is forbidden,
    i.e. exponent N/2 + e(q+1)/2.  Those form the coset of the subgroup of
    Z_N generated by L(q+1)/2, whose step is its gcd with N.
    """
    N = q * q - 1
    return math.gcd(N, math.lcm(m1, m2) * (q + 1) // 2)


def h_is_forbidden(q: int, g: int, H: int) -> bool:
    return (H - (q * q - 1) // 2) % g == 0


def expected_h(q: int, m1: int, m2: int) -> int | None:
    """Smallest subfield exponent t(q+1), 0 <= t < q-1, off the coset."""
    g = h_coset_step(q, m1, m2)
    for t in range(q - 1):
        if not h_is_forbidden(q, g, t * (q + 1)):
            return t * (q + 1)
    return None


def h_is_valid(q: int, m1: int, m2: int, H) -> bool:
    """H is a subfield exponent off the coset and every smaller one is on it."""
    N = q * q - 1
    if not isinstance(H, int) or not 0 <= H < N or H % (q + 1):
        return False
    g = h_coset_step(q, m1, m2)
    if h_is_forbidden(q, g, H):
        return False
    return all(h_is_forbidden(q, g, t * (q + 1)) for t in range(H // (q + 1)))


# --------------------------------------------------------------------------
# admissible divisor choices (sweeps)
# --------------------------------------------------------------------------

def c1_divisors(q: int) -> list[int]:
    return [m for m in divisors(q + 1) if m % 2 == 1 and m >= 3]


def mixed_pairs(q: int) -> list[tuple[int, int]]:
    """(m1, m2): odd m1 >= 3 dividing q+1, even m2 dividing q-1, with a
    valid shift H."""
    m1s = c1_divisors(q)
    m2s = [m for m in divisors(q - 1) if m % 2 == 0]
    return [(a, b) for a in m1s for b in m2s if expected_h(q, a, b) is not None]


def mixed_sweep_work(q: int) -> int:
    """Shared-point exponents the program's H search enumerates in a
    mixed-union sweep at q: N / lcm(m1, m2) summed over the pairs."""
    N = q * q - 1
    m2s = [m for m in divisors(q - 1) if m % 2 == 0]
    return sum(N // math.lcm(a, b) for a in c1_divisors(q) for b in m2s)


# --------------------------------------------------------------------------
# polynomials over GF(p), coefficient lists low -> high
# --------------------------------------------------------------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymulmod(a, b, f, p):
    n = len(f) - 1
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c:
            for i in range(n + 1):
                prod[d - n + i] = (prod[d - n + i] - c * f[i]) % p
    return _trim(prod[:n])


def _polypowmod(a, e, f, p):
    out, base = [1], list(a)
    while e:
        if e & 1:
            out = _polymulmod(out, base, f, p)
        base = _polymulmod(base, base, f, p)
        e >>= 1
    return out


def _polygcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = (a[shift + i] - c * y) % p
            _trim(a)
            if not a:
                break
        a, b = b, a
    return a


def modulus_is_primitive(p: int, coeffs) -> bool:
    """coeffs (low -> high) is monic, irreducible over GF(p) (Rabin's test)
    and has x of multiplicative order p^n - 1."""
    f = [int(c) for c in coeffs]
    n = len(f) - 1
    if n < 2 or f[-1] != 1 or any(not 0 <= c < p for c in f):
        return False
    x = [0, 1]
    if _polypowmod(x, p ** n, f, p) != x:
        return False
    for r in factor(n):
        y = _polypowmod(x, p ** (n // r), f, p)
        y = y + [0] * (2 - len(y))
        y[1] = (y[1] - 1) % p
        if len(_polygcd(f, _trim(y), p)) != 1:
            return False
    N = p ** n - 1
    return all(_polypowmod(x, N // r, f, p) != [1] for r in factor(N))
