"""Integer routines: primality, factoring, and the arithmetic searches.

Primality is deterministic Miller-Rabin valid for all 64-bit integers;
factoring is Pollard rho on top of it.  The searches at the bottom hunt for
parameter families: coprime even/odd pairs whose induced divisor is
compatible with both members, primes in the arithmetic progression those
pairs generate, and the one-parameter quadratic family q = 16k^2 - 12k + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import HypothesisViolated, NotCoprime, Overflow

_INT64_MAX = (1 << 63) - 1

# Deterministic witness set for n < 3.3 * 10^24 (covers the full 64-bit range).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _check_range(n: int) -> None:
    if n > _INT64_MAX:
        raise Overflow(f"{n} exceeds the supported 64-bit range")


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n <= 2^63 - 1."""
    _check_range(n)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}; n >= 1."""
    _check_range(n)
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def prime_factors(n: int) -> tuple[int, ...]:
    """Sorted distinct prime divisors of n."""
    return tuple(factorize(n))


def iroot(n: int, e: int) -> int:
    """Largest r >= 0 with r^e <= n, exact for every n >= 0 and e >= 1."""
    if e == 1 or n < 2:
        return n
    r = 1 << -(-n.bit_length() // e)  # 2^ceil(bits/e) > n^(1/e)
    while True:  # integer Newton step from above; decreases until the root
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n = p^e and p prime, or None."""
    _check_range(n)
    if n < 2:
        return None
    for e in range(n.bit_length(), 0, -1):
        r = iroot(n, e)
        if r >= 2 and r ** e == n and is_prime(r):
            return r, e
    return None


def least_primitive_root(p: int) -> int:
    """The least generator of GF(p)* for a prime p: 1 for p = 2."""
    rs = factorize(p - 1)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // r, p) != 1 for r in rs))


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, a in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(a + 1)]
    return tuple(sorted(ds))


# --- prime searches in arithmetic progressions --------------------------------


def progression_base(m1: int, m2: int) -> tuple[int, int]:
    """Smallest l0 >= 0 with l0*m1 = -2 (mod m2), and k0 = (l0*m1 + 2) / m2.

    Requires m1 even, m2 odd, gcd(m1, m2) = 1.  Any prime q = l0*m1 + 1
    (mod m1*m2) then satisfies m1 | q - 1 and m2 | q + 1.
    """
    if m1 % 2 != 0 or m2 % 2 != 1 or m2 < 3:
        raise HypothesisViolated("need m1 even and m2 odd, m2 >= 3")
    if math.gcd(m1, m2) != 1:
        raise NotCoprime(f"gcd({m1}, {m2}) != 1")
    l0 = (-2 * pow(m1 % m2, -1, m2)) % m2
    k0 = (l0 * m1 + 2) // m2
    return l0, k0


def dirichlet_search(m1: int, m2: int, limit: int) -> tuple[int, ...]:
    """Primes q <= limit with m1 | q - 1 and m2 | q + 1 (m1 even, m2 odd).

    Scans the single residue class mod m1*m2 that satisfies both congruences;
    each candidate is rechecked directly before being accepted.
    """
    l0, _ = progression_base(m1, m2)
    step = m1 * m2
    q = l0 * m1 + 1
    out = []
    while q <= limit:
        if q > 2 and (q - 1) % m1 == 0 and (q + 1) % m2 == 0 and is_prime(q):
            out.append(q)
        q += step
    return tuple(out)


@dataclass(frozen=True)
class PairRecord:
    """A compatible even/odd divisor pair.

    m1 even and m2 odd are coprime, m1 + m2 - 1 divides m1*m2, and the
    quotient m shares a factor with each of m1 and m2.  l0/k0 locate the
    arithmetic progression of admissible prime sizes; ``witnesses`` lists the
    primes found below the requested witness limit.
    """

    m1: int
    m2: int
    m: int
    l0: int
    k0: int
    witnesses: tuple[int, ...] = field(default=())


# pair_search keeps this many witness primes per pair
PAIR_WITNESSES = 2


def pair_search(limit: int, witness_limit: int | None = None
                ) -> tuple[PairRecord, ...]:
    """All compatible pairs with m1, m2 <= limit, by brute enumeration."""
    out = []
    for m1 in range(2, limit + 1, 2):
        for m2 in range(3, limit + 1, 2):
            if math.gcd(m1, m2) != 1:
                continue
            s = m1 + m2 - 1
            if (m1 * m2) % s != 0:
                continue
            m = m1 * m2 // s
            if math.gcd(m1, m) <= 1 or math.gcd(m2, m) <= 1:
                continue
            l0, k0 = progression_base(m1, m2)
            wits: tuple[int, ...] = ()
            if witness_limit is not None:
                wits = dirichlet_search(m1, m2, witness_limit)[:PAIR_WITNESSES]
            out.append(PairRecord(m1, m2, m, l0, k0, wits))
    return tuple(sorted(out, key=lambda r: (r.m1, r.m2)))


@dataclass(frozen=True)
class FamilyRecord:
    """One member of the quadratic family q = 16k^2 - 12k + 1, k = 5 (mod 9).

    m_even = 4k divides q - 1, m_odd = 3(4k - 1) divides q + 1, and the
    combined divisor m = 3k divides neither q - 1 nor q + 1 on its own.
    d_claimed is the published distance bound (q + 1)/2 + (2k - 1)/3;
    d_derived is the bound our mixed-pair construction actually yields.
    """

    k: int
    q: int
    p: int
    e: int
    m_even: int
    m_odd: int
    m: int
    n: int
    d_claimed: int
    d_derived: int
    m_splits_q_minus_1: bool
    m_splits_q_plus_1: bool


def quadratic_family_search(k_limit: int) -> tuple[FamilyRecord, ...]:
    """Members of the family with 5 <= k <= k_limit and q a prime power."""
    out = []
    for k in range(5, k_limit + 1):
        if k % 9 != 5:
            continue
        q = 16 * k * k - 12 * k + 1
        pp = is_prime_power(q)
        if pp is None:
            continue
        p, e = pp
        m_even, m_odd = 4 * k, 3 * (4 * k - 1)
        assert (q - 1) % m_even == 0 and (q + 1) % m_odd == 0
        m = 3 * k
        n = (q * q - 1) // m
        d_claimed = (q + 1) // 2 + (2 * k - 1) // 3
        d_derived = (q - 1) // 2 + min((q + 1) // (2 * m_odd),
                                       (q - 1) // m_even + 1)
        out.append(FamilyRecord(
            k=k, q=q, p=p, e=e, m_even=m_even, m_odd=m_odd, m=m, n=n,
            d_claimed=d_claimed, d_derived=d_derived,
            m_splits_q_minus_1=(q - 1) % m == 0,
            m_splits_q_plus_1=(q + 1) % m == 0,
        ))
    return tuple(out)
