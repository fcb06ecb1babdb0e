import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmds.errors import HypothesisViolated, NotCoprime, Overflow
from qmds.numtheory import (
    dirichlet_search,
    divisors,
    factorize,
    is_prime,
    iroot,
    is_prime_power,
    least_primitive_root,
    pair_search,
    prime_factors,
    progression_base,
    quadratic_family_search,
)


def _sieve(limit: int) -> set[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return {i for i, f in enumerate(flags) if f}


def test_is_prime_against_sieve():
    primes = _sieve(20000)
    for n in range(20000):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize(
    "n, expected",
    [
        (2147483647, True),  # 2^31 - 1
        (1000000007, True),
        (2305843009213693951, True),  # 2^61 - 1
        (341550071728321, False),  # strong pseudoprime to several small bases
        (1000003 * 1000033, False),
        ((1 << 62) + 1, False),
    ],
)
def test_is_prime_large(n, expected):
    assert is_prime(n) == expected


def test_is_prime_overflow():
    with pytest.raises(Overflow):
        is_prime(1 << 63)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_recomposes(n):
    fac = factorize(n)
    prod = 1
    for p, a in fac.items():
        assert is_prime(p)
        assert a >= 1
        prod *= p**a
    assert prod == n
    assert list(fac) == sorted(fac)


def test_factorize_semiprime():
    assert factorize(2969 * 16001) == {2969: 1, 16001: 1}
    assert prime_factors(360) == (2, 3, 5)


@pytest.mark.parametrize(
    "n, expected",
    [
        (8, (2, 3)),
        (49, (7, 2)),
        (91, None),
        (1, None),
        (0, None),
        (16001, (16001, 1)),
        (1369, (37, 2)),
        (1849, (43, 2)),
        (6889, (83, 2)),
        (57121, (239, 2)),
        (24649, (157, 2)),
        (2**20, (2, 20)),
        # primes and prime powers above 2^53, where a float root rounds
        (4611686018427400249, (4611686018427400249, 1)),
        (2**62, (2, 62)),
        (3**39, (3, 39)),
        ((2**31 - 1) ** 2, (2**31 - 1, 2)),
        ((2**31 - 1) * (2**31 + 11), None),
    ],
)
def test_is_prime_power(n, expected):
    assert is_prime_power(n) == expected


@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.integers(min_value=1, max_value=64))
def test_iroot_is_exact(n, e):
    r = iroot(n, e)
    assert r ** e <= n < (r + 1) ** e


def test_divisors():
    assert divisors(120) == (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120)
    assert divisors(1) == (1,)
    assert divisors(97) == (1, 97)


# --- arithmetic-progression searches ------------------------------------------


def test_progression_base_identity():
    for m1, m2 in [(4, 3), (16, 9), (36, 25), (176, 105), (36, 175)]:
        l0, k0 = progression_base(m1, m2)
        assert 0 <= l0 < m2
        assert l0 * m1 + 2 == k0 * m2
        # minimality of l0
        assert all((l * m1 + 2) % m2 != 0 for l in range(l0))


def test_progression_base_rejects():
    with pytest.raises(HypothesisViolated):
        progression_base(3, 5)  # m1 odd
    with pytest.raises(HypothesisViolated):
        progression_base(4, 6)  # m2 even
    with pytest.raises(NotCoprime):
        progression_base(6, 9)


def test_dirichlet_search_small():
    # primes q = 1 mod 4 and q = -1 mod 3 below 100
    assert dirichlet_search(4, 3, 100) == (5, 17, 29, 41, 53, 89)


def test_dirichlet_search_confirms_worked_sizes():
    assert dirichlet_search(176, 105, 31000)[:2] == (11969, 30449)
    found = dirichlet_search(36, 175, 60000)
    assert 46549 in found and 59149 in found
    for q in found:
        assert is_prime(q) and (q - 1) % 36 == 0 and (q + 1) % 175 == 0


def _naive_pairs(limit):
    out = set()
    for m1 in range(2, limit + 1):
        for m2 in range(2, limit + 1):
            if m1 % 2 or m2 % 2 == 0 or math.gcd(m1, m2) != 1:
                continue
            s = m1 + m2 - 1
            if (m1 * m2) % s:
                continue
            m = m1 * m2 // s
            if math.gcd(m1, m) > 1 and math.gcd(m2, m) > 1:
                out.add((m1, m2, m))
    return out


def test_pair_search_matches_naive_enumeration():
    recs = pair_search(60)
    assert {(r.m1, r.m2, r.m) for r in recs} == _naive_pairs(60)
    assert [(r.m1, r.m2) for r in recs] == sorted((r.m1, r.m2) for r in recs)


def test_pair_search_invariants_and_worked_pairs():
    recs = pair_search(200)
    by_pair = {(r.m1, r.m2): r for r in recs}
    assert by_pair[(176, 105)].m == 66
    assert by_pair[(36, 175)].m == 30
    for r in recs:
        assert r.m1 % 2 == 0 and r.m2 % 2 == 1
        assert math.gcd(r.m1, r.m2) == 1
        assert r.m * (r.m1 + r.m2 - 1) == r.m1 * r.m2
        assert math.gcd(r.m1, r.m) > 1 and math.gcd(r.m2, r.m) > 1
        assert r.l0 * r.m1 + 2 == r.k0 * r.m2


def test_pair_search_witnesses():
    recs = pair_search(20, witness_limit=2000)
    rec = next(r for r in recs if (r.m1, r.m2) == (16, 9))
    assert rec.witnesses == dirichlet_search(16, 9, 2000)[:2] == (17, 449)
    for q in rec.witnesses:
        assert is_prime(q) and (q - 1) % 16 == 0 and (q + 1) % 9 == 0


# --- the quadratic family ------------------------------------------------------


def test_quadratic_family_members():
    recs = quadratic_family_search(32)
    assert [(r.k, r.q) for r in recs] == [(14, 2969), (32, 16001)]
    first, second = recs
    assert (first.m_even, first.m_odd, first.m) == (56, 165, 42)
    assert first.n == (2969**2 - 1) // 42
    assert (first.d_claimed, first.d_derived) == (1494, 1493)
    assert (second.d_claimed, second.d_derived) == (8022, 8021)
    for r in recs:
        assert r.k % 9 == 5
        assert r.q == 16 * r.k**2 - 12 * r.k + 1
        assert is_prime_power(r.q) == (r.p, r.e)
        assert not r.m_splits_q_minus_1 and not r.m_splits_q_plus_1


def test_quadratic_family_skips_non_prime_powers():
    # k = 5 gives q = 341 = 11 * 31 and k = 23 gives q = 8189 = 19 * 431
    ks = [r.k for r in quadratic_family_search(32)]
    assert 5 not in ks and 23 not in ks


def test_least_primitive_root():
    # 1 generates GF(2)*; the rest are record values of the least
    # primitive root
    assert [least_primitive_root(p) for p in (2, 3, 7, 23, 41, 71, 191, 409)] \
        == [1, 2, 3, 5, 6, 7, 19, 21]
