import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive_algebra import brute_first_violation, scan_first_violation
from qmds.numtheory import is_prime
from qmds.oracle import first_violation, max_dim

# the single-subgroup instances used throughout, frozen from the brute oracle:
# key (q, m), value the largest k with no solution of q+1 + t1 + q t2 = 0 (mod N/m)
C1_ORACLE = {
    (5, 3): 2,
    (8, 3): 4,
    (8, 9): 3,
    (11, 3): 6,
    (13, 7): 6,
    (17, 3): 10,
    (17, 9): 8,
    (19, 5): 10,
    (29, 15): 14,
    (37, 19): 18,
    (41, 21): 20,
    (43, 11): 22,
    (53, 27): 26,
}


def test_first_violation_frozen_c1_values():
    for (q, m), expected in C1_ORACLE.items():
        M = (q * q - 1) // m
        assert first_violation(M, q + 1, q) == expected


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=800),
    st.integers(min_value=2, max_value=128),
)
def test_first_violation_matches_brute(M, s, q):
    assert first_violation(M, s, q) == brute_first_violation(M, s, q)


def test_first_violation_meaning():
    M, s, q = 32, 18, 17
    B = first_violation(M, s, q)
    assert B == 8
    # B is attained and nothing smaller admits a solution
    assert any((s + t1 + t2 * q) % M == 0
               for t1 in range(B + 1) for t2 in range(B + 1))
    assert all((s + t1 + t2 * q) % M != 0
               for t1 in range(B) for t2 in range(B))


def test_first_violation_rejects_bad_modulus():
    with pytest.raises(ValueError):
        first_violation(0, 1, 5)


def test_max_dim_is_min_over_conditions():
    # the two searched-pair conditions at q = 11969 (divisors 105 and 176)
    conds = ((1364352, 11970), (813960, 5985))
    q = 11969
    assert max_dim(conds, q) == min(first_violation(M, s, q) for M, s in conds)
    assert max_dim(conds, q) == 6040


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=2, max_value=10**4),
)
def test_first_violation_matches_scan(M, s, q):
    assert first_violation(M, s, q) == scan_first_violation(M, s, q)


def test_first_violation_at_64_bit_q():
    # q = 4611686018427400249 is prime with 5 | q + 1; a scan would take
    # about 0.6 q steps.  For every prime q = 4 (mod 5) below 3000 the scan
    # gives floor(3(q - 1)/5), and so must the floor-sum search here.
    for q in range(19, 3000, 10):
        if is_prime(q):
            M = (q * q - 1) // 5
            assert scan_first_violation(M, q + 1, q) == 3 * (q - 1) // 5
    q = 4611686018427400249
    assert first_violation((q * q - 1) // 5, q + 1, q) == 3 * (q - 1) // 5
