"""Power sums over multiplicative subgroups of GF(q^2)*, by direct
accumulation, against the closed form: S(m, t), the sum of u^t over the
subgroup of order N/m, is (N/m) mod p when (N/m) | t and zero otherwise.
N/m is prime to p, so the sum vanishes exactly when (N/m) does not divide t.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive_algebra import subgroup_power_sum, union_power_sum_char2
from qmds.errors import BadDivisor, NotChar2, NotCoprime
from qmds.field import build_field, field_for_q
from qmds.numtheory import divisors


@pytest.mark.parametrize("q", [4, 5, 7])
def test_direct_closed_and_predicate_agree(q):
    f = field_for_q(q)
    for m in divisors(f.N):
        order = f.N // m
        for t in range(f.N):
            closed = f.embed_int(order % f.p) if t % order == 0 else None
            assert subgroup_power_sum(f, m, t) == closed


def test_zero_exponent_never_vanishes(gf25):
    for m in divisors(gf25.N):
        val = subgroup_power_sum(gf25, m, 0)
        assert val is not None
        assert val == gf25.embed_int((gf25.N // m) % gf25.p)


def test_full_group_sum_vanishes_except_multiples(gf49):
    # m = 1: the sum over all of GF(q^2)* is zero unless N | t
    assert subgroup_power_sum(gf49, 1, 5) is None
    assert subgroup_power_sum(gf49, 1, gf49.N) == gf49.embed_int(gf49.N % gf49.p)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=30))
def test_shift_periodicity(t, j):
    f = build_field(3, 1)
    m = 4
    order = f.N // m
    assert subgroup_power_sum(f, m, t) == subgroup_power_sum(
        f, m, t + j * order
    )


def test_bad_divisor(gf25):
    with pytest.raises(BadDivisor):
        subgroup_power_sum(gf25, 5, 1)  # 5 does not divide 24
    with pytest.raises(BadDivisor):
        subgroup_power_sum(gf25, 0, 1)  # m must be positive


def test_char2_union_equals_sum_of_parts(gf64):
    # in characteristic two the doubled intersection terms cancel, so the
    # parity-filtered union sum is just S(m1, t) + S(m2, t)
    f = gf64
    for t in range(f.N):
        got = union_power_sum_char2(f, (3, 7), t)
        expected = f.add(subgroup_power_sum(f, 3, t), subgroup_power_sum(f, 7, t))
        assert got == expected


def test_char2_union_guards(gf64, gf25):
    with pytest.raises(NotCoprime):
        union_power_sum_char2(gf64, (3, 9), 1)
    with pytest.raises(NotChar2):
        union_power_sum_char2(gf25, (3, 8), 1)
    with pytest.raises(BadDivisor):
        union_power_sum_char2(gf64, (3, 5), 1)
