import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive_algebra import subgroup_power_sum, union_power_sum_char2
from qmds.charsums import power_sum_vanishes, subgroup_power_sum_closed
from qmds.errors import BadDivisor, NotChar2, NotCoprime
from qmds.field import build_field, field_for_q
from qmds.numtheory import divisors


@pytest.mark.parametrize("q", [4, 5, 7])
def test_direct_closed_and_predicate_agree(q):
    f = field_for_q(q)
    for m in divisors(f.N):
        for t in range(f.N):
            direct = subgroup_power_sum(f, m, t)
            assert direct == subgroup_power_sum_closed(f, m, t)
            assert power_sum_vanishes(f, m, t) == (direct is None)


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
    assert subgroup_power_sum_closed(f, m, t) == subgroup_power_sum_closed(
        f, m, t + j * order
    )


def test_bad_divisor(gf25):
    with pytest.raises(BadDivisor):
        subgroup_power_sum(gf25, 5, 1)  # 5 does not divide 24
    with pytest.raises(BadDivisor):
        power_sum_vanishes(gf25, 7, 1)


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
