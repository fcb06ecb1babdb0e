import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmds.errors import (
    HypothesisViolated,
    NotChar2,
    NotCoprime,
    NoValidH,
    WeightSumVanishes,
    ZeroWeightAtSharedPoint,
)
from qmds.evalsets import (
    EvalSet,
    find_H,
    find_h_shift_exponent,
    mixed_union,
    parity_union_char2,
    parity_union_size,
    subgroup_set,
    union_size,
    weighted_union,
)
from naive_algebra import shared_weight_obstructions
from qmds.evalsets import shared_weight_obstructions as forbidden_coset
from qmds.field import build_field, field_for_q
from qmds.numtheory import divisors, is_prime_power


def test_evalset_invariants(gf25):
    with pytest.raises(HypothesisViolated):
        EvalSet(gf25, (0, 0), (0, 0), ((0,), (0,)), "dup")
    with pytest.raises(HypothesisViolated):
        EvalSet(gf25, (0, 1), (0, 1), ((0,), (0,)), "bad weight")  # theta not in GF(5)


def test_subgroup_set(gf25):
    es = subgroup_set(gf25, 3)
    assert es.points == tuple(range(0, 24, 3))
    assert es.weights == (0,) * 8
    assert len(es) == 8
    with pytest.raises(HypothesisViolated):
        subgroup_set(gf25, 5)


def test_union_size_closed_forms():
    assert union_size(24, (3,)) == 8
    assert union_size(840, (3, 5)) == 280 + 168 - 56  # the 392 instance
    # three-part inclusion-exclusion
    N = 1023
    assert union_size(N, (3, 11, 31)) == 341 + 93 + 33 - 31 - 11 - 3 + 1


def test_parity_union_size_closed_form():
    # overlap points are dropped entirely: coefficient -2 per pairwise term
    assert parity_union_size(1023, (3, 11)) == 341 + 93 - 2 * 31
    assert parity_union_size(1023, (3, 11, 31)) == (
        341 + 93 + 33 - 2 * (31 + 11 + 3) + 4 * 1
    )


@given(st.sampled_from([60, 72, 96, 120, 144]), st.data())
def test_union_sizes_match_direct_count(N, data):
    ds = [d for d in divisors(N) if d > 1]
    m1 = data.draw(st.sampled_from(ds))
    m2 = data.draw(st.sampled_from(ds))
    pts = {e for e in range(N) if e % m1 == 0 or e % m2 == 0}
    assert union_size(N, (m1, m2)) == len(pts)
    odd = {
        e for e in range(N) if (e % m1 == 0) + (e % m2 == 0) == 1
    }
    assert parity_union_size(N, (m1, m2)) == len(odd)


def test_parity_union_char2(gf64):
    es = parity_union_char2(gf64, (3, 7))
    assert len(es) == parity_union_size(63, (3, 7)) == 21 + 9 - 2 * 3
    assert all(w == 0 for w in es.weights)
    for e, hit in zip(es.points, es.membership):
        assert len(hit) == 1  # overlap points were dropped
        assert e % (3, 7)[hit[0]] == 0
    with pytest.raises(NotCoprime):
        parity_union_char2(gf64, (3, 9))
    with pytest.raises(NotChar2):
        parity_union_char2(build_field(5, 1), (3, 8))


def test_parity_union_char2_frozen_length():
    f = field_for_q(32)
    assert len(parity_union_char2(f, (3, 11))) == 372


def test_weighted_union_odd_pair():
    f = build_field(29, 1)
    es = weighted_union(
        f, ((3, 0, 0), (5, 0, 0)), "both unit weights",
        vanish_error=ZeroWeightAtSharedPoint,
    )
    assert len(es) == 392
    two = f.embed_int(2)
    for e, w, hit in zip(es.points, es.weights, es.membership):
        assert w == (two if len(hit) == 2 else 0)
        assert (e % 3 == 0 or e % 5 == 0) and (len(hit) == 2) == (e % 15 == 0)


def test_weighted_union_vanishing_weight():
    f = build_field(5, 1)
    # the same subgroup twice with weights 1 and -1 cancels everywhere
    with pytest.raises(WeightSumVanishes):
        weighted_union(f, ((3, 0, 0), (3, 0, f.N // 2)), "cancelling")


def test_weighted_union_vanishes_when_p_divides_multiplicity(gf9):
    # three unit-weight subgroups all share the point 1; in characteristic 3
    # its combined weight is 3 = 0
    with pytest.raises(WeightSumVanishes):
        weighted_union(gf9, ((2, 0, 0), (4, 0, 0), (8, 0, 0)), "triple overlap")


# --- the mixed-union shift H ---------------------------------------------------


def test_shared_weight_obstructions_explicitly():
    # (q, m1, m2) = (13, 7, 6): shared points are the lcm-42 subgroup, and
    # the forbidden shifts are exactly -x^7 for those x
    bad = shared_weight_obstructions(13, 7, 6)
    assert bad == (0, 42, 84, 126)
    f = build_field(13, 1)
    shared = [e for e in range(f.N) if e % math.lcm(7, 6) == 0]
    expected = sorted({f.neg(f.pow_(e, (13 + 1) // 2)) for e in shared})
    assert list(bad) == expected


@pytest.mark.parametrize(
    "q, m1, m2",
    [(13, 7, 6), (17, 9, 8)],
    ids=["q13", "q17"],
)
def test_find_h_frozen(q, m1, m2):
    expected_H = {(13, 7, 6): 14, (17, 9, 8): 18}[(q, m1, m2)]
    assert find_h_shift_exponent(q, m1, m2) == expected_H
    assert find_H(field_for_q(q), m1, m2) == expected_H


def test_find_h_one_is_always_obstructed_here():
    # 1 = theta^0 is excluded whenever 0 is an obstruction, which happens
    # exactly when some shared point x has x^((q+1)/2) = -1
    for q, m1, m2 in [(13, 7, 6), (17, 9, 8), (29, 15, 14), (25, 13, 12)]:
        assert 0 in shared_weight_obstructions(q, m1, m2)
        assert find_h_shift_exponent(q, m1, m2) != 0


def test_find_h_no_shift_can_work():
    # with m2 = 2 the half powers of the shared subgroup cover all of GF(q)*,
    # so every candidate shift collides with some shared point
    bad = shared_weight_obstructions(13, 7, 2)
    assert set(bad) == set(range(0, 168, 14))
    with pytest.raises(NoValidH):
        find_h_shift_exponent(13, 7, 2)


@pytest.mark.parametrize(
    "q, m1, m2",
    [(13, 7, 6), (13, 7, 4), (13, 7, 12), (17, 9, 8), (29, 15, 14), (25, 13, 12)],
)
def test_find_h_is_minimal_and_valid(q, m1, m2):
    H = find_h_shift_exponent(q, m1, m2)
    bad = set(shared_weight_obstructions(q, m1, m2))
    assert H % (q + 1) == 0 and H not in bad
    for t in range(H // (q + 1)):
        assert t * (q + 1) in bad  # every smaller subfield exponent fails
    # field-level confirmation: every shared point's combined weight is nonzero
    f = field_for_q(q)
    for e in range(0, f.N, math.lcm(m1, m2)):
        w = f.add(f.pow_(e, q + 1), f.mul(H, f.pow_(e, (q + 1) // 2)))
        assert w is not None


def test_find_h_hypothesis_guards():
    with pytest.raises(HypothesisViolated):
        find_h_shift_exponent(8, 3, 2)  # q even
    with pytest.raises(HypothesisViolated):
        find_h_shift_exponent(13, 6, 4)  # m1 even
    with pytest.raises(HypothesisViolated):
        find_h_shift_exponent(13, 5, 4)  # m1 does not divide q + 1
    with pytest.raises(HypothesisViolated):
        find_h_shift_exponent(13, 7, 5)  # m2 odd
    with pytest.raises(HypothesisViolated):
        find_h_shift_exponent(13, 7, 8)  # m2 does not divide q - 1


def test_mixed_union_set():
    f = build_field(13, 1)
    es, H = mixed_union(f, 7, 6)
    assert H == 14
    assert len(es) == union_size(168, (7, 6))
    # points sorted ascending with distinct exponents, weights in GF(13)
    assert es.points == tuple(sorted(es.points))
    for e, w in zip(es.points, es.weights):
        assert f.in_subfield(w)
        expected = f.add(
            f.pow_(e, 14) if e % 7 == 0 else None,
            f.mul(H, f.pow_(e, 7)) if e % 6 == 0 else None,
        )
        assert w == expected


def _mixed_pairs(q):
    """Every admissible (m1, m2): m1 an odd divisor of q + 1, m2 an even
    divisor of q - 1."""
    return [(m1, m2) for m1 in divisors(q + 1) if m1 % 2 == 1
            for m2 in divisors(q - 1) if m2 % 2 == 0]


def test_h_search_agrees_with_enumerated_obstructions():
    # the closed-form coset against the enumeration of every shared point,
    # for every admissible pair at every odd prime power q <= 50
    checked = 0
    for q in range(3, 51, 2):
        if is_prime_power(q) is None:
            continue
        N = q * q - 1
        for m1, m2 in _mixed_pairs(q):
            bad = set(shared_weight_obstructions(q, m1, m2))
            r, g = forbidden_coset(q, m1, m2)
            assert bad == set(range(r, N, g))
            valid = [t * (q + 1) for t in range(q - 1)
                     if t * (q + 1) not in bad]
            if valid:
                assert find_h_shift_exponent(q, m1, m2) == valid[0]
            else:
                with pytest.raises(NoValidH):
                    find_h_shift_exponent(q, m1, m2)
            checked += 1
    assert checked > 100
