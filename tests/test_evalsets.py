import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds.errors import (
    HypothesisViolated,
    NotChar2,
    NoValidH,
    WeightSumVanishes,
)
from qmds.evalsets import (
    EvalSet,
    find_h_shift_exponent,
    mixed_union,
    parity_union_char2,
    subgroup_set,
    union_size,
    weighted_union,
)
import naive_algebra as na
from naive_algebra import shared_weight_obstructions
from qmds import audit, codes, constructions, evalsets, tables
from qmds.evalsets import shared_weight_obstructions as forbidden_coset
from qmds.field import TABLE_LIMIT, Field, build_field, field_for_q
from qmds.numtheory import divisors, is_prime_power
from test_constructions import builds_recorded


def test_evalset_invariants(gf25):
    with pytest.raises(HypothesisViolated, match="distinct"):
        EvalSet(gf25, (0, 0), "dup", ((12, 0, 0),))
    with pytest.raises(HypothesisViolated, match="subfield"):
        EvalSet(gf25, range(0, 24, 3), "bad weight", ((3, 0, 1),))  # theta
    with pytest.raises(HypothesisViolated, match="subfield"):
        EvalSet(gf25, range(0, 24, 3), "x^1 leaves GF(5)", ((3, 1, 0),))
    # x^2 on the points theta^(3j) is theta^(6j), in GF(5)
    assert EvalSet(gf25, range(0, 24, 3), "w", ((3, 2, 0),)).weights.tolist() \
        == [6 * j % 24 for j in range(8)]
    # exponents name points mod N = 24: theta^24 is theta^0
    with pytest.raises(HypothesisViolated, match="outside"):
        EvalSet(gf25, (0, 24), "past N", ((12, 0, 0),))
    with pytest.raises(HypothesisViolated, match="outside"):
        EvalSet(gf25, (-3, 5), "negative", ((12, 0, 0),))


def test_subgroup_set(gf25):
    es = subgroup_set(gf25, 3)
    assert es.points.tolist() == list(range(0, 24, 3))
    assert es.weights.tolist() == [0] * 8
    assert len(es) == 8
    with pytest.raises(HypothesisViolated):
        subgroup_set(gf25, 5)


def test_union_size_closed_forms():
    assert union_size(24, (3,)) == 8
    assert union_size(840, (3, 5)) == 280 + 168 - 56  # the 392 instance
    # three-part inclusion-exclusion
    N = 1023
    assert union_size(N, (3, 11, 31)) == 341 + 93 + 33 - 31 - 11 - 3 + 1


def test_union_size_parity_closed_form():
    # overlap points are dropped entirely: coefficient -2 per pairwise term
    assert union_size(1023, (3, 11), parity=True) == 341 + 93 - 2 * 31
    assert union_size(1023, (3, 11, 31), parity=True) == (
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
    assert union_size(N, (m1, m2), parity=True) == len(odd)


def test_parity_union_char2(gf64):
    es = parity_union_char2(gf64, (3, 7))
    assert len(es) == union_size(63, (3, 7), parity=True) == 21 + 9 - 2 * 3
    assert all(w == 0 for w in es.weights)
    for e in es.points.tolist():
        hit = [i for i, m in enumerate((3, 7)) if e % m == 0]
        assert len(hit) == 1  # overlap points were dropped
        assert e % (3, 7)[hit[0]] == 0
    # divisors need not be coprime: 9Z lies in both subgroups and drops out
    assert parity_union_char2(gf64, (3, 9)).points.tolist() == [
        e for e in range(0, 63, 3) if e % 9]
    with pytest.raises(NotChar2):
        parity_union_char2(build_field(5, 1), (3, 8))


def test_parity_union_char2_frozen_length():
    f = field_for_q(32)
    assert len(parity_union_char2(f, (3, 11))) == 372


def test_weighted_union_odd_pair():
    f = build_field(29, 1)
    es = weighted_union(f, ((3, 0, 0), (5, 0, 0)), "both unit weights")
    assert len(es) == 392
    two = f.embed_int(2)
    for e, w in zip(es.points.tolist(), es.weights.tolist()):
        hit = [m for m in (3, 5) if e % m == 0]
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
    expected = sorted({f.neg((e * ((13 + 1) // 2)) % f.N) for e in shared})
    assert list(bad) == expected


@pytest.mark.parametrize(
    "q, m1, m2",
    [(13, 7, 6), (17, 9, 8)],
    ids=["q13", "q17"],
)
def test_find_h_frozen(q, m1, m2):
    expected_H = {(13, 7, 6): 14, (17, 9, 8): 18}[(q, m1, m2)]
    assert find_h_shift_exponent(q, m1, m2) == expected_H


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
        w = f.add((e * (q + 1)) % f.N, f.mul(H, (e * ((q + 1) // 2)) % f.N))
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
    H = find_h_shift_exponent(13, 7, 6)
    es = mixed_union(f, 7, 6, H)
    assert H == 14
    assert len(es) == union_size(168, (7, 6))
    # points sorted ascending with distinct exponents, weights in GF(13)
    assert es.points.tolist() == sorted(es.points.tolist())
    for e, w in zip(es.points.tolist(), es.weights.tolist()):
        assert w % (f.q + 1) == 0
        expected = f.add(
            (e * 14) % f.N if e % 7 == 0 else None,
            f.mul(H, (e * 7) % f.N) if e % 6 == 0 else None,
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


# --- the numpy builder against the dict-and-loop references ------------------


def reference(field, parts, label):
    """The naive builder for these parts: the subgroup for one unit part,
    the parity union for unit parts with coprime m over p = 2, and the
    weighted union otherwise."""
    ms = tuple(m for m, _, _ in parts)
    unit = all(alpha % field.N == beta % field.N == 0
               for _, alpha, beta in parts)
    if unit and len(ms) == 1:
        return na.subgroup_set(field, ms[0])
    if (unit and field.p == 2
            and all(math.gcd(a, b) == 1 for a, b in
                    itertools.combinations(ms, 2))):
        return na.parity_union_char2(field, ms)
    return na.weighted_union(field, parts, label)


def built_parts(monkeypatch, construction, q, params):
    """The parts of the one ``weighted_union`` call that certifying one
    construction at FULL_MATRIX makes through the module."""
    calls = builds_recorded(monkeypatch)
    try:
        route = constructions.ROUTES[construction]
        cert = constructions.build(construction, q, 1 + route.border,
                                   want_matrix="require", **params)
    finally:
        monkeypatch.undo()
    assert cert.verified_level == "FULL_MATRIX" and len(calls) == 1
    return calls[0]


def outcome(build, *args, **kw):
    """(points, weights) as lists, or the (type, message) of the
    hypothesis the builder raised."""
    try:
        points, weights = build(*args, **kw)
    except HypothesisViolated as exc:
        return type(exc), str(exc)
    return list(points), list(weights)


def check_against_reference(name, *args, naive=None):
    """evalsets' builder ``name`` against naive_algebra's builder of the
    same name, or against ``naive``."""
    def numpy_build(*a):
        es = getattr(evalsets, name)(*a)
        assert es.points.dtype == es.weights.dtype == np.int64
        return es.points.tolist(), es.weights.tolist()
    got = outcome(numpy_build, *args)
    assert got == outcome(naive or getattr(na, name), *args), (name, args)
    return got


def check_parts(field, parts, label="parts"):
    return check_against_reference("weighted_union", field, parts, label,
                                   naive=reference)


def _sweep_cases(q_max):
    for construction, route in constructions.ROUTES.items():
        for q in range(2, q_max + 1):
            pp = is_prime_power(q)
            if pp is None or route.char2 not in (None, pp[0] == 2):
                continue
            for cert in constructions.sweep(construction, q):
                yield construction, q, cert.params


def test_every_sweep_choice_matches_the_reference(monkeypatch):
    # every choice the sweeps make for q <= 64, for all seven constructions;
    # each mixed union is also built with the smallest forbidden shift,
    # whose combined weight must vanish at the same first point
    seen, vanished = set(), 0
    for construction, q, params in _sweep_cases(64):
        seen.add(construction)
        f = field_for_q(q)
        parts = built_parts(monkeypatch, construction, q, params)
        assert isinstance(check_parts(f, parts)[0], list)
        if construction == "mixed_union":
            r, _ = forbidden_coset(q, params["m1"], params["m2"])
            parts = ((params["m1"], q + 1, 0),
                     (params["m2"], (q + 1) // 2, r))
            got = check_against_reference("weighted_union", f, parts, "bad H")
            assert got[0] is WeightSumVanishes
            vanished += 1
    assert seen == set(constructions.ROUTES) and vanished > 20


@pytest.mark.parametrize("t", [3, 5, 6])
def test_odd_table_rows_match_the_reference(t, monkeypatch):
    construction, locate, _ = audit._TABLES[t]
    checked = 0
    for row in tables.ALL_TABLES[t]:
        q = row["q"]
        if is_prime_power(q) is None or q % 2 == 0:
            continue
        params = constructions.validate(construction, q, locate(row, q, []))
        parts = built_parts(monkeypatch, construction, q, params)
        assert isinstance(check_parts(field_for_q(q), parts)[0], list)
        checked += 1
    assert checked == len(tables.ALL_TABLES[t])


@pytest.mark.parametrize("q, parts", [
    (5, ((3, 0, 0), (3, 0, 12))),  # the same subgroup with weights 1 and -1
    (3, ((2, 0, 0), (4, 0, 0), (8, 0, 0))),  # 3 = 0 at the shared point 1
    (9, ((5, 0, 0), (16, 0, 40))),  # 1 - 1 on the shared subgroup
])
def test_vanishing_weight_error_matches_the_reference(q, parts):
    got = check_against_reference("weighted_union", field_for_q(q), parts,
                                  "cancelling")
    assert got[0] is WeightSumVanishes


def test_bad_divisors_match_the_reference(gf64, gf25):
    assert check_against_reference("subgroup_set", gf25, 5)[0] \
        is HypothesisViolated
    assert check_against_reference("parity_union_char2", gf64, (3, 5))[0] \
        is HypothesisViolated
    assert check_against_reference("weighted_union", gf25,
                                   ((3, 0, 0), (7, 0, 0)), "x")[0] \
        is HypothesisViolated


@st.composite
def drawn_parts(draw):
    """A field GF(q^2), q in {4, 5, 8, 9, 13}, and 1-3 parts (m, alpha,
    beta): m | N, beta a subfield exponent, and alpha in {0, q + 1}, or
    (q + 1)/2 on an even m, where x^alpha lies in GF(q) on every point.
    A part often takes the first part's weight, so that the point 1, which
    every subgroup holds, is often held j = p times by one weight."""
    q = draw(st.sampled_from([4, 5, 8, 9, 13]))
    N = q * q - 1
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.sampled_from(divisors(N)))
        alphas = [0, q + 1] + ([(q + 1) // 2] if q % 2 and m % 2 == 0 else [])
        if parts and parts[0][1] in alphas and draw(st.booleans()):
            parts.append((m,) + parts[0][1:])
        else:
            parts.append((m, draw(st.sampled_from(alphas)),
                          (q + 1) * draw(st.integers(0, q - 2))))
    return field_for_q(q), tuple(parts)


@settings(max_examples=300)
@given(drawn_parts())
def test_drawn_parts_match_the_reference(case):
    # parts of one weight are summed as a multiple j, the others as packed
    # vectors; in characteristic 2 a vanishing sum drops its point, and
    # parts of several weights are refused
    f, parts = case
    if f.p == 2 and len({part[1:] for part in parts}) > 1:
        with pytest.raises(HypothesisViolated, match="one weight"):
            weighted_union(f, parts, "parts")
    else:
        check_parts(f, parts)


# --- the parts check ----------------------------------------------------------


def rebuilt(es, points):
    """A set with es's parts on the points ``points``."""
    return EvalSet(es.field, sorted(points), "mutant", es.parts)


def parts_controls():
    """(set, its points changed in one way) for each control.  The count
    stays n in every control but the dropped point, so that each one is
    refused by one line of the check: the count, or the points."""
    odd = weighted_union(field_for_q(29), ((3, 0, 0), (5, 0, 0)), "odd")
    char2 = parity_union_char2(field_for_q(32), (3, 11))
    pts = {"odd": set(odd.points.tolist()),
           "char2": set(char2.points.tolist())}
    assert 3 in pts["odd"] and 3 in pts["char2"] and 0 not in pts["char2"]
    return {
        "dropped point": (odd, pts["odd"] - {3}),
        "point outside every part": (odd, pts["odd"] - {3} | {1}),
        # 0 is held twice, so its weight 1 + 1 vanishes
        "even-multiplicity point kept": (char2, pts["char2"] - {3} | {0}),
    }


@pytest.mark.parametrize("control", list(parts_controls()))
def test_parts_check_refuses_each_control(control):
    es, points = parts_controls()[control]
    assert len(points) == len(es) - (control == "dropped point")
    rebuilt(es, es.points.tolist())
    with pytest.raises(HypothesisViolated):
        rebuilt(es, points)


def test_parts_check_refuses_unsound_parts(gf25, gf64):
    # a part whose weight leaves GF(q), no parts at all, an extra point
    # beyond the union, a point no part holds, and several weights in
    # characteristic 2, whose dropped points no count foresees
    es = subgroup_set(gf25, 3)
    with pytest.raises(HypothesisViolated):
        EvalSet(gf25, es.points, "theta", ((3, 0, 1),))
    with pytest.raises(HypothesisViolated):
        EvalSet(gf25, [], "none", ())
    with pytest.raises(HypothesisViolated):
        EvalSet(gf25, es.points.tolist() + [1], "extra", es.parts)
    unheld = [0, 1] + es.points[2:].tolist()
    with pytest.raises(HypothesisViolated) as exc:  # no sum vanishes there
        EvalSet(gf25, unheld, "unheld", es.parts)
    assert type(exc.value) is HypothesisViolated
    # in characteristic 2 the point 0, held by both parts, is not in the
    # parity union, which drops vanishing sums
    parity = parity_union_char2(gf64, (3, 7))
    with pytest.raises(HypothesisViolated) as exc:
        EvalSet(gf64, [0] + parity.points[1:].tolist(), "even", parity.parts)
    assert type(exc.value) is HypothesisViolated
    with pytest.raises(HypothesisViolated, match="one weight"):
        weighted_union(gf64, ((3, 0, 0), (7, 0, 9)), "two")
    with pytest.raises(HypothesisViolated, match="one weight"):
        EvalSet(gf64, range(0, 63, 3), "two", ((3, 0, 0), (7, 0, 9)))


def test_mixed_union_past_the_table_limit():
    # q = 2053 has q^2 > 2^22, so no exp/log tables: the shared weights are
    # added in GF(q), and each is checked here by adding coefficient vectors,
    # x^(q+1) + theta^H x^((q+1)/2) at x = theta^e
    f = field_for_q(2053)
    q, N = f.q, f.N
    assert f.q2 > TABLE_LIMIT
    es = mixed_union(f, 1027, 1026, find_h_shift_exponent(q, 1027, 1026))
    H = es.parts[1][2]
    assert "tables" not in vars(f)
    E, W = es.points, es.weights
    odd, even = E % 1027 == 0, E % 1026 == 0
    assert len(E) == union_size(N, (1027, 1026)) and (odd | even).all()
    a, b = (q + 1) * E % N, ((q + 1) // 2 * E + H) % N
    assert np.array_equal(W[odd & ~even], a[odd & ~even])
    assert np.array_equal(W[even & ~odd], b[even & ~odd])
    shared = np.flatnonzero(odd & even)
    assert len(shared) == 4

    def vec(exps):
        return f.power_vectors(exps[shared].tolist())
    assert np.array_equal(vec(W), (vec(a) + vec(b)) % f.p)


# --- the weights, computed on first read --------------------------------------


def sweep_sets(qs):
    """(q, the set certifying it) for every sweep choice of the seven
    constructions at each q of ``qs`` that the route admits."""
    for construction, route in constructions.ROUTES.items():
        for q in qs:
            pp = is_prime_power(q)
            if pp is None or route.char2 not in (None, pp[0] == 2):
                continue
            for cert in constructions.sweep(construction, q):
                parts = route.parts(q, cert.params, cert.H or 0)
                yield q, weighted_union(field_for_q(q), parts, construction)


def test_weights_read_on_demand_equal_the_eager_union():
    # every sweep choice at every prime power q <= 127 and at q = 169 and
    # 211: no weight is computed until read, and then the weights are
    # those of ``_union_weights``, read-only int64 arrays.  The hash of
    # every set's points and weights is the one the sets had when their
    # weights were computed on construction
    digest, count = hashlib.sha256(), 0
    for q, es in sweep_sets([*range(2, 128), 169, 211]):
        assert "weights" not in vars(es)
        f = es.field
        classes = evalsets._classes(f, es.parts)
        want = evalsets._union_weights(
            f, es.points, classes,
            evalsets._multiplicities(f, es.points, classes))
        W = es.weights
        assert W.dtype == np.int64 and not W.flags.writeable
        assert np.array_equal(W, want) and es.weights is W
        digest.update(es.points.tobytes())
        digest.update(W.tobytes())
        count += 1
    assert count == 761
    assert digest.hexdigest() == ("5af873ca7aa9d974d2faaed5f85ba44d"
                                  "6f21eabbed2726ff85e353feea47d391")


@st.composite
def weight_pairs(draw):
    """GF(q^2), q odd, and two weight classes of 1-3 parts each: alpha in
    {0, q + 1}, or (q + 1)/2 on a class of even m, and beta a subfield
    exponent.  The second beta is often the first plus N/2, so that the
    point 1, which every part holds, often sums to zero."""
    q = draw(st.sampled_from([3, 5, 7, 9, 13, 25, 27]))
    N = q * q - 1
    weights = []
    for _ in range(2):
        even = draw(st.booleans())
        alphas = [0, q + 1] + ([(q + 1) // 2] if even else [])
        beta = (q + 1) * draw(st.integers(0, q - 2))
        if weights and draw(st.booleans()):
            beta = (weights[0][2] + N // 2) % N
        weights.append((even, draw(st.sampled_from(alphas)), beta))
    assume(weights[0][1:] != weights[1][1:])
    parts = []
    for even, alpha, beta in weights:
        pool = [m for m in divisors(N) if m % 2 == 0 or not even]
        for m in draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=3, unique=True)):
            parts.append((m, alpha, beta))
    return field_for_q(q), tuple(parts)


@settings(max_examples=300)
@given(weight_pairs())
def test_two_class_vanishing_equals_the_zech_sum(case):
    # the exponent test against the weights added through GF(q)'s Zech
    # table: the same points vanish, over the whole union
    f, parts = case
    classes = evalsets._classes(f, parts)
    assert len(classes) == 2
    E = evalsets._union_points(f.N, [m for m, _, _ in parts])
    counts = evalsets._multiplicities(f, E, classes)
    want = evalsets._union_weights(f, E, classes, counts)
    assert np.array_equal(evalsets._vanishing(f, E, classes, counts),
                          np.flatnonzero(want < 0))


def test_forbidden_shift_vanishes_at_the_first_forbidden_point():
    # every mixed_union sweep choice at four q that are not prime, built
    # with the smallest forbidden shift r: the error names the smallest
    # shared point e where x^((q+1)/2) = -theta^r, that is
    # e(q+1)/2 = r + N/2 mod N, and builds no Zech table
    checked = 0
    for q in (49, 121, 169, 289):
        for cert in constructions.sweep("mixed_union", q):
            m1, m2 = cert.params["m1"], cert.params["m2"]
            r, _ = forbidden_coset(q, m1, m2)
            N = q * q - 1
            shared = np.arange(0, N, math.lcm(m1, m2))
            bad = shared[(shared * (q + 1) // 2 - r - N // 2) % N == 0]
            f = Field(*is_prime_power(q))  # a fresh cache
            with pytest.raises(WeightSumVanishes,
                               match=f"exponent {bad.min()} "):
                mixed_union(f, m1, m2, r)
            assert "subfield_zech" not in vars(f)
            checked += 1
    assert checked == 100


# --- the arrays are shared, so they are read-only ------------------------------


def test_evalset_arrays_are_read_only(gf25):
    es = EvalSet(gf25, [0, 6, 12, 18], "list input", [[6, 0, 6]])
    assert es.parts == ((6, 0, 6),) and es.weights.tolist() == [6] * 4
    for arr in (es.points, es.weights):
        assert arr.dtype == np.int64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("construction, q, params", [
    ("mixed_union", 13, {"m1": 7, "m2": 6}),
    ("odd_union", 29, {"m1": 3, "m2": 5}),
    ("char2_union", 32, {"m1": 3, "m2": 11}),
    ("c1_ext", 11, {"m": 3}),
])
def test_gram_check_leaves_the_evalset_unchanged(construction, q, params):
    # twice on one artifact, one row past the bound where the check fails:
    # the second call must see the same points and weights
    built = constructions.build(construction, q, want_matrix="require",
                                **params).artifact
    es = built.evalset
    before = (es.points.copy(), es.weights.copy())
    art = codes.CodeArtifact(es.field, es, built.k + 1, built.shift,
                             has_border=built.has_border,
                             border_entry=built.border_entry)
    first = codes.gram_zero(art)
    assert first[0] is False
    assert codes.gram_zero(art) == first
    for arr, old in zip((es.points, es.weights), before):
        assert arr.dtype == old.dtype and np.array_equal(arr, old)
