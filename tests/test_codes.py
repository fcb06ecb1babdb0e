import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from naive_algebra import (
    direct_sum_mask,
    gram_entry,
    gram_hermitian,
    gram_zero_scalar,
    gram_zero_structured,
    hermitian_ip,
    is_nonsingular,
    rank,
    weighted_pair_sum,
)
from qmds import codes
from qmds.codes import (
    CodeArtifact,
    _beta_basis,
    eval_code,
    extend_c1,
    gram_nonzero,
    gram_zero,
    matrix_to_strings,
)
from qmds.constructions import ROUTES, max_dim_oracle, sweep
from qmds.errors import (DimensionTooLarge, HypothesisViolated, UsageError,
                         WeightSumVanishes)
from qmds.evalsets import (EvalSet, find_h_shift_exponent, subgroup_set,
                           weighted_union)
from qmds.field import TABLE_LIMIT, Field, build_field, field_for_q, mulmod
from qmds.oracle import first_violation
from qmds.verify import packed_sums
from qmds.numtheory import is_prime_power

# (construction, q, params, max self-orthogonal k) for the Gram agreement pool
POOL = [
    ("c1", 5, {"m": 3}, 2),
    ("c1", 17, {"m": 9}, 8),
    ("char2_union", 32, {"m1": 3, "m2": 11}, 16),
    ("odd_union", 29, {"m1": 3, "m2": 5}, 16),
    ("half_power", 13, {"m": 6}, 8),
    ("half_power_union", 31, {"ms": (6, 10)}, 18),
    ("mixed_union", 13, {"m1": 7, "m2": 6}, 6),
]

SHIFT = {"c1": 1, "char2_union": 1, "odd_union": 1,
         "half_power": 0, "half_power_union": 0, "mixed_union": 0}


def raw_artifact(construction, q, params, k):
    """Evaluation matrix with any number of rows, bypassing the oracle cap."""
    f = field_for_q(q)
    route = ROUTES[construction]
    H = (find_h_shift_exponent(q, *route.ms(params))
         if any(d.shifted for d in route.divisors) else 0)
    es = weighted_union(f, route.parts(q, params, H), construction)
    if construction == "c1_ext":
        return extend_c1(f, params["m"], k, es)
    return eval_code(f, es, k, SHIFT[construction])


def test_eval_code_rows_explicitly(gf25):
    art = eval_code(gf25, subgroup_set(gf25, 3), 2, shift=1)
    pts = tuple(range(0, 24, 3))
    assert art.n == 8
    assert art.row(0) == pts  # unit weights: row l is x^(1+l) on the points
    assert art.row(1) == tuple(2 * e % 24 for e in pts)
    assert art.matrix() == (art.row(0), art.row(1))


def test_eval_code_guards(gf25):
    es = subgroup_set(gf25, 3)
    with pytest.raises(UsageError):
        eval_code(gf25, es, 0, 1)
    with pytest.raises(DimensionTooLarge):
        eval_code(gf25, es, 9, 1)
    with pytest.raises(DimensionTooLarge):
        extend_c1(gf25, 3, 10, es)
    with pytest.raises(UsageError):
        extend_c1(gf25, 3, 1, es)


def test_hermitian_ip_small(gf25):
    f = gf25
    # <u, v> = sum u_i v_i^5 computed by hand for a 2-vector
    u, v = (1, None), (3, 7)
    assert hermitian_ip(f, u, v) == f.mul(1, (3 * 5) % f.N)
    assert hermitian_ip(f, (None, None), v) is None
    with pytest.raises(ValueError):
        hermitian_ip(f, (1,), (1, 2))


def test_conjugate_symmetry(gf25):
    art = extend_c1(gf25, 3, 3, subgroup_set(gf25, 3))
    g = gram_hermitian(gf25, art.matrix())
    for i in range(3):
        for j in range(3):
            assert g[j][i] == gf25.frobenius_q(g[i][j])


@pytest.mark.parametrize("construction,q,params,kmax", POOL,
                         ids=[p[0] + str(p[1]) for p in POOL])
def test_gram_routes_agree(construction, q, params, kmax):
    good = raw_artifact(construction, q, params, kmax)
    assert gram_zero_structured(good) == (True, None)
    assert gram_zero(good) == (True, None)
    assert gram_zero_scalar(good.field, good.matrix()) == (True, None)
    bad = raw_artifact(construction, q, params, kmax + 1)
    res_structured = gram_zero_structured(bad)
    assert res_structured == gram_zero(bad)
    assert res_structured == gram_zero_scalar(bad.field, bad.matrix())
    ok, witness = res_structured
    assert not ok and witness is not None
    l1, l2 = witness
    assert gram_entry(bad, l1, l2) is not None


def test_gram_routes_agree_extended():
    good = raw_artifact("c1_ext", 17, {"m": 9}, 9)
    assert gram_zero_structured(good) == (True, None)
    assert gram_zero(good) == (True, None)
    assert gram_zero_scalar(good.field, good.matrix()) == (True, None)
    bad = raw_artifact("c1_ext", 17, {"m": 9}, 10)
    assert gram_zero_structured(bad) == gram_zero(bad)
    assert not gram_zero_structured(bad)[0]


# odd-q instances with h = 1, 2, 3
ODD_POOL = [
    ("half_power", 7, {"m": 6}),
    ("c1", 9, {"m": 5}),
    ("mixed_union", 9, {"m1": 5, "m2": 4}),
    ("c1", 25, {"m": 13}),
    ("half_power_union", 25, {"ms": (6, 8)}),
    ("mixed_union", 25, {"m1": 13, "m2": 6}),
    ("c1", 27, {"m": 7}),
    ("half_power", 27, {"m": 26}),
    ("mixed_union", 27, {"m1": 7, "m2": 26}),
    ("c1", 49, {"m": 25}),
    ("half_power", 49, {"m": 24}),
    ("mixed_union", 49, {"m1": 25, "m2": 12}),
    ("c1_ext", 25, {"m": 13}),
    ("c1_ext", 27, {"m": 7}),
]


# p = 2 instances with h = 1 .. 3 for the XOR-mask route
EVEN_POOL = [
    ("c1", 4, {"m": 5}),
    ("c1", 8, {"m": 3}),
    ("c1", 8, {"m": 9}),
    ("c1", 16, {"m": 17}),
    ("c1_ext", 8, {"m": 3}),
    ("c1_ext", 16, {"m": 17}),
    ("c1_ext", 32, {"m": 33}),
    ("c1_ext", 64, {"m": 5}),
    ("char2_union", 64, {"m1": 5, "m2": 13}),
]


def check_vectorized_against_scalar(construction, q, params):
    """At k_max the vectorized route passes; at k_max + 1 it gives the
    scalar check's first witness, which involves the added row."""
    kmax = max_dim_oracle(construction, q, params)
    if construction == "c1_ext":
        kmax += 1  # the border row
    good = raw_artifact(construction, q, params, kmax)
    assert gram_zero(good) == (True, None)
    assert gram_zero_scalar(good.field, good.matrix()) == (True, None)
    bad = raw_artifact(construction, q, params, kmax + 1)
    res = gram_zero(bad)
    assert res == gram_zero_scalar(bad.field, bad.matrix())
    assert not res[0] and kmax in res[1]


@pytest.mark.parametrize("construction,q,params", ODD_POOL,
                         ids=[f"{c}{q}-{i}" for i, (c, q, _) in
                              enumerate(ODD_POOL)])
def test_odd_matmul_route_matches_scalar(construction, q, params):
    assert q % 2 == 1
    check_vectorized_against_scalar(construction, q, params)


@pytest.mark.parametrize("construction,q,params", EVEN_POOL,
                         ids=[f"{c}{q}-{i}" for i, (c, q, _) in
                              enumerate(EVEN_POOL)])
def test_char2_route_matches_scalar(construction, q, params):
    assert q % 2 == 0
    check_vectorized_against_scalar(construction, q, params)


def check_border_term(q, m):
    # the border entry enters only Gram entry (0, 0): scaling it by theta
    # must make exactly that entry nonzero
    f = field_for_q(q)
    art = extend_c1(f, m, 3, subgroup_set(f, m))
    assert gram_zero(art) == (True, None)
    art.border_entry = art.field.mul(art.border_entry, 1)
    res = gram_zero(art)
    assert res == (False, (0, 0))
    assert res == gram_zero_scalar(art.field, art.matrix())


def test_odd_matmul_route_border_term():
    check_border_term(25, 13)


@pytest.mark.parametrize("construction,q,params,k,witness", [
    ("odd_union", 83, {"m1": 3, "m2": 7}, 46, (34, 46)),
    ("half_power_union", 211, {"ms": (6, 10, 14)}, 120, (14, 120)),
    ("mixed_union", 169, {"m1": 5, "m2": 6}, 100, (66, 100)),
    ("half_power_union", 631, {"ms": (10, 14, 18)}, 350, (34, 350)),
    ("half_power_union", 571, {"ms": (6, 10, 38)}, 300, (14, 300)),
], ids=["q83", "q211", "q169", "q631", "q571"])
def test_odd_known_bad_witnesses(construction, q, params, k, witness):
    # first witnesses at k + 1, pinned from the former per-pair loop (q = 83,
    # 211, 169) and from the former coefficient-plane matmuls (q = 631, 571)
    assert max_dim_oracle(construction, q, params) == k
    assert gram_zero(raw_artifact(construction, q, params, k)) == (True, None)
    assert gram_zero(raw_artifact(construction, q, params, k + 1)) == \
        (False, witness)


def test_char2_route_border_term():
    check_border_term(16, 17)


@pytest.mark.parametrize("construction,q,params,k,witness", [
    ("char2_union", 32, {"m1": 3, "m2": 11}, 17, (13, 16)),
    ("char2_union", 64, {"m1": 5, "m2": 13}, 34, (28, 33)),
    ("char2_union", 128, {"m1": 3, "m2": 43}, 65, (61, 64)),
    ("c1_ext", 64, {"m": 5}, 39, (25, 38)),
], ids=["q32", "q64", "q128", "ext64"])
def test_char2_known_bad_witnesses(construction, q, params, k, witness):
    # first witnesses at one row above the maximum, pinned from the former
    # per-pair loop
    assert gram_zero(raw_artifact(construction, q, params, k - 1)) == \
        (True, None)
    assert gram_zero(raw_artifact(construction, q, params, k)) == \
        (False, witness)


def scalar_nonzero_mask(art):
    """The k x k mask of the nonzero upper-triangle Gram entries, computed
    entry by entry from the materialized matrix with scalar field
    arithmetic."""
    g = gram_hermitian(art.field, art.matrix())
    return np.array([[l2 >= l1 and g[l1][l2] is not None
                      for l2 in range(art.k)] for l1 in range(art.k)])


def check_route_mask(art):
    assert np.array_equal(gram_nonzero(art),
                          np.flatnonzero(scalar_nonzero_mask(art)))
    assert gram_zero(art) == \
        gram_zero_scalar(art.field, art.matrix())


@pytest.mark.parametrize("construction,q,params,k", [
    ("c1_ext", 4, {"m": 5}, 3),
    ("c1", 8, {"m": 3}, 5),
    ("c1_ext", 8, {"m": 3}, 5),
    ("c1_ext", 8, {"m": 3}, 6),
    ("c1", 32, {"m": 3}, 20),
    ("c1", 32, {"m": 3}, 21),
], ids=["ext4-k3", "c1q8-k5", "ext8-k5", "ext8-k6", "c1q32-k20",
        "c1q32-k21"])
def test_char2_route_where_l1_plus_l2_wraps_mod_q_minus_1(construction, q,
                                                          params, k):
    # l1 + l2 reaches 2k - 2 >= q - 1, so the stage-1 rows are reused
    # modulo q - 1
    assert 2 * k - 1 > q - 1
    check_route_mask(raw_artifact(construction, q, params, k))


def stage1_row(art, s):
    """Sums R[s, g] by scalar field addition: the points split as
    E = (q+1)*e1 + (q-1)*e2 mod q^2 - 1, and class g collects
    theta^(B + (q+1)*(e1*s mod q-1)) over the points with e2 = g.  Every
    entry with l1 + l2 = s mod q - 1 is a sum over these classes, so an
    all-zero row s makes all those entries zero."""
    f = art.field
    q, N = f.q, f.N
    row = {}
    for e, w in zip(art.evalset.points.tolist(),
                    art.evalset.weights.tolist()):
        e1 = e * pow(q + 1, -1, q - 1) % (q - 1)
        e2 = e * pow(q - 1, -1, q + 1) % (q + 1)
        assert ((q + 1) * e1 + (q - 1) * e2 - e) % N == 0
        b = (w + art.shift * (q + 1) * e) % N
        row[e2] = f.add(row.get(e2), (b + (q + 1) * (e1 * s % (q - 1))) % N)
    return row


@pytest.mark.parametrize("k", [4, 5])
def test_char2_route_skips_zero_stage1_rows(k):
    # c1 at q = 8, m = 3: every R[s, g] vanishes for s in {0, .., 4, 6}, so
    # all entries with l1 + l2 = s mod 7 are zero; only s = 5 carries terms.
    # The part's live entries, 21 | 9 + l1 + 8*l2, all lie in row s = 5,
    # and the direct sum over every point meets the zero rows
    art = raw_artifact("c1", 8, {"m": 3}, k)
    zero = [s for s in range(7)
            if all(v is None for v in stage1_row(art, s).values())]
    assert zero == [0, 1, 2, 3, 4, 6]
    check_route_mask(art)
    ls = np.arange(k)
    live = (9 + ls[:, None] + 8 * ls) % 21 == 0
    assert not (live & ((ls[:, None] + ls) % 7 != 5)).any()
    assert live.flat[gram_nonzero(art)].all()
    assert np.array_equal(direct_mask(art), scalar_nonzero_mask(art))


def test_table2_row4_char2_route():
    # Table 2 row 4: q = 512, m = (19, 27), n = 22 484; first witness at
    # k = 265 as the former whole-triangle gather gave it
    assert max_dim_oracle("char2_union", 512, {"m1": 19, "m2": 27}) == 264
    art = raw_artifact("char2_union", 512, {"m1": 19, "m2": 27}, 264)
    assert art.n == 22484
    assert gram_zero(art) == (True, None)
    art = raw_artifact("char2_union", 512, {"m1": 19, "m2": 27}, 265)
    assert gram_zero(art) == (False, (245, 264))


def check_point_set_sums(data, qs):
    """Distinct random points with random GF(q)* weights, a random shift and
    an optional border, as the arrays of the Gram sums: no subgroup
    structure for the direct sum to rely on."""
    q = data.draw(st.sampled_from(qs))
    f = field_for_q(q)
    N = f.N
    E = data.draw(st.lists(st.integers(0, N - 1), min_size=1,
                           max_size=min(N, 20), unique=True))
    shift = data.draw(st.integers(0, N - 1))
    B = [((q + 1) * data.draw(st.integers(0, q - 2)) + shift * (q + 1) * e)
         % N for e in E]
    border = data.draw(st.none() | st.integers(0, N - 1))
    packed = 0 if border is None else int(f.tables[0][f.norm(border)])
    check_against_sums(f, data.draw(st.integers(1, 18)), B, E, packed)


@given(st.data())
def test_char2_route_on_arbitrary_point_sets(data):
    check_point_set_sums(data, [2, 4, 8, 16])


@given(st.data())
def test_odd_route_on_arbitrary_point_sets(data):
    check_point_set_sums(data, [3, 5, 7, 9])


def check_against_sums(f, k, B, E, border):
    """``direct_sum_mask`` against the scalar sums: entry (l1, l2) is
    sum_j theta^(B_j + E_j*(l1 + q*l2)), plus the border at (0, 0).
    Without Hermitian symmetry entries (l1, l2) and (l2, l1) vanish
    independently, so the mask also pins the sign of l1 - l2."""
    q, N = f.q, f.N
    got = direct_sum_mask(f, k, B, E, border)
    for l1 in range(k):
        for l2 in range(k):
            acc = None
            for b, e in zip(B, E):
                acc = f.add(acc, (b + e * (l1 + q * l2)) % N)
            if (l1, l2) == (0, 0) and border:
                acc = f.add(acc, int(f.tables[1][border]))
            assert got[l1, l2] == (l2 >= l1 and acc is not None), (l1, l2)


def draw_border(data, f):
    return data.draw(st.sampled_from([0] + f.tables[0][:4].tolist()))


def check_exponent_sums(data, qs):
    """The route's contract for any B and E, not only Gram inputs."""
    q = data.draw(st.sampled_from(qs))
    f = field_for_q(q)
    N = f.N
    n = data.draw(st.integers(1, 12))
    E = data.draw(st.lists(st.integers(0, N - 1), min_size=n, max_size=n))
    B = data.draw(st.lists(st.integers(0, N - 1), min_size=n, max_size=n))
    check_against_sums(f, data.draw(st.integers(1, 12)), B, E,
                       draw_border(data, f))


@given(st.data())
def test_char2_route_on_arbitrary_exponent_sums(data):
    check_exponent_sums(data, [2, 4, 8])


@given(st.data())
def test_odd_route_on_arbitrary_exponent_sums(data):
    check_exponent_sums(data, [3, 5, 7, 9])


@settings(max_examples=300)
@given(st.data())
def test_orbit_structured_sums(data):
    # r representatives in [0, L), L = N/M, repeated M times: point i + a*r
    # is E_i + a*L with B_i + a*D.  Intact (D = c*L), the sums carry the
    # cyclic symmetry of a subgroup coset; each broken variant, and the
    # intact one, must give the scalar sums.  With one B for every point
    # only the points show a moved one
    q = data.draw(st.sampled_from([4, 5, 7, 8, 9, 13]))
    f = field_for_q(q)
    N = f.N
    M = data.draw(st.sampled_from([m for m in range(2, 41) if N % m == 0]))
    L = N // M
    reps = data.draw(st.lists(st.integers(0, L - 1), min_size=1,
                              max_size=max(1, 40 // M), unique=True))
    reps.sort()
    bs = data.draw(st.lists(st.integers(0, N - 1), min_size=len(reps),
                            max_size=len(reps))
                   | st.integers(0, N - 1).map(lambda b: [b] * len(reps)))
    variant = data.draw(st.sampled_from(
        ["intact", "point", "weight", "step", "unsorted"]))
    D = data.draw(st.integers(0, M - 1)) * L
    if variant == "step":  # M*D is not 0 mod N
        D = data.draw(st.integers(0, N - 1).filter(lambda d: d % L))
    E = [e + a * L for a in range(M) for e in reps]
    B = [(b + a * D) % N for a in range(M) for b in bs]
    j = data.draw(st.integers(0, len(E) - 1))
    if variant == "point":
        E[j] = data.draw(st.integers(0, N - 1).filter(lambda e: e not in E))
    elif variant == "weight":
        B[j] = data.draw(st.integers(0, N - 1).filter(lambda b: b != B[j]))
    elif variant == "unsorted":
        perm = data.draw(st.permutations(range(len(E))))
        E, B = [E[i] for i in perm], [B[i] for i in perm]
    s0 = None  # a border that cancels entry (0, 0), as c1_ext's does
    for b in B:
        s0 = f.add(s0, b)
    border = draw_border(data, f)
    if s0 is not None and data.draw(st.booleans()):
        border = int(f.tables[0][f.neg(s0)])
    check_against_sums(f, data.draw(st.integers(1, 12)), B, E, border)


@pytest.mark.parametrize("moved", ["point", "weight"])
def test_orbit_broken_away_from_the_sampled_entries(moved):
    # the subgroup of order 12 in GF(25)*, unit weights, with one point (or
    # one weight) in the middle of the set changed, away from its first and
    # last points: given the subgroup's part, the parts check refuses the
    # moved point, and the direct sum over the arrays still gives the
    # scalar sums
    f = field_for_q(5)
    E, B = list(range(0, 24, 2)), [0] * 12
    intact = EvalSet(f, tuple(E), "subgroup", ((2, 0, 0),))
    assert intact.parts == subgroup_set(f, 2).parts
    if moved == "point":
        E[5] = 11
        with pytest.raises(HypothesisViolated):
            EvalSet(f, tuple(E), "subgroup", ((2, 0, 0),))
    else:
        B[5] = 7
    check_against_sums(f, 8, B, E, 0)


def test_low_dimension_c1_builds_no_tables():
    # c1 at q = 563, m = 3, k = 4: the set is one part, and no entry has
    # N/3 | 1 + t, so the 317 000-element tables stay unbuilt
    f = Field(563, 1)
    art = eval_code(f, subgroup_set(f, 3), 4, shift=1)
    assert art.evalset.parts == ((3, 0, 0),)
    assert gram_zero(art) == (True, None)
    assert "tables" not in vars(f)


def test_gram_check_runs_past_the_table_limit():
    # c1 over GF(2^24), q = 4096, m = 241: n = 69 615 points and no exp/log
    # tables, which stop at 2^22 elements.  The check reads the set's part,
    # so it passes at the oracle's bound and names the first witness above
    f = Field(2, 12)
    q = f.q
    assert f.q2 > TABLE_LIMIT
    es = subgroup_set(f, 241)
    assert len(es) == f.N // 241 == 69615
    k = first_violation(f.N // 241, q + 1, q)
    assert k == 2055
    assert gram_zero(eval_code(f, es, k, shift=1)) == (True, None)
    assert gram_zero(eval_code(f, es, k + 1, shift=1)) == (False, (2038, 2055))
    assert "tables" not in vars(f)


# --- the parts route against the direct sum ----------------------------------


def direct_mask(art):
    """The artifact's Gram mask by the direct sum over every point of its
    set's arrays (``direct_sum_mask``), B_j = w_j + shift*(q+1)*E_j."""
    f, es = art.field, art.evalset
    B = (es.weights + mulmod(art.shift * (f.q + 1), es.points, f.N)) % f.N
    border = 0
    if art.has_border and art.border_entry is not None:
        border = int(f.tables[0][f.norm(art.border_entry)])
    return direct_sum_mask(f, art.k, B, es.points, border)


def check_parts_route(art):
    """The parts route gives the nonzero entries of the direct sum's mask,
    and so the same first witness."""
    assert np.array_equal(gram_nonzero(art), np.flatnonzero(direct_mask(art)))
    return gram_zero(art)


@pytest.mark.parametrize("k,want", [(1108, (True, None)),
                                    (1109, (False, (738, 1108)))])
def test_gram_check_memory_is_below_a_quarter_of_k_squared(k, want):
    # Table 7 row 4 (q = 1849, n = 1 139 600) at its certified k and at
    # k + 1: the check holds its few nonzero entries, not a k x k array
    art = raw_artifact("mixed_union", 1849, {"m1": 5, "m2": 6}, k)
    assert art.n == 1139600
    tracemalloc.start()
    try:
        got = gram_zero(art)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < k * k / 4, peak


def test_parts_route_equals_the_direct_sum_on_every_sweep_choice():
    # every sweep choice of the seven constructions at every prime power
    # q <= 64, at the certified k (all zero) and at k + 1 where it fits
    cases = failing = 0
    for q in range(2, 65):
        pp = is_prime_power(q)
        if pp is None:
            continue
        for construction, route in ROUTES.items():
            if route.char2 not in (None, pp[0] == 2):
                continue
            for cert in sweep(construction, q):
                for k in (cert.k, cert.k + 1):
                    if k > cert.n:
                        continue
                    art = raw_artifact(construction, q, cert.params, k)
                    ok, witness = check_parts_route(art)
                    assert ok == (k == cert.k), (construction, q, k, witness)
                    cases += 1
                    failing += not ok
    # every k + 1 fits, and fails
    assert cases > 500 and 2 * failing == cases


@st.composite
def drawn_union_artifact(draw, qs):
    """A weighted union of 1-4 random parts (m, alpha, beta) of GF(q^2),
    with a random shift, an optional border and k rows.  In odd
    characteristic parts take distinct betas freely; in characteristic 2
    they share one weight, so that the set keeps its parts.  A part often
    repeats an earlier part's weight, or its subgroup, so that points are
    held several times by one weight."""
    q = draw(st.sampled_from(qs))
    f = field_for_q(q)
    N = f.N
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.sampled_from([m for m in range(1, N + 1) if N % m == 0
                                  and N // m <= 40]))
        if parts and draw(st.booleans()):
            m = parts[-1][0]
        alphas = [0, q + 1] + ([(q + 1) // 2] if q % 2 and m % 2 == 0 else [])
        if parts and parts[0][1] in alphas and (f.p == 2
                                                or draw(st.booleans())):
            parts.append((m,) + parts[0][1:])
        else:
            parts.append((m, draw(st.sampled_from(alphas)),
                          (q + 1) * draw(st.integers(0, q - 2))))
    try:
        es = weighted_union(f, tuple(parts), "drawn")
    except WeightSumVanishes:
        assume(False)
    border = draw(st.none() | st.integers(0, N - 1))
    return CodeArtifact(f, es, k=draw(st.integers(1, 12)),
                        shift=draw(st.integers(0, N - 1)),
                        has_border=border is not None, border_entry=border)


def check_drawn_union(art):
    for k in (art.k, art.k + 1):
        grown = CodeArtifact(art.field, art.evalset, k, art.shift,
                             art.has_border, art.border_entry)
        assert check_parts_route(grown) == gram_zero_structured(grown)


@settings(max_examples=200)
@given(drawn_union_artifact([3, 5, 7, 9, 13]))
def test_odd_parts_route_on_drawn_unions(art):
    check_drawn_union(art)


@settings(max_examples=100)
@given(drawn_union_artifact([2, 4, 8]))
def test_char2_parts_route_on_drawn_unions(art):
    check_drawn_union(art)


def test_parts_route_reads_three_betas():
    # three parts of distinct weights over GF(13^2), each pair sharing
    # points, with a border: the drawn unions reach such sets too, this one
    # always runs
    f = field_for_q(13)
    parts = ((4, 14, 0), (6, 14, 14 * 3), (12, 0, 14 * 7))
    es = weighted_union(f, parts, "three betas")
    assert len({beta for _, _, beta in es.parts}) == 3
    art = CodeArtifact(f, es, 10, 5, has_border=True, border_entry=31)
    assert check_parts_route(art) == gram_zero_structured(art)


# --- the basis of the theta^beta ---------------------------------------------


@settings(max_examples=300)
@given(st.data())
def test_beta_basis_decides_zero_like_the_polynomial_basis(data):
    # 1-4 exponents theta^beta, mostly c_0^j theta^r with r from a pool of
    # two, and a GF(p)-combination of them: zero on the basis of
    # ``_beta_basis`` exactly when zero on the coefficient vectors
    q = data.draw(st.sampled_from([9, 25, 27, 49, 121, 8, 16]))
    f = field_for_q(q)
    R = f.N // (f.p - 1)
    pool = data.draw(st.lists(st.integers(0, R - 1), min_size=2, max_size=2))
    betas = sorted(set(data.draw(st.lists(
        st.builds(lambda j, r: j * R + r, st.integers(0, f.p - 2),
                  st.sampled_from(pool)) | st.integers(0, f.N - 1),
        min_size=1, max_size=4))))
    c = np.array(data.draw(st.lists(st.integers(0, f.p - 1),
                                    min_size=len(betas),
                                    max_size=len(betas))))
    zero = not (c @ _beta_basis(f, betas) % f.p).any()
    assert zero == (not (c @ f.power_vectors(betas) % f.p).any())


def test_mixed_union_masks_on_the_class_basis(monkeypatch):
    # the class basis against the companion-matrix vectors, on every sweep
    # choice of mixed_union at six q, at k and k + 1: the same nonzero
    # entries, so the same first witness.  Each set has betas 0 and H = q + 1, two classes;
    # none of these q is prime, so H lies past 2h, where the vectors take
    # companion-matrix powers
    cases = []
    for q in (9, 25, 49, 121, 169, 289):
        for cert in sweep("mixed_union", q):
            for k in (cert.k, cert.k + 1):
                if k <= cert.n:
                    cases.append(raw_artifact("mixed_union", q, cert.params,
                                              k))
    got = [(gram_nonzero(art), gram_zero(art)) for art in cases]
    monkeypatch.setattr(codes, "_beta_basis",
                        lambda f, betas: f.power_vectors(betas))
    for art, (keys, verdict) in zip(cases, got):
        assert np.array_equal(gram_nonzero(art), keys)
        assert gram_zero(art) == verdict
    assert len(cases) > 150
    assert all(art.evalset.parts[1][2] == art.field.q + 1 for art in cases)
    assert sum(verdict[0] for _, verdict in got) * 2 == len(cases)


# --- the digit-lane sums ------------------------------------------------------


def add_chain_logs(f, idx, starts, zero):
    """Log of each run's sum by a ``Field.add`` chain, -1 for zero: the
    scalar reference for ``packed_sums``."""
    bounds = list(starts) + [idx.shape[-1]]
    out = np.empty(idx.shape[:-1] + (len(starts),), dtype=np.int64)
    for pos in np.ndindex(idx.shape[:-1]):
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            acc = None
            for j in range(lo, hi):
                if not zero[pos + (j,)]:
                    acc = f.add(acc, int(idx[pos + (j,)]) % f.N)
            out[pos + (r,)] = -1 if acc is None else acc
    return out


def high_digit_terms(f, rng, shape):
    """Exponents below 2N of elements whose every digit is p - 1 or p - 2,
    so that runs of 65535 // (p-1) + 1 terms overflow a 16-bit lane."""
    p, n = f.p, 2 * f.h
    digits = rng.integers(p - 2, p, size=shape + (n,))
    packed = digits @ p ** np.arange(n)
    return f.tables[1][packed] + f.N * rng.integers(0, 2, size=shape)


@pytest.mark.parametrize("q,starts,length", [
    (1021, [0], 300),  # one run of every term
    (1021, [0, 5, 100, 101, 250], 300),
    (2039, [0], 300),
    (2039, [0, 31, 33, 70, 200], 300),
    (27, [0, 3], 40),  # three uint32 words of lanes
    (81, [0, 3], 40),  # two uint64 words of lanes
    (27, [0, 1, 50000], 2 * 32768 + 40),  # h = 3 runs past the cap
])
def test_packed_sums_equal_the_add_chain(q, starts, length):
    f = field_for_q(q)
    rng = np.random.default_rng(q + len(starts))
    idx = high_digit_terms(f, rng, (2, length))
    cap = 65535 // (f.p - 1)
    runs = np.diff(starts + [length])
    if runs.max() > cap:  # the terms would carry out of a lane unsplit
        run = idx[0, starts[runs.argmax()]:][:runs.max()]
        assert max(sum(f.coeffs(int(e) % f.N)[d] for e in run)
                   for d in range(2 * f.h)) > 65535
    zero = rng.random(idx.shape) < 0.2
    for mask in (None, zero):
        want = add_chain_logs(
            f, idx, starts, np.zeros(idx.shape, bool) if mask is None else mask)
        got = packed_sums(f, idx, starts, mask)
        assert got.shape == want.shape
        assert np.array_equal(f.tables[1][got], want)


def test_gram_entry_equals_matrix_inner_product():
    for construction, q, params, kmax in POOL:
        art = raw_artifact(construction, q, params, kmax)
        f = art.field
        mat = art.matrix()
        for l1 in range(art.k):
            for l2 in range(l1, min(art.k, l1 + 3)):
                assert gram_entry(art, l1, l2) == hermitian_ip(f, mat[l1], mat[l2])


def test_weighted_pair_sum_is_the_borderless_entry(gf169):
    art = raw_artifact("mixed_union", 13, {"m1": 7, "m2": 6}, 6)
    for l1 in range(6):
        for l2 in range(6):
            assert weighted_pair_sum(gf169, art.evalset, art.shift, l1, l2) == \
                gram_entry(art, l1, l2)


def test_extended_border_makes_row0_self_orthogonal(gf25):
    f = gf25
    art = extend_c1(f, 3, 3, subgroup_set(f, 3))
    assert art.has_border and art.border_entry is not None
    r0 = art.row(0)
    assert r0[0] == art.border_entry
    assert art.row(1)[0] is None and art.row(2)[0] is None
    assert hermitian_ip(f, r0, r0) is None
    # without the border, row 0 pairs to a nonzero sum with itself
    bare = eval_code(f, subgroup_set(f, 3), 3, shift=0)
    assert hermitian_ip(f, bare.row(0), bare.row(0)) is not None


def test_column_scales_are_norm_roots():
    art = raw_artifact("mixed_union", 13, {"m1": 7, "m2": 6}, 6)
    f = art.field
    for scale, w in zip(art.column_scales, art.evalset.weights):
        assert f.norm(scale) == w


def test_rows_are_exact_where_int64_products_overflow():
    # GF(3^20) has N = 3^20 - 1 > 2^31.5, so (shift + l)*e passes 2^63 for
    # a shift near N; the rows must still be the exact exponents
    f = Field(3, 10)
    q, N = f.q, f.N
    assert f.q2 > TABLE_LIMIT and (N - 1) ** 2 >= 1 << 63
    points = [j * (N // 8) for j in range(8)]
    es = EvalSet(f, points, "r", ((N // 8, q + 1, (q + 1) * (q - 2)),))
    weights = es.weights.tolist()
    assert len(set(weights)) == 4 and max(weights) > N // 2
    art = eval_code(f, es, 3, shift=N - 2)
    for l in range(3):
        assert art.row(l) == tuple((w // (q + 1) + (N - 2 + l) * e) % N
                                   for e, w in zip(points, weights))


def test_rank_full_for_pool_artifacts():
    for construction, q, params, kmax in POOL:
        art = raw_artifact(construction, q, params, kmax)
        assert rank(art.field, art.matrix()) == art.k


def test_rank_and_nonsingular_edge_cases(gf25):
    f = gf25
    assert rank(f, []) == 0
    assert rank(f, [(0, 0), (0, 0)]) == 1  # duplicate rows
    assert rank(f, [(None, None)]) == 0
    assert is_nonsingular(f, [(0, None), (None, 0)])
    assert not is_nonsingular(f, [(0, 0), (0, 0)])
    assert not is_nonsingular(f, [(None, 0), (None, 5)])


def test_matrix_to_strings(gf25):
    art = extend_c1(gf25, 3, 2, subgroup_set(gf25, 3))
    lines = matrix_to_strings(art.matrix())
    assert len(lines) == 2
    assert lines[0].split()[0] == str(art.border_entry)
    assert lines[1].split()[0] == "z"
    assert all(tok == "z" or tok.isdigit() for line in lines for tok in line.split())
    assert matrix_to_strings([(None, 17), (0,)]) == ["z 17", "0"]
