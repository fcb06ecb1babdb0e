import itertools
import json
import math

import pytest

from naive_algebra import gram_zero_structured, trial_division_sweep_params
from qmds import constructions
from qmds.constructions import (
    CONSTRUCTION_IDS,
    Certificate,
    adjacent_pair,
    build,
    code_length,
    conditions_for,
    formula_d_max,
    half_split_pair,
    max_dim_oracle,
    quarter_split_pair,
    searched_pair,
    sweep,
)
from qmds.errors import (
    BadDivisor,
    CapacityExceeded,
    DimensionExceedsOracle,
    HypothesisViolated,
    NotChar2,
    NotCoprime,
    NotPrime,
    NoValidH,
    UsageError,
)
from qmds import evalsets
from qmds.codes import CodeArtifact, gram_zero
from qmds.evalsets import find_h_shift_exponent
from qmds.field import Field
from qmds.numtheory import is_prime_power


# --- hypothesis validation ------------------------------------------------------


def test_validation_c1():
    with pytest.raises(HypothesisViolated):
        build("c1", 17, m=6)  # even m
    with pytest.raises(HypothesisViolated):
        build("c1", 17, m=1)  # too small
    with pytest.raises(BadDivisor):
        build("c1", 17, m=5)  # 5 does not divide 18
    with pytest.raises(NotPrime):
        build("c1", 6, m=3)
    with pytest.raises(UsageError):
        build("mystery", 17, m=3)
    with pytest.raises(UsageError):
        build("c1", 17, m=3, want_matrix="perhaps")


def test_validation_char2_union():
    with pytest.raises(NotChar2):
        build("char2_union", 13, m1=3, m2=7)
    with pytest.raises(HypothesisViolated):
        build("char2_union", 8, m1=9, m2=1)  # m2 = 1 is not admissible
    with pytest.raises(HypothesisViolated):
        build("char2_union", 32, m1=11, m2=3)  # requires m1 < m2
    with pytest.raises(NotCoprime):
        build("char2_union", 8, m1=3, m2=9)
    with pytest.raises(BadDivisor):
        build("char2_union", 32, m1=3, m2=7)


def test_validation_odd_union():
    with pytest.raises(HypothesisViolated):
        build("odd_union", 8, m1=3, m2=7)  # q must be odd
    with pytest.raises(NotCoprime):
        build("odd_union", 89, m1=3, m2=9)
    with pytest.raises(BadDivisor):
        build("odd_union", 29, m1=3, m2=7)


def test_validation_half_power():
    with pytest.raises(HypothesisViolated):
        build("half_power", 8, m=6)  # q must be odd
    with pytest.raises(HypothesisViolated):
        build("half_power", 13, m=4)  # below the minimum 6
    with pytest.raises(BadDivisor):
        build("half_power", 13, m=8)


def test_validation_half_power_union():
    with pytest.raises(HypothesisViolated):
        build("half_power_union", 31, ms=(6,))  # need two divisors
    with pytest.raises(HypothesisViolated):
        build("half_power_union", 31, ms=(6, 6))
    # lcm(8, 10) = 40 = q - 1 at q = 41, so the pair is admissible in either order
    cert = build("half_power_union", 41, ms=(10, 8), want_matrix="never")
    assert cert.params["ms"] == (8, 10)


def test_validation_half_power_union_lcm():
    # lcm(6, 10) = lcm(6, 30) = 30 = q - 1 at q = 31: both pairs pass
    build("half_power_union", 31, ms=(6, 10), want_matrix="never")
    cert = build("half_power_union", 31, ms=(30, 6), want_matrix="never")
    assert cert.params["ms"] == (6, 30)
    with pytest.raises(HypothesisViolated):
        build("half_power_union", 61, ms=(6, 10))  # lcm 30 != 60


def test_validation_mixed_union():
    with pytest.raises(HypothesisViolated):
        build("mixed_union", 8, m1=3, m2=2)  # q must be odd
    with pytest.raises(BadDivisor):
        build("mixed_union", 13, m1=3, m2=6)  # 3 does not divide 14
    with pytest.raises(HypothesisViolated):
        build("mixed_union", 13, m1=7, m2=5)  # m2 must be even


# --- certificates ----------------------------------------------------------------


def test_c1_certificate_fields():
    cert = build("c1", 17, m=9)
    assert isinstance(cert, Certificate)
    assert cert.q == 17
    assert cert.n == 32 and cert.k == 8 == cert.max_k_oracle
    assert cert.conditions == ((32, 18),)
    assert cert.verified_level == "FULL_MATRIX"
    assert cert.quantum.triple() == (32, 16, 9)
    assert cert.quantum.singleton_ok
    assert cert.formula_d_max == 9
    assert cert.discrepancies == ()
    assert cert.artifact is not None and cert.artifact.k == 8


def builds_recorded(monkeypatch):
    """The parts of each ``evalsets.weighted_union`` call, as it is made."""
    calls, real = [], evalsets.weighted_union

    def record(field, parts, label):
        calls.append(parts)
        return real(field, parts, label)
    monkeypatch.setattr(evalsets, "weighted_union", record)
    return calls


def test_c1_ext_builds_its_subgroup_once(monkeypatch):
    # the matrix branch hands the set it built to extend_c1
    calls = builds_recorded(monkeypatch)
    cert = build("c1_ext", 17, m=9)
    assert cert.verified_level == "FULL_MATRIX" and cert.artifact.has_border
    assert calls == [((9, 0, 0),)]
    assert cert.artifact.evalset.points.tolist() == list(range(0, 288, 9))


@pytest.mark.parametrize("construction,q,params", [
    ("char2_union", 512, {"m1": 19, "m2": 27}),  # Table 2 row 4
    ("odd_union", 29, {"m1": 3, "m2": 5}),
    ("half_power", 13, {"m": 6}),
    ("half_power_union", 31, {"ms": (6, 10)}),
    ("c1", 17, {"m": 9}),
    ("c1_ext", 17, {"m": 9}),
    ("mixed_union", 13, {"m1": 7, "m2": 6}),
    ("mixed_union", 49, {"m1": 25, "m2": 24}),  # Table 6 row 5
])
def test_only_mixed_union_certificates_build_tables(monkeypatch, construction,
                                                    q, params):
    # the name is older than the check: no certificate, mixed_union's
    # included, builds a table.  The Gram check reads every entry off the
    # parts and the set checks its points by exponent arithmetic, reading
    # no weight, so neither the field's exp/log tables nor GF(q)'s Zech
    # table is built, at k and, on the same set, at k + 1.  Each
    # theta^beta the parts need is c_0^j theta^r, r = beta mod N/(p-1),
    # and the few distinct theta^r are independent over GF(p), so the
    # modulus is not searched either
    fields = []

    def fresh(q):
        fields.append(Field(*is_prime_power(q)))
        return fields[-1]
    monkeypatch.setattr(constructions, "field_for_q", fresh)
    cert = build(construction, q, want_matrix="require", **params)
    art = cert.artifact
    grown = CodeArtifact(art.field, art.evalset, art.k + 1, art.shift,
                         art.has_border, art.border_entry)
    assert gram_zero(grown)[0] is False
    assert fields == [art.field]
    assert not {"tables", "subfield_zech", "modulus"} & set(vars(art.field))


def test_no_sweep_certificate_builds_tables_or_searches(monkeypatch):
    # counted over every sweep choice of the seven constructions at every
    # prime power q <= 127 and at q = 169 and 211, each certified at
    # FULL_MATRIX on a fresh field: none builds a table or reads the
    # modulus
    fields = []

    def fresh(q):
        fields.append(Field(*is_prime_power(q)))
        return fields[-1]
    monkeypatch.setattr(constructions, "field_for_q", fresh)
    for construction, route in constructions.ROUTES.items():
        for q in [*range(2, 128), 169, 211]:
            pp = is_prime_power(q)
            if pp is None or route.char2 not in (None, pp[0] == 2):
                continue
            for cert in constructions.sweep(construction, q):
                built = build(construction, q, want_matrix="require",
                              **cert.params)
                assert built.verified_level == "FULL_MATRIX"
    assert len(fields) == 761
    read = [vars(f).keys() & {"tables", "subfield_zech", "modulus"}
            for f in fields]
    assert read == [set()] * len(fields)


def test_k_defaults_and_caps():
    assert build("c1", 17, m=9).k == 8
    assert build("c1_ext", 17, m=9).k == 9  # one border row on top
    assert build("c1", 17, m=9, k=3).k == 3
    with pytest.raises(DimensionExceedsOracle):
        build("c1", 17, m=9, k=9)
    with pytest.raises(DimensionExceedsOracle):
        build("c1_ext", 17, m=9, k=11)
    with pytest.raises(UsageError):
        build("c1", 17, m=9, k=0)
    with pytest.raises(UsageError):
        build("c1_ext", 17, m=9, k=1)


def test_oracle_sharpness_for_single_condition_routes():
    # at the oracle bound the Gram matrix is exactly zero; one row beyond, the
    # raw evaluation matrix has a nonzero entry
    from test_codes import raw_artifact

    for construction, q, params in [
        ("c1", 17, {"m": 9}),
        ("c1", 5, {"m": 3}),
        ("half_power", 13, {"m": 6}),
    ]:
        kmax = max_dim_oracle(construction, q, params)
        good = raw_artifact(construction, q, params, kmax)
        assert gram_zero_structured(good) == (True, None)
        ok, _ = gram_zero_structured(raw_artifact(construction, q, params, kmax + 1))
        assert not ok


def test_build_rejects_unsound_dimension_request():
    with pytest.raises(DimensionExceedsOracle):
        build("half_power", 13, m=6, k=9)


def test_formula_d_max_frozen():
    assert formula_d_max("c1", 17, {"m": 9}) == 9
    assert formula_d_max("c1_ext", 17, {"m": 9}) == 9
    assert formula_d_max("half_power", 13, {"m": 6}) == 9
    assert formula_d_max("mixed_union", 13, {"m1": 7, "m2": 6}) == 7
    assert formula_d_max("half_power_union", 31, {"ms": (6, 10)}) == 19
    assert formula_d_max("char2_union", 64, {"m1": 5, "m2": 13}) == 34


def test_code_length_routes():
    assert code_length("c1", 17, {"m": 9}) == 32
    assert code_length("c1_ext", 17, {"m": 9}) == 33
    assert code_length("char2_union", 32, {"m1": 3, "m2": 11}) == 372
    assert code_length("odd_union", 29, {"m1": 3, "m2": 5}) == 392
    assert code_length("half_power", 13, {"m": 6}) == 28
    assert code_length("half_power_union", 31, {"ms": (6, 10)}) == 224
    assert code_length("mixed_union", 13, {"m1": 7, "m2": 6}) == 48


def test_conditions_for_shapes():
    assert conditions_for("c1", 17, {"m": 9}) == ((32, 18),)
    assert conditions_for("char2_union", 32, {"m1": 3, "m2": 11}) == (
        (341, 33),
        (93, 33),
    )
    assert conditions_for("half_power", 13, {"m": 6}) == ((28, 7),)
    assert conditions_for("mixed_union", 13, {"m1": 7, "m2": 6}) == (
        (24, 14),
        (28, 7),
    )
    # N = 17^2 - 1 = 288, 29^2 - 1 = 840, 31^2 - 1 = 960
    assert conditions_for("c1_ext", 17, {"m": 9}) == ((32, 18),)
    assert conditions_for("odd_union", 29, {"m1": 3, "m2": 5}) == (
        (280, 30),
        (168, 30),
    )
    assert conditions_for("half_power_union", 31, {"ms": (6, 10)}) == (
        (160, 16),
        (96, 16),
    )


def test_mixed_union_certificate_reports_H():
    cert = build("mixed_union", 13, m1=7, m2=6)
    assert cert.extras["H"] == 14
    assert cert.verified_level == "FULL_MATRIX"
    cond_only = build("mixed_union", 13, m1=7, m2=6, want_matrix="never")
    assert cond_only.extras["H"] == 14
    assert cond_only.verified_level == "CONDITION_ONLY"
    assert cond_only.artifact is None


def test_mixed_union_matrix_certificate_H_is_the_builders(monkeypatch):
    # on the matrix path the set is built from the route's parts, whose even
    # part carries the certificate's H, for every sweep choice at every odd
    # q <= 61
    calls = builds_recorded(monkeypatch)
    checked = 0
    for q in range(3, 62, 2):
        if not is_prime_power(q):
            continue
        for choice in sweep("mixed_union", q):
            m1, m2 = choice.params["m1"], choice.params["m2"]
            cert = build("mixed_union", q, m1=m1, m2=m2, want_matrix="require")
            assert cert.verified_level == "FULL_MATRIX"
            H = find_h_shift_exponent(q, m1, m2)
            assert calls.pop() == ((m1, q + 1, 0), (m2, (q + 1) // 2, H))
            assert cert.extras["H"] == cert.to_json()["H"] == H, (q, m1, m2)
            checked += 1
    assert checked == 88 and calls == []


@pytest.mark.parametrize("want_matrix, level", [
    ("require", "FULL_MATRIX"), ("never", "CONDITION_ONLY")])
def test_one_h_search_per_certificate(monkeypatch, want_matrix, level):
    # the certificate's H and the set's even part share one search, and the
    # conditions and the oracle, which read only m and alpha, run none
    calls, real = [], evalsets.find_h_shift_exponent

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(evalsets, "find_h_shift_exponent", counted)
    cert = build("mixed_union", 13, m1=7, m2=6, want_matrix=want_matrix)
    assert cert.verified_level == level and cert.extras["H"] == 14
    assert calls == [(13, 7, 6)]
    calls.clear()
    assert conditions_for("mixed_union", 13, {"m1": 7, "m2": 6}) == (
        (24, 14), (28, 7))
    assert max_dim_oracle("mixed_union", 13, {"m1": 7, "m2": 6}) == 6
    assert calls == []


def test_want_matrix_require_on_oversized_field():
    with pytest.raises(CapacityExceeded):
        build("mixed_union", 11969, m1=105, m2=176, want_matrix="require")
    cert = build("mixed_union", 11969, m1=105, m2=176, want_matrix="never")
    assert cert.verified_level == "CONDITION_ONLY"
    assert cert.max_k_oracle == 6040
    assert cert.extras["H"] > 0


def test_matrix_gate_reads_the_work_of_the_parts_route(monkeypatch):
    # the work is n + sum_i k^2 m_i/(2N): the points the parts check passes
    # over and the entries the Gram check visits, not the k*n entries of the
    # matrix; q = 47, m = 46 gives n = 48, k = 24 and 48 + 6
    def level(want_matrix="auto"):
        return build("half_power", 47, m=46,
                     want_matrix=want_matrix).verified_level
    work = 48 + 24 * 24 * 46 // (2 * (47 * 47 - 1))
    assert work == 54 < 24 * 48
    monkeypatch.setattr(constructions, "MATRIX_ENTRY_BUDGET", work)
    assert level() == level("require") == "FULL_MATRIX"
    monkeypatch.setattr(constructions, "MATRIX_ENTRY_BUDGET", work - 1)
    assert level() == "CONDITION_ONLY"
    with pytest.raises(CapacityExceeded):
        level("require")


def test_formula_bound_is_tight_against_oracle():
    # across every construction family tried, the closed-form distance bound
    # exactly matches the dimension oracle (max k = d_formula - 1), so the
    # certificate carries no discrepancy note
    for cert in [
        build("c1", 17, m=3, want_matrix="never"),
        build("c1", 17, m=9, want_matrix="never"),
        build("half_power", 13, m=6, want_matrix="never"),
        build("mixed_union", 13, m1=7, m2=6, want_matrix="never"),
        build("half_power_union", 31, ms=(6, 10), want_matrix="never"),
        build("odd_union", 29, m1=3, m2=5, want_matrix="never"),
        build("char2_union", 32, m1=3, m2=11, want_matrix="never"),
    ]:
        assert cert.max_k_oracle == cert.formula_d_max - 1
        assert cert.discrepancies == ()


def test_certificate_to_json_deterministic_and_shaped():
    a = build("c1", 8, m=3, k=4).to_json()
    b = build("c1", 8, m=3, k=4).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["construction"] == "c1"
    assert a["quantum"] == [21, 13, 5]
    assert a["conditions"] == [[21, 9]]
    assert len(a["matrix"]) == 4  # embedded for small FULL_MATRIX certificates
    assert all(isinstance(rowstr, str) for rowstr in a["matrix"])
    cond = build("c1", 8, m=3, k=4, want_matrix="never").to_json()
    assert "matrix" not in cond


# --- parameter mappers ------------------------------------------------------------


def test_adjacent_pair():
    assert adjacent_pair(13, 7) == {"m1": 7, "m2": 6}
    assert adjacent_pair(17, 9) == {"m1": 9, "m2": 8}
    with pytest.raises(BadDivisor):
        adjacent_pair(13, 5)  # 5 does not divide 14
    with pytest.raises(BadDivisor):
        adjacent_pair(19, 5)  # 4 does not divide 18


def test_half_split_pair():
    assert half_split_pair(13) == {"m1": 7, "m2": 6}
    assert half_split_pair(29) == {"m1": 15, "m2": 14}
    with pytest.raises(HypothesisViolated):
        half_split_pair(19)  # q = 3 mod 4


def test_quarter_split_pair():
    assert quarter_split_pair(169, 1) == {"m1": 5, "m2": 6}
    assert quarter_split_pair(6889, 3) == {"m1": 13, "m2": 14}
    with pytest.raises(HypothesisViolated):
        quarter_split_pair(169, 0)
    # the advertised length identity n = N / (2kk + 1)
    for q, kk in [(169, 1), (6889, 3)]:
        params = quarter_split_pair(q, kk)
        n = code_length("mixed_union", q, params)
        assert n == (q * q - 1) // (2 * kk + 1)


def test_searched_pair():
    assert searched_pair(11969, 176, 105) == {"m1": 105, "m2": 176}
    with pytest.raises(HypothesisViolated):
        searched_pair(11969, 176, 103)


def test_sweep_c1():
    certs = sweep("c1", 17)
    assert [(c.params["m"], c.max_k_oracle) for c in certs] == [(3, 10), (9, 8)]
    assert all(c.verified_level == "CONDITION_ONLY" for c in certs)


def test_sweep_mixed_skips_pairs_without_a_shift():
    certs = sweep("mixed_union", 13)
    pairs = [(c.params["m1"], c.params["m2"]) for c in certs]
    assert pairs == [(7, 4), (7, 6), (7, 12)]  # (7, 2) admits no shift
    assert all(c.extras["H"] == 14 for c in certs)


def test_sweep_char2():
    certs = sweep("char2_union", 32)
    assert [(c.params["m1"], c.params["m2"]) for c in certs] == [(3, 11)]


def test_sweep_half_power_union():
    certs = sweep("half_power_union", 31)
    # every even-divisor pair of q - 1 = 30 whose lcm is exactly 30
    assert [tuple(c.params["ms"]) for c in certs] == [(6, 10), (6, 30), (10, 30)]


# which characteristics each construction admits: 2, odd, or both
SWEEP_CHAR = {"c1": (True, True), "c1_ext": (True, True),
              "char2_union": (True, False), "odd_union": (False, True),
              "half_power": (False, True), "half_power_union": (False, True),
              "mixed_union": (False, True)}


@pytest.mark.parametrize("construction", CONSTRUCTION_IDS)
def test_sweep_matches_trial_division(construction):
    even_ok, odd_ok = SWEEP_CHAR[construction]
    for q in range(2, 201):
        pp = is_prime_power(q)
        if pp is None or not (even_ok if pp[0] == 2 else odd_ok):
            continue
        expected = []
        for params in trial_division_sweep_params(construction, q):
            try:
                expected.append(build(construction, q, want_matrix="never",
                                      **params).to_json())
            except NoValidH:
                assert construction == "mixed_union"
            except (UsageError, DimensionExceedsOracle):
                # the oracle admits no k: at q = 2 the only choice m = 3
                # gives a length-1 subgroup code with bound 0
                assert q == 2 and construction in ("c1", "c1_ext")
        got = [c.to_json() for c in sweep(construction, q)]
        assert got == expected, (construction, q)


def test_sweep_at_q_near_1e15():
    q = 1000000000000037  # prime; q + 1 = 2 * 3 * 11593 * 34679 * 414559
    assert q + 1 == 2 * 3 * 11593 * 34679 * 414559
    odd = sorted(math.prod(c) for r in range(1, 5)
                 for c in itertools.combinations((3, 11593, 34679, 414559), r))
    certs = sweep("c1", q)
    assert len(certs) == 15
    assert [c.params["m"] for c in certs] == odd


def test_each_certificate_is_validated_once(monkeypatch):
    # build validates its parameters once, and a sweep once per choice it
    # tries, including the mixed_union pairs it drops for want of a shift
    calls = []
    validate = constructions.validate
    monkeypatch.setattr(constructions, "validate",
                        lambda *a: calls.append(a) or validate(*a))
    build("half_power_union", 41, ms=(10, 8), want_matrix="never")
    assert calls == [("half_power_union", 41, {"ms": (10, 8)})]
    for construction, q in (("c1", 17), ("mixed_union", 29),
                            ("half_power_union", 61)):
        calls.clear()
        sweep(construction, q)
        assert [params for _, _, params in calls] == \
            trial_division_sweep_params(construction, q), (construction, q)


def test_sweep_deterministic():
    a = [c.to_json() for c in sweep("mixed_union", 29)]
    b = [c.to_json() for c in sweep("mixed_union", 29)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_sweep_rejects_unknown():
    with pytest.raises(UsageError):
        sweep("mystery", 13)


def test_construction_id_list_is_frozen():
    assert CONSTRUCTION_IDS == (
        "c1",
        "c1_ext",
        "char2_union",
        "odd_union",
        "half_power",
        "half_power_union",
        "mixed_union",
    )
