"""Top-level acceptance gate: one test per shipped claim.

Each test is self-contained, rebuilds its artifacts from scratch (except for
the shared full-audit fixture), checks exact values (no tolerances), and
enforces its own wall-clock budget.
"""

import itertools
import math
import time

import pytest

from naive_algebra import subgroup_power_sum
from qmds.codes import gram_zero
from qmds.constructions import build, max_dim_oracle
from qmds.errors import DimensionExceedsOracle
from qmds.evalsets import find_h_shift_exponent
from qmds.field import field_for_q
from qmds.numtheory import (
    dirichlet_search,
    divisors,
    pair_search,
    quadratic_family_search,
)
from qmds.tables import TABLE1, TABLE4, TABLE5, TABLE6, TABLE7, TABLE8
from qmds.verify import check_mds_enumeration, check_mds_rank
from test_audit import EXPECTED as AUDIT_EXPECTED
from test_codes import raw_artifact

MATCH = "MATCH"
MISMATCH = "ARITHMETIC_MISMATCH"
HYP_FAIL = "HYPOTHESIS_FAIL"


def test_01_power_sum_predicate_matches_direct_evaluation():
    t0 = time.monotonic()
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field_for_q(q)
        n_group = q * q - 1
        for m in divisors(n_group):
            for t in range(n_group):
                # S(m, t) vanishes exactly when the order N/m does not
                # divide t
                direct = subgroup_power_sum(f, m, t)
                assert (t % (n_group // m) != 0) == (direct is None), \
                    (q, m, t)
    assert time.monotonic() - t0 < 30


def test_02_single_subgroup_dimension_bound_is_sharp():
    t0 = time.monotonic()
    for q in (5, 8, 11, 13, 17):
        for m in divisors(q + 1):
            if m < 3 or m % 2 == 0:
                continue
            k_max = max_dim_oracle("c1", q, {"m": m})
            ok, _ = gram_zero(raw_artifact("c1", q, {"m": m}, k_max))
            assert ok, (q, m)
            over, witness = gram_zero(raw_artifact("c1", q, {"m": m},
                                                   k_max + 1))
            assert not over and witness is not None, (q, m)
            kk = (m - 1) // 2
            assert k_max >= ((kk + 1) * (q - 1)) // (2 * kk + 1), (q, m)
    assert time.monotonic() - t0 < 10


def test_03_minor_scan_and_enumeration_agree_within_budget():
    t0 = time.monotonic()
    pool = []
    for q in (5, 8, 11, 13, 17):
        for m in divisors(q + 1):
            if m < 3 or m % 2 == 0:
                continue
            pool.append(("c1", q, {"m": m}, max_dim_oracle("c1", q, {"m": m})))
    for row in TABLE1:
        pool.append(("c1_ext", row["q"], {"m": row["m"]}, row["k"]))
    pool.append(("half_power", 9, {"m": 8}, 5))
    pool.append(("half_power", 13, {"m": 6}, 8))
    pool.append(("mixed_union", 13, {"m1": 7, "m2": 6}, 6))

    checked = 0
    for construction, q, params, k in pool:
        art = raw_artifact(construction, q, params, k)
        if math.comb(art.n, art.k) > 2_000_000:
            continue
        report = check_mds_rank(art.field, art.matrix())
        assert report.is_mds, (construction, q, params, k, report.witness)
        checked += 1
    assert checked >= 5  # the in-budget subset is non-trivial

    for q, ks in ((5, (2,)), (8, (1, 2, 3))):
        for k in ks:
            art = raw_artifact("c1", q, {"m": 3}, k)
            weight = check_mds_enumeration(art.field, art.matrix())
            minors = check_mds_rank(art.field, art.matrix())
            assert weight == art.n - art.k + 1, (q, k)
            assert minors.is_mds == (weight == art.n - art.k + 1), (q, k)
    assert time.monotonic() - t0 < 60


def test_04_extended_subgroup_reference_rows_rebuild_exactly():
    t0 = time.monotonic()
    for row in TABLE1:
        cert = build("c1_ext", row["q"], m=row["m"], k=row["k"],
                     want_matrix="require")
        assert cert.verified_level == "FULL_MATRIX"
        ok, _ = gram_zero(cert.artifact)
        assert ok, row
        triple = cert.quantum.triple()
        assert triple == row["code"], row
        n, kq, d = triple
        assert kq == n - 2 * cert.k and d == cert.k + 1, row
        assert row["sub"] == row["q"] == cert.q
    by_row = {r["row"]: r for r in TABLE1}
    assert by_row[1]["code"] == (33, 15, 10) and by_row[1]["q"] == 17
    assert by_row[7]["code"] == (105, 53, 27) and by_row[7]["q"] == 53
    assert time.monotonic() - t0 < 120


def test_05_char2_union_full_matrix_and_dimension_conflict_flag(audit_report):
    t0 = time.monotonic()
    cert = build("char2_union", 32, m1=3, m2=11, k=16, want_matrix="require")
    assert cert.verified_level == "FULL_MATRIX"
    assert (cert.n, cert.k) == (372, 16)
    ok, _ = gram_zero(cert.artifact)
    assert ok

    assert max_dim_oracle("char2_union", 64, {"m1": 5, "m2": 13}) == 33

    flagged = audit_report.row(2, 2)
    assert flagged.verdict == MISMATCH
    notes = "; ".join(flagged.notes)
    assert "triple implies k = 33" in notes  # printed k column says 32
    assert "body text also prints (1008, 942, 33)" in notes
    assert time.monotonic() - t0 < 120


def test_06_odd_union_lengths_recompute_with_one_flagged_row(audit_report):
    row1 = audit_report.row(3, 1)
    assert row1.verdict == MISMATCH
    assert row1.printed["n"] == 412
    assert row1.recomputed["n"] == 392
    assert "printed length 412; recomputed 392" in "; ".join(row1.notes)
    for row_id, printed_n in ((2, 720), (3, 1624), (4, 2952)):
        row = audit_report.row(3, row_id)
        assert row.verdict == MATCH
        assert row.printed["n"] == printed_n == row.recomputed["n"]
    row2 = audit_report.row(3, 2)
    assert row2.level == "FULL_MATRIX"
    assert "verified at k = 22 (Gram matrix is zero)" in "; ".join(row2.notes)


def test_07_half_power_dimension_cap_is_exact():
    t0 = time.monotonic()
    cert = build("half_power", 13, m=6)
    assert cert.k == 8 and cert.verified_level == "FULL_MATRIX"
    ok, _ = gram_zero(cert.artifact)
    assert ok
    with pytest.raises(DimensionExceedsOracle):
        build("half_power", 13, m=6, k=9)
    over, witness = gram_zero(raw_artifact("half_power", 13, {"m": 6}, 9))
    assert not over and witness is not None
    assert time.monotonic() - t0 < 5


def test_08_mixed_union_shift_search_and_flagged_row(audit_report):
    t0 = time.monotonic()
    assert find_h_shift_exponent(13, 7, 6) == 14

    cert = build("mixed_union", 13, m1=7, m2=6)
    assert (cert.n, cert.k) == (48, 6)
    assert cert.verified_level == "FULL_MATRIX"
    ok, _ = gram_zero(cert.artifact)
    assert ok
    assert cert.formula_d_max == 7 == (13 + 1) // 2

    flagged = audit_report.row(6, 2)
    assert flagged.verdict == MISMATCH
    assert "printed length 48; recomputed 64" in "; ".join(flagged.notes)
    assert time.monotonic() - t0 < 30


def test_09_parameter_searches_recover_worked_examples():
    t0 = time.monotonic()
    pairs = {(r.m1, r.m2, r.m) for r in pair_search(200)}
    assert (176, 105, 66) in pairs
    assert (36, 175, 30) in pairs

    by_pair: dict = {}
    for row in TABLE8:
        key = (row["m_even"], row["m_odd"])
        by_pair.setdefault(key, []).append(row["q"])
    for (m_even, m_odd), qs in by_pair.items():
        primes = dirichlet_search(m_even, m_odd, max(qs) + 1)
        for q in qs:
            assert q in primes, (m_even, m_odd, q)
    confirmed = {q for qs in by_pair.values() for q in qs}
    assert confirmed == {11969, 30449, 46549, 59149}

    family = {rec.k: rec for rec in quadratic_family_search(32)}
    assert 14 in family
    assert family[14].q == 2969
    assert family[14].d_claimed == 1494
    assert time.monotonic() - t0 < 60


# Rows the full audit flags.  These four are pinned with their notes in
# tests 05, 06 and 08 and in test_audit; every other flagged row is derived
# from its printed entries in _closed_form_flags below.
NOTED_MISMATCHES = {(2, 2), (3, 1), (4, 1), (6, 2)}
EXPECTED_MISMATCHES = {(2, 2), (3, 1), (4, 1), (4, 2), (5, 2), (6, 2),
                       (6, 3), (6, 4), (7, 5)}
EXPECTED_HYPOTHESIS_FAILS = {(4, 5)}


def _union_length(N, ms):
    """|<w^m1> u ... u <w^mr>| in a cyclic group of order N: the subgroup
    <w^m> has N/m elements and two of them meet in N/lcm points."""
    total = 0
    for size in range(1, len(ms) + 1):
        for chosen in itertools.combinations(ms, size):
            total += (-1) ** (size + 1) * (N // math.lcm(*chosen))
    return total


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def _printed(table, row_id):
    return next(r for r in table if r["row"] == row_id)


def _closed_form_flags():
    """Re-derive the flagged rows outside NOTED_MISMATCHES from the printed
    table entries with integer arithmetic alone (no qmds routine), asserting
    the exact printed discrepancy of each; returns (mismatch rows,
    hypothesis-fail rows)."""
    # (4, 2): q = 2ab + 1 = 43, printed subscript 41.
    r = _printed(TABLE4, 2)
    assert r["q"] == 2 * r["a"] * r["b"] + 1 == 43
    assert r["sub"] == 41

    # (4, 5): q = 2ab + 1 = 91 = 7 * 13 is not a prime power.
    r = _printed(TABLE4, 5)
    assert r["q"] == 2 * r["a"] * r["b"] + 1 == 91 == 7 * 13
    assert not _is_prime_power(r["q"])

    # (5, 2): union of the subgroups of index (6, 10, 22) at q = 331 has
    # 28220 points; the printed 28552 exceeds it by N/lcm(6, 10, 22) = 332.
    r = _printed(TABLE5, 2)
    q = r["q"]
    ms = (2 * r["a"], 2 * r["b"], 2 * r["c"])
    assert q == 2 * r["a"] * r["b"] * r["c"] + 1 == 331 and ms == (6, 10, 22)
    n = _union_length(q * q - 1, ms)
    assert n == 28220
    assert r["n"] - n == (q * q - 1) // math.lcm(*ms) == 332

    # (6, 3): for m = (q+1)/2 the adjacent pair (m, m - 1) has union length
    # 2(q-1) + 2(q+1) - 4 = 4(q-1); at q = 29 that is 112, printed 56.  The
    # only other m = (q+1)/2 row printing a different length is (6, 2).
    r = _printed(TABLE6, 3)
    q, m = r["q"], r["m"]
    assert 2 * m == q + 1
    assert _union_length(q * q - 1, (m, m - 1)) == 4 * (q - 1) == 112
    assert r["n"] == (q * q - 1) // m == 56  # the subgroup <w^m> alone
    half = [s for s in TABLE6 if 2 * s["m"] == s["q"] + 1]
    for s in half:
        assert _union_length(s["q"] ** 2 - 1, (s["m"], s["m"] - 1)) \
            == 4 * (s["q"] - 1)
    assert {s["row"] for s in half if s["n"] != 4 * (s["q"] - 1)} == {2, 3}

    # (6, 4): m = 19 = (q+1)/2 and the printed length 144 = 4(q-1) both give
    # q = 37; the printed subscript is 41.
    r = _printed(TABLE6, 4)
    assert r["q"] == 2 * r["m"] - 1 == 37
    assert r["n"] == 4 * (r["q"] - 1)
    assert r["sub"] == 41

    # (7, 5): the pair (4kk+1, 2(2kk+1)) has union length
    # N/(2kk+1) = (q-1)/(2kk+1) * (q+1).  Every Table 7 row prints that
    # factorization except row 5, whose second factor 6870 should be
    # q + 1 = 6890.
    r = _printed(TABLE7, 5)
    q, kk = r["q"], r["kk"]
    n = _union_length(q * q - 1, (4 * kk + 1, 2 * (2 * kk + 1)))
    assert n == (q * q - 1) // (2 * kk + 1) == 6779760
    assert n == (q - 1) // (2 * kk + 1) * (q + 1)
    f1, f2 = r["n_factors"]
    assert f1 == (q - 1) // (2 * kk + 1) and (f2, q + 1) == (6870, 6890)
    assert f1 * f2 == 6760080
    assert [s["row"] for s in TABLE7 if s["n_factors"][1] != s["q"] + 1] \
        == [5]

    return {(4, 2), (5, 2), (6, 3), (6, 4), (7, 5)}, {(4, 5)}


def test_10_full_audit_verdict_inventory(audit_report, audit_seconds):
    rows = [r for r in audit_report.rows if 1 <= r.table <= 8]
    assert len(rows) == 43
    assert audit_seconds < 900

    derived_mismatches, derived_fails = _closed_form_flags()
    assert EXPECTED_MISMATCHES == NOTED_MISMATCHES | derived_mismatches
    assert EXPECTED_HYPOTHESIS_FAILS == derived_fails
    assert EXPECTED_MISMATCHES == {
        key for key, (v, _, _) in AUDIT_EXPECTED.items() if v == MISMATCH}
    assert EXPECTED_HYPOTHESIS_FAILS == {
        key for key, (v, _, _) in AUDIT_EXPECTED.items() if v == HYP_FAIL}

    problems = []
    for verdict, want in ((MISMATCH, EXPECTED_MISMATCHES),
                          (HYP_FAIL, EXPECTED_HYPOTHESIS_FAILS)):
        got = {(r.table, r.row) for r in rows if r.verdict == verdict}
        if got != want:
            problems.append(
                f"{verdict} rows {sorted(got)} differ from the pinned "
                f"{sorted(want)}: newly flagged {sorted(got - want)}, "
                f"no longer flagged {sorted(want - got)}")
    level_violations = []
    for r in rows:
        q = r.printed.get("q", 2 ** r.printed.get("h", 0))
        if r.verdict == HYP_FAIL:
            ok = r.level == "NONE"  # nothing can be rebuilt
        else:
            # large fields are accepted at condition level
            ok = r.level == "FULL_MATRIX" or (r.level == "CONDITION_ONLY"
                                              and q >= 631)
        if not ok:
            level_violations.append((r.table, r.row, r.verdict, r.level, q))
    if level_violations:
        problems.append(
            f"rows whose level breaks the rule (NONE for {HYP_FAIL}, else "
            f"FULL_MATRIX below q = 631): {level_violations}")
    assert not problems, "; ".join(problems)
