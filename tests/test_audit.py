"""Frozen grading of every bundled reference table.

The expected verdicts below were established by recomputing each printed
value with the independent routines in this package (lengths via the
inclusion-exclusion counters, dimension ranges via the vanishing-condition
oracle, matrices via the Gram check) and were then frozen here so any
regression in the recomputation pipeline surfaces as a diff.
"""

import hashlib
import json

import pytest

from qmds.audit import audit_tables
from qmds.errors import UsageError

FULL = "FULL_MATRIX"
COND = "CONDITION_ONLY"
NONE = "NONE"
M = "MATCH"
MIS = "ARITHMETIC_MISMATCH"
HF = "HYPOTHESIS_FAIL"

# (table, row) -> (verdict, level, oracle max k or None)
EXPECTED = {
    (1, 1): (M, FULL, None), (1, 2): (M, FULL, None), (1, 3): (M, FULL, None),
    (1, 4): (M, FULL, None), (1, 5): (M, FULL, None), (1, 6): (M, FULL, None),
    (1, 7): (M, FULL, None),
    (2, 1): (M, FULL, 16), (2, 2): (MIS, FULL, 33), (2, 3): (M, FULL, 64),
    (2, 4): (M, FULL, 264),
    (3, 1): (MIS, FULL, 16), (3, 2): (M, FULL, 22), (3, 3): (M, FULL, 34),
    (3, 4): (M, FULL, 46),
    (4, 1): (MIS, FULL, 18), (4, 2): (MIS, FULL, 24), (4, 3): (M, FULL, 36),
    (4, 4): (M, FULL, 40), (4, 5): (HF, NONE, None),
    (5, 1): (M, FULL, 120), (5, 2): (MIS, FULL, 180), (5, 3): (M, FULL, 350),
    (5, 4): (M, FULL, 300),
    (6, 1): (M, FULL, 6), (6, 2): (MIS, FULL, 8), (6, 3): (MIS, FULL, 14),
    (6, 4): (MIS, FULL, 18), (6, 5): (M, FULL, 24), (6, 6): (M, FULL, 28),
    (6, 7): (M, FULL, 36), (6, 8): (M, FULL, 48),
    (7, 1): (M, FULL, 100), (7, 2): (M, FULL, 172), (7, 3): (M, FULL, 820),
    (7, 4): (M, FULL, 1108), (7, 5): (MIS, COND, 3708), (7, 6): (M, COND, 28728),
    (7, 7): (M, COND, 12816),
    (8, 1): (M, COND, 6040), (8, 2): (M, COND, 15368), (8, 3): (M, COND, 23406),
    (8, 4): (M, COND, 29742),
}

EXPECTED_FAMILIES = {
    1: ("subgroup_odd", "EXTERNAL"),
    2: ("subgroup_even", "EXTERNAL"),
    3: ("half_power", "EXTERNAL"),
    4: ("subgroup_odd_extended", M),
    5: ("half_split", M),
    6: ("adjacent_pair", M),
    7: ("quarter_split", M),
    8: ("even_pair_doubling", M),
    9: ("even_pair_doubling_generic", M),
    10: ("even_triple_doubling", M),
    11: ("searched_pair", M),
    12: ("quadratic_family", MIS),
}


def test_row_inventory(audit_report):
    assert {(r.table, r.row) for r in audit_report.rows} == set(EXPECTED)


def test_verdicts_and_levels(audit_report):
    got = {(r.table, r.row): (r.verdict, r.level) for r in audit_report.rows}
    want = {key: (v, lvl) for key, (v, lvl, _) in EXPECTED.items()}
    assert got == want


def test_oracle_maxima(audit_report):
    for key, (_, _, k_max) in EXPECTED.items():
        if k_max is None:
            continue
        row = audit_report.row(*key)
        assert row.recomputed["max_k"] == k_max, key


def test_summary_counts(audit_report):
    assert audit_report.summary() == {
        "rows_total": 43,
        "match": 33,
        "arithmetic_mismatch": 9,
        "hypothesis_fail": 1,
        "full_matrix": 35,
        "condition_only": 7,
        "families_match": 8,
        "families_mismatch": 1,
        "families_external": 3,
    }
    assert audit_report.has_hypothesis_fail


def test_notes_spot_checks(audit_report):
    r22 = audit_report.row(2, 2)
    joined = "; ".join(r22.notes)
    assert "triple implies k = 33" in joined
    assert "body text also prints (1008, 942, 33)" in joined
    assert "oracle max k = 33" in joined

    r31 = audit_report.row(3, 1)
    assert "printed length 412; recomputed 392" in "; ".join(r31.notes)
    assert r31.recomputed["n"] == 392

    r41 = audit_report.row(4, 1)
    joined = "; ".join(r41.notes)
    assert "printed subscript 29; recomputed 31" in joined
    assert "printed distance bound 17; recomputed 19" in joined

    r45 = audit_report.row(4, 5)
    assert "q = 91 is not a prime power" in "; ".join(r45.notes)

    r52 = audit_report.row(5, 2)
    assert "printed length 28552; recomputed 28220" in "; ".join(r52.notes)

    r62 = audit_report.row(6, 2)
    joined = "; ".join(r62.notes)
    assert "printed subscript 25; recomputed 17" in joined
    assert "printed length 48; recomputed 64" in joined

    r63 = audit_report.row(6, 3)
    assert "printed length 56; recomputed 112" in "; ".join(r63.notes)

    r64 = audit_report.row(6, 4)
    assert "printed subscript 41; recomputed 37" in "; ".join(r64.notes)

    r75 = audit_report.row(7, 5)
    assert "printed length 6760080; recomputed 6779760" in "; ".join(r75.notes)


def test_full_matrix_rows_report_gram_zero(audit_report):
    for r in audit_report.rows:
        if r.level == FULL:
            assert any("Gram matrix is zero" in note for note in r.notes)
        elif r.level == COND:
            assert any("conditions only" in note for note in r.notes)


def test_table3_row2_verified_at_k22(audit_report):
    notes = "; ".join(audit_report.row(3, 2).notes)
    assert "verified at k = 22 (Gram matrix is zero)" in notes


def test_family_statuses(audit_report):
    got = {f.row: (f.family, f.status) for f in audit_report.families}
    assert got == EXPECTED_FAMILIES


def test_family_quadratic_mismatch_is_off_by_one(audit_report):
    fam = audit_report.family(12)
    assert any("takes values [1]" in note for note in fam.notes)
    for inst in fam.instances:
        assert inst["claimed"] - inst["derived"] == 1


def test_family_instances_have_derived_bounds(audit_report):
    for fam in audit_report.families:
        assert fam.instances  # every family is spot-checked on instances
        for inst in fam.instances:
            assert "claimed" in inst and "derived" in inst


def test_report_lookup_errors(audit_report):
    with pytest.raises(KeyError):
        audit_report.row(1, 99)
    with pytest.raises(KeyError):
        audit_report.family(99)


def test_to_json_deterministic(audit_report):
    a = json.dumps(audit_report.to_json(), sort_keys=True)
    b = json.dumps(audit_report.to_json(), sort_keys=True)
    assert a == b
    assert json.loads(a)["summary"]["rows_total"] == 43


def _audit_sha256(report) -> str:
    """sha256 of the bytes ``qmds audit`` writes for ``report``."""
    text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_full_audit_bytes_are_pinned(audit_report):
    # `qmds audit`: any change to a verdict, level, note, instance or the
    # JSON layout changes this hash
    assert _audit_sha256(audit_report) == (
        "60c3c778c648a11da9f29e3e6476beac897a8dd662a2129fca98cc8fad4539e5")


def test_condition_only_audit_bytes_are_pinned():
    # `qmds audit --condition-only`
    assert _audit_sha256(audit_tables(full=False)) == (
        "9caaec18f19d152c0e380d6084288152131352ba751d84c6d2cf8f322ccad265")


def test_partial_audit_is_reproducible():
    a = audit_tables((1,))
    b = audit_tables((1,))
    assert a.to_json() == b.to_json()
    assert len(a.rows) == 7 and not a.families
    assert not a.has_hypothesis_fail


def test_partial_audit_without_table4_has_no_hypothesis_fail():
    rep = audit_tables((2, 3), full=False)
    assert not rep.has_hypothesis_fail
    assert len(rep.rows) == 8


def test_audit_rejects_unknown_table_ids():
    with pytest.raises(UsageError):
        audit_tables((0,))
    with pytest.raises(UsageError):
        audit_tables((10,))
