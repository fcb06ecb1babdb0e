import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive_algebra import minors_scan, scalar_min_weight
from qmds.codes import eval_code
from qmds.errors import BudgetExceeded, CapacityExceeded, InvalidDims
from qmds.evalsets import subgroup_set
from qmds.field import TABLE_LIMIT, Field, field_for_q
from qmds.verify import (
    MINOR_ENTRIES,
    check_mds_enumeration,
    check_mds_rank,
    quantum_params,
    verify_artifact,
)
from test_codes import raw_artifact


def test_quantum_params_identity():
    for n, k, q in [(21, 4, 8), (32, 8, 17), (48, 6, 13), (392, 16, 29)]:
        qp = quantum_params(n, k, q)
        assert qp.triple() == (n, n - 2 * k, k + 1)
        assert qp.n - qp.k == 2 * (qp.d - 1)  # saturates the quantum bound
        assert qp.singleton_ok


def test_quantum_params_rejects_bad_dims():
    with pytest.raises(InvalidDims):
        quantum_params(10, -1, 5)
    with pytest.raises(InvalidDims):
        quantum_params(10, 6, 5)  # 2k > n leaves no room


MDS_POOL = [
    ("c1", 5, {"m": 3}, 2),
    ("c1", 8, {"m": 3}, 4),
    ("c1", 8, {"m": 9}, 3),
    ("half_power", 9, {"m": 8}, 5),
]


@pytest.mark.parametrize("construction,q,params,k", MDS_POOL)
def test_minor_scan_confirms_mds(construction, q, params, k):
    art = raw_artifact(construction, q, params, k)
    report = check_mds_rank(art.field, art.matrix())
    assert report.is_mds
    assert report.minors_checked == math.comb(art.n, k)
    assert report.witness is None


def test_minor_scan_catches_singular_minor():
    f = field_for_q(5)
    es = subgroup_set(f, 3)
    art = eval_code(f, es, 2, shift=1)
    rows = [list(r) for r in art.matrix()]
    rows[1] = list(rows[0])  # duplicate row forces every 2x2 minor singular
    report = check_mds_rank(f, rows)
    assert not report.is_mds
    assert report.witness == (0, 1)
    assert report.minors_checked == 1  # stops at the first failure


def _random_matrix(rng, f, k, n, zero_share=0.2):
    return [[None if rng.random() < zero_share else rng.randrange(f.N)
             for _ in range(n)] for _ in range(k)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_minor_scan_matches_scalar_scan_on_random_matrices(q):
    # GF(4), GF(9), GF(16), GF(25), GF(49), GF(81): the prefix walk must
    # give the scalar scan's verdict, count and first witness, for k <= 6
    # and zero shares up to 0.5
    f = field_for_q(q)
    rng = random.Random(1000 + q)
    for trial in range(40):
        k = rng.randint(1, 6)
        rows = _random_matrix(rng, f, k, rng.randint(k, max(8, k + 4)),
                              zero_share=rng.uniform(0, 0.5))
        if trial % 3 == 0 and len(rows[0]) > 1:  # duplicate a column
            src, dst = rng.sample(range(len(rows[0])), 2)
            for row in rows:
                row[dst] = row[src]
        report = check_mds_rank(f, rows)
        assert (report.is_mds, report.minors_checked, report.witness) == \
            minors_scan(f, rows), (q, rows)


@given(st.data())
def test_minor_scan_matches_scalar_scan_on_drawn_matrices(data):
    f = field_for_q(data.draw(st.sampled_from([2, 3, 4, 5, 7, 9])))
    k = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(k, k + 4))
    entry = st.none() | st.integers(0, f.N - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=k, max_size=k))
    report = check_mds_rank(f, rows)
    assert (report.is_mds, report.minors_checked, report.witness) == \
        minors_scan(f, rows)


def _vandermonde(f, k, n):
    """Rows x^0 .. x^(k-1) at the distinct points theta^0 .. theta^(n-1):
    every maximal minor is nonsingular."""
    return [[i * j % f.N for j in range(n)] for i in range(k)]


def _first_containing(n, k, cols):
    """1-based index and value of the first k-subset of range(n), in
    combinations order, that contains ``cols``."""
    for i, combo in enumerate(itertools.combinations(range(n), k), 1):
        if set(cols) <= set(combo):
            return i, combo


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_minor_scan_rank_deficient_prefixes(q, k):
    # a zero column, or two equal columns among the first k - 1 of a minor,
    # make every minor through them singular: the first such minor is the
    # witness, whether its prefix dies above the last level or at it
    f = field_for_q(q)
    n = k + 4
    cases = [(c,) for c in range(n)] + \
        list(itertools.combinations(range(n), 2))
    for cols in cases:
        rows = _vandermonde(f, k, n)
        for row in rows:
            if len(cols) == 1:
                row[cols[0]] = None
            else:
                row[cols[1]] = row[cols[0]]
        report = check_mds_rank(f, rows)
        expected = (False,) + _first_containing(n, k, cols)
        assert (report.is_mds, report.minors_checked, report.witness) == \
            expected == minors_scan(f, rows), cols


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_minor_scan_duplicate_rows(k):
    f = field_for_q(5)
    rows = _vandermonde(f, k, k + 3)
    rows[-1] = list(rows[0])
    report = check_mds_rank(f, rows)
    assert (report.is_mds, report.minors_checked, report.witness) == \
        (False, 1, tuple(range(k)))


def test_minor_scan_first_singular_minor_past_first_chunk():
    # 2 x 200 over GF(256) with columns (1, theta^j): only the pair of
    # duplicated columns (150, 199) is singular, at index 18 724 of C(200, 2)
    f = field_for_q(16)
    rows = [[0] * 200, list(range(200))]
    rows[1][199] = 150
    report = check_mds_rank(f, rows)
    assert report.minors_checked > MINOR_ENTRIES // 4
    assert (report.is_mds, report.minors_checked, report.witness) == \
        minors_scan(f, rows) == (False, 18724, (150, 199))


@pytest.mark.parametrize("k,n,cols,expected", [
    (2, 300, (150, 299), 33824),
    (3, 220, (160, 219), 22160),
    (4, 190, (180, 189), 17542),
])
def test_minor_scan_first_singular_minor_past_first_block(k, n, cols,
                                                          expected):
    # a Vandermonde matrix over GF(1024) whose columns cols are equal: the
    # first singular minor is (0, .., cols), past the first block of
    # MINOR_ENTRIES // k minors at the last level; C(190, 4) is past the
    # default budget, which the walk's early stop does not need
    f = field_for_q(32)
    rows = _vandermonde(f, k, n)
    for row in rows:
        row[cols[1]] = row[cols[0]]
    witness = tuple(range(k - 2)) + cols
    report = check_mds_rank(f, rows, budget=math.comb(n, k))
    assert expected > MINOR_ENTRIES // k
    assert (report.is_mds, report.minors_checked, report.witness) == \
        minors_scan(f, rows) == (False, expected, witness)


@pytest.mark.parametrize("k,n", [(8, 20), (6, 28), (4, 60), (3, 200),
                                 (2, 2000)])
def test_minor_scan_memory_is_bounded_on_mds_inputs(k, n):
    # every minor is decided, and the walk's blocks keep each level's
    # arrays small whatever k and n are
    f = field_for_q(64)
    f.tables, f.mask_ext  # built before tracing: the walk only reads them
    rows = _vandermonde(f, k, n)
    tracemalloc.start()
    try:
        report = check_mds_rank(f, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_mds and report.witness is None
    assert report.minors_checked == math.comb(n, k)
    assert peak <= 10 * 2 ** 20, peak


def test_minor_scan_budget():
    art = raw_artifact("c1", 13, {"m": 7}, 6)  # C(24, 6) = 134596 minors
    with pytest.raises(BudgetExceeded):
        check_mds_rank(art.field, art.matrix(), budget=1000)


@pytest.mark.parametrize("rows", [
    [[0, 1], [2, 3], [4, 5]],  # 3 x 2: more rows than columns
    [[0], [1]],  # 2 x 1
    [],  # no rows
    [[0, 1, 2], [3, 4]],  # ragged
], ids=["3x2", "2x1", "empty", "ragged"])
def test_mds_routes_reject_degenerate_matrices(rows):
    # neither route may certify, or fail on, something that is not a k x n
    # matrix with 1 <= k <= n
    f = field_for_q(3)
    with pytest.raises(InvalidDims):
        check_mds_rank(f, rows)
    with pytest.raises(InvalidDims):
        check_mds_enumeration(f, rows)


def test_enumeration_routes_agree_small_odd():
    art = raw_artifact("c1", 5, {"m": 3}, 2)
    w = check_mds_enumeration(art.field, art.matrix())
    assert w == art.n - art.k + 1 == 7


def test_enumeration_routes_agree_char2():
    # the scalar reference must report the same minimum weight
    for k in (2, 3):
        art = raw_artifact("c1", 8, {"m": 3}, k)
        rows = [tuple(r) for r in art.matrix()]
        fast = check_mds_enumeration(art.field, art.matrix())
        slow = scalar_min_weight(art.field, rows)
        assert fast == slow == art.n - art.k + 1


def test_enumeration_routes_agree_odd_prime_bulk():
    # exercises the odd-characteristic numpy path
    art = raw_artifact("c1", 5, {"m": 3}, 3)  # above the oracle but still a code
    rows = [tuple(r) for r in art.matrix()]
    fast = check_mds_enumeration(art.field, art.matrix())
    slow = scalar_min_weight(art.field, rows)
    assert fast == slow


@pytest.mark.parametrize("q", [2, 4, 3, 5])
def test_projective_enumeration_matches_full_reference(q):
    # one message per line through the origin against all q^(2k) messages,
    # for p = 2 (GF(4), GF(16)) and odd p (GF(9), GF(25))
    f = field_for_q(q)
    rng = random.Random(2000 + q)
    for k in (1, 2, 3):
        for _ in range(3):
            rows = _random_matrix(rng, f, k, rng.randint(k, 6))
            assert check_mds_enumeration(f, rows) == \
                scalar_min_weight(f, rows), (q, rows)


def test_enumeration_budget():
    art = raw_artifact("c1", 13, {"m": 7}, 6)  # 169**6 messages
    with pytest.raises(BudgetExceeded):
        check_mds_enumeration(art.field, art.matrix(), budget=10_000)


def test_mds_routes_need_table_mode():
    f = Field(2, 12)
    assert f.q2 > TABLE_LIMIT
    rows = [[0, None], [None, 0]]
    with pytest.raises(CapacityExceeded):
        check_mds_rank(f, rows)
    with pytest.raises(CapacityExceeded):
        check_mds_enumeration(f, rows)


def test_verify_artifact_full_agreement():
    art = raw_artifact("c1", 8, {"m": 3}, 4)
    report = verify_artifact(art)
    assert report.self_orthogonal
    assert report.gram_witness is None
    assert report.minors is not None and report.minors.is_mds
    assert report.min_weight == art.n - art.k + 1 == 18
    assert report.mds_expected_weight == 18
    assert report.routes_agree
    assert report.quantum.triple() == (21, 13, 5)
    assert report.all_passed
    assert report.minors_skipped is None and report.enum_skipped is None


def test_verify_artifact_flags_non_orthogonal():
    # one dimension above the oracle the code stops being self-orthogonal
    art = raw_artifact("c1", 5, {"m": 3}, 3)
    report = verify_artifact(art)
    assert not report.self_orthogonal
    assert report.gram_witness is not None
    assert not report.all_passed


def test_verify_artifact_reports_skips():
    art = raw_artifact("c1", 13, {"m": 7}, 6)
    report = verify_artifact(art, budget_minors=100, budget_enum=100)
    assert report.self_orthogonal
    assert report.minors is None and report.min_weight is None
    assert "budget" in report.minors_skipped
    assert "budget" in report.enum_skipped
    assert report.routes_agree is None  # neither distance route ran
    assert report.all_passed  # nothing that ran failed; skips stay visible


def test_crafted_non_mds_control():
    # a 2 x 3 matrix over GF(25) with two identical columns is never MDS
    f = field_for_q(5)
    one = 0
    rows = [[one, one, f.embed_int(2)], [one, one, f.embed_int(3)]]
    report = check_mds_rank(f, rows)
    assert not report.is_mds
    rows_ok = [[one, None, one], [None, one, one]]
    assert check_mds_rank(f, rows_ok).is_mds
