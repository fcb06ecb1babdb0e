import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive_algebra as na
from qmds.errors import (
    CapacityExceeded,
    DivisionByZero,
    NotInSubfield,
    NotPrime,
    UsageError,
)
from qmds import audit, cli
from qmds import field as field_module
from qmds.codes import eval_code, gram_zero
from qmds.evalsets import subgroup_set
from qmds.field import (SIZE_LIMIT, TABLE_LIMIT, Field, build_field,
                        canonical_modulus, field_for_q)
from qmds.numtheory import is_prime_power, least_primitive_root

# frozen canonical moduli, coefficient order 1, x, x^2, ...
FROZEN_MODULI = {
    (2, 1): (1, 1, 1),  # x^2 + x + 1
    (3, 1): (2, 1, 1),  # x^2 + x + 2
    (5, 1): (2, 1, 1),
    (7, 1): (3, 1, 1),
    (2, 3): (1, 0, 0, 0, 0, 1, 1),  # x^6 + x^5 + 1
    # Table 2's fields, q = 32, 64, 128, 512
    (2, 5): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1),
    (13, 2): (2, 0, 2, 6, 1),
    (3, 6): (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1),
    (37, 2): (2, 0, 1, 5, 1),
    # q^2 = 2^40, the largest field SIZE_LIMIT admits: x^40 + x^37 + x^36 + x^35 + 1
    (2, 20): (1,) + (0,) * 34 + (1, 1, 1, 0, 0, 1),
}


def _pad(t, width):
    return tuple(t) + (0,) * (width - len(t))


@pytest.mark.parametrize("p,h", sorted(FROZEN_MODULI))
def test_canonical_modulus_frozen(p, h):
    assert build_field(p, h).modulus == FROZEN_MODULI[(p, h)]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (2, 4), (3, 4), (2, 6)])
def test_canonical_modulus_against_naive_scan(p, n):
    naive = na.naive_canonical_modulus(p, n)
    f = build_field(p, n // 2)
    assert f.modulus == naive
    assert na.naive_is_irreducible(naive, p)
    assert na.naive_order_of_x(naive, p) == p**n - 1


def test_canonical_modulus_direct_call():
    from qmds.numtheory import factorize

    assert canonical_modulus(5, 2, tuple(factorize(24))) == (2, 1, 1)
    with pytest.raises(UsageError):  # every field here has even degree
        canonical_modulus(3, 3, tuple(factorize(26)))


def test_constant_coefficient_is_the_least_primitive_root():
    # the norm of x down to GF(p) is c_0, and every generator of GF(p)* is
    # the norm of a primitive element, so the first candidate with x
    # primitive has the least one; for p = 2 that is 1.  The Rabin scan
    # tries every c_0 from 1, so it does not assume this
    from qmds.numtheory import factorize

    qs = [q for q in range(3, 4000, 2) if is_prime_power(q)]
    assert len(qs) == 578
    for q in qs:
        p, h = is_prime_power(q)
        n_factors = tuple(factorize(q * q - 1))
        c0 = least_primitive_root(p)
        assert canonical_modulus(p, 2 * h, n_factors)[0] == c0, q
        assert na.rabin_canonical_modulus(p, 2 * h, n_factors)[0] == c0, q
    for (p, h), modulus in FROZEN_MODULI.items():
        assert modulus[0] == least_primitive_root(p), (p, h)


def test_canonical_modulus_against_rabin_scan():
    # the order of x alone selects what Rabin's irreducibility test plus the
    # primitivity test select, for every field GF(q^2) with q <= 2048
    from qmds.numtheory import factorize

    qs = [q for q in range(2, 2049) if is_prime_power(q)]
    assert len(qs) == 340
    for q in qs:
        p, h = is_prime_power(q)
        n_factors = tuple(factorize(q * q - 1))
        assert canonical_modulus(p, 2 * h, n_factors) == \
            na.rabin_canonical_modulus(p, 2 * h, n_factors), q


@pytest.mark.parametrize("p", [1048573, 1048571])
def test_canonical_modulus_at_the_top_of_the_size_range(p):
    # q^2 = p^2 is just under 2^40, so the int64 sums of the batched
    # search, up to n(p-1)^2 = 2(p-1)^2, come close to 2^41
    from qmds.numtheory import factorize, is_prime

    assert is_prime(p) and p * p < SIZE_LIMIT < 2 * (p - 1) ** 2
    n_factors = tuple(factorize(p * p - 1))
    assert canonical_modulus(p, 2, n_factors) == \
        na.rabin_canonical_modulus(p, 2, n_factors)


def test_build_field_rejects():
    with pytest.raises(NotPrime):
        build_field(4, 1)
    with pytest.raises(NotPrime):
        field_for_q(6)
    with pytest.raises(UsageError):
        build_field(5, 0)


def test_capacity_limits():
    with pytest.raises(CapacityExceeded):
        Field(2, 12).tables  # 2^24 > 2^22
    with pytest.raises(CapacityExceeded):
        Field(3, 8).tables  # 3^16 > 2^22
    with pytest.raises(CapacityExceeded):
        Field(2, 21)  # 2^42 > 2^40
    assert Field(13, 3).q2 > TABLE_LIMIT
    exp, log = Field(2, 11).tables  # 2^22 is exactly the limit
    assert len(exp) == TABLE_LIMIT - 1 and len(log) == TABLE_LIMIT


def test_fields_past_the_table_limit_have_no_tables():
    # the modulus is all such a field has; what reads the exp/log tables
    # says so (test_capacity_limits covers ``tables`` itself).  embed_int
    # reads the p-entry table of GF(p) logs instead, and the Gram check
    # the set's part
    f = Field(2, 12)
    assert f.q2 > TABLE_LIMIT
    assert f.to_json()["modulus"] == list(f.modulus)
    art = eval_code(f, subgroup_set(f, f.N // 5), 1, shift=1)
    assert f.embed_int(1) == 0 and f.embed_int(2) is None
    assert gram_zero(art) == (True, None)
    with pytest.raises(CapacityExceeded):
        f.add(0, 1)
    assert "tables" not in vars(f)


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49, 64, 81, 125, 169, 243,
                               256, 343, 512])
def test_subfield_zech_matches_the_full_tables(q):
    # Z[k] = log(1 + gamma^k) to the base gamma = theta^(q+1) is the full
    # Zech logarithm at (q+1)k over q + 1, -1 where 1 + gamma^k vanishes:
    # k = 0 for p = 2, k = (q-1)/2 for odd p
    f = Field(*is_prime_power(q))
    Z = f.subfield_zech
    assert "tables" not in vars(f)
    assert Z.shape == (q - 1,) and not Z.flags.writeable
    full = np.asarray(f._zech)[(q + 1) * np.arange(q - 1)]
    assert (full[full >= 0] % (q + 1) == 0).all()
    assert np.array_equal(Z, np.where(full < 0, -1, full // (q + 1)))
    assert np.flatnonzero(Z < 0).tolist() == [0 if f.p == 2 else (q - 1) // 2]


def test_subfield_zech_past_the_table_limit():
    # q = 4096 has no q^2-entry tables; each entry is checked by adding
    # coefficient vectors: vec(gamma^Z[k]) = vec(1) + vec(gamma^k) mod p
    f = Field(2, 12)
    Z = f.subfield_zech
    assert f.q2 > TABLE_LIMIT and "tables" not in vars(f)
    ks = np.arange(f.q - 1)
    one = f.power_vectors([0])[0]
    sums = (one + f.power_vectors(((f.q + 1) * ks).tolist())) % f.p
    assert ks[~sums.any(axis=1)].tolist() == [0] and Z[0] == -1
    assert np.array_equal(f.power_vectors(((f.q + 1) * Z[1:]).tolist()),
                          sums[1:])


def test_presentation_builds_no_tables():
    # the modulus is searched when the presentation first reads it; the
    # tables are built when something first reads them
    f = Field(37, 2)
    assert "modulus" not in vars(f)
    assert f.to_json()["modulus"] == list(f.modulus)
    assert "modulus" in vars(f)
    assert "tables" not in vars(f)
    assert f.add(0, 0) is not None  # 2 != 0 in characteristic 37
    assert "tables" in vars(f)


@pytest.mark.parametrize("p,h", [(3, 2), (5, 1), (3, 3), (3, 4)])
def test_np_planes_are_coefficients(p, h):
    # 2h uint16 lanes per exponent: one word when h <= 2, else h uint32
    # words (2h not a multiple of 4) or h/2 uint64 words
    f = build_field(p, h)
    words = f.digits
    word, n_words = (np.uint64, h // 2) if h % 2 == 0 else (np.uint32, h)
    assert words.shape == (2 * f.N, n_words) and words.dtype == word
    lanes = words.view(np.uint16)
    assert lanes.shape == (2 * f.N, 2 * h)
    for e in range(f.N):
        assert tuple(lanes[e]) == f.coeffs(e)
        assert tuple(lanes[f.N + e]) == f.coeffs(e)


# --- arithmetic against the coefficient-tuple model ----------------------------


@pytest.mark.parametrize("p,h", [(5, 1), (3, 1), (2, 2)])
def test_exhaustive_arithmetic_matches_poly_model(p, h):
    f = build_field(p, h)
    model = na.PolyModel(p, f.modulus)
    powers = model.x_powers()
    width = 2 * h
    # the exponential table itself
    for e, vec in enumerate(powers):
        assert f.coeffs(e) == _pad(vec, width)
    assert f.coeffs(None) == (0,) * width
    elems = [None] + list(range(f.N))

    def vec(a):
        return () if a is None else powers[a]

    for a in elems:
        for b in elems:
            got = f.add(a, b)
            assert _pad(vec(got) if got is not None else (), width) == _pad(
                model.add(vec(a), vec(b)), width
            )
            got = f.mul(a, b)
            assert _pad(vec(got) if got is not None else (), width) == _pad(
                model.mul(vec(a), vec(b)), width
            )


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2), (7, 1)])
def test_tables_agree_exhaustively(p, h):
    f = Field(p, h)
    exp_t, log_t = f.tables
    exp, log = na.stepping_tables(p, 2 * h, f.modulus)
    N = f.N
    for e in range(N):
        assert exp_t[e] == exp[e]
    assert log_t[0] == -1  # the zero vector has no log
    for v in range(1, N + 1):
        assert log_t[v] == log[v]
    for a in range(N):
        for b in range(N):
            assert f.add(a, b) == _reference_add(exp, log, a, b, p)


def test_tables_agree_sampled_gf25_squared():
    import random

    f = Field(5, 2)
    exp_t = f.tables[0]
    exp, log = na.stepping_tables(5, 4, f.modulus)
    rng = random.Random(20240817)
    for _ in range(400):
        a, b = rng.randrange(f.N), rng.randrange(f.N)
        assert f.add(a, b) == _reference_add(exp, log, a, b, 5)
        assert exp_t[a] == exp[a]


# every field GF(q^2) with q^2 <= 2^16, plus the largest one the benchmark
# builds in its low-dimension jobs
TABLE_FIELDS = [pp for pp in map(is_prime_power, range(2, 257)) if pp] + [(557, 1)]


@pytest.mark.parametrize("p,h", TABLE_FIELDS)
def test_table_backend_matches_stepping_reference(p, h):
    f = Field(p, h)  # not memoized: the tables die with the test
    exp, log = na.stepping_tables(p, 2 * h, f.modulus)
    assert [t.tolist() for t in f.tables] == [exp, log]


# past the stepping reference's range: the fields of the benchmark's
# low-dimension jobs, h = 2, 3 and 4, p - 1 = 2, and q = 2039, the largest
# prime with q^2 <= 2^22, whose lanes span many gather blocks; and two
# p = 2 fields, which have masks and no digits
DOUBLING_FIELDS = [(563, 1), (569, 1), (37, 2), (5, 4), (7, 3), (11, 3),
                   (3, 6), (2039, 1), (2, 3), (2, 8)]


@pytest.mark.parametrize("p,h", DOUBLING_FIELDS)
def test_tables_and_digits_match_the_doubling_reference(p, h):
    f = Field(p, h)  # not memoized: the tables die with the test
    exp = na.doubling_exp_table(p, 2 * h, f.modulus)
    log = np.full(f.q2, -1, dtype=np.int32)
    log[exp] = np.arange(f.N)
    assert np.array_equal(f.tables[0], exp)
    assert np.array_equal(f.tables[1], log)
    if p == 2:  # p = 2 sums the masks of its one exp buffer
        assert np.array_equal(f.mask_ext, np.concatenate((exp, exp)))
        with pytest.raises(UsageError):
            f.digits
        return
    lanes = f.digits.view(np.uint16)
    assert lanes.shape == (2 * f.N, 2 * h)
    for d in range(2 * h):
        digit = exp // p ** d % p
        assert np.array_equal(lanes[:f.N, d], digit)
        assert np.array_equal(lanes[f.N:, d], digit)
    # theta^M, M = N/(p-1), is the norm of theta down to GF(p): c_0
    assert exp[f.N // (p - 1)] == f.modulus[0]


@pytest.mark.parametrize("p,h,builder", [(7, 1, "_odd_exp_table"),
                                          (2, 3, "_char2_exp_table")])
def test_tables_reject_a_repeating_exp_table(monkeypatch, p, h, builder):
    # a repeated exp entry leaves a nonzero vector with no log: the build
    # raises and no tables are kept
    real = getattr(field_module, builder)

    def repeating(*args):
        exp = real(*args)
        exp[1] = exp[0]
        return exp

    monkeypatch.setattr(field_module, builder, repeating)
    f = Field(p, h)
    with pytest.raises(ArithmeticError, match="bijection"):
        f.tables
    assert "tables" not in vars(f)


def _digit_add(va, vb, p):
    out, scale = 0, 1
    while va or vb:
        out += (va % p + vb % p) % p * scale
        va, vb, scale = va // p, vb // p, scale * p
    return out


def _reference_add(exp, log, a, b, p):
    """theta^a + theta^b read off the stepping reference's tables."""
    want = log[_digit_add(exp[a], exp[b], p)]
    return None if want < 0 else want


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (5, 1), (2, 3)])
def test_zech_add_matches_stepping_reference(p, h):
    # every pair of GF(4), GF(9), GF(25) and GF(64), zero included
    f = Field(p, h)
    exp, log = na.stepping_tables(p, 2 * h, f.modulus)
    assert "_zech" not in vars(f)
    elems = [None] + list(range(f.N))
    for a in elems:
        for b in elems:
            va = 0 if a is None else exp[a]
            vb = 0 if b is None else exp[b]
            want = log[_digit_add(va, vb, p)]
            assert f.add(a, b) == (None if want < 0 else want), (a, b)
    assert "_zech" in vars(f)


@pytest.mark.parametrize("p,h", [(2, 3), (3, 2), (7, 1)])
def test_derived_tables_leave_the_backend_unchanged(p, h):
    f = Field(p, h)
    exp, log = (t.copy() for t in f.tables)
    # mask_ext is the p = 2 table; odd p sums digits instead
    names = ["mask_ext"] if p == 2 else ["digits"]
    derived = [getattr(f, name) for name in names]
    with pytest.raises(UsageError):
        getattr(f, "digits" if p == 2 else "mask_ext")
    for arr in f.tables:
        assert arr.dtype == np.int32 and not arr.flags.writeable
    assert np.array_equal(f.tables[0], exp)
    assert np.array_equal(f.tables[1], log)
    for arr in derived + ([] if p == 2 else [f.digits.view(np.uint16)]):
        assert not arr.flags.writeable
    # mask_ext is the one exp buffer [exp, exp]
    if p == 2:
        assert np.shares_memory(f.mask_ext, f.tables[0])
        assert list(f.mask_ext) == list(exp) * 2
    # a second round reads the cache
    assert all(getattr(f, name) is arr for name, arr in zip(names, derived))


def test_production_paths_build_no_python_tables(monkeypatch, capsys):
    # every field an audit of Tables 1, 2, 3, 5 and 6 and one verify command
    # build: the tables stay int32 arrays, and no scalar addition runs
    built = {}

    def fresh_build(p, h):
        if (p, h) not in built:
            built[p, h] = Field(p, h)
        return built[p, h]

    monkeypatch.setattr(field_module, "build_field", fresh_build)
    audit.audit_tables((1, 2, 3, 5, 6))
    assert cli.main(["verify", "--construction", "c1", "--q", "11",
                     "--m", "3", "--k", "4"]) == 0
    capsys.readouterr()
    with_tables = [f for f in built.values() if "tables" in vars(f)]
    assert {(2, 9), (631, 1), (11, 1)} <= set(built)
    # no certificate reads a table, a mixed union's shared weights being
    # added in GF(q): only the verify command's GF(11^2) builds them
    assert {(f.p, f.h) for f in with_tables} == {(11, 1)}
    for f in with_tables:
        for arr in f.tables:
            assert isinstance(arr, np.ndarray) and arr.dtype == np.int32
        assert "_zech" not in vars(f), f


# --- algebraic laws -------------------------------------------------------------


def elements(f):
    return st.one_of(st.none(), st.integers(min_value=0, max_value=f.N - 1))


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 3)])
def test_field_axioms_random(p, h):
    f = build_field(p, h)

    @given(elements(f), elements(f), elements(f))
    def inner(a, b, c):
        assert f.add(a, b) == f.add(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) is None
        assert f.sub(a, b) == f.add(a, f.neg(b))
        if a is not None:
            assert f.mul(a, f.inv(a)) == 0
            assert f.mul(a, f.mul(a, a)) == (a * 3) % f.N

    inner()


def test_inv_of_zero_raises(gf25):
    with pytest.raises(DivisionByZero):
        gf25.inv(None)


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_frobenius_and_subfield(p, h):
    f = build_field(p, h)
    q = f.q
    # the subfield is exactly the fixed field of the q-power map
    count = 0
    for e in range(f.N):
        fixed = f.frobenius_q(e) == e
        assert fixed == (e % (q + 1) == 0)
        count += fixed
        assert f.frobenius_q(f.frobenius_q(e)) == e  # involution over GF(q^2)
    assert count == q - 1
    assert f.frobenius_q(None) is None


@pytest.mark.parametrize("p,h", [(5, 1), (2, 3)])
def test_frobenius_is_additive(p, h):
    f = build_field(p, h)
    for a in range(f.N):
        for b in range(a, f.N):
            assert f.frobenius_q(f.add(a, b)) == f.add(
                f.frobenius_q(a), f.frobenius_q(b)
            )


def test_norm_properties(gf49):
    f = gf49
    q = f.q
    for e in range(f.N):
        v = f.norm(e)
        assert v % (q + 1) == 0
        assert v == f.mul(e, f.frobenius_q(e))
    # multiplicative and surjective onto the subfield
    images = {f.norm(e) for e in range(f.N)}
    assert images == {e for e in range(f.N) if e % (q + 1) == 0}


def test_norm_root(gf25):
    f = gf25
    for v in range(0, f.N, f.q + 1):
        u = f.norm_root(v)
        assert f.norm(u) == v
        assert u < f.N // (f.q + 1)  # smallest of the q+1 preimages
    with pytest.raises(NotInSubfield):
        f.norm_root(1)  # theta itself is not in GF(5)
    with pytest.raises(NotInSubfield):
        f.norm_root(None)


def test_frozen_subfield_logs():
    gf25 = build_field(5, 1)
    assert gf25.embed_int(2) == 6
    assert gf25.embed_int(3) == 18
    assert gf25.norm_root(6) == 1
    gf9 = build_field(3, 1)
    assert gf9.embed_int(2) == 4


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (5, 1), (7, 1)])
def test_embed_int_is_a_ring_map(p, h):
    f = build_field(p, h)
    for a in range(p):
        for b in range(p):
            ea, eb = f.embed_int(a), f.embed_int(b)
            assert f.add(ea, eb) == f.embed_int((a + b) % p)
            assert f.mul(ea, eb) == f.embed_int(a * b % p)
    assert f.embed_int(0) is None
    assert f.embed_int(p) is None
    assert f.embed_int(1) == 0
    embedded = {f.embed_int(c) for c in range(1, p)}
    assert len(embedded) == p - 1
    assert all(e % (f.q + 1) == 0 for e in embedded)


@pytest.mark.parametrize("p,h", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2),
                                 (13, 1), (2039, 1)])
def test_prime_logs_and_power_vectors_need_no_tables(p, h):
    # the p-entry GF(p) logs and the companion-matrix powers agree with
    # the exp/log tables, which they are built without
    f = Field(p, h)
    logs, vectors = f.prime_logs, f.power_vectors(range(0, f.N, 1 + f.N // 500))
    assert "tables" not in vars(f)
    assert np.array_equal(logs, f.tables[1][:p])
    assert [tuple(v) for v in vectors] == \
        [f.coeffs(e) for e in range(0, f.N, 1 + f.N // 500)]


@pytest.mark.parametrize("q", [4, 8, 9, 13, 25, 49])
def test_power_vectors_match_the_exp_table(q):
    # theta^(j*R + i), R = N/(p-1), is c_0^j x^i for i < 2h, with no
    # modulus searched; every other exponent takes companion-matrix powers.
    # Every exponent in [0, 2N), given as an int64 array, against the table
    f = Field(*is_prime_power(q))
    n, R = 2 * f.h, f.N // (f.p - 1)
    exps = np.arange(2 * f.N, dtype=np.int64)
    near = exps % R < n
    assert near.any() and not near.all()
    f.power_vectors(exps[near])
    assert "modulus" not in vars(f)
    digits = f.tables[0][exps % f.N, None] // f.p ** np.arange(n) % f.p
    assert np.array_equal(f.power_vectors(exps), digits)


def test_prime_logs_past_the_table_limit():
    # GF(3^14): -1 = 2 is theta^(N/2) in any presentation, and the
    # companion-matrix power of that exponent is the constant 2
    f = Field(3, 7)
    assert f.q2 > TABLE_LIMIT
    assert f.prime_logs.tolist() == [-1, 0, f.N // 2]
    assert f.embed_int(2) == f.neg(0)
    assert f.power_vectors([f.N // 2]).tolist() == [[2] + [0] * 13]
    assert "tables" not in vars(f)


def test_presentation(gf25):
    assert gf25.to_json() == {"p": 5, "h": 1, "modulus": [2, 1, 1], "theta": "x"}
    assert repr(gf25) == "Field(p=5, h=1)"


def test_build_field_is_memoized():
    assert build_field(5, 1) is build_field(5, 1)
    assert field_for_q(25).q == 25 and field_for_q(25).p == 5
