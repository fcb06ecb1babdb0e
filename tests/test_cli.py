import hashlib
import json

import pytest

from qmds import cli, constructions
from qmds import field as field_module
from qmds.cli import main
from qmds.field import field_for_q
from qmds.numtheory import is_prime_power


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


# --- field -----------------------------------------------------------------------


def test_field_by_q(capsys):
    rc, obj = run_json(capsys, "field", "--q", "5")
    assert rc == 0
    assert obj == {"h": 1, "modulus": [2, 1, 1], "p": 5, "theta": "x"}


def test_field_by_p_h(capsys):
    rc, obj = run_json(capsys, "field", "--p", "2", "--h", "3")
    assert rc == 0
    assert obj == {"h": 3, "modulus": [1, 0, 0, 0, 0, 1, 1], "p": 2,
                   "theta": "x"}


def test_field_conflicting_flags(capsys):
    assert run(capsys, "field", "--q", "5", "--p", "5")[0] == 2
    assert run(capsys, "field")[0] == 2
    assert run(capsys, "field", "--q", "6")[0] == 2


def test_field_capacity_errors(capsys):
    assert run(capsys, "field", "--q", str(2**21))[0] == 1  # q^2 > 2^40


def test_field_past_the_table_limit(capsys):
    # GF(4096^2) has 2^24 elements: the presentation needs only the modulus
    rc, obj = run_json(capsys, "field", "--q", "4096")
    assert rc == 0 and obj["p"] == 2 and obj["h"] == 12
    rc, out = run(capsys, "field", "--q", "4096", "--format", "text")
    assert rc == 0 and out.startswith("GF(2^24), subfield GF(4096)")
    assert "tables" not in vars(field_for_q(4096))


def test_field_command_builds_no_tables(monkeypatch, capsys):
    # the presentation needs only the modulus, which it searches on first
    # read, so the exp/log tables of a field within the table limit stay
    # unbuilt too
    built = []

    def fresh_build(p, h):
        built.append(field_module.Field(p, h))
        return built[-1]

    monkeypatch.setattr(field_module, "build_field", fresh_build)
    monkeypatch.setattr(cli, "build_field", fresh_build)
    assert run(capsys, "field", "--q", "1369")[0] == 0
    assert run(capsys, "field", "--p", "2", "--h", "5",
               "--format", "text")[0] == 0
    assert [(f.p, f.h) for f in built] == [(37, 2), (2, 5)]
    assert all("tables" not in vars(f) for f in built)
    assert all("modulus" in vars(f) for f in built)


def test_field_has_no_mode_flag(capsys):
    assert run(capsys, "field", "--q", "5", "--mode", "table")[0] == 2


def test_field_text_format(capsys):
    rc, out = run(capsys, "field", "--q", "5", "--format", "text")
    assert rc == 0
    assert "GF(5^2)" in out and "subfield GF(5)" in out
    assert out.endswith(", theta = x\n")


# --- construct -------------------------------------------------------------------


def test_construct_json_shape(capsys):
    rc, obj = run_json(capsys, "construct", "--construction", "c1",
                       "--q", "8", "--m", "3", "--k", "4")
    assert rc == 0
    assert obj["construction"] == "c1"
    assert obj["verified_level"] == "FULL_MATRIX"
    assert obj["conditions"] == [[21, 9]]
    assert obj["quantum"] == [21, 13, 5]
    assert obj["n"] == 21 and obj["k"] == 4
    assert len(obj["matrix"]) == 4


def test_construct_byte_deterministic(capsys):
    a = run(capsys, "construct", "--construction", "c1",
            "--q", "8", "--m", "3", "--k", "4")
    b = run(capsys, "construct", "--construction", "c1",
            "--q", "8", "--m", "3", "--k", "4")
    assert a == b


def test_construct_text_format(capsys):
    rc, out = run(capsys, "construct", "--construction", "c1",
                  "--q", "8", "--m", "3", "--k", "4", "--format", "text")
    assert rc == 0
    assert "quantum=[[21,13,5]]_8" in out
    assert "FULL_MATRIX" in out


def test_construct_out_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    rc, _ = run(capsys, "construct", "--construction", "c1",
                "--q", "8", "--m", "3", "--k", "4", "--out", str(target))
    assert rc == 0
    rc2, stdout = run(capsys, "construct", "--construction", "c1",
                      "--q", "8", "--m", "3", "--k", "4")
    assert rc2 == 0
    assert target.read_text() == stdout


def test_construct_usage_errors(capsys):
    # missing required --m
    assert run(capsys, "construct", "--construction", "c1", "--q", "8")[0] == 2
    # --m3 only belongs to half_power_union
    assert run(capsys, "construct", "--construction", "c1",
               "--q", "8", "--m", "3", "--m3", "5")[0] == 2
    # composite q
    assert run(capsys, "construct", "--construction", "c1",
               "--q", "6", "--m", "3")[0] == 2
    # unknown construction is rejected by argparse itself
    assert run(capsys, "construct", "--construction", "bogus",
               "--q", "8", "--m", "3")[0] == 2


# one admissible instance per construction, as (q, {flag: value})
CLI_INSTANCES = {
    "c1": (17, {"m": 9}),
    "c1_ext": (17, {"m": 9}),
    "char2_union": (32, {"m1": 3, "m2": 11}),
    "odd_union": (29, {"m1": 3, "m2": 5}),
    "half_power": (13, {"m": 6}),
    "half_power_union": (31, {"m1": 6, "m2": 10}),
    "mixed_union": (13, {"m1": 7, "m2": 6}),
}


def _construct_argv(construction, q, flags):
    argv = ["construct", "--construction", construction, "--q", str(q),
            "--matrix", "never"]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    return argv


@pytest.mark.parametrize("construction", sorted(CLI_INSTANCES))
def test_construct_usage_errors_per_construction(capsys, construction):
    q, flags = CLI_INSTANCES[construction]
    assert main(_construct_argv(construction, q, flags)) == 0
    capsys.readouterr()
    # each missing required flag exits 2 and names the flag
    for missing in flags:
        rest = {f: v for f, v in flags.items() if f != missing}
        assert main(_construct_argv(construction, q, rest)) == 2
        err = capsys.readouterr().err
        assert f"--{missing} is required for construction {construction}" in err
    # --m3 is accepted by half_power_union only
    rc = main(_construct_argv(construction, q, {**flags, "m3": 30}))
    err = capsys.readouterr().err
    if construction == "half_power_union":
        assert rc == 0
    else:
        assert rc == 2
        assert f"--m3 is not accepted by construction {construction}" in err


def test_construct_hypothesis_errors(capsys):
    # k above the proven range
    assert run(capsys, "construct", "--construction", "c1",
               "--q", "8", "--m", "3", "--k", "9")[0] == 1
    # characteristic-2 route on an odd field
    assert run(capsys, "construct", "--construction", "char2_union",
               "--q", "13", "--m1", "3", "--m2", "7")[0] == 1


@pytest.mark.parametrize("construction,empty",
                         [("c1", "1..0"), ("c1_ext", "2..1")])
def test_construct_without_k_when_no_k_is_admissible(capsys, construction,
                                                     empty):
    # q = 2, m = 3: a length-1 subgroup code with oracle bound 0, so no k
    # was given and none is admissible; the error names the empty range
    rc = main(["construct", "--construction", construction,
               "--q", "2", "--m", "3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"no admissible k for {construction}" in err
    assert f"the range {empty} is empty" in err


def test_construct_half_power_union_m3(capsys):
    rc, obj = run_json(capsys, "construct", "--construction",
                       "half_power_union", "--q", "61", "--m1", "6",
                       "--m2", "10", "--m3", "12", "--matrix", "never")
    assert rc == 0
    assert obj["params"]["ms"] == [6, 10, 12]
    assert obj["verified_level"] == "CONDITION_ONLY"
    assert obj["max_k_oracle"] == 35


# --- verify ----------------------------------------------------------------------


def test_verify_small_instance(capsys):
    rc, obj = run_json(capsys, "verify", "--construction", "c1",
                       "--q", "5", "--m", "3")
    assert rc == 0
    assert obj["self_orthogonal"] is True
    assert obj["gram_witness"] is None
    assert obj["minors"] == {"is_mds": True, "checked": 28, "witness": None}
    assert obj["min_weight"] == 7 == obj["expected_weight"]
    assert obj["routes_agree"] is True
    assert obj["quantum"] == [8, 4, 3]


def test_verify_budget_skips_reported(capsys):
    rc, obj = run_json(capsys, "verify", "--construction", "c1",
                       "--q", "13", "--m", "7",
                       "--budget-minors", "10", "--budget-enum", "10")
    assert rc == 0  # Gram passed; distance routes merely skipped
    assert obj["minors"].startswith("skipped")
    assert str(obj["min_weight"]).startswith("skipped")
    assert obj["routes_agree"] is None


VERIFY_JSON = {
    # the full output of qmds verify for c1 at (q, m, k) = (11, 3, 4) and
    # (9, 5, 3), byte for byte
    ("11", "3", "4"): (
        '{\n'
        '  "construction": "c1",\n'
        '  "expected_weight": 37,\n'
        '  "gram_witness": null,\n'
        '  "k": 4,\n'
        '  "min_weight": "skipped: q^(2k) = 214358881 exceeds budget 20000000",\n'
        '  "minors": {\n'
        '    "checked": 91390,\n'
        '    "is_mds": true,\n'
        '    "witness": null\n'
        '  },\n'
        '  "n": 40,\n'
        '  "params": {\n'
        '    "m": 3\n'
        '  },\n'
        '  "q": 11,\n'
        '  "quantum": [\n'
        '    40,\n'
        '    32,\n'
        '    5\n'
        '  ],\n'
        '  "routes_agree": null,\n'
        '  "self_orthogonal": true\n'
        '}\n'
    ),
    ("9", "5", "3"): (
        '{\n'
        '  "construction": "c1",\n'
        '  "expected_weight": 14,\n'
        '  "gram_witness": null,\n'
        '  "k": 3,\n'
        '  "min_weight": 14,\n'
        '  "minors": {\n'
        '    "checked": 560,\n'
        '    "is_mds": true,\n'
        '    "witness": null\n'
        '  },\n'
        '  "n": 16,\n'
        '  "params": {\n'
        '    "m": 5\n'
        '  },\n'
        '  "q": 9,\n'
        '  "quantum": [\n'
        '    16,\n'
        '    10,\n'
        '    4\n'
        '  ],\n'
        '  "routes_agree": true,\n'
        '  "self_orthogonal": true\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("q,m,k", sorted(VERIFY_JSON))
def test_verify_output_bytes(capsys, monkeypatch, q, m, k):
    # the generator matrix is built from the exp/log tables, so the
    # modulus is searched; it is never rendered
    from qmds import codes

    def no_render(matrix):
        raise AssertionError("verify rendered the generator matrix")
    fields = []

    def fresh(q):
        fields.append(field_module.Field(*is_prime_power(q)))
        return fields[-1]
    monkeypatch.setattr(codes, "matrix_to_strings", no_render)
    monkeypatch.setattr(constructions, "field_for_q", fresh)
    rc, out = run(capsys, "verify", "--construction", "c1", "--q", q,
                  "--m", m, "--k", k)
    assert rc == 0
    assert out == VERIFY_JSON[q, m, k]
    assert [f.q for f in fields] == [int(q)]
    assert "modulus" in vars(fields[0]) and "tables" in vars(fields[0])


def test_verify_refuses_a_matrix_past_the_entry_limit(capsys, monkeypatch):
    # Table 7 row 3 certifies FULL_MATRIX, as its Gram check is cheap, but
    # its 820 x 624720 matrix has 5.1e8 entries: verify refuses it before
    # building it
    from qmds import codes

    def no_matrix(self):
        raise AssertionError("verify built the generator matrix")
    monkeypatch.setattr(codes.CodeArtifact, "matrix", no_matrix)
    rc = main(["verify", "--construction", "mixed_union", "--q", "1369",
               "--m1", "5", "--m2", "6"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: CapacityExceeded: the 820 x 624720")


# --- oracle ----------------------------------------------------------------------


def test_oracle_mixed(capsys):
    rc, obj = run_json(capsys, "oracle", "--construction", "mixed_union",
                       "--q", "13", "--m1", "7", "--m2", "6")
    assert rc == 0
    assert obj["conditions"] == [[24, 14], [28, 7]]
    assert obj["max_k"] == 6
    assert obj["formula_d_max"] == 7
    assert obj["formula_within_oracle"] is True


def test_oracle_prints_canonical_params(capsys, monkeypatch):
    # the divisors are given out of order: oracle and construct both report
    # them sorted, beside the conditions computed for that order
    calls = []
    validate = constructions.validate
    monkeypatch.setattr(constructions, "validate",
                        lambda *a: calls.append(a) or validate(*a))
    rc, obj = run_json(capsys, "oracle", "--construction", "half_power_union",
                       "--q", "41", "--m1", "10", "--m2", "8")
    assert rc == 0
    assert len(calls) == 1  # validated once
    assert obj["params"] == {"ms": [8, 10]}
    assert obj["conditions"] == [[1680 // 8, 21], [1680 // 10, 21]]
    assert obj["max_k"] == 24
    rc, cert = run_json(capsys, "construct", "--construction",
                        "half_power_union", "--q", "41", "--m1", "10",
                        "--m2", "8", "--matrix", "never")
    assert rc == 0
    assert cert["params"] == obj["params"]
    assert cert["conditions"] == obj["conditions"]


def test_oracle_prime_above_2_53(capsys):
    # q is prime and 5 | q + 1; prime-power detection must not round q
    q = 4611686018427400249
    rc, obj = run_json(capsys, "oracle", "--construction", "c1",
                       "--q", str(q), "--m", "5")
    assert rc == 0
    assert obj["q"] == q
    assert obj["max_k"] == 3 * (q - 1) // 5


def test_oracle_char2_large(capsys):
    rc, obj = run_json(capsys, "oracle", "--construction", "char2_union",
                       "--q", "64", "--m1", "5", "--m2", "13")
    assert rc == 0
    assert obj["max_k"] == 33


# --- sweep -----------------------------------------------------------------------


def test_sweep_json(capsys):
    rc, obj = run_json(capsys, "sweep", "--construction", "c1", "--q", "17")
    assert rc == 0
    assert [(c["params"]["m"], c["max_k_oracle"]) for c in obj] == \
        [(3, 10), (9, 8)]
    assert all("matrix" not in c for c in obj)


def test_sweep_text_empty(capsys):
    rc, out = run(capsys, "sweep", "--construction", "char2_union",
                  "--q", "4", "--format", "text")
    assert rc == 0
    assert "no admissible parameters" in out


def test_sweep_text_no_admissible_k(capsys):
    # q = 2: the only divisor m = 3 leaves a length-1 code with oracle bound 0
    for construction in ("c1", "c1_ext"):
        rc, out = run(capsys, "sweep", "--construction", construction,
                      "--q", "2", "--format", "text")
        assert rc == 0
        assert "no admissible parameters" in out


# --- audit -----------------------------------------------------------------------


def test_audit_single_table(capsys):
    rc, obj = run_json(capsys, "audit", "--tables", "1")
    assert rc == 0
    assert obj["summary"]["rows_total"] == 7
    assert obj["summary"]["match"] == 7
    assert obj["summary"]["hypothesis_fail"] == 0


def test_audit_deterministic(capsys):
    a = run(capsys, "audit", "--tables", "1,9")
    b = run(capsys, "audit", "--tables", "1,9")
    assert a == b


def test_audit_exit_1_on_hypothesis_fail(capsys):
    rc, obj = run_json(capsys, "audit", "--tables", "4", "--condition-only")
    assert rc == 1
    assert obj["summary"]["hypothesis_fail"] == 1


def test_audit_text_format(capsys):
    rc, out = run(capsys, "audit", "--tables", "9", "--format", "text")
    assert rc == 0
    assert "summary r12 [quadratic_family] ARITHMETIC_MISMATCH" in out


def test_audit_bad_table_ids(capsys):
    assert run(capsys, "audit", "--tables", "0")[0] == 2
    assert run(capsys, "audit", "--tables", "abc")[0] == 2


# --- search ----------------------------------------------------------------------


def test_search_pairs_membership(capsys):
    rc, obj = run_json(capsys, "search", "--pairs", "--limit", "200")
    assert rc == 0
    found = {(r["m1"], r["m2"], r["m"]) for r in obj}
    assert (176, 105, 66) in found
    assert (36, 175, 30) in found


def test_search_primes(capsys):
    rc, obj = run_json(capsys, "search", "--primes", "--m1", "176",
                       "--m2", "105", "--limit", "31000")
    assert rc == 0
    assert obj["primes"][:2] == [11969, 30449]


def test_search_family(capsys):
    rc, obj = run_json(capsys, "search", "--family", "--k-limit", "32")
    assert rc == 0
    by_k = {r["k"]: r for r in obj}
    assert set(by_k) == {14, 32}
    assert by_k[14]["q"] == 2969 and by_k[14]["d_claimed"] == 1494
    assert by_k[14]["d_derived"] == 1493


def test_search_usage_errors(capsys):
    assert run(capsys, "search")[0] == 2  # no mode picked
    assert run(capsys, "search", "--primes")[0] == 2  # missing --m1/--m2
    # argparse rejects two modes at once
    assert run(capsys, "search", "--pairs", "--family")[0] == 2
    # --pairs and --primes are the only spellings of those modes
    assert run(capsys, "search", "--lemma", "5.2")[0] == 2


# --- pinned output bytes ---------------------------------------------------------

# every subcommand in both formats, with the usage and hypothesis errors:
# argv -> (exit code, first 16 hex digits of the sha256 of stdout)
PINNED_STDOUT = {
    "field --q 9": (0, "478b00c92b532034"),
    "field --q 9 --format text": (0, "66f257b0a10ea241"),
    "field --p 2 --h 3": (0, "9ae5fbcb76714bd6"),
    "construct --construction c1 --q 17 --m 9": (0, "c656f2e7b8a969da"),
    "construct --construction c1 --q 17 --m 9 --format text":
        (0, "499b661a325b319c"),
    "construct --construction c1_ext --q 17 --m 9": (0, "c27f6fa9bb2b853c"),
    "construct --construction mixed_union --q 13 --m1 7 --m2 6":
        (0, "5a94d1f019ecb21c"),
    "construct --construction c1 --q 17 --m 9 --matrix never":
        (0, "e8e737922227b02e"),
    "construct --construction c1 --q 17 --m 9 --matrix always":
        (0, "c656f2e7b8a969da"),
    "construct --construction c1 --q 8 --m 3 --k 9": (1, "e3b0c44298fc1c14"),
    "construct --construction c1 --q 8": (2, "e3b0c44298fc1c14"),
    "verify --construction c1 --q 5 --m 3": (0, "de4ad876c2629a59"),
    "verify --construction c1 --q 11 --m 3 --k 4": (0, "682bc80453af71fb"),
    "verify --construction c1 --q 11 --m 3 --k 4 --format text":
        (0, "6d7a07250a15669b"),
    "verify --construction c1 --q 13 --m 7 --budget-minors 10 --budget-enum 10":
        (0, "b5dc69539b38432c"),
    "oracle --construction mixed_union --q 13 --m1 7 --m2 6":
        (0, "e132a97b9990f317"),
    "oracle --construction mixed_union --q 13 --m1 7 --m2 6 --format text":
        (0, "35a181d70452515c"),
    "sweep --construction mixed_union --q 13": (0, "e4f5f306ba51bada"),
    "sweep --construction mixed_union --q 13 --format text":
        (0, "52cb4eaf4449d51c"),
    "sweep --construction c1 --q 2": (0, "37517e5f3dc66819"),
    "sweep --construction c1 --q 2 --format text": (0, "4ce57f61fb628ec7"),
    "audit --tables 1,3 --format text": (0, "2763c6d8746893d2"),
    "audit --tables 9": (0, "88e97c255dfdd155"),
    "search --pairs --limit 40 --witness-limit 2000": (0, "3e716205dbc465ed"),
    "search --pairs --limit 40 --witness-limit 2000 --format text":
        (0, "20f9e789b03ee6e8"),
    "search --primes --m1 176 --m2 105 --limit 31000": (0, "354796472433f01e"),
    "search --primes --m1 176 --m2 105 --limit 31000 --format text":
        (0, "2ca38582b07babb8"),
    "search --family --k-limit 32": (0, "cae3e984144edbb9"),
    "search --family --k-limit 32 --format text": (0, "8278c6fb43017d08"),
    "search": (2, "e3b0c44298fc1c14"),
    "search --pairs --family": (2, "e3b0c44298fc1c14"),
}


def test_stdout_bytes_are_pinned(capsys):
    got = {}
    for argv in PINNED_STDOUT:
        rc, out = run(capsys, *argv.split())
        got[argv] = (rc, hashlib.sha256(out.encode()).hexdigest()[:16])
    assert got == PINNED_STDOUT


def test_one_parser_serves_a_usage_error_then_a_command(capsys):
    # the parser is built once per process, so a usage error must leave it
    # as it was: what follows prints the bytes a fresh parser prints
    def call(argv):
        rc = main(argv.split())
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def fresh_call(argv):
        cli._parser.cache_clear()
        return call(argv)

    bad = "search --pairs --family"
    good = "oracle --construction c1 --q 17 --m 9"
    fresh = {argv: fresh_call(argv) for argv in (bad, good)}
    cli._parser.cache_clear()
    parser = cli._parser()
    assert [call(argv) for argv in (bad, good, bad)] == [
        fresh[bad], fresh[good], fresh[bad]]
    assert fresh[bad][0] == 2 and "not allowed with argument" in fresh[bad][2]
    assert fresh[good][0] == 0 and fresh[good][1]
    assert cli._parser() is parser
