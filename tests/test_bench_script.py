"""scripts/bench.py: seed lists, summaries and --compare, on runs written
by hand (running perfbench itself takes minutes)."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _run(workload, seed, side, pass_s, correct=True, failed=0, **extra):
    metrics = {name: 1.0 for name in bench.METRICS}
    metrics["pass_s"] = pass_s
    return {"workload": workload, "seed": seed, "side": side,
            "correct": correct, "failed": failed, "metrics": metrics,
            **extra}


def test_seed_lists():
    assert bench._seeds("1-3,7") == [1, 2, 3, 7]
    assert bench._seeds("5") == [5]


def test_summary_medians_delta_and_wins():
    parent = [_run("gram-odd", s, "parent", t) for s, t in [(1, 2.0), (2, 4.0), (3, 3.0)]]
    change = [_run("gram-odd", s, "change", t) for s, t in [(1, 1.0), (2, 5.0), (3, 1.5)]]
    row = bench._summary(parent, change)["gram-odd"]
    assert row["pass_s"]["parent"]["median"] == 3.0
    assert row["pass_s"]["change"]["median"] == 1.5
    assert row["pass_s"]["delta"] == pytest.approx(-0.5)
    assert row["pass_s"]["wins"] == "2/3"  # seed 2 is slower
    assert row["setup_s"]["wins"] == "0/3"  # ties count for neither side


def test_compare_reads_each_files_own_runs(tmp_path, capsys):
    a = {"sides": {"change": "aaa"},
         "runs": [_run("conditions", 1, "change", 2.0),
                  _run("conditions", 1, "parent", 9.0)]}
    b = {"sides": {"change": "bbb"},
         "runs": [_run("conditions", 1, "change", 1.0)]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert bench.main(["--compare", str(pa), str(pb)]) == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if "pass_s" in x)
    assert "A 2 " in line and "B 1 " in line
    assert "delta -50.0 %" in line and "wins 1/1" in line


def _result_file(tree, workload, seed, ops, op_s_by_pass):
    out = tree / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{workload}-seed{seed}-trace0.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "ops": ops,
                    "op_s_by_pass": op_s_by_pass}))


def test_run_records_each_operations_median_from_the_tree_that_ran(tmp_path):
    # a stand-in run.py prints the last line run.py prints; the result file
    # beside it holds three passes of two operations
    tree = tmp_path / "checkout"
    (tree / "perfbench").mkdir(parents=True)
    line = {"correct": True, "attempted": 6, "failed": 0,
            "metrics": {name: {"value": 1.0, "unit": "s"}
                        for name in bench.METRICS}}
    (tree / "perfbench" / "run.py").write_text(
        f"print({json.dumps(json.dumps(line))})\n")
    _result_file(tree, "small-jobs", 4, ["qmds field", "qmds verify"],
                 [[0.5, 2.0], [0.1, 3.0], [0.3, 1.0]])
    _result_file(tmp_path, "small-jobs", 4, ["qmds field"], [[9.0]])
    run = bench._run(tree, "small-jobs", 4)
    assert run["ops"] == {"qmds field": 0.3, "qmds verify": 2.0}
    assert run["passes"] == 3  # 6 operations attempted, 2 per pass
    assert run["metrics"]["pass_s"] == 1.0


def _op_run(workload, seed, side, ops):
    return {**_run(workload, seed, side, 1.0), "ops": ops}


def test_summary_per_operation_medians_delta_and_wins():
    def side(name, *ops):
        return [_op_run("small-jobs", seed, name, o)
                for seed, o in enumerate(ops, 1)]

    parent = side("parent", {"field": 0.010, "verify": 0.020},
                  {"field": 0.012, "verify": 0.020}, {"field": 0.014})
    change = side("change", {"field": 0.003, "verify": 0.030},
                  {"field": 0.004, "verify": 0.010}, {"field": 0.020})
    ops = bench._summary(parent, change)["small-jobs"]["ops"]
    assert list(ops) == ["field", "verify"]
    assert ops["field"]["parent"]["median"] == 0.012
    assert ops["field"]["change"]["median"] == 0.004
    assert ops["field"]["delta"] == pytest.approx(-2 / 3)
    assert ops["field"]["wins"] == "2/3"
    # only the seeds that ran the operation on both sides are pairs
    assert ops["verify"]["parent"]["runs"] == 2
    assert ops["verify"]["delta"] == pytest.approx(0.0)
    assert ops["verify"]["wins"] == "1/2"


def test_summary_of_runs_without_operations():
    # BENCH files written before operations were recorded
    row = bench._summary([_run("conditions", 1, "parent", 2.0)],
                         [_run("conditions", 1, "change", 1.0)])["conditions"]
    assert row["ops"] == {}
    assert row["pass_s"]["wins"] == "1/1"


def test_compare_prints_per_operation_deltas(tmp_path, capsys):
    op = "qmds field --q 1369"
    a = {"sides": {"change": "aaa"},
         "runs": [_op_run("small-jobs", 1, "change", {op: 0.0124})]}
    b = {"sides": {"change": "bbb"},
         "runs": [_op_run("small-jobs", 1, "change", {op: 0.0031})]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert bench.main(["--compare", str(pa), str(pb)]) == 0
    out = capsys.readouterr().out.splitlines()
    line = next(x for x in out if op in x)
    assert "A 0.0124 " in line and "B 0.0031 " in line
    assert "delta -75.0 %" in line and "wins 1/1" in line
    assert out.index(line) > out.index("  per operation, s:")


def test_summary_counts_bad_runs_per_side():
    # a wrong answer and a failed operation are each one bad run; a run
    # with both is still one
    parent = [_run("gram-odd", 1, "parent", 2.0),
              _run("gram-odd", 2, "parent", 2.0, correct=False, failed=3)]
    change = [_run("gram-odd", 1, "change", 1.0, failed=1),
              _run("gram-odd", 2, "change", 1.0, correct=False),
              _run("gram-odd", 3, "change", 1.0)]
    summary = bench._summary(parent, change)
    assert summary["gram-odd"]["bad_runs"] == {
        "parent": {"bad": 1, "runs": 2}, "change": {"bad": 2, "runs": 3}}
    # the bad runs still count in the medians
    assert summary["gram-odd"]["pass_s"]["change"]["runs"] == 3
    assert bench._summary([], change[2:])["gram-odd"]["bad_runs"] == {
        "change": {"bad": 0, "runs": 1}}


def test_summary_and_compare_print_bad_runs(tmp_path, capsys):
    runs = [_run("conditions", 1, "change", 2.0, correct=False),
            _run("conditions", 2, "change", 2.0),
            _run("conditions", 1, "parent", 2.0, failed=2),
            _run("small-jobs", 1, "change", 2.0)]
    bench._print_summary(bench._summary(runs[2:3], runs[:2] + runs[3:]))
    lines = [x for x in capsys.readouterr().out.splitlines() if "bad runs" in x]
    assert lines == ["  bad runs      parent 1/1  change 1/2",
                     "  bad runs      change 0/1"]
    # A's own runs are its "change" side: its failed parent run is not one
    a_runs = [_run("conditions", 1, "change", 2.0), runs[2]]
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps({"sides": {"change": "aaa"}, "runs": a_runs}))
    pb.write_text(json.dumps({"sides": {"change": "bbb"}, "runs": runs[:2]}))
    assert bench.main(["--compare", str(pa), str(pb)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [x for x in out if "bad runs" in x] == [
        "  bad runs      A 0/1  B 1/2"]


def test_parent_pairs_need_an_even_seed_count(tmp_path, capsys):
    # with an odd count the parent would run first once more than the change
    out = str(tmp_path / "b.json")
    with pytest.raises(SystemExit):
        bench._parse(["--parent", str(tmp_path), "--seeds", "1-3",
                      "--out", out])
    assert "even number of seeds" in capsys.readouterr().err
    assert bench._parse(["--parent", str(tmp_path), "--seeds", "1-4",
                         "--out", out]).seeds == [1, 2, 3, 4]
    assert bench._parse(["--seeds", "1-3", "--out", out]).seeds == [1, 2, 3]


def test_pass_counts_beside_peak_rss(tmp_path, capsys):
    # peak_rss_mb grows with the pass count, so each side's median count is
    # printed on its line; runs recorded before counts were kept have none
    parent = [_run("gram-odd", s, "parent", 2.0, passes=p)
              for s, p in [(1, 400), (2, 420), (3, 410)]]
    change = [_run("gram-odd", s, "change", 1.0, passes=p)
              for s, p in [(1, 700), (2, 720), (3, 650)]]
    row = bench._summary(parent, change)["gram-odd"]
    assert row["passes"]["parent"]["median"] == 410
    assert row["passes"]["change"]["median"] == 700
    bench._print_summary(bench._summary(parent, change))
    line = next(x for x in capsys.readouterr().out.splitlines()
                if "peak_rss_mb" in x)
    assert line.endswith("  passes  parent 410  change 700")
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps({"sides": {"change": "aaa"},
                              "runs": [_run("gram-odd", 1, "change", 2.0)]}))
    pb.write_text(json.dumps({"sides": {"change": "bbb"}, "runs": change}))
    assert bench.main(["--compare", str(pa), str(pb)]) == 0
    line = next(x for x in capsys.readouterr().out.splitlines()
                if "peak_rss_mb" in x)
    assert line.endswith("wins 0/1  passes  B 700")


def _stub_checkout(tree, seconds):
    """A checkout whose ``qmds`` audits by sleeping and prints one line."""
    pkg = tree / "src" / "qmds"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "audit.py").write_text(
        f"import time\ndef audit_tables():\n    time.sleep({seconds})\n")
    (pkg / "cli.py").write_text(
        "import sys\ndef main(argv):\n    sys.stdout.write(' '.join(argv))\n"
        "    return 1\n")


def test_audit_run_records_time_memory_and_the_printed_hash(tmp_path):
    # the probe imports the checkout's own src, so the stub is what runs
    _stub_checkout(tmp_path, 0.05)
    record = bench._audit_run(tmp_path)
    assert record["audit_s"] >= 0.05
    assert record["ru_maxrss_mb"] > 1
    assert record["sha256"] == hashlib.sha256(b"audit").hexdigest()


def _audit(side, audit_s, rss, sha="60c3c778" + "0" * 56):
    return {"side": side, "audit_s": audit_s, "ru_maxrss_mb": rss,
            "sha256": sha}


def test_audit_summary_and_compare(tmp_path, capsys):
    parent = [_audit("parent", 0.15, 80.0), _audit("parent", 0.13, 82.0)]
    change = [_audit("change", 0.08, 58.0), _audit("change", 0.14, 58.5)]
    summary = bench._audit_summary(parent, change)
    assert summary["audit_s"]["parent"]["median"] == pytest.approx(0.14)
    assert summary["audit_s"]["change"]["median"] == pytest.approx(0.11)
    assert summary["audit_s"]["wins"] == "1/2"  # the second pair is slower
    assert summary["ru_maxrss_mb"]["wins"] == "2/2"
    assert summary["sha256"] == {"parent": ["60c3c778" + "0" * 56],
                                 "change": ["60c3c778" + "0" * 56]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps({"sides": {"change": "aaa"}, "runs": [],
                              "audit_runs": [{**r, "side": "change"}
                                             for r in parent]}))
    pb.write_text(json.dumps({"sides": {"change": "bbb"}, "runs": [],
                              "audit_runs": change + [
                                  _audit("parent", 9.0, 9.0, "f" * 64)]}))
    assert bench.main(["--compare", str(pa), str(pb)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[out.index("audit") + 1:] == [
        "  audit_s       A 0.14 (0.135-0.145)  B 0.11 (0.095-0.125)"
        "  delta -21.4 %  wins 1/2",
        "  ru_maxrss_mb  A 81 (80.5-81.5)  B 58.25 (58.12-58.38)"
        "  delta -28.1 %  wins 2/2",
        "  sha256        A 60c3c778  B 60c3c778"]


def test_main_runs_only_the_audit(tmp_path, monkeypatch, capsys):
    # no workload, two audit records per side, alternating which runs first
    (tmp_path / "here" / "perfbench").mkdir(parents=True)
    (tmp_path / "here" / "perfbench" / "run.py").write_text("")
    monkeypatch.chdir(tmp_path / "here")
    monkeypatch.setattr(bench, "_describe", lambda tree: tree.name)
    seen = []

    def fake(tree):
        seen.append(tree.name)
        return {"audit_s": 0.1, "ru_maxrss_mb": 50.0, "sha256": "a" * 64}
    monkeypatch.setattr(bench, "_audit_run", fake)
    out = tmp_path / "b.json"
    assert bench.main(["--workloads", "--audit-runs", "2", "--parent",
                       str(tmp_path / "parent"), "--out", str(out)]) == 0
    assert seen == ["parent", "here", "here", "parent"]
    saved = json.loads(out.read_text())
    assert saved["runs"] == [] and len(saved["audit_runs"]) == 4
    assert saved["audit_summary"]["audit_s"]["wins"] == "0/2"
    assert "  sha256        parent aaaaaaaa  change aaaaaaaa" in \
        capsys.readouterr().out.splitlines()
    with pytest.raises(SystemExit):
        bench._parse(["--parent", str(tmp_path), "--seeds", "1-2",
                      "--audit-runs", "3", "--out", str(out)])
