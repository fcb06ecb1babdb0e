"""scripts/bench.py: seed lists, summaries and --compare, on runs written
by hand (running perfbench itself takes minutes)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _run(workload, seed, side, pass_s):
    metrics = {name: 1.0 for name in bench.METRICS}
    metrics["pass_s"] = pass_s
    return {"workload": workload, "seed": seed, "side": side,
            "metrics": metrics}


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
