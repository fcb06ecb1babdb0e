#!/usr/bin/env python3
"""Run the benchmark's workloads through perfbench/run.py and keep every run
in one BENCH file.

Each run is one ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a fresh process, with T = ``run_seconds`` from BENCHMARK.json
so that every run and both sides of a pair run equally long.  This script adds no timing of its own:
it records the end-to-end metrics run.py prints on its last line, with the
machine's facts, and summarizes them per workload.  Run it from the root of
a checkout::

    python3 scripts/bench.py --workloads gram-char2 --seeds 1-10 \\
        --parent ../parent-checkout --out BENCH_new.json
    python3 scripts/bench.py --compare BENCH_old.json BENCH_new.json

With ``--parent DIR`` every seed is a pair of runs, one in DIR (another
checkout, usually the parent commit) and one here, and the side that runs
first alternates from pair to pair, so it needs an even number of seeds.  Without it only this checkout runs.
Runs are added to the ``--out`` file if it exists, so one file can hold
different seeds for different workloads.  Each run also records its pass
count and the median time of each of its operations over its passes, read
from the result file run.py leaves in ``perfbench/out`` of the checkout that
ran; the pass counts are printed beside ``peak_rss_mb``, which grows with
them.  ``--compare A
B`` reads two BENCH files and prints, for each workload and metric, and for
each operation, the medians of A's and B's runs of their own checkout (side
"change"), the relative delta and how many seed-matched pairs B wins.  Both
the summary and ``--compare`` first print, per workload and side, how many
runs were not correct or had a failed operation: those runs still count in
the medians.  An end-to-end metric is marked ``gain`` when the change wins
at least 9 of 10 of its pairs and its median beats the parent's by more
than the parent's interquartile range, and ``over bound`` when its median
is worse than the parent's by more than the metric's ``bound`` in
BENCHMARK.json.

``--audit-runs R`` adds R audit records per side, in fresh processes that
alternate sides as the seeds do (so R must be even with ``--parent``)::

    python3 scripts/bench.py --workloads --audit-runs 6 \\
        --parent ../parent-checkout --out BENCH_new.json

Each process imports the checkout's ``src/qmds`` and records the wall time
of ``audit_tables()``, its ``ru_maxrss`` after it, and the sha256 of what
``qmds audit`` prints.  ``--workloads`` with no names runs no workload.
The summary and ``--compare`` print the medians of both numbers and each
side's distinct hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
AUDIT_METRICS = {"audit_s": "lower", "ru_maxrss_mb": "lower"}
# run with the checkout's src as PYTHONPATH; the imports are not timed
AUDIT_PROBE = """
import contextlib, hashlib, io, json, resource, time
from qmds import cli
from qmds.audit import audit_tables
start = time.perf_counter()
audit_tables()
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
out = io.StringIO()
with contextlib.redirect_stdout(out):
    cli.main(["audit"])
print(json.dumps({"audit_s": seconds, "ru_maxrss_mb": rss,
                  "sha256": hashlib.sha256(out.getvalue().encode())
                  .hexdigest()}))
"""
NOTE = ("Noise is not controlled: the runs share a 2-core machine with other "
        "work, and its speed drifts by 10-20 % over seconds. Compare medians "
        "of alternating pairs, not single runs.")


def _seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' or a mix: '1-3,7'."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", choices=WORKLOADS,
                    default=WORKLOADS)
    ap.add_argument("--seeds", type=_seeds, default=[1],
                    help="seeds to run, e.g. 1-10 or 1,4,9 (default 1)")
    ap.add_argument("--parent", type=Path, metavar="DIR",
                    help="another checkout to run in alternating pairs")
    ap.add_argument("--out", type=Path, metavar="BENCH.json",
                    help="BENCH file to write or add runs to")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="print B's medians against A's and exit")
    ap.add_argument("--audit-runs", type=int, default=0, metavar="R",
                    help="audit records per side (default 0)")
    args = ap.parse_args(argv)
    if args.compare is None and args.out is None:
        ap.error("--out is required unless --compare is given")
    if args.parent is not None and (
            args.workloads and len(args.seeds) % 2 or args.audit_runs % 2):
        # the side that runs first alternates, and the first run of a pair
        # tends to be the faster one, so both sides must run first equally
        ap.error("--parent needs an even number of seeds and of audit runs")
    return args


def _describe(tree: Path) -> str | None:
    """The checkout's commit, with -dirty for uncommitted edits."""
    out = subprocess.run(["git", "describe", "--always", "--dirty"],
                         cwd=tree, capture_output=True, text=True)
    return out.stdout.strip() or None


def _machine() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def _run(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # the result file run.py wrote in ``tree``
    detail = json.loads((tree / "perfbench" / "out"
                         / f"result-{workload}-seed{seed}-trace0.json")
                        .read_text())
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "passes": result["attempted"] // len(detail["ops"]),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "ops": _op_medians(detail)}


def _audit_run(tree: Path) -> dict:
    """One audit record (``AUDIT_PROBE``) in a fresh process on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", AUDIT_PROBE], cwd=tree,
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"the audit probe in {tree} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _op_medians(detail: dict) -> dict:
    """Each operation's median time over the passes of a run, from the
    result file run.py wrote."""
    by_op = zip(*detail["op_s_by_pass"])
    return {name: statistics.median(times)
            for name, times in zip(detail["ops"], by_op)}


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values)}


def _pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    """Runs matched by workload, seed and repeat."""
    def key(runs):
        seen, out = {}, {}
        for r in runs:
            k = (r["workload"], r["seed"])
            seen[k] = seen.get(k, 0) + 1
            out[k + (seen[k],)] = r
        return out
    a, b = key(base), key(new)
    return [(a[k], b[k]) for k in sorted(a.keys() & b.keys())]


def _entry(b_runs: list[dict], n_runs: list[dict], pairs, value,
           better: str, bound: float | None = None) -> dict:
    """Medians and quartiles of ``value(run)`` on each side, over the runs
    where it is not None; with both sides, the relative delta of the
    medians and the pairs won; with a ``bound`` (the end-to-end metrics),
    the ``_mark`` where one applies."""
    entry = {}
    for side, runs in (("change", n_runs), ("parent", b_runs)):
        values = [v for v in map(value, runs) if v is not None]
        if values:
            entry[side] = _quartiles(values)
    if "parent" in entry and "change" in entry:
        p, c = entry["parent"]["median"], entry["change"]["median"]
        entry["delta"] = (c - p) / p if p else None
        sign = -1 if better == "lower" else 1
        both = [(value(x), value(y)) for x, y in pairs]
        both = [(x, y) for x, y in both if x is not None and y is not None]
        wins = sum(sign * (y - x) > 0 for x, y in both)
        entry["wins"] = f"{wins}/{len(both)}"
        mark = (None if bound is None
                else _mark(entry, wins, len(both), sign, bound))
        if mark:
            entry["mark"] = mark
    return entry


def _mark(entry: dict, wins: int, pairs: int, sign: int,
          bound: float) -> str | None:
    """The mark "gain" when at least 9 of 10 pairs are won and the median
    is better than the parent's by more than the parent's interquartile
    range; "over bound" when the median is worse than the parent's by more
    than ``bound``, a fraction of the parent's median."""
    p, c = entry["parent"], entry["change"]["median"]
    if pairs and 10 * wins >= 9 * pairs and \
            sign * (c - p["median"]) > p["q3"] - p["q1"]:
        return "gain"
    if entry["delta"] is not None and -sign * entry["delta"] > bound:
        return "over bound"
    return None


def _bad(run: dict) -> bool:
    """A run whose checks found a wrong answer or a failed operation."""
    return not run["correct"] or run["failed"] > 0


def _summary(base: list[dict], new: list[dict]) -> dict:
    """Per workload and metric: medians and quartiles of each side; with a
    baseline, the relative delta of the medians and the pairs won.  Under
    "ops", the same for each operation's per-run median time, pooled over
    the runs that have it (runs recorded before operations were kept have
    none).  Under "passes", the same for each run's pass count, which
    ``peak_rss_mb`` grows with.  Under "bad_runs", each side's count of runs that were not
    correct or had a failed operation, out of its runs: they still count
    in the medians, so a nonzero count is a warning."""
    out = {}
    for workload in sorted({r["workload"] for r in base + new}):
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        pairs = _pairs(b_runs, n_runs)
        row = {name: _entry(b_runs, n_runs, pairs,
                            lambda r, name=name: r["metrics"][name],
                            spec["better"], spec.get("bound"))
               for name, spec in METRICS.items()}
        ops = dict.fromkeys(op for r in b_runs + n_runs
                            for op in r.get("ops", {}))
        row["passes"] = _entry(b_runs, n_runs, pairs,
                               lambda r: r.get("passes"), "higher")
        row["ops"] = {op: _entry(b_runs, n_runs, pairs,
                                 lambda r, op=op: r.get("ops", {}).get(op),
                                 "lower")
                      for op in ops}
        row["bad_runs"] = {side: {"bad": sum(map(_bad, runs)),
                                  "runs": len(runs)}
                           for side, runs in (("change", n_runs),
                                              ("parent", b_runs)) if runs}
        out[workload] = row
    return out


def _audit_summary(base: list[dict], new: list[dict]) -> dict:
    """Per audit metric, the medians, quartiles, delta and wins of
    ``_entry``, the records paired in order; under "sha256", each side's
    distinct hashes."""
    pairs = list(zip(base, new))
    out = {name: _entry(base, new, pairs, lambda r, name=name: r[name],
                        better)
           for name, better in AUDIT_METRICS.items()}
    out["sha256"] = {side: sorted({r["sha256"] for r in runs})
                     for side, runs in (("change", new), ("parent", base))
                     if runs}
    return out


def _print_audit(summary: dict, labels=("parent", "change")) -> None:
    print("audit")
    for name in AUDIT_METRICS:
        print(_line(name, summary[name], labels))
    print(f"  {'sha256':12s}" + "".join(
        f"  {label} {','.join(h[:8] for h in summary['sha256'][side])}"
        for side, label in zip(("parent", "change"), labels)
        if side in summary["sha256"]))


def _line(name: str, e: dict, labels) -> str:
    line = f"  {name:12s}"
    for side, label in zip(("parent", "change"), labels):
        if side in e:
            s = e[side]
            line += (f"  {label} {s['median']:.4g} "
                     f"({s['q1']:.4g}-{s['q3']:.4g})")
    if e.get("delta") is not None:
        line += f"  delta {100 * e['delta']:+.1f} %  wins {e['wins']}"
    if "mark" in e:
        line += f"  [{e['mark']}]"
    return line


def _print_summary(summary: dict, labels=("parent", "change")) -> None:
    """Each side's bad runs (``_bad``) out of its runs; the median
    (quartiles) of each side, then the delta and pairs won: per metric,
    with each side's median pass count beside ``peak_rss_mb``, then per
    operation (its median seconds per run)."""
    for workload, row in summary.items():
        print(workload)
        bad = row["bad_runs"]
        print(f"  {'bad runs':12s}" + "".join(
            f"  {label} {bad[side]['bad']}/{bad[side]['runs']}"
            for side, label in zip(("parent", "change"), labels)
            if side in bad))
        for name in METRICS:
            line = _line(name, row[name], labels)
            passes = row.get("passes")
            if name == "peak_rss_mb" and passes:  # it grows with the count
                line += "  passes" + "".join(
                    f"  {label} {passes[side]['median']:.4g}"
                    for side, label in zip(("parent", "change"), labels)
                    if side in passes)
            print(line)
        if row["ops"]:
            print("  per operation, s:")
            for op, e in row["ops"].items():
                print("  " + _line(op, e, labels))


def _compare(a_path: Path, b_path: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
    own = [[r for r in f["runs"] if r["side"] == "change"] for f in (a, b)]
    print(f"A = {a_path} ({a['sides'].get('change')}), "
          f"B = {b_path} ({b['sides'].get('change')})")
    _print_summary(_summary(*own), labels=("A", "B"))
    audits = [[r for r in f.get("audit_runs", []) if r["side"] == "change"]
              for f in (a, b)]
    if any(audits):
        _print_audit(_audit_summary(*audits), labels=("A", "B"))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        return _compare(*args.compare)
    here = Path.cwd()
    if not (here / "perfbench" / "run.py").is_file():
        sys.stderr.write("run from the root of a qmds checkout\n")
        return 2
    sides = {"change": _describe(here)}
    if args.parent:
        sides["parent"] = _describe(args.parent)
    bench = {"note": NOTE, "machine": _machine(), "sides": sides, "runs": []}
    if args.out.exists():
        bench = json.loads(args.out.read_text())
        if any(bench["sides"].get(k) != v for k, v in sides.items()):
            sys.stderr.write(f"{args.out} holds runs of other checkouts: "
                             f"{bench['sides']}\n")
            return 2
        bench["sides"].update(sides)
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            order = ["change"]
            if args.parent:
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                tree = args.parent if side == "parent" else here
                run = _run(tree, workload, seed)
                bench["runs"].append({"workload": workload, "seed": seed,
                                      "side": side, "first": side == order[0],
                                      "seconds": SPEC["run_seconds"], **run})
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in run["metrics"].items()),
                    flush=True)
            bench["summary"] = _summary(
                [r for r in bench["runs"] if r["side"] == "parent"],
                [r for r in bench["runs"] if r["side"] == "change"])
            args.out.write_text(json.dumps(bench, indent=1) + "\n")
    audits = bench.setdefault("audit_runs", [])
    for i in range(args.audit_runs):
        order = ["change"]
        if args.parent:
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            record = _audit_run(args.parent if side == "parent" else here)
            audits.append({"side": side, "first": side == order[0],
                           **record})
            print(f"audit {i + 1} {side}: audit_s {record['audit_s']:.4g}, "
                  f"ru_maxrss_mb {record['ru_maxrss_mb']:.4g}, "
                  f"sha256 {record['sha256'][:8]}", flush=True)
        bench["audit_summary"] = _audit_summary(
            *([r for r in audits if r["side"] == side]
              for side in ("parent", "change")))
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    _print_summary(bench.get("summary", {}))
    if audits:
        _print_audit(bench["audit_summary"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
