#!/usr/bin/env python3
"""qmds benchmark: one workload, timed end to end or per layer.

Run from the root of a qmds checkout (the program is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload gram-odd --seed 1 --seconds 20 --trace 0

Workloads: gram-odd, gram-char2, conditions, small-jobs (see README.md).
A run repeats whole passes over the workload's operations, each pass with a
cold field cache, until another pass would end after ``--seconds`` (at
least two passes).  After the passes it checks every output against the
benchmark's own arithmetic, runs the known-bad controls and the checkers'
self-test, and prints one JSON object as its last line:

  --trace 0  end-to-end metrics: setup_s, pass_s, op_s_p50, peak_rss_mb
  --trace 1  per-layer metrics from spans around each layer's entry points,
             taken on traced passes that alternate with untraced ones

Result and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gram-odd", "gram-char2", "conditions", "small-jobs")
SETUP_PROBES = 5
MIN_PASSES = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process, spawned at this instant
    ap.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _cap_blas_threads() -> int:
    """BLAS threads = nproc, or fewer if the environment asks for fewer."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        want = os.environ.get(var, "")
        os.environ[var] = str(min(int(want), nproc) if want.isdigit() else nproc)
    return nproc


def _setup_probe(args) -> float:
    """Seconds from spawning a fresh process to its first operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe", repr(time.time())]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def _run_pass(ops, field_mod, tracer=None):
    """One pass with a cold field cache: per-op seconds, summaries, errors."""
    field_mod.build_field.cache_clear()
    gc.collect()
    times, summaries, errors = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # counted as a failed operation
                times.append(time.perf_counter() - t0)
                summaries.append(None)
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            summaries.append(op.summarize(out))
            del out
    finally:
        if tracer is not None:
            tracer.uninstall()
    cli_bytes = sum(op.cli_bytes[-1] for op in ops if op.cli_bytes)
    return {"op_s": times, "summaries": summaries, "errors": errors,
            "cli_bytes": cli_bytes}


def _layer_metrics(tracer, traced, untraced) -> dict:
    """Per traced pass: self time of each layer, counts, overhead."""
    import spans
    runs = len(traced)
    selfs = tracer.self_times()
    traced_s = [sum(p["op_s"]) for p in traced]
    out = {}
    for metric, names in spans.SELF_TIME.items():
        out[metric] = (sum(selfs.get(n, 0.0) for n in names) / runs, "s")
    counts = dict(tracer.counts)
    counts["cli.bytes_out"] = sum(p["cli_bytes"] for p in traced)
    for name, unit in spans.COUNTS.items():
        out[name] = (counts.get(name, 0) / runs, unit)
    gram_s = out["codes.gram_s"][0]
    out["codes.gram_terms_per_s"] = (
        out["codes.gram_terms"][0] / gram_s if gram_s else 0.0, "1/s")
    out["trace.pass_s"] = (statistics.median(traced_s), "s")
    out["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(
        sum(p["op_s"]) for p in untraced), "s")
    out["trace.attributed_share"] = (sum(selfs.values()) / sum(traced_s),
                                     "ratio")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "qmds" / "__init__.py").is_file():
        sys.stderr.write("run from the root of a qmds checkout: "
                         "src/qmds is missing\n")
        return 2
    nproc = _cap_blas_threads()
    setups = []
    if args.setup_probe is None and not args.trace:
        setups = [_setup_probe(args) for _ in range(SETUP_PROBES)]
    sys.path[:0] = [str(root / "src"), str(HERE)]

    import numpy  # noqa: F401  (part of set-up, as for any qmds user)
    import qmds.field
    import workloads
    ops = workloads.make_ops(args.workload, args.seed)
    if args.setup_probe is not None:
        print(time.time() - args.setup_probe)
        return 0

    import checks
    problems = [f"self-test: {f}" for f in checks.self_test()]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    passes, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(_run_pass(ops, qmds.field))
        if tracer is not None:
            traced.append(_run_pass(ops, qmds.field, tracer))
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (1 if tracer else MIN_PASSES)
        if enough and elapsed + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, outside every timed region
    failed = 0
    errors = []
    for p in passes + traced:
        errors += p["errors"]
        for op, summary in zip(ops, p["summaries"]):
            if summary is None:
                failed += 1
                continue
            found = op.check(summary)
            if found:
                failed += 1
                problems += [f"{op.name}: {f}" for f in found]
    for op in ops:
        if op.control is not None:
            problems += workloads.known_bad_control(*op.control)

    op_s = [t for p in passes for t in p["op_s"]]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(sum(p["op_s"]) for p in passes), "s"),
            "op_s_p50": (statistics.median(op_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, traced, passes)
    attempted = len(ops) * len(passes + traced)
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "nproc": nproc,
        "ops": [op.name for op in ops],
        "op_s_by_pass": [p["op_s"] for p in passes],
        "setup_s_samples": setups, "errors": errors, "problems": problems,
        "result": result,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        (out_dir / f"spans-{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "spans": tracer.spans}))

    for line in problems[:20] + errors[:20]:
        sys.stderr.write(line + "\n")
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes"
          f"{f' + {len(traced)} traced' if traced else ''}, "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
