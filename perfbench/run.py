#!/usr/bin/env python3
"""Benchmark of the quadnmpc control loop, one workload per invocation.

    python3 perfbench/run.py --workload rti_step --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The program is imported from ``src/``.
With ``--trace 0`` the run reports every end-to-end metric listed in
BENCHMARK.json, with ``--trace 1`` every per-layer metric: the workload
then runs once untraced and once with a span around every layer
boundary, and the difference of the two cycle medians is the tracing
overhead. Either way the program's outputs are checked, the host
fingerprint and a summary go to ``perfbench/results/``, and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exits with 2, printing no result, when the program cannot be imported,
and with 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program():
    """Import ``quadnmpc`` from this checkout's ``src/``; return an error text on failure."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import quadnmpc
    except ImportError as exc:
        return f"cannot import quadnmpc from {src}: {exc}"
    if not Path(quadnmpc.__file__).resolve().is_relative_to(src):
        return f"quadnmpc was imported from {quadnmpc.__file__}, not from {src}"
    return None


def timed_setups(workload):
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        cfg = workload.setup()
        times.append(time.perf_counter() - start)
    return cfg, times


def span_summary(rec) -> dict:
    out = {}
    for name in sorted(set(rec.names)):
        durations = rec.durations_ns(name)
        out[name] = {
            "calls": len(durations),
            "total_ms": sum(durations) / 1e6,
            "median_us": statistics.median(durations) / 1e3,
            "self_total_ms": sum(rec.self_ns(name)) / 1e6,
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    error = import_program()
    if error:
        print(error, file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    import host
    import layers
    import workloads
    from probes import Recorder

    workload = workloads.make(args.workload, args.seed, args.seconds)
    with Recorder() as setup_rec:
        if args.trace:
            setup_rec.install(["lqr.design_lqr"])
        cfg, setup_times = timed_setups(workload)

    with Recorder() as rec:
        rec.install(workload.probes, layers.EXTRACT)
        run = workload.execute(cfg)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = workload.end_to_end(run, rec)
    metrics["setup_s"] = import_s + statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb
    checks = workload.checks(run, rec)
    attempted, failed = workload.failures(run, rec)
    report = {"import_s": import_s, "setup_reps_s": setup_times}

    if args.trace:
        with Recorder() as trec:
            trec.install(layers.LAYER_TARGETS, layers.EXTRACT)
            traced = workload.execute(cfg)
        untraced = metrics
        report["end_to_end"] = untraced
        metrics = layers.layer_metrics(trec, traced.flown, workloads.DT)
        # the tail is taken untraced; its run-to-run spread is too wide for a bound
        metrics["cycle_ms_p99"] = untraced["cycle_ms_p99"]
        design_ns = setup_rec.durations_ns("lqr.design_lqr")
        metrics["lqr.design_lqr.s"] = statistics.median(design_ns) / 1e9 if design_ns else 0.0
        metrics["trace.overhead_ms"] = (
            workload.end_to_end(traced, trec)["cycle_ms_p50"] - untraced["cycle_ms_p50"]
        )
        metrics["trace.absent_layers"] = len(trec.absent)
        expected = workload.counts(run, rec)
        for name in layers.EXACT_COUNTS:
            checks.append((
                f"{name} repeats exactly", metrics[name] == expected[name],
                f"traced {metrics[name]}, untraced {expected[name]}",
            ))
        report.update(absent=trec.absent, spans=span_summary(trec))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics in BENCHMARK.json that the run did not compute: {missing}")
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    correct = all(bool(ok) for _, ok, _ in checks)
    fingerprint = host.fingerprint(ROOT)

    for label, ok, detail in checks:
        print(f"check  {'ok    ' if ok else 'FAILED'}  {label}  ({detail})")
    for name, m in out_metrics.items():
        print(f"metric {name:42s} {m['value']:>14.6g} {m['unit']}")
    for name in report.get("absent", []):
        print(f"absent {name}")
    print("host   " + json.dumps(fingerprint))

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "args": vars(args), "host": fingerprint, "correct": correct,
        "attempted": attempted, "failed": failed, "metrics": out_metrics,
        "computed": metrics, "checks": [{"check": c, "ok": bool(ok), "detail": d} for c, ok, d in checks],
        **report,
    }, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
