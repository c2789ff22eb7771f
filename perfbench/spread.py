#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload rti_step --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric the median of the runs and the distance between
their first and third quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of the bound
is marked; ``setup_s`` is exempt because only its median is compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
        ), flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median
        flag = metric["name"] != "setup_s" and spread > metric["bound"] / 3
        steady &= not flag
        print(f"{args.workload:15s} {metric['name']:16s} median {median:12.6g} "
              f"spread {spread:7.4f} bound {metric['bound']:.2f}{'  WIDE' if flag else ''}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
