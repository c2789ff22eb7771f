#!/usr/bin/env python3
"""Assemble a ``BENCH_<n>.json`` file from perfbench result files.

    python3 tools/bench_file.py --out BENCH_10.json --description "..." \
        parent=../parent/perfbench/results change=perfbench/results

With ``--replay FILE`` (repeatable), the JSON results of
``tools/ab_replay.py`` go into the file's ``replays`` list as they are.

Each ``LABEL=DIR`` names a directory of result files written by
``perfbench/run.py`` (one ``<workload>-seed<seed>-trace<trace>.json`` per
run) and the side they were measured on. Every result file becomes one
entry of ``runs`` with its side, file name, arguments, host fingerprint
(CPU count, Python/numpy/scipy, OpenBLAS threads, source digest),
checks and metrics; the span dump and the full computed-metric table of
traced runs are left out. ``summary`` gives, per workload and
end-to-end metric of the untraced runs, each side's median and
quartiles and, for the first two sides, how many seeds run on both the
second side won (by the metric's direction in BENCHMARK.json). Its
``setup_parts`` entry splits ``setup_s`` into each side's median
``import_s`` and median of the per-run median ``setup_reps_s``, so that a
``setup_s`` change can be traced to the import or to the set-up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DROPPED = ("spans", "computed")


def load_side(label: str, directory: Path) -> list[dict]:
    files = sorted(directory.glob("*.json"))
    if not files:
        raise SystemExit(f"no result files in {directory}")
    runs = []
    for path in files:
        result = json.loads(path.read_text())
        entry = {"side": label, "file": path.name}
        entry.update({k: v for k, v in result.items() if k not in DROPPED})
        runs.append(entry)
    return runs


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def summarize(runs: list[dict], labels: list[str], spec: dict) -> dict:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    by, setups = {}, {}
    for run in runs:
        if run["args"]["trace"]:
            continue
        key = run["args"]["workload"]
        by.setdefault(key, {}).setdefault(run["side"], {})[run["args"]["seed"]] = run["metrics"]
        parts = setups.setdefault(key, {}).setdefault(run["side"], ([], []))
        parts[0].append(run["import_s"])
        parts[1].append(statistics.median(run["setup_reps_s"]))
    summary = {}
    for workload, sides in sorted(by.items()):
        rows = {"setup_parts": {
            label: {
                "n": len(imports),
                "import_s_median": statistics.median(imports),
                "setup_reps_s_median": statistics.median(reps),
            }
            for label, (imports, reps) in setups[workload].items()
        }}
        for name in better:
            row = {}
            for label in labels:
                values = [m[name]["value"] for m in sides.get(label, {}).values() if name in m]
                if values:
                    q1, med, q3 = quartiles(values)
                    row[label] = {"n": len(values), "median": med, "q1": q1, "q3": q3}
            if len(labels) >= 2 and all(label in sides for label in labels[:2]):
                base, other = sides[labels[0]], sides[labels[1]]
                seeds = sorted(set(base) & set(other))
                sign = 1.0 if better[name] == "lower" else -1.0
                wins = sum(
                    1 for s in seeds
                    if sign * (other[s][name]["value"] - base[s][name]["value"]) < 0
                )
                row["pairs"] = len(seeds)
                row[f"{labels[1]}_wins"] = wins
            rows[name] = row
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--description", required=True)
    parser.add_argument("--replay", type=Path, action="append", default=[])
    parser.add_argument("sides", nargs="+", metavar="LABEL=DIR")
    args = parser.parse_args(argv)

    labels, runs = [], []
    for item in args.sides:
        label, sep, directory = item.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=DIR, got {item!r}")
        labels.append(label)
        runs += load_side(label, Path(directory))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {
        "description": args.description,
        "summary": summarize(runs, labels, spec),
        "runs": runs,
        "replays": [json.loads(path.read_text()) for path in args.replay],
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}: {len(runs)} runs from {', '.join(labels)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
