"""Command-line interface: simulate, benchmark, trajgen, study.

Every command reads the same sectioned configuration (all keys have
defaults), applies ``--set section.key=value`` overrides, and writes its
results under the output root (``--out``, the QUADNMPC_OUT environment
variable, or ``./quadnmpc_out``). Raw results go to CSV; a standalone
matplotlib script is emitted next to each CSV so plots never become a
runtime dependency.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULTS, TRAJECTORIES, ConfigError, RunConfig
from .rti import SqpConvergenceError
from .sim import (
    compute_metrics,
    run_closed_loop,
    write_diagnostics_csv,
    write_reference_csv,
    write_trace_csv,
)
from .studies import STUDIES, benchmark

TRACE_PLOT = '''\
"""Render position / attitude / rotor-speed panels from a closed-loop trace."""
import csv, math, sys
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "{csv_name}"
rows = list(csv.DictReader(open(path)))
t = [float(r["t"]) for r in rows]
get = lambda k: [float(r[k]) for r in rows]

def euler(qw, qx, qy, qz):
    roll = math.atan2(2 * (qw * qx + qy * qz), 1 - 2 * (qx * qx + qy * qy))
    pitch = math.asin(max(-1.0, min(1.0, 2 * (qw * qy - qz * qx))))
    yaw = math.atan2(2 * (qw * qz + qx * qy), 1 - 2 * (qy * qy + qz * qz))
    return roll, pitch, yaw

angles = [euler(float(r["qw"]), float(r["qx"]), float(r["qy"]), float(r["qz"])) for r in rows]

fig, axes = plt.subplots(3, 1, figsize=(9, 10), sharex=True)
for name, ref in (("x", "ref_x"), ("y", "ref_y"), ("z", "ref_z")):
    axes[0].plot(t, get(name), label=name)
    axes[0].plot(t, get(ref), "--", alpha=0.6)
axes[0].set_ylabel("position [m]"); axes[0].legend(); axes[0].grid(True)
for i, name in enumerate(("roll", "pitch", "yaw")):
    axes[1].plot(t, [math.degrees(a[i]) for a in angles], label=name)
axes[1].set_ylabel("attitude [deg]"); axes[1].legend(); axes[1].grid(True)
for name in ("u1", "u2", "u3", "u4"):
    axes[2].plot(t, get(name), label=name)
axes[2].set_ylabel("rotor speed [krpm]"); axes[2].set_xlabel("time [s]")
axes[2].legend(); axes[2].grid(True)
fig.tight_layout()
plt.savefig(path.replace(".csv", ".png"), dpi=150)
print("wrote", path.replace(".csv", ".png"))
'''

STUDY_PLOT = '''\
"""Render the {name} study results."""
import csv, sys
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "{csv_name}"
rows = list(csv.DictReader(open(path)))
cols = rows[0].keys()
x_key = next(iter(cols))
fig, ax = plt.subplots(figsize=(8, 5))
for key in cols:
    if key == x_key:
        continue
    try:
        ys = [float(r[key]) for r in rows]
        xs = [float(r[x_key]) for r in rows]
    except ValueError:
        continue
    ax.plot(xs, ys, marker="o", label=key)
ax.set_xlabel(x_key); ax.grid(True); ax.legend()
fig.tight_layout()
plt.savefig(path.replace(".csv", ".png"), dpi=150)
print("wrote", path.replace(".csv", ".png"))
'''

BENCHMARK_PLOT = '''\
"""Render per-horizon solver timings from the benchmark CSV."""
import csv, sys
from collections import defaultdict
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "{csv_name}"
rows = list(csv.DictReader(open(path)))
agg = defaultdict(list)
for r in rows:
    agg[(r["solver"], int(r["N"]))].append(float(r["qp_linalg_us"]) / max(int(r["ip_iters"]), 1))
fig, ax = plt.subplots(figsize=(8, 5))
for solver in sorted({{k[0] for k in agg}}):
    ns = sorted(n for s, n in agg if s == solver)
    ys = [sum(agg[(solver, n)]) / len(agg[(solver, n)]) for n in ns]
    ax.plot(ns, ys, marker="o", label=solver)
ax.set_xlabel("horizon length"); ax.set_ylabel("mean Newton-system time per iteration [us]")
ax.set_yscale("log"); ax.grid(True); ax.legend()
fig.tight_layout()
plt.savefig(path.replace(".csv", ".png"), dpi=150)
print("wrote", path.replace(".csv", ".png"))
'''


# the commands that read only [model] and the keys listed; setting any other key is an
# error. trajgen also reads the [traj] keys of the kind it generates
MODEL_ONLY_COMMANDS = {
    "study": (),
    "benchmark": ("qp.block_size",),
    "trajgen": (),
}


def _reject_unread_settings(args, rc: RunConfig) -> None:
    command, reads = args.command, MODEL_ONLY_COMMANDS[args.command]
    if command == "trajgen":
        command = f"trajgen {args.kind}"
        reads += tuple(f"traj.{key}" for key in TRAJECTORIES[args.kind][1])
    unread = [
        f"{section}.{key}"
        for section, keys in rc.values.items() if section != "model"
        for key, value in keys.items()
        if value != DEFAULTS[section][key] and f"{section}.{key}" not in reads
    ]
    if unread:
        also = f" and {', '.join(reads)}" if reads else ""
        raise ConfigError(f"{command} reads only [model]{also}, not {', '.join(unread)}")


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("QUADNMPC_OUT") or "quadnmpc_out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_rows_csv(path: Path, rows: list[dict]) -> None:
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else ("inf" if v > 0 else "-inf")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def cmd_simulate(args, rc: RunConfig, out: Path) -> int:
    cfg = rc.make_sim()
    trace = run_closed_loop(cfg)
    metrics = compute_metrics(trace, cfg.ocp.u_lower, cfg.ocp.u_upper)

    write_trace_csv(out / "trace.csv", trace)
    write_diagnostics_csv(out / "diagnostics.csv", trace)
    (out / "plot_trace.py").write_text(TRACE_PLOT.format(csv_name="trace.csv"))
    (out / "config_used.ini").write_text(rc.dump())

    cycle_us = trace.column("prep_us") + trace.column("fb_us") + trace.column("post_us")
    # how far each cycle's tangential predictor extrapolated; a non-finite
    # estimate (a degraded cycle) has no gap
    gaps = trace.column("x0_gap")
    gaps = gaps[np.isfinite(gaps)]
    summary = {
        "scenario": rc.get("sim", "scenario"),
        "controller": rc.get("sim", "controller"),
        "cycles": len(trace),
        "failure": trace.failure,
        "rms_m": metrics.rms,
        "rms_norm_m": metrics.rms_norm,
        "overshoot_pct": metrics.overshoot_pct,
        "settling_s": metrics.settling_s,
        "saturation_pct": metrics.saturation_pct,
        "mean_cycle_us": float(np.mean(cycle_us)),
        "p50_cycle_us": float(np.percentile(cycle_us, 50)) if len(trace) else 0.0,
        "p95_cycle_us": float(np.percentile(cycle_us, 95)) if len(trace) else 0.0,
        "max_cycle_us": float(np.max(cycle_us)) if len(trace) else 0.0,
        "deadline_misses": int(np.count_nonzero(cycle_us > cfg.ocp.dt * 1e6)),
        "degraded_cycles": int(trace.column("degraded").sum()),
        "unconverged_cycles": int(np.count_nonzero(trace.column("qp_status") == "max_iterations")),
        "x0_gap_p50": float(np.percentile(gaps, 50)) if len(gaps) else 0.0,
        "x0_gap_p95": float(np.percentile(gaps, 95)) if len(gaps) else 0.0,
        "x0_gap_max": float(np.max(gaps)) if len(gaps) else 0.0,
    }
    (out / "metrics.json").write_text(json.dumps(_jsonable(summary), indent=2))
    lines = [f"{k}: {v}" for k, v in _jsonable(summary).items()]
    (out / "metrics.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    if trace.failure is not None:
        print(f"warning: {trace.failure}", file=sys.stderr)
    return 0


def cmd_benchmark(args, rc: RunConfig, out: Path) -> int:
    res = benchmark(rc.make_params(), block_size=rc.get("qp", "block_size"))
    _write_rows_csv(out / "benchmark.csv", res.rows)
    (out / "plot_benchmark.py").write_text(BENCHMARK_PLOT.format(csv_name="benchmark.csv"))

    lines = ["N  solver   mean_cycle_us  max_cycle_us  per_iter_us"]
    for row in res.scaling["aggregate"]:
        lines.append(
            f"{row['N']:<3d}{row['solver']:<9s}{row['mean_cycle_us']:>13.1f}"
            f"{row['max_cycle_us']:>14.1f}{row['per_iter_us']:>14.1f}"
        )
    lines.append(f"fit exponents: {res.scaling['fit_exponents']}")
    lines.append(
        "dense/riccati per-iteration ratio: "
        + ", ".join(f"{v:.3f}" for v in res.scaling["dense_over_riccati_ratio"])
    )
    for name, ok in res.verdicts.items():
        lines.append(f"verdict {name}: {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines)
    (out / "benchmark_summary.txt").write_text(text + "\n")
    print(text)
    return 0


def cmd_trajgen(args, rc: RunConfig, out: Path) -> int:
    try:
        source, res = rc.make_trajectory(args.kind)
    except SqpConvergenceError as exc:
        print(f"trajectory optimization failed: {exc}", file=sys.stderr)
        print(f"residual history: {['%.3e' % v for v in exc.history]}", file=sys.stderr)
        return 1
    path = out / f"{args.kind}.csv"
    write_reference_csv(path, source)
    if res is None:
        print(f"wrote {path} ({len(source.rows)} rows)")
    else:
        print(
            f"wrote {path} ({len(source.rows)} rows, "
            f"{res.iterations} SQP iterations, final KKT {res.kkt_history[-1]:.2e})"
        )
    return 0


def cmd_study(args, rc: RunConfig, out: Path) -> int:
    res = STUDIES[args.name](rc.make_params())
    csv_path = out / f"study_{res.name}.csv"
    _write_rows_csv(csv_path, res.rows)
    (out / f"plot_study_{res.name}.py").write_text(
        STUDY_PLOT.format(name=res.name, csv_name=csv_path.name)
    )
    lines = [f"study {res.name}: {len(res.rows)} rows -> {csv_path}"]
    for name, ok in res.verdicts.items():
        lines.append(f"verdict {name}: {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines)
    (out / f"study_{res.name}_verdicts.txt").write_text(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadnmpc",
        description="Nano-quadrotor NMPC position-control stack: simulation, benchmarks, studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI configuration file (defaults cover every key)")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override a configuration value (repeatable)",
        )
        p.add_argument("--out", help="output directory (default $QUADNMPC_OUT or ./quadnmpc_out)")

    p = sub.add_parser("simulate", help="run one closed-loop simulation")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("benchmark", help="time both QP pipelines across horizons")
    common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("trajgen", help="generate a reference trajectory CSV")
    p.add_argument(
        "kind", nargs="?", default="smooth_step", choices=list(TRAJECTORIES),
        help="trajectory kind (default: %(default)s)",
    )
    common(p)
    p.set_defaults(func=cmd_trajgen)

    p = sub.add_parser("study", help="run a multi-configuration study")
    p.add_argument("name", choices=list(STUDIES))
    common(p)
    p.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        rc = RunConfig.load(args.config, args.set or [])
        if args.command in MODEL_ONLY_COMMANDS:
            _reject_unread_settings(args, rc)
        return args.func(args, rc, _out_dir(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report, fail loudly
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
