#!/usr/bin/env python3
"""Replay one recorded flight through two versions of the RTI controller, in one process.

    python3 tools/ab_replay.py --base HEAD --solver dense --seed 5 --out replay.json
    python3 tools/ab_replay.py --base HEAD --horizon 400 --cycles 100

Run from the root of a checkout. The ``--base`` revision's ``src/quadnmpc``
is exported with ``git archive`` and the working tree's is copied; both go
into a temporary directory under the package names ``quadnmpc_base`` and
``quadnmpc_change``.

The working tree flies one flight shaped like perfbench's RTI workloads
(its chain of maneuvers for ``--seed``, dt = 15 ms, block size 5, no
noise, no delay) for ``--cycles`` cycles, and its start position,
estimated states and reference windows are recorded. The horizon is ``--horizon`` stages,
perfbench's RTI horizon N = 50 by default; ``--horizon 400`` gives the
80-stage interior point that perfbench's ``trajgen`` runs. Both
controllers are reset to hover at the start position, as
``run_closed_loop`` resets its own, and then driven by that recording. Each cycle runs
``--replays`` times from the same guess, and the sides alternate within
a cycle, the side that goes first alternating from cycle to cycle; a
layer's time in a cycle is the minimum over the replays. A cycle is
``prepare``, ``feedback`` and the post-command step ``post_command``
(which steps and shifts the guess after the command), each timed as its
own layer; a revision without ``post_command`` steps and shifts the
guess in ``feedback``, and its ``post`` layer is empty. The result
gives, per layer (cycle, prepare, feedback, post, build_qp, condense,
IPM, expand), the median over cycles of each side and the ratio change /
base; the IPM iterations of each side and the number of cycles whose
counts differ; the largest and the median over cycles of the
difference between the applied inputs; and the largest over cycles of
the difference in the record's ``kkt_stationarity``, ``step_norm`` and
``x0_gap`` (those of them both revisions have) and in the guess ``X``,
``U`` after the cycle. A value that is NaN on both sides (the record of
a degraded cycle) counts as equal. It is printed and, with ``--out``,
written as JSON, which ``tools/bench_file.py --replay`` puts into a
BENCH file.

Within one process both sides share the heap, the BLAS threads and the
host's load, which perfbench's separate processes do not.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
LAYERS = ("cycle", "prepare", "feedback", "post", "build_qp", "condense", "ipm", "expand")
# the names the controller's module looks its layers up by
WRAPPED = {
    "build_qp": "build_qp",
    "partial_condense": "condense",
    "solve_riccati_ipm": "ipm",
    "solve_condensed_dense": "ipm",
    "expand": "expand",
}
# the fields of the cycle's record, besides the input and the timings, that the sides compare
RECORD = ("kkt_stationarity", "step_norm", "x0_gap")


def export(base: str, into: Path) -> dict[str, str]:
    """Put both package trees under ``into`` and return side -> package name."""
    archive = subprocess.run(
        ["git", "archive", base, "src/quadnmpc"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into / "export", filter="data")
    shutil.copytree(into / "export" / "src" / "quadnmpc", into / "quadnmpc_base")
    shutil.copytree(
        ROOT / "src" / "quadnmpc", into / "quadnmpc_change",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return {side: f"quadnmpc_{side}" for side in SIDES}


def record(seed: int, cycles: int, solver: str, horizon: int | None):
    """Fly the working tree; return the horizon, sampling period, block size, start
    position and per-cycle inputs.

    ``horizon`` is the number of stages, perfbench's ``N_RTI`` when it is ``None``.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from quadnmpc import dynamics, ocp, sim

    params = dynamics.QuadrotorParams()
    cfg = ocp.OcpConfig(N=horizon or workloads.N_RTI, dt=workloads.DT, params=params)
    duration = cycles * workloads.DT
    maneuvers = math.ceil(duration / workloads.MANEUVER_S)
    source = workloads.chain_source(workloads.maneuver_points(seed, maneuvers), params)
    trace = sim.run_closed_loop(sim.SimConfig(
        scenario=source, ocp=cfg, duration=duration, micro_step=workloads.MICRO_STEP,
        solver=solver, block_size=workloads.BLOCK_SIZE,
    ))
    windows = [source.window(t, cfg.N, cfg.dt) for t in trace.t]
    inputs = [(x, w.stages, w.terminal) for x, w in zip(trace.estimated, windows)]
    return cfg.N, cfg.dt, workloads.BLOCK_SIZE, source.position(0.0), inputs


class Side:
    """One package's controller, with its layers timed at the names ``rti`` calls."""

    def __init__(self, package: str, N: int, dt: float, solver: str, block_size: int, position):
        self.rti = importlib.import_module(f"{package}.rti")
        ocp = importlib.import_module(f"{package}.ocp")
        dynamics = importlib.import_module(f"{package}.dynamics")
        self.ocp = ocp
        cfg = ocp.OcpConfig(N=N, dt=dt, params=dynamics.QuadrotorParams())
        self.ctrl = self.rti.RtiController(cfg, solver=solver, block_size=block_size)
        self.ctrl.reset(position)
        # absent before the post-command step was split off feedback
        self.has_post = hasattr(self.ctrl, "post_command")
        self.ns = {}
        for name, layer in WRAPPED.items():
            setattr(self.rti, name, self._timed(getattr(self.rti, name), layer))

    def _timed(self, fn, layer):
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ns[layer] = self.ns.get(layer, 0) + time.perf_counter_ns() - start

        return wrapper

    def run(self, xhat, stages, terminal):
        """One cycle; return its output and the time of each layer in ns."""
        self.ns = {}
        window = self.ocp.ReferenceWindow(stages=stages, terminal=terminal)
        t0 = time.perf_counter_ns()
        self.ctrl.prepare(window)
        t1 = time.perf_counter_ns()
        out = self.ctrl.feedback(xhat)
        t2 = time.perf_counter_ns()
        if self.has_post:
            self.ctrl.post_command()
            self.ns["post"] = time.perf_counter_ns() - t2
        self.ns.update(cycle=time.perf_counter_ns() - t0, prepare=t1 - t0, feedback=t2 - t1)
        return out


def _gap(a, b) -> float:
    """The largest difference between ``a`` and ``b``; entries NaN on both sides count as equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b)).max())


def replay(sides: dict[str, Side], inputs, replays: int) -> dict:
    best = {side: {layer: [] for layer in LAYERS} for side in sides}
    iters = {side: [] for side in sides}
    degraded = {side: 0 for side in sides}
    u_gaps = []
    record_gaps = {}
    guess_gaps = {"X": [], "U": []}
    for k, (xhat, stages, terminal) in enumerate(inputs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        guess = {s: (sides[s].ctrl.X.copy(), sides[s].ctrl.U.copy()) for s in order}
        mins = {s: {} for s in order}
        outs = {}
        for _ in range(replays):
            for s in order:
                ctrl = sides[s].ctrl
                ctrl.X, ctrl.U = guess[s][0].copy(), guess[s][1].copy()
                outs[s] = sides[s].run(xhat, stages, terminal)
                for layer in LAYERS:
                    ns = sides[s].ns.get(layer, 0)
                    mins[s][layer] = min(mins[s].get(layer, ns), ns)
        for s in order:
            for layer in LAYERS:
                best[s][layer].append(mins[s][layer] / 1e6)
            iters[s].append(outs[s].qp_iters)
            degraded[s] += bool(outs[s].degraded)
        u_gaps.append(float(np.abs(outs["base"].u0 - outs["change"].u0).max()))
        for name in RECORD:
            if all(hasattr(out, name) for out in outs.values()):
                record_gaps.setdefault(name, []).append(
                    _gap(getattr(outs["base"], name), getattr(outs["change"], name))
                )
        for name, gaps in guess_gaps.items():
            gaps.append(_gap(getattr(sides["base"].ctrl, name), getattr(sides["change"].ctrl, name)))
    layers = {}
    for layer in LAYERS:
        med = {s: statistics.median(best[s][layer]) for s in sides}
        if med["base"] > 0 or med["change"] > 0:
            # no ratio for a layer the base side does not have
            layers[layer] = {**med, "ratio": med["change"] / med["base"] if med["base"] else None}
    return {
        "layers_ms_p50": layers,
        "ipm_iters": {
            **{s: int(sum(iters[s])) for s in sides},
            "cycles_differing": sum(a != b for a, b in zip(iters["base"], iters["change"])),
        },
        "degraded": degraded,
        "max_input_diff": max(u_gaps),
        "median_input_diff": statistics.median(u_gaps),
        # NaN where one side's value is NaN and the other's is not
        "max_record_diff": {name: float(np.max(gaps)) for name, gaps in record_gaps.items()},
        "max_guess_diff": {name: float(np.max(gaps)) for name, gaps in guess_gaps.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--solver", choices=("riccati", "dense"), default="riccati")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--horizon", type=int, help="stages N (default: perfbench's N_RTI)")
    parser.add_argument("--cycles", type=int, default=400)
    parser.add_argument("--replays", type=int, default=3)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.cycles < 1 or args.replays < 1:
        parser.error("--cycles and --replays must be at least 1")
    if args.horizon is not None and args.horizon < 1:
        parser.error("--horizon must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        packages = export(args.base, Path(tmp))
        sys.path.insert(0, tmp)
        N, dt, block_size, position, inputs = record(
            args.seed, args.cycles, args.solver, args.horizon
        )
        sides = {s: Side(packages[s], N, dt, args.solver, block_size, position) for s in SIDES}
        result = replay(sides, inputs, args.replays)

    import host

    doc = {
        "tool": "ab_replay",
        "args": {k: v for k, v in vars(args).items() if k != "out"},
        "host": host.fingerprint(ROOT),
        **result,
    }
    for layer, row in result["layers_ms_p50"].items():
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{layer:10s} base {row['base']:8.3f} ms  change {row['change']:8.3f} ms  "
              f"ratio {ratio}")
    print("ipm_iters " + json.dumps(result["ipm_iters"]))
    print(f"degraded {json.dumps(result['degraded'])}  max_input_diff {result['max_input_diff']:.3e}"
          f"  median_input_diff {result['median_input_diff']:.3e}")
    print("max_record_diff " + json.dumps(result["max_record_diff"]))
    print("max_guess_diff " + json.dumps(result["max_guess_diff"]))
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
