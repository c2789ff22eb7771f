#!/usr/bin/env python3
"""Fly a fixed list of flights and trajectories under two revisions and compare every output.

    python3 tools/ab_flights.py --base HEAD
    python3 tools/ab_flights.py --base HEAD~2 --out ab_flights.json

Run from the root of a checkout. The ``--base`` revision's ``src/`` is
exported with ``git archive``; the working tree's ``src/`` is the change.
Each side runs in its own Python process, one after the other, with its
``src/`` and the working tree's ``perfbench/`` (for the workloads' maneuver
chains) on the path, and writes its outputs to an ``.npz`` file.

The flights:
  * 400-cycle chains shaped like perfbench's RTI workloads (seeds 5 and
    601; N = 50, dt = 15 ms, no noise, no delay), each on the riccati
    pipeline with block size 5 and on the dense pipeline;
  * the LQR over the seed-5 chain with a 4-cycle round trip compensated by
    a 4-substep replay predictor, as perfbench's ``lqr_flight`` flies it;
  * NMPC (N = 30) on the z step with a compensated 2-cycle round trip,
    measurement noise and the velocity filter;
  * criterion 11's tracking flights: the smooth step (7.5 s) and the
    helix (15 s), both at N = 50.
Of each flight it keeps the applied inputs, the true, measured and
estimated states, and every cycle's ``ControlOutput`` fields but the
timings. The trajectories: ``gen_smooth_step`` at its defaults (N = 400)
and two chains of two smooth steps shaped like perfbench's ``trajgen``
(seeds 3 and 501), of each ``X``, ``U``, the SQP iterations and
``kkt_history``.

It prints the largest difference of every output of every flight and
trajectory: the largest absolute difference for numbers (NaN on both sides
counts as equal, inf when the shapes differ), the number of entries that
differ for strings. With ``--out`` the same goes to a JSON file. The exit
status is 1 if any difference is nonzero, 0 if the two revisions are bit
for bit the same on all of them. An output only one side has is listed
and not compared.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
# the ControlOutput fields compared: all but the timings
RECORD = ("u0", "qp_iters", "qp_status", "kkt_stationarity", "step_norm", "degraded", "x0_gap")


def flights():
    """``(name, SimConfig)`` of every flight."""
    import workloads as wl
    from quadnmpc import dynamics as dyn
    from quadnmpc import sim
    from quadnmpc.delay import DelayConfig
    from quadnmpc.ocp import OcpConfig

    params = dyn.QuadrotorParams()
    ocp = OcpConfig(N=wl.N_RTI, dt=wl.DT, params=params)
    duration = 400 * wl.DT

    def chain(seed):
        points = wl.maneuver_points(seed, math.ceil(duration / wl.MANEUVER_S))
        return wl.chain_source(points, params)

    for seed in (5, 601):
        for solver in ("riccati", "dense"):
            yield f"chain{seed}_{solver}", sim.SimConfig(
                scenario=chain(seed), ocp=ocp, duration=duration, micro_step=wl.MICRO_STEP,
                solver=solver, block_size=wl.BLOCK_SIZE,
            )
    yield "lqr_compensated", sim.SimConfig(
        scenario=chain(5), ocp=ocp, duration=duration, micro_step=wl.MICRO_STEP,
        controller="lqr",
        delay=DelayConfig.from_cycle_multiple(4, wl.DT, compensate=True, predictor_steps=4),
    )
    yield "nmpc_compensated_noisy", sim.SimConfig(
        scenario=sim.zstep_scenario(params), ocp=OcpConfig(N=30, params=params), duration=3.0,
        delay=DelayConfig.from_cycle_multiple(2, wl.DT, compensate=True, predictor_steps=2),
        noise=sim.NoiseConfig(enabled=True),
        vel_filter=sim.VelocityFilterConfig(enabled=True),
        seed=11,
    )
    smooth, _ = sim.gen_smooth_step(params)
    yield "smooth_step_track", sim.SimConfig(scenario=smooth, ocp=ocp, duration=7.5)
    yield "helix_track", sim.SimConfig(scenario=sim.gen_helix(params), ocp=ocp, duration=15.0)


def trajectories():
    """``(name, SqpResult or SqpConvergenceError)`` of every trajectory."""
    import workloads as wl
    from quadnmpc import dynamics as dyn
    from quadnmpc import sim
    from quadnmpc.ocp import OcpConfig
    from quadnmpc.rti import SqpConvergenceError

    params = dyn.QuadrotorParams()

    def solve(**kwargs):
        try:
            return sim.gen_smooth_step(params, **kwargs)[1]
        except SqpConvergenceError as exc:
            return exc

    yield "smooth_step", solve()
    ocp = OcpConfig(N=wl.TRAJ_N, dt=wl.TRAJ_T / wl.TRAJ_N, params=params)
    for seed in (3, 501):
        points = wl.maneuver_points(seed, 2)
        for i, (a, b) in enumerate(zip(points[:-1], points[1:])):
            yield f"trajgen{seed}_leg{i}", solve(
                target=b, start=a, T=wl.TRAJ_T, N=wl.TRAJ_N, kkt_tol=wl.TRAJ_KKT_TOL, ocp_cfg=ocp,
            )


def fly(out: Path) -> None:
    """Fly everything with the ``quadnmpc`` on the path and save the outputs to ``out``."""
    from quadnmpc.sim import run_closed_loop

    arrays = {}
    for name, cfg in flights():
        trace = run_closed_loop(cfg)
        arrays[f"{name}/u"] = trace.u
        arrays[f"{name}/state"] = trace.state
        arrays[f"{name}/measured"] = trace.measured
        arrays[f"{name}/estimated"] = trace.estimated
        for field in RECORD:
            if all(hasattr(c, field) for c in trace.cycles):
                arrays[f"{name}/{field}"] = trace.column(field)
    for name, res in trajectories():
        if isinstance(res, Exception):
            arrays[f"{name}/kkt_history"] = np.asarray(res.history)
            continue
        arrays[f"{name}/X"] = res.X
        arrays[f"{name}/U"] = res.U
        arrays[f"{name}/iterations"] = np.asarray(res.iterations)
        arrays[f"{name}/kkt_history"] = np.asarray(res.kkt_history)
    np.savez(out, **arrays)


def gap(a: np.ndarray, b: np.ndarray) -> float:
    """The largest difference between two outputs; see the module docstring."""
    if a.shape != b.shape:
        return math.inf
    if a.dtype.kind in "US" or b.dtype.kind in "US":
        return float(np.count_nonzero(a != b))
    a, b = a.astype(float), b.astype(float)
    if a.size == 0:
        return 0.0
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.where(same, 0.0, np.abs(a - b))
    return float(np.nan_to_num(diff, nan=math.inf).max())


def export(base: str, into: Path) -> Path:
    """Export the ``base`` revision's ``src/`` under ``into``; return its path."""
    archive = subprocess.run(
        ["git", "archive", base, "src"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def run_side(src: Path, out: Path) -> dict[str, np.ndarray]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "perfbench")]))
    subprocess.run([sys.executable, __file__, "--fly", str(out)], check=True, env=env)
    with np.load(out, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--out", type=Path, help="write the differences as JSON")
    parser.add_argument("--fly", type=Path, help=argparse.SUPPRESS)  # one side's process
    args = parser.parse_args(argv)
    if args.fly:
        fly(args.fly)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        srcs = {"base": export(args.base, tmp / "base"), "change": ROOT / "src"}
        outputs = {side: run_side(srcs[side], tmp / f"{side}.npz") for side in SIDES}

    base, change = outputs["base"], outputs["change"]
    diffs = {key: gap(base[key], change[key]) for key in base if key in change}
    only = {side: sorted(set(outputs[side]) - set(diffs)) for side in SIDES}
    for key, value in diffs.items():
        print(f"{key:40s} {value:.3e}")
    for side, keys in only.items():
        if keys:
            print(f"only in {side}: {', '.join(keys)}")
    differing = [key for key, value in diffs.items() if value != 0.0]
    print(f"{len(differing)} of {len(diffs)} outputs differ" if differing
          else f"all {len(diffs)} outputs are bit-identical")
    if args.out:
        doc = {"tool": "ab_flights", "base": args.base, "max_diff": diffs, "only_in": only}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
