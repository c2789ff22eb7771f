"""The benchmark's workloads: seeded inputs, set-up, timed run and checks.

Every workload drives the program through its public entry points only
(``run_closed_loop``, ``RtiController``, ``gen_smooth_step`` and
``design_lqr``) and is timed from here: per-call times come from probe
spans around those calls, never from timing fields the program reports.

The amount of work is fixed by ``--seed`` and ``--seconds`` alone, so the
exact counts repeat across runs of one seed. It is sized so that the
timed part of a run takes about ``--seconds`` on a 2-CPU x86-64 host.

A workload object has
  ``probes``       targets timed in every run (see ``probes.Recorder``);
  ``setup()``      configuration, LQR design and warm-up, timed by the caller;
  ``execute(cfg)`` the timed work, returning what it produced;
  ``end_to_end``, ``counts``, ``failures`` and ``checks`` on that result.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

import numpy as np

import quadnmpc as qn
from quadnmpc import dynamics as dyn
from quadnmpc import sim
from quadnmpc.delay import DelayConfig
from quadnmpc.ocp import discrete_dynamics_batch
from quadnmpc import rti
from quadnmpc.qp import (
    QpNumericalError, expand, partial_condense, solve_dense_ipm, solve_riccati_ipm,
)
from quadnmpc.rti import RtiController, SqpConvergenceError

DT = 0.015
MICRO_STEP = 1e-3
N_RTI = 50
BLOCK_SIZE = 5
WARMUP_CYCLES = 10

# One maneuver has step_scenario's shape and length: x/y ramp over [1, 5] s,
# z step at 3 s. The seed draws only the lateral direction; distance and
# step height are fixed, so every seed flies maneuvers of equal difficulty.
MANEUVER_S = 6.0
START = (0.0, 0.0, 0.4)
LATERAL_M = 1.0
LOW_Z, HIGH_Z = 0.4, 1.0

# Feedback quality gates.
KKT_STATIONARITY_TOL = 1e-6
SOLVER_AGREEMENT_TOL = 1e-6
EQUIVALENCE_QP_TOL = 1e-10
REPLAY_TOL = 1e-12
TRAJ_KKT_TOL = 1e-6
TRAJ_DYNAMICS_TOL = 1e-6
FINAL_POSITION_TOL_M = 0.05

# Nominal rates on the reference host, used only to size the work.
RTI_SIM_S_PER_WALL_S = 1.28
LQR_MANEUVERS_PER_WALL_S = 10 / 13
TRAJ_WALL_S = 0.34

TRAJ_N = 400
TRAJ_T = 6.0
TRAJ_MANEUVER_FRACTION = 0.75  # gen_smooth_step's default
WARMUP_TRAJ_N = 40


def maneuver_points(seed: int, count: int) -> np.ndarray:
    """Waypoints of a chain of ``count`` maneuvers, starting at ``START``."""
    rng = np.random.default_rng(seed)
    points = [np.array(START)]
    for i in range(count):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p = points[-1] + LATERAL_M * np.array([math.cos(theta), math.sin(theta), 0.0])
        p[2] = HIGH_Z if i % 2 == 0 else LOW_Z
        points.append(p)
    return np.array(points)


def chain_source(points: np.ndarray, params) -> sim.PositionSource:
    """The maneuvers flown one after another, each a ``step_scenario`` leg."""
    legs = [sim.step_scenario(params, start=a, goal=b) for a, b in zip(points[:-1], points[1:])]

    def position(t):
        i = min(int(t // MANEUVER_S), len(legs) - 1)
        return legs[i].position(t - i * MANEUVER_S)

    return sim.PositionSource(position, params.hover_input())


def _quantiles_ms(ns) -> tuple[float, float]:
    ms = np.asarray(ns, dtype=float) / 1e6
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 99))


@dataclasses.dataclass
class Flown:
    cfg: sim.SimConfig
    points: np.ndarray
    trace: sim.SimTrace
    start_ns: int
    end_ns: int

    @property
    def planned(self) -> int:
        return round(self.cfg.duration / self.cfg.ocp.dt)

    @property
    def flown(self) -> int:
        return len(self.trace)


class _Flight:
    """A seeded chain of maneuvers flown once by ``run_closed_loop``."""

    def __init__(self, seed: int, maneuvers: int):
        self.seed = seed
        self.maneuvers = maneuvers

    def setup(self) -> sim.SimConfig:
        params = dyn.QuadrotorParams()
        ocp = qn.OcpConfig(N=N_RTI, dt=DT, params=params)
        points = maneuver_points(self.seed, self.maneuvers)
        cfg = self.sim_config(ocp, chain_source(points, params), self.maneuvers * MANEUVER_S)
        sim.run_closed_loop(dataclasses.replace(cfg, duration=WARMUP_CYCLES * DT))
        return cfg

    def execute(self, cfg: sim.SimConfig) -> Flown:
        start = time.perf_counter_ns()
        trace = sim.run_closed_loop(cfg)
        end = time.perf_counter_ns()
        return Flown(cfg, maneuver_points(self.seed, self.maneuvers), trace, start, end)

    def _flight_metrics(self, run: Flown, cycle_starts) -> dict[str, float]:
        per_maneuver = round(MANEUVER_S / run.cfg.ocp.dt)
        marks = list(cycle_starts[::per_maneuver]) + [run.end_ns]
        return {
            "sim_rate": run.cfg.duration / ((run.end_ns - run.start_ns) / 1e9),
            "traj_s_p50": float(np.median(np.diff(marks))) / 1e9,
            "tracking_rms_m": qn.compute_metrics(run.trace).rms_norm,
        }

    def _flight_checks(self, run: Flown) -> list[tuple[str, bool, str]]:
        trace = run.trace
        final_err = float(np.linalg.norm(trace.state[-1, :3] - run.points[-1]))
        return [
            ("flight ends without failure", trace.failure is None, str(trace.failure)),
            ("every cycle flown", run.flown == run.planned, f"{run.flown}/{run.planned}"),
            ("final position at last waypoint", final_err <= FINAL_POSITION_TOL_M,
             f"{final_err:.4f} m"),
        ]


class RtiFlight(_Flight):
    """NMPC at the operating point: N = 50, dt = 15 ms, no noise, no delay."""

    probes = ("rti.RtiController.cycle", "rti.RtiController.feedback")

    def __init__(self, seed: int, seconds: int, solver: str):
        maneuvers = max(1, round(seconds * RTI_SIM_S_PER_WALL_S / MANEUVER_S))
        super().__init__(seed, maneuvers)
        self.solver = solver

    def sim_config(self, ocp, source, duration) -> sim.SimConfig:
        return sim.SimConfig(
            scenario=source, ocp=ocp, duration=duration, micro_step=MICRO_STEP,
            solver=self.solver, block_size=BLOCK_SIZE,
        )

    def end_to_end(self, run: Flown, rec) -> dict[str, float]:
        cycle_p50, cycle_p99 = _quantiles_ms(rec.durations_ns("rti.RtiController.cycle"))
        cycle_starts = [rec.starts[i] for i in rec.indices("rti.RtiController.cycle")]
        return {
            "cycle_ms_p50": cycle_p50,
            "cycle_ms_p99": cycle_p99,
            "feedback_ms_p50": _quantiles_ms(rec.durations_ns("rti.RtiController.feedback"))[0],
            **self._flight_metrics(run, cycle_starts),
        }

    def _outputs(self, rec):
        return rec.values["rti.RtiController.cycle"]

    def counts(self, run: Flown, rec) -> dict[str, int]:
        flown = run.flown
        return {
            "qp.ipm_iters": sum(it for _, it, _ in self._outputs(rec))
            if self.solver == "riccati" else 0,
            "rti.sqp_iters": 0,
            "dynamics.erk4_step.calls": flown * round(DT / MICRO_STEP),
            "ocp.build_qp.calls": flown,
        }

    def failures(self, run: Flown, rec) -> tuple[int, int]:
        bad = sum(
            1 for degraded, iters, _ in self._outputs(rec)
            if degraded or iters >= run.cfg.qp_max_iters
        )
        return run.planned, bad + run.planned - run.flown

    def checks(self, run: Flown, rec) -> list[tuple[str, bool, str]]:
        outputs = self._outputs(rec)
        kkt = np.array([k for _, _, k in outputs])
        degraded = sum(1 for d, _, _ in outputs if d)
        replay_gap, solver_gap, solver_errors = replay_with_solver_check(run, self.solver)
        return self._flight_checks(run) + [
            ("no degraded cycle", degraded == 0, f"{degraded} degraded"),
            ("KKT stationarity finite and small",
             bool(np.all(np.isfinite(kkt)) and kkt.max() <= KKT_STATIONARITY_TOL),
             f"max {np.nanmax(kkt):.2e}"),
            ("replay reproduces the applied inputs", replay_gap <= REPLAY_TOL,
             f"max gap {replay_gap:.2e}"),
            ("riccati and dense give the same inputs on every cycle's QP",
             solver_errors == 0 and solver_gap <= SOLVER_AGREEMENT_TOL,
             f"max gap {solver_gap:.2e}, {solver_errors} solver errors"),
        ]


def replay_with_solver_check(run: Flown, solver: str) -> tuple[float, float, int]:
    """Replay the flight and solve every cycle's QP with both QP solvers.

    Without noise or delay the controller's input at cycle k is a function
    of the measurements up to k, so a controller with the flown solver fed
    the recorded measurements rebuilds the flown QPs and reproduces the
    applied inputs. Each of those QPs is also solved by the Riccati IPM
    (block size 5) and by the dense IPM, both to ``EQUIVALENCE_QP_TOL``,
    and their inputs on every stage are compared, as criterion 03 compares
    them on random QPs. The flown solves stop at ``SimConfig.qp_tol``; on
    the ill-conditioned condensed QPs of some cycles that leaves each
    solver's inputs up to about 1e-6 from the exact solution, so the
    solvers are compared at a tolerance where that stopping error is far
    below the agreement tolerance.

    Returns the largest difference between replayed and flown inputs, the
    largest difference between the two solvers' inputs, and the number of
    cycles on which either solver raised or did not converge.
    """
    cfg = run.cfg
    ctrl = RtiController(
        cfg.ocp, solver=solver, block_size=BLOCK_SIZE,
        qp_tol=cfg.qp_tol, qp_max_iters=cfg.qp_max_iters,
    )
    solver_gap, errors = 0.0, 0

    def checked_expand(sol, cond):
        nonlocal solver_gap, errors
        qp = cond.original
        try:
            dense = solve_dense_ipm(qp, EQUIVALENCE_QP_TOL, cfg.qp_max_iters)
            blocks = partial_condense(qp, BLOCK_SIZE)
            riccati = expand(
                solve_riccati_ipm(blocks.qp, EQUIVALENCE_QP_TOL, cfg.qp_max_iters), blocks
            )
        except QpNumericalError:
            errors += 1
        else:
            if dense.status != "converged" or riccati.status != "converged":
                errors += 1
            solver_gap = max(
                solver_gap,
                max(float(np.abs(a - b).max()) for a, b in zip(dense.u, riccati.u)),
            )
        return expand(sol, cond)

    # the controller looks ``expand`` up in its own module, once per feedback
    original_expand = rti.expand
    rti.expand = checked_expand
    try:
        ctrl.reset(cfg.scenario.position(0.0))
        replay_gap = 0.0
        for k, t in enumerate(run.trace.t):
            window = cfg.scenario.window(t, cfg.ocp.N, cfg.ocp.dt)
            out = ctrl.cycle(run.trace.estimated[k], window)
            replay_gap = max(replay_gap, float(np.abs(out.u0 - run.trace.u[k]).max()))
    finally:
        rti.expand = original_expand
    return replay_gap, solver_gap, errors


class LqrFlight(_Flight):
    """Clamped LQR with a 4-cycle round trip, compensated by replay prediction."""

    probes = ("delay.predict", "lqr.lqr_control")
    ROUND_TRIP_CYCLES = 4
    PREDICTOR_STEPS = 4

    def __init__(self, seed: int, seconds: int):
        super().__init__(seed, max(1, round(seconds * LQR_MANEUVERS_PER_WALL_S)))

    def sim_config(self, ocp, source, duration) -> sim.SimConfig:
        design = qn.design_lqr(
            ocp.params, tau_s=ocp.dt, u_lower=ocp.u_lower, u_upper=ocp.u_upper
        )
        delay = DelayConfig.from_cycle_multiple(
            self.ROUND_TRIP_CYCLES, ocp.dt, compensate=True,
            predictor_steps=self.PREDICTOR_STEPS,
        )
        return sim.SimConfig(
            scenario=source, ocp=ocp, duration=duration, micro_step=MICRO_STEP,
            controller="lqr", lqr_design=design, delay=delay,
        )

    def end_to_end(self, run: Flown, rec) -> dict[str, float]:
        starts = [rec.starts[i] for i in rec.indices("delay.predict")]
        ends = [rec.ends[i] for i in rec.indices("lqr.lqr_control")]
        if len(starts) != len(ends):
            raise RuntimeError("predictor and control law calls do not pair up")
        # measurement to command: the whole LQR cycle, which has no prepare phase
        p50, p99 = _quantiles_ms([e - s for s, e in zip(starts, ends)])
        return {
            "cycle_ms_p50": p50,
            "cycle_ms_p99": p99,
            "feedback_ms_p50": p50,
            **self._flight_metrics(run, starts),
        }

    def counts(self, run: Flown, rec) -> dict[str, int]:
        plant = run.flown * round(DT / MICRO_STEP)
        return {
            "qp.ipm_iters": 0,
            "rti.sqp_iters": 0,
            "dynamics.erk4_step.calls": plant + rec.count("delay.predict") * self.PREDICTOR_STEPS,
            "ocp.build_qp.calls": 0,
        }

    def failures(self, run: Flown, rec) -> tuple[int, int]:
        return run.planned, run.planned - run.flown

    def checks(self, run: Flown, rec) -> list[tuple[str, bool, str]]:
        fallbacks = run.trace.predictor_fallbacks
        return self._flight_checks(run) + [
            ("predictor never fell back", fallbacks == 0, f"{fallbacks} fallbacks"),
        ]


@dataclasses.dataclass
class Planned:
    points: np.ndarray
    results: list  # SqpResult, or the SqpConvergenceError raised
    spans: list  # (start_ns, end_ns) of each gen_smooth_step call
    flown = 0  # control cycles: none offline


class TrajGen:
    """Offline smooth steps at N = 400, solved to KKT <= 1e-6 by the SQP."""

    probes = ("ocp.build_qp", "qp.solve_riccati_ipm")

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.count = max(1, round(seconds / TRAJ_WALL_S))

    def setup(self) -> dict:
        params = dyn.QuadrotorParams()
        points = maneuver_points(self.seed, self.count)
        ocp = qn.OcpConfig(N=TRAJ_N, dt=TRAJ_T / TRAJ_N, params=params)
        sim.gen_smooth_step(
            params, target=points[1], start=points[0], T=TRAJ_T, N=WARMUP_TRAJ_N
        )
        return {"params": params, "points": points, "ocp": ocp}

    def execute(self, cfg: dict) -> Planned:
        results, spans = [], []
        points = cfg["points"]
        for a, b in zip(points[:-1], points[1:]):
            start = time.perf_counter_ns()
            try:
                _, res = sim.gen_smooth_step(
                    cfg["params"], target=b, start=a, T=TRAJ_T, N=TRAJ_N,
                    kkt_tol=TRAJ_KKT_TOL, ocp_cfg=cfg["ocp"],
                )
            except SqpConvergenceError as exc:
                res = exc
            spans.append((start, time.perf_counter_ns()))
            results.append(res)
        return Planned(points, results, spans)

    def end_to_end(self, run: Planned, rec) -> dict[str, float]:
        # An RTI cycle is one SQP iteration, so the cycle here runs from one
        # linearization to the next and its feedback from the QP solve on.
        builds = [rec.starts[i] for i in rec.indices("ocp.build_qp")]
        solves = [rec.starts[i] for i in rec.indices("qp.solve_riccati_ipm")]
        cycle_ns, feedback_ns = [], []
        for start, end in run.spans:
            b = [t for t in builds if start <= t <= end]
            s = [t for t in solves if start <= t <= end]
            cycle_ns += [b[k + 1] - b[k] for k in range(min(len(b) - 1, len(s)))]
            feedback_ns += [b[k + 1] - s[k] for k in range(min(len(b) - 1, len(s)))]
        walls = [(end - start) / 1e9 for start, end in run.spans]
        cycle_p50, cycle_p99 = _quantiles_ms(cycle_ns)
        return {
            "cycle_ms_p50": cycle_p50,
            "cycle_ms_p99": cycle_p99,
            "feedback_ms_p50": _quantiles_ms(feedback_ns)[0],
            "sim_rate": len(walls) * TRAJ_T / sum(walls),
            "traj_s_p50": statistics.median(walls),
            "tracking_rms_m": self._profile_rms(run),
        }

    def _converged(self, run: Planned):
        return [
            (a, b, res)
            for a, b, res in zip(run.points[:-1], run.points[1:], run.results)
            if not isinstance(res, SqpConvergenceError)
        ]

    def _profile_rms(self, run: Planned) -> float:
        """RMS distance of the planned positions from the quintic profile they track."""
        dt = TRAJ_T / TRAJ_N
        s = np.minimum(1.0, np.arange(TRAJ_N + 1) * dt / (TRAJ_MANEUVER_FRACTION * TRAJ_T))
        blend = 10 * s**3 - 15 * s**4 + 6 * s**5
        sq = [
            np.sum((res.X[:, :3] - (a + blend[:, None] * (b - a))) ** 2, axis=1)
            for a, b, res in self._converged(run)
        ]
        return float(np.sqrt(np.mean(np.concatenate(sq)))) if sq else math.inf

    def counts(self, run: Planned, rec) -> dict[str, int]:
        return {
            "qp.ipm_iters": sum(rec.values.get("qp.solve_riccati_ipm", [])),
            "rti.sqp_iters": sum(res.iterations for _, _, res in self._converged(run)),
            "dynamics.erk4_step.calls": 0,
            "ocp.build_qp.calls": rec.count("ocp.build_qp"),
        }

    def failures(self, run: Planned, rec) -> tuple[int, int]:
        ok = sum(1 for _, _, res in self._converged(run) if res.kkt_history[-1] <= TRAJ_KKT_TOL)
        return len(run.results), len(run.results) - ok

    def checks(self, run: Planned, rec) -> list[tuple[str, bool, str]]:
        converged = self._converged(run)
        params = dyn.QuadrotorParams()
        dt = TRAJ_T / TRAJ_N
        kkt = max((res.kkt_history[-1] for _, _, res in converged), default=math.inf)
        defect = max(
            (
                float(np.abs(discrete_dynamics_batch(res.X[:-1], res.U, dt, params)
                             - res.X[1:]).max())
                for _, _, res in converged
            ),
            default=math.inf,
        )
        start_err = max(
            (float(np.abs(res.X[0] - dyn.hover_state(a)).max()) for a, _, res in converged),
            default=math.inf,
        )
        return [
            ("every trajectory converged", len(converged) == len(run.results),
             f"{len(converged)}/{len(run.results)}"),
            ("KKT residual within tolerance", kkt <= TRAJ_KKT_TOL, f"max {kkt:.2e}"),
            ("trajectories satisfy the discrete dynamics", defect <= TRAJ_DYNAMICS_TOL,
             f"max defect {defect:.2e}"),
            ("trajectories start at their start point", start_err <= TRAJ_DYNAMICS_TOL,
             f"max {start_err:.2e}"),
        ]


def make(name: str, seed: int, seconds: int):
    if name == "rti_step":
        return RtiFlight(seed, seconds, "riccati")
    if name == "rti_step_dense":
        return RtiFlight(seed, seconds, "dense")
    if name == "lqr_flight":
        return LqrFlight(seed, seconds)
    if name == "trajgen":
        return TrajGen(seed, seconds)
    raise ValueError(f"unknown workload {name!r}")
