"""Multi-configuration studies and solver benchmarks.

Each study runs a family of closed-loop simulations or solver calls,
collects a table of rows, and evaluates the trend assertions the
simulation campaign is expected to reproduce:

* ``horizon``    tracking degrades as the horizon shrinks (measured with
  the platform's nominal round trip left uncompensated, which is where
  horizon length matters; with zero latency and an exact model the
  differences vanish at this scale)
* ``delay``      uncompensated latency inflates the step-response
  overshoot monotonically, and the predictor recovers the baseline
* ``compare``    the receding-horizon controller beats the clamped
  linear one on height overshoot and settling
* ``condensing`` the optimal input trajectory is invariant to the
  condensing block size

``benchmark`` times both QP pipelines across horizons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from .delay import DelayConfig
from .ocp import OcpConfig, build_qp
from .qp import expand, partial_condense, solve_riccati_ipm
from .rti import DEFAULT_BLOCK_SIZE, SOLVERS, RtiController
from .sim import (
    CONTROLLERS,
    SimConfig,
    compute_metrics,
    run_closed_loop,
    step_scenario,
    zstep_scenario,
)

NOMINAL_RTT_CYCLES = 4  # the platform's estimated 60 ms round trip, in 15 ms cycles


@dataclass
class StudyResult:
    name: str
    rows: list[dict] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    # the benchmark's per-horizon aggregates, fitted exponents and ratios
    scaling: dict = field(default_factory=dict)


def _non_increasing(values, rtol=1e-9) -> bool:
    seq = [np.inf if not np.isfinite(v) else v for v in values]
    return all(seq[i + 1] <= seq[i] * (1 + rtol) + 1e-15 for i in range(len(seq) - 1))


def _fly(params: dyn.QuadrotorParams, scenario, N: int, duration: float, **sim_kwargs):
    """Fly ``scenario`` under an ``N``-stage horizon; return the flight's metrics."""
    cfg = SimConfig(
        scenario=scenario, ocp=OcpConfig(N=N, params=params), duration=duration, **sim_kwargs
    )
    return compute_metrics(run_closed_loop(cfg), cfg.ocp.u_lower, cfg.ocp.u_upper)


def horizon_study(params: dyn.QuadrotorParams) -> StudyResult:
    """Step-scenario tracking RMS across horizon lengths 10 to 50.

    Runs the vertical step response for 4.5 s with the nominal round
    trip uncompensated; short horizons lose the step response entirely
    (recorded as infinite RMS from the truncated trace), long ones damp
    it progressively better.
    """
    res = StudyResult(name="horizon")
    delay = DelayConfig.from_cycle_multiple(NOMINAL_RTT_CYCLES, OcpConfig.dt)
    for N in (10, 20, 30, 40, 50):
        m = _fly(params, zstep_scenario(params), N, 4.5, delay=delay)
        res.rows.append(
            {
                "N": N,
                "rms_m": m.rms_norm,
                "z_overshoot_pct": m.overshoot_pct[2],
                "settling_s": m.settling_s,
                "diverged": m.diverged,
            }
        )
    res.verdicts["rms_non_increasing_in_horizon"] = _non_increasing(
        [row["rms_m"] for row in res.rows]
    )
    return res


def delay_study(params: dyn.QuadrotorParams) -> StudyResult:
    """Step-response overshoot versus round-trip time, with and without the predictor.

    Flies a 0.2 m vertical step for 4.5 s at N = 50, uncompensated over
    round trips of 0, 1, 2 and 4 cycles, then compensated over the
    longest. Below the instability threshold the overshoot differences
    sit at the measurement floor (a few tenths of a percent), so the
    monotonicity verdict allows half a percentage point of slack; past
    the threshold the overshoot explodes by two orders of magnitude.
    The compensated run uses one predictor substep per control cycle so
    the replayed input sequence aligns with the command switching times.
    """
    res = StudyResult(name="delay")
    lams = (0, 1, 2, 4)
    for lam, compensate in [(lam, False) for lam in lams] + [(lams[-1], True)]:
        delay = DelayConfig.from_cycle_multiple(
            lam, OcpConfig.dt, compensate=compensate, predictor_steps=max(1, lam)
        )
        m = _fly(params, zstep_scenario(params, amplitude=0.2), 50, 4.5, delay=delay)
        res.rows.append(
            {
                "lambda": lam,
                "compensated": compensate,
                "z_overshoot_pct": m.overshoot_pct[2],
                "settling_s": m.settling_s,
                "diverged": m.diverged,
            }
        )

    overshoots = [row["z_overshoot_pct"] for row in res.rows[:-1]]
    base, comp = overshoots[0], res.rows[-1]["z_overshoot_pct"]
    # sub-threshold overshoots live at the measurement floor; allow 0.5 pp
    slack = 0.5
    res.verdicts["overshoot_non_decreasing_in_rtt"] = all(
        overshoots[i + 1] >= overshoots[i] - slack for i in range(len(overshoots) - 1)
    )
    res.verdicts["predictor_recovers_baseline"] = comp <= 2.0 * base + slack
    res.verdicts["predictor_beats_uncompensated"] = comp < overshoots[-1]
    return res


def compare_study(params: dyn.QuadrotorParams) -> StudyResult:
    """Receding-horizon controller (N = 50) versus the clamped LQR on a 7.5 s steep step."""
    res = StudyResult(name="compare")
    metrics = {}
    for kind in CONTROLLERS:
        m = _fly(params, step_scenario(params), 50, 7.5, controller=kind)
        metrics[kind] = m
        res.rows.append(
            {
                "controller": kind,
                "z_overshoot_pct": m.overshoot_pct[2],
                "settling_s": m.settling_s,
                "rms_m": m.rms_norm,
                "saturation_pct": m.saturation_pct,
                "diverged": m.diverged,
            }
        )
    res.verdicts["nmpc_overshoots_less_than_lqr"] = (
        metrics["nmpc"].overshoot_pct[2] < metrics["lqr"].overshoot_pct[2]
    )
    res.verdicts["nmpc_settles_no_later_than_lqr"] = (
        metrics["nmpc"].settling_s <= metrics["lqr"].settling_s
    )
    return res


def _reference_qp(params: dyn.QuadrotorParams, N: int):
    """An N-stage tracking QP captured mid-transient, initial residual included."""
    cfg = OcpConfig(N=N, params=params)
    scenario = zstep_scenario(params)
    ctrl = RtiController(cfg, block_size=1)
    ctrl.reset(scenario.position(0.0))
    x = dyn.hover_state(scenario.position(0.0))
    h = SimConfig.micro_step
    for k in range(60):
        t = k * cfg.dt
        out = ctrl.cycle(x, scenario.window(t, N, cfg.dt))
        for _ in range(round(cfg.dt / h)):
            x = dyn.erk4_step(lambda s: dyn.ode_rhs(s, out.u0, params), x, h)
            x[dyn.QUAT] = dyn.quat_normalize(x[dyn.QUAT])
    return build_qp(ctrl.X, ctrl.U, scenario.window(60 * cfg.dt, N, cfg.dt), x, cfg)


def condensing_study(
    params: dyn.QuadrotorParams,
    block_sizes=(1, 2, 5, 10, 25, 50),
    N: int = 50,
) -> StudyResult:
    """Solution invariance and solve time across condensing block sizes."""
    res = StudyResult(name="condensing")
    qp = _reference_qp(params, N)
    reference = None
    max_dev = 0.0
    for M in block_sizes:
        t0 = time.perf_counter_ns()
        cond = partial_condense(qp, M)
        t1 = time.perf_counter_ns()
        sol = expand(solve_riccati_ipm(cond.qp), cond)
        t2 = time.perf_counter_ns()
        U = np.concatenate(sol.u)
        if reference is None:
            reference = U
        dev = float(np.abs(U - reference).max())
        max_dev = max(max_dev, dev)
        res.rows.append(
            {
                "block_size": M,
                "stages": cond.qp.num_stages,
                "ip_iters": sol.iters,
                "condense_us": (t1 - t0) / 1000.0,
                "solve_us": (t2 - t1) / 1000.0,
                "deviation_from_M1": dev,
            }
        )
    res.verdicts["input_trajectory_invariant_to_block_size"] = max_dev <= 1e-6
    res.verdicts["stage_counts_match"] = all(
        row["stages"] == -(-N // row["block_size"]) for row in res.rows
    )
    return res


def benchmark(
    params: dyn.QuadrotorParams,
    horizons=(10, 20, 30, 40, 50),
    cycles: int = 100,
    warmup: int = 10,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> StudyResult:
    """Per-cycle timings of both QP pipelines across horizon lengths.

    Runs the vertical step response ``warmup + cycles`` control cycles
    per configuration and logs one row per timed cycle. The scaling
    verdicts fit log-log exponents on the per-iteration time of the
    Newton-system factorization and solves (the quantity whose cost the
    pipelines differ in); whole-cycle wall times carry a flat
    interpreter overhead per stage that buries the asymptotics at these
    problem sizes, and are reported alongside. Each row's ``block_size``
    is the configured one, which the dense pipeline ignores.
    """
    res = StudyResult(name="benchmark")
    per_iter = {solver: [] for solver in SOLVERS}
    totals = []
    for N in horizons:
        for solver in SOLVERS:
            cfg = SimConfig(
                scenario=zstep_scenario(params),
                ocp=OcpConfig(N=N, params=params),
                duration=(warmup + cycles) * OcpConfig.dt,
                solver=solver,
                block_size=block_size,
            )
            trace = run_closed_loop(cfg)
            if trace.failure is not None or len(trace) < warmup + cycles:
                raise RuntimeError(f"benchmark run N={N} solver={solver} did not complete")
            # the QP is solved in prepare; feedback is stage 0 of the tangential
            # predictor, and the post-command step the rest of the cycle
            prep = trace.column("prep_us")[warmup:]
            feedback = trace.column("fb_us")[warmup:]
            post = trace.column("post_us")[warmup:]
            cycle = prep + feedback + post
            iters = np.maximum(trace.column("qp_iters")[warmup:], 1)
            kernel = trace.column("qp_linalg_us")[warmup:]
            for k in range(len(prep)):
                res.rows.append(
                    {
                        "N": N,
                        "solver": solver,
                        "block_size": block_size,
                        "ip_iters": int(iters[k]),
                        "time_prep_us": prep[k],
                        "time_feedback_us": feedback[k],
                        "time_post_us": post[k],
                        "qp_linalg_us": kernel[k],
                    }
                )
            # median is robust against scheduler spikes polluting the mean
            iter_us = float(np.median(kernel / iters))
            per_iter[solver].append(iter_us)
            totals.append(
                {
                    "N": N,
                    "solver": solver,
                    "mean_cycle_us": float(np.mean(cycle)),
                    "max_cycle_us": float(np.max(cycle)),
                    "per_iter_us": iter_us,
                }
            )
    res.scaling["aggregate"] = totals

    logN = np.log(np.asarray(horizons, dtype=float))
    fit = {
        solver: float(np.polyfit(logN, np.log(np.asarray(vals)), 1)[0])
        for solver, vals in per_iter.items()
    }
    ratios = [d / r for d, r in zip(per_iter["dense"], per_iter["riccati"])]
    ratio_slope = float(np.polyfit(logN, np.log(np.asarray(ratios)), 1)[0])
    res.scaling["fit_exponents"] = fit
    res.scaling["dense_over_riccati_ratio"] = ratios
    res.verdicts["dense_per_iter_scales_at_least_quadratically"] = fit["dense"] >= 2.0
    res.verdicts["riccati_per_iter_scales_subquadratically"] = fit["riccati"] <= 1.3
    # trend assertion: adjacent pairs drown in scheduler noise on loaded
    # hosts, so increase is judged from the first to the last horizon
    # together with the fitted trend direction
    res.verdicts["ratio_increasing_with_horizon"] = (
        ratios[-1] > ratios[0] and ratio_slope > 0
    )
    return res


# the studies the command line runs, by name
STUDIES = {
    "horizon": horizon_study,
    "delay": delay_study,
    "compare": compare_study,
    "condensing": condensing_study,
}
