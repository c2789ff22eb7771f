"""Per-layer metrics of a traced run, from the spans of ``probes.Recorder``.

The layers are the package modules. Each entry of ``LAYER_TARGETS`` is a
public function or method that a caller in another layer looks up; its
span covers one call into the layer.
"""

from __future__ import annotations

import statistics

LAYER_TARGETS = (
    "dynamics.erk4_step",
    "ocp.build_qp",
    "ocp.discrete_dynamics_batch",
    "qp.partial_condense",
    "qp.solve_riccati_ipm",
    "qp.expand",
    "qp.kkt_residuals",
    "rti.RtiController.cycle",
    "rti.RtiController.prepare",
    "rti.RtiController.feedback",
    "rti.solve_to_convergence",
    "delay.predict",
    "delay.InputBuffer.at",
    "delay.StateHistory.at",
    "lqr.lqr_control",
    "lqr.design_lqr",
    "sim.run_closed_loop",
)

# what is kept from a call's return value
EXTRACT = {
    "qp.solve_riccati_ipm": lambda sol: sol.iters,
    "rti.RtiController.cycle": lambda out: (
        bool(out.degraded), int(out.qp_iters), float(out.kkt_stationarity)
    ),
    "rti.solve_to_convergence": lambda res: res.iterations,
}

# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = (
    "qp.ipm_iters",
    "rti.sqp_iters",
    "dynamics.erk4_step.calls",
    "ocp.build_qp.calls",
)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(rec, cycles: int, dt: float) -> dict[str, float]:
    """Every per-layer metric; a layer that never ran reports zero.

    Times per call are means, so that calls times mean adds up to the
    time a layer took; some layers mix cheap and costly calls (the KKT
    residual of the condensed and of the full QP), where a median would
    pick one of the two.

    ``cycles`` is the number of control cycles flown (zero without a
    flight) and ``dt`` the sampling period that sets the deadline.
    """
    ms = lambda name: _mean(rec.durations_ns(name)) / 1e6
    self_ms = lambda name: _mean(rec.self_ns(name)) / 1e6
    us = lambda name: _mean(rec.durations_ns(name)) / 1e3

    ipm_ns = sum(rec.durations_ns("qp.solve_riccati_ipm"))
    ipm_iters = sum(rec.values.get("qp.solve_riccati_ipm", []))
    sqp_iters = sum(rec.values.get("rti.solve_to_convergence", []))
    merit_evals = rec.count("ocp.discrete_dynamics_batch")
    cycle_ns = rec.durations_ns("rti.RtiController.cycle")
    history_ns = rec.durations_ns("delay.StateHistory.at")
    decile = max(1, len(history_ns) // 10)
    sim_self_ns = sum(rec.self_ns("sim.run_closed_loop"))

    return {
        "ocp.build_qp.ms": ms("ocp.build_qp"),
        "ocp.build_qp.calls": rec.count("ocp.build_qp"),
        "qp.partial_condense.ms": ms("qp.partial_condense"),
        "qp.solve_riccati_ipm.ms": ms("qp.solve_riccati_ipm"),
        "qp.ipm_iters": ipm_iters,
        "qp.ipm.ms_per_iter": ipm_ns / 1e6 / ipm_iters if ipm_iters else 0.0,
        "qp.expand.self_ms": self_ms("qp.expand"),
        "qp.kkt_residuals.ms": ms("qp.kkt_residuals"),
        "qp.kkt_residuals.calls": rec.count("qp.kkt_residuals"),
        "rti.prepare.ms": ms("rti.RtiController.prepare"),
        "rti.feedback.ms": ms("rti.RtiController.feedback"),
        "rti.feedback.self_ms": self_ms("rti.RtiController.feedback"),
        "rti.deadline_misses": sum(1 for d in cycle_ns if d > dt * 1e9),
        "rti.degraded": sum(
            1 for degraded, _, _ in rec.values.get("rti.RtiController.cycle", []) if degraded
        ),
        "rti.sqp_iters": sqp_iters,
        "ocp.discrete_dynamics_batch.calls": merit_evals,
        "rti.sqp.accepted_steps_per_merit_eval": sqp_iters / merit_evals if merit_evals else 0.0,
        "dynamics.erk4_step.calls": rec.count("dynamics.erk4_step"),
        "dynamics.erk4_step.ms_total": sum(rec.durations_ns("dynamics.erk4_step")) / 1e6,
        "delay.predict.ms": ms("delay.predict"),
        "delay.InputBuffer.at.us": us("delay.InputBuffer.at"),
        "delay.StateHistory.at.us_first_decile": _mean(history_ns[:decile]) / 1e3,
        "delay.StateHistory.at.us_last_decile": _mean(history_ns[-decile:]) / 1e3,
        "lqr.lqr_control.us": us("lqr.lqr_control"),
        "sim.run_closed_loop.self_ms_per_cycle": sim_self_ns / 1e6 / cycles if cycles else 0.0,
    }
