"""NMPC position-control stack for nano-quadrotors.

Modules
-------
dynamics   rigid-body model, quaternion algebra, ERK4 integrator
ocp        multiple-shooting cost/constraint data and stage linearization
qp         banded optimal-control QP, partial condensing, the interior-point solver
rti        real-time-iteration controller and run-to-convergence SQP
delay      round-trip-time state predictor and delay bookkeeping
lqr        discrete LQR baseline on the quaternion-reduced model
sim        closed-loop simulation harness, references, metrics
studies    multi-configuration studies and solver benchmarks
config     sectioned key-value configuration with full defaults
cli        command-line interface
"""

from .delay import DelayConfig, InputBuffer, predict
from .dynamics import QuadrotorParams, hover_state
from .lqr import LqrDesign, design_lqr, lqr_control
from .ocp import OcpConfig, ReferenceWindow, build_qp
from .qp import OcpQp, QpSolution, expand, partial_condense, solve_dense_ipm, solve_riccati_ipm
from .rti import RtiController, solve_to_convergence
from .sim import (
    Metrics,
    SimConfig,
    SimTrace,
    compute_metrics,
    gen_helix,
    gen_smooth_step,
    run_closed_loop,
)

__all__ = [
    "DelayConfig",
    "InputBuffer",
    "LqrDesign",
    "Metrics",
    "OcpConfig",
    "OcpQp",
    "QpSolution",
    "QuadrotorParams",
    "ReferenceWindow",
    "RtiController",
    "SimConfig",
    "SimTrace",
    "build_qp",
    "compute_metrics",
    "design_lqr",
    "expand",
    "gen_helix",
    "gen_smooth_step",
    "hover_state",
    "lqr_control",
    "partial_condense",
    "predict",
    "run_closed_loop",
    "solve_dense_ipm",
    "solve_riccati_ipm",
    "solve_to_convergence",
]
__version__ = "0.1.0"
