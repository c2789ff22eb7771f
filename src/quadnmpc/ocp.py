"""Multiple-shooting optimal-control data for the quadrotor tracker.

The tracking objective penalizes deviations of the stacked residual
``(state, input)`` from a 17-dim stage reference and of the terminal
state from a 13-dim terminal reference, in weighted least squares. With
this residual choice the Gauss-Newton Hessian blocks are constant
diagonal matrices, so each stage linearization only has to propagate
dynamics sensitivities through the RK4 step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from .qp import OcpQp

# stage weight: position, quaternion, body velocity, body rate, rotor speeds
DEFAULT_STATE_WEIGHT = np.array(
    [120.0, 100.0, 100.0, 1e-3, 1e-3, 1e-3, 1e-3, 0.7, 1.0, 4.0, 1e-5, 1e-5, 10.0]
)
DEFAULT_INPUT_WEIGHT = np.full(4, 6e-2)
TERMINAL_WEIGHT_FACTOR = 50.0
# rotor-speed bounds [krpm]
U_MIN, U_MAX = 0.0, 22.0

STAGE_REF_DIM = dyn.NX + dyn.NU


def _default_stage_weight():
    return np.concatenate([DEFAULT_STATE_WEIGHT, DEFAULT_INPUT_WEIGHT])


def _default_terminal_weight():
    return TERMINAL_WEIGHT_FACTOR * DEFAULT_STATE_WEIGHT


@dataclass
class OcpConfig:
    """Horizon, stage duration, diagonal weights, and input bounds."""

    N: int = 50
    dt: float = 0.015
    W: np.ndarray = field(default_factory=_default_stage_weight)
    W_N: np.ndarray = field(default_factory=_default_terminal_weight)
    u_lower: np.ndarray = field(default_factory=lambda: np.full(4, U_MIN))
    u_upper: np.ndarray = field(default_factory=lambda: np.full(4, U_MAX))
    params: dyn.QuadrotorParams = field(default_factory=dyn.QuadrotorParams)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.W_N = np.asarray(self.W_N, dtype=float)
        self.u_lower = np.asarray(self.u_lower, dtype=float)
        self.u_upper = np.asarray(self.u_upper, dtype=float)
        if self.N < 1:
            raise ValueError("horizon length must be at least 1")
        if self.dt <= 0:
            raise ValueError("stage duration must be positive")
        if self.W.shape != (STAGE_REF_DIM,) or np.any(self.W <= 0):
            raise ValueError("stage weight must be 17 strictly positive entries")
        if self.W_N.shape != (dyn.NX,) or np.any(self.W_N <= 0):
            raise ValueError("terminal weight must be 13 strictly positive entries")
        if self.u_lower.shape != (4,) or self.u_upper.shape != (4,):
            raise ValueError("input bounds must have 4 entries")
        if np.any(self.u_lower >= self.u_upper):
            raise ValueError("input bounds must satisfy lower < upper elementwise")


@dataclass
class ReferenceWindow:
    """Per-cycle references: one 17-dim row per stage plus a 13-dim terminal."""

    stages: np.ndarray
    terminal: np.ndarray

    def __post_init__(self):
        self.stages = np.atleast_2d(np.asarray(self.stages, dtype=float))
        self.terminal = np.asarray(self.terminal, dtype=float)
        if self.stages.shape[1] != STAGE_REF_DIM or self.terminal.shape != (dyn.NX,):
            raise ValueError("reference window has wrong row dimensions")


# ---------------------------------------------------------------------------
# discrete dynamics and sensitivities
# ---------------------------------------------------------------------------


def discrete_dynamics_batch(XI, U, dt, params):
    """One ERK4 step over ``dt`` of each row of ``XI (B, 13)`` under ``U (B, 4)``.

    No quaternion renormalization: the prediction model must stay a
    smooth function of the state for consistent sensitivities.
    """
    K1 = dyn.ode_rhs_batch(XI, U, params)
    K2 = dyn.ode_rhs_batch(XI + 0.5 * dt * K1, U, params)
    K3 = dyn.ode_rhs_batch(XI + 0.5 * dt * K2, U, params)
    K4 = dyn.ode_rhs_batch(XI + dt * K3, U, params)
    return XI + (dt / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)


def discrete_jacobians_batch(XI, U, dt, params):
    """Exact sensitivities of the RK4 step, chained through its four stages.

    Returns ``(X_next, A, B)`` with shapes (B, 13), (B, 13, 13), (B, 13, 4).
    Stage ``k`` evaluates the slope ``K_k`` at ``x + c_k K_{k-1}``; its
    sensitivities are ``Dx_k = fx + c_k fx Dx_{k-1}`` and
    ``Du_k = fu + c_k fx Du_{k-1}``.
    """
    h = dt
    K = dyn.ode_rhs_batch(XI, U, params)
    Dx, Du = dyn.ode_jacobians_batch(XI, U, params)
    K_sum, A, B = K.copy(), Dx.copy(), Du.copy()
    for c, weight in ((0.5 * h, 2.0), (0.5 * h, 2.0), (h, 1.0)):
        X = XI + c * K
        K = dyn.ode_rhs_batch(X, U, params)
        fx, fu = dyn.ode_jacobians_batch(X, U, params)
        Dx = np.matmul(fx, Dx)
        Dx *= c
        Dx += fx
        Du = np.matmul(fx, Du)
        Du *= c
        Du += fu
        K_sum += weight * K
        A += weight * Dx
        B += weight * Du
    A *= h / 6.0
    A += np.eye(dyn.NX)
    B *= h / 6.0
    return XI + (h / 6.0) * K_sum, A, B


# ---------------------------------------------------------------------------
# QP assembly
# ---------------------------------------------------------------------------


def build_qp(
    X: np.ndarray, U: np.ndarray, refs: ReferenceWindow, xhat: np.ndarray, cfg: OcpConfig
) -> OcpQp:
    """Assemble the banded QP for a trajectory guess ``(X, U)``.

    ``X`` holds N+1 states, ``U`` N inputs; ``xhat`` enters only through
    the initial-condition residual. Sensitivities for all stages are
    propagated in one vectorized sweep.
    """
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    N = cfg.N
    if X.shape != (N + 1, dyn.NX):
        raise ValueError(f"state guess must have shape {(N + 1, dyn.NX)}, got {X.shape}")
    if U.shape != (N, dyn.NU):
        raise ValueError(f"input guess must have shape {(N, dyn.NU)}, got {U.shape}")
    if refs.stages.shape[0] != N:
        raise ValueError("reference window does not match the horizon")
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (dyn.NX,):
        raise ValueError("estimated state must be 13-dim")

    X_next, A, B = discrete_jacobians_batch(X[:-1], U, cfg.dt, cfg.params)
    Wx = cfg.W[: dyn.NX]
    Wu = cfg.W[dyn.NX :]
    return OcpQp(
        A=A,
        B=B,
        c=X_next - X[1:],
        Q=np.tile(np.diag(Wx), (N, 1, 1)),
        R=np.tile(np.diag(Wu), (N, 1, 1)),
        q=Wx * (X[:-1] - refs.stages[:, : dyn.NX]),
        r=Wu * (U - refs.stages[:, dyn.NX :]),
        lb=cfg.u_lower - U,
        ub=cfg.u_upper - U,
        Q_N=np.diag(cfg.W_N),
        q_N=cfg.W_N * (X[N] - refs.terminal),
        x0_residual=xhat - X[0],
    )
