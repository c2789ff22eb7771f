"""Discrete-time LQR baseline around hover on a quaternion-reduced model.

The hover linearization of the 13-state model is uncontrollable in the
quaternion scalar: for unit quaternions near identity the scalar part
is determined by the vector part, so its row and column are dropped,
leaving a controllable 12-state model ordered as

    (x, y, z, qx, qy, qz, vx, vy, vz, wx, wy, wz).

The infinite-horizon gain comes from the stabilizing solution of the
discrete Riccati equation, which scipy computes by the generalized
Schur method (Laub 1979). The feedback law subtracts the gain times the
state deviation from the hover input (with the hover point shifted to
the commanded position for piecewise-constant references).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_are

from . import dynamics as dyn
from .ocp import U_MAX, U_MIN, OcpConfig, discrete_jacobians_batch

REDUCED_IDX = np.array([0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12])

# Weights of the reduced state and of the rotor speeds. Under these the
# slowest closed-loop mode is yaw: eigenvalue 0.999925, almost wholly on
# qz, a time constant of about 200 s, so the baseline does not correct a
# yaw error within a flight. The sixth entry of Q (qz) sets it.
DEFAULT_LQR_Q = np.array(
    [12.24e3, 10.2e3, 9e5, 0.102, 0.102, 0.102, 71.4, 102.0, 408.0, 1.02e-3, 1.02e-3, 1.02e3]
)
DEFAULT_LQR_R = np.full(4, 0.12)


def linearize_and_reduce(
    params: dyn.QuadrotorParams, tau_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete hover linearization projected onto the controllable 12-state model.

    Raises if the quaternion-scalar sensitivities are not negligible or
    if the reduced pair loses controllability, both of which would
    signal a broken linearization.
    """
    _, (A13,), (B13,) = discrete_jacobians_batch(
        dyn.hover_state()[None], params.hover_input()[None], tau_s, params
    )
    qw_row = A13[3].copy()
    qw_row[3] -= 1.0
    if np.abs(qw_row).max() > 1e-10 or np.abs(A13[:, 3][REDUCED_IDX]).max() > 1e-10:
        raise ValueError("quaternion-scalar coupling at hover should vanish")
    if np.abs(B13[3]).max() > 1e-10:
        raise ValueError("quaternion-scalar input coupling at hover should vanish")
    A = A13[np.ix_(REDUCED_IDX, REDUCED_IDX)]
    B = B13[REDUCED_IDX]
    n = A.shape[0]
    ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
    if np.linalg.matrix_rank(ctrb) != n:
        raise ValueError("reduced hover model is not controllable")
    return A, B


@dataclass
class LqrDesign:
    """What the feedback law reads: the gain ``K`` of the reduced hover model
    ``(A, B)``, the hover input ``ubar`` and the rotor bounds."""

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    ubar: np.ndarray
    u_lower: np.ndarray
    u_upper: np.ndarray

    @property
    def closed_loop_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.A - self.B @ self.K)).max())


def design_lqr(
    params: dyn.QuadrotorParams,
    tau_s: float = OcpConfig.dt,
    Q_diag=DEFAULT_LQR_Q,
    R_diag=DEFAULT_LQR_R,
    u_lower=U_MIN,
    u_upper=U_MAX,
) -> LqrDesign:
    """Linearize at hover, solve the Riccati equation, and form the gain."""
    Q_diag = np.asarray(Q_diag, dtype=float)
    R_diag = np.asarray(R_diag, dtype=float)
    if Q_diag.shape != (12,) or np.any(Q_diag < 0):
        raise ValueError("state weight must be 12 nonnegative entries")
    if R_diag.shape != (4,) or np.any(R_diag <= 0):
        raise ValueError("input weight must be 4 strictly positive entries")
    A, B = linearize_and_reduce(params, tau_s)
    Q = np.diag(Q_diag)
    R = np.diag(R_diag)
    P = solve_discrete_are(A, B, Q, R)
    K = np.linalg.solve(B.T @ P @ B + R, B.T @ P @ A)
    design = LqrDesign(
        A=A,
        B=B,
        K=K,
        ubar=params.hover_input(),
        u_lower=np.full(4, u_lower, dtype=float),
        u_upper=np.full(4, u_upper, dtype=float),
    )
    if design.closed_loop_radius >= 1.0:
        raise ValueError("LQR design is not stabilizing")
    return design


def reduce_state(xi: np.ndarray) -> np.ndarray:
    """Drop the quaternion scalar from a 13-dim state."""
    return np.asarray(xi, dtype=float)[REDUCED_IDX]


def lqr_control(design: LqrDesign, xi: np.ndarray, p_ref=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Clamped static feedback ``u = ubar - K (xi - hover(p_ref))``.

    Position references enter by shifting the hover point; the stated
    gain is stabilizing with the deviation subtracted (the additive sign
    version is its unstable mirror).
    """
    delta = reduce_state(xi) - reduce_state(dyn.hover_state(p_ref))
    u = design.ubar - design.K @ delta
    return np.clip(u, design.u_lower, design.u_upper)
