"""Quadrotor rigid-body dynamics, quaternion algebra, and ERK4 integration.

State layout (13 components):
    xi = [p (3), q (4), v_b (3), omega (3)]

* ``p``      position in the inertial frame [m]
* ``q``      attitude as a unit quaternion, Hamilton convention, scalar
             first ``(qw, qx, qy, qz)``, rotating body vectors into the
             inertial frame
* ``v_b``    linear velocity in the body frame [m/s]
* ``omega``  body angular rate [rad/s]

The control input is the vector of four rotor speeds in krpm. Thrust and
drag are quadratic in rotor speed, so coefficients carry krpm^-2 units.

Everything here is a pure function over an immutable parameter set and
safe to call from any number of threads concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NX = 13
NU = 4

POS = slice(0, 3)
QUAT = slice(3, 7)
VEL = slice(7, 10)
OMEGA = slice(10, 13)

GRAVITY = 9.8066


@dataclass(frozen=True)
class QuadrotorParams:
    """Physical parameters of the vehicle.

    Units: SI except the rotor-speed-dependent coefficients, which are
    per krpm^2 (``CT`` in N/krpm^2, ``CD`` in N*m/krpm^2). ``l`` is half
    the distance between opposite motors. Inertia is diagonal.
    """

    m: float = 0.033
    g: float = GRAVITY
    l: float = 0.0325
    Jxx: float = 1.395e-5
    Jyy: float = 1.395e-5
    Jzz: float = 2.173e-5
    CT: float = 3.25e-4
    CD: float = 7.9379e-6

    def __post_init__(self) -> None:
        for name in ("m", "g", "l", "Jxx", "Jyy", "Jzz", "CT", "CD"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"parameter {name} must be strictly positive")

    @property
    def inertia(self) -> np.ndarray:
        return np.array([self.Jxx, self.Jyy, self.Jzz])

    def hover_speed(self) -> float:
        """Rotor speed [krpm] at which four rotors balance the weight."""
        return math.sqrt(self.m * self.g / (4.0 * self.CT))

    def hover_input(self) -> np.ndarray:
        return np.full(NU, self.hover_speed())


# Crazyflie 2.1 defaults. The flying airframe weighs 33 g; a tenfold
# mass (0.33 kg) appears in some parameter listings but cannot hover
# under the 22 krpm rotor-speed cap (max thrust 4*CT*22^2 ~ 0.63 N),
# so it is available only as an explicit override.
PUBLISHED_TABLE_MASS = 0.33


def hover_state(p=(0.0, 0.0, 0.0)) -> np.ndarray:
    """State at rest: position ``p``, identity attitude, zero rates."""
    xi = np.zeros(NX)
    xi[POS] = p
    xi[3] = 1.0
    return xi


# ---------------------------------------------------------------------------
# quaternion algebra (Hamilton, scalar-first)
# ---------------------------------------------------------------------------


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b, both scalar-first."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix mapping body-frame vectors to the inertial frame.

    Uses the homogeneous (non-normalizing) quadratic expressions, so the
    result is orthonormal only for unit quaternions. Callers that cannot
    guarantee unit norm should normalize first.
    """
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_to_euler(q: np.ndarray) -> tuple[float, float, float]:
    """Intrinsic Z-Y-X (yaw-pitch-roll) angles of a unit quaternion, in rad.

    Returns ``(roll, pitch, yaw)``. Pitch is clamped at +-pi/2 at the
    gimbal-lock singularity.
    """
    w, x, y, z = quat_normalize(np.asarray(q, dtype=float))
    roll = math.atan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    s = 2 * (w * y - z * x)
    pitch = math.asin(max(-1.0, min(1.0, s)))
    yaw = math.atan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))
    return roll, pitch, yaw


def quat_from_rotvec(phi: np.ndarray) -> np.ndarray:
    """Unit quaternion for a rotation vector (axis * angle, rad)."""
    angle = np.linalg.norm(phi)
    if angle < 1e-12:
        q = np.array([1.0, 0.5 * phi[0], 0.5 * phi[1], 0.5 * phi[2]])
        return quat_normalize(q)
    axis = phi / angle
    half = 0.5 * angle
    return np.concatenate(([math.cos(half)], math.sin(half) * axis))


# ---------------------------------------------------------------------------
# forces, moments, and the continuous-time ODE
# ---------------------------------------------------------------------------


def ode_rhs(xi: np.ndarray, u: np.ndarray, params: QuadrotorParams) -> np.ndarray:
    """Time derivative of the 13-dim state under rotor speeds ``u``.

    Total on finite inputs; the quaternion is used as-is (no
    renormalization), which keeps the map smooth for sensitivity
    propagation.

    Thrust acts along body z only. Roll/pitch moments come from the
    thrust imbalance across the X configuration, yaw from rotor drag.
    The plant and the predictor call this once per ERK4 stage, so it
    works on Python floats: numpy dispatch on 3-vectors would cost
    several times the arithmetic. Rows 3-12 repeat the operation order
    of the vector expressions (``quat_multiply``, ``np.cross``)
    exactly; :func:`ode_rhs_batch` is the OCP's kernel.
    """
    _, _, _, qw, qx, qy, qz, vx, vy, vz, wx, wy, wz = xi.tolist()
    u0, u1, u2, u3 = np.asarray(u, dtype=float).tolist()
    m, g, CT, Jx, Jy, Jz = params.m, params.g, params.CT, params.Jxx, params.Jyy, params.Jzz

    # rotation matrix body -> inertial, as in quat_to_rotmat
    r00 = 1 - 2 * (qy * qy + qz * qz)
    r01 = 2 * (qx * qy - qw * qz)
    r02 = 2 * (qx * qz + qw * qy)
    r10 = 2 * (qx * qy + qw * qz)
    r11 = 1 - 2 * (qx * qx + qz * qz)
    r12 = 2 * (qy * qz - qw * qx)
    r20 = 2 * (qx * qz - qw * qy)
    r21 = 2 * (qy * qz + qw * qx)
    r22 = 1 - 2 * (qx * qx + qy * qy)

    # thrust and moments, quadratic in rotor speed
    w0, w1, w2, w3 = u0 * u0, u1 * u1, u2 * u2, u3 * u3
    fz = CT * (w0 + w1 + w2 + w3)
    ctl = CT * params.l
    mx = ctl * (-w0 - w1 + w2 + w3)
    my = ctl * (-w0 + w1 + w2 - w3)
    mz = params.CD * (-w0 + w1 - w2 + w3)

    # angular momentum J w for the gyroscopic term
    hx, hy, hz = Jx * wx, Jy * wy, Jz * wz
    return np.array(
        [
            r00 * vx + r01 * vy + r02 * vz,
            r10 * vx + r11 * vy + r12 * vz,
            r20 * vx + r21 * vy + r22 * vz,
            # 0.5 * q (x) (0, w)
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            # body acceleration: thrust / m - R^T (0, 0, g) - w x v
            -g * r20 - (wy * vz - wz * vy),
            -g * r21 - (wz * vx - wx * vz),
            (fz / m - g * r22) - (wx * vy - wy * vx),
            # Euler's equations: J^-1 (M - w x J w)
            (mx - (wy * hz - wz * hy)) / Jx,
            (my - (wz * hx - wx * hz)) / Jy,
            (mz - (wx * hy - wy * hx)) / Jz,
        ]
    )


def ode_rhs_batch(XI: np.ndarray, U: np.ndarray, params: QuadrotorParams) -> np.ndarray:
    """Vectorized :func:`ode_rhs` over leading batch axis (B, 13), (B, 4)."""
    q = XI[:, QUAT]
    v = XI[:, VEL]
    w = XI[:, OMEGA]
    W2 = U**2

    R = _rotmat_batch(q)
    out = np.empty_like(XI)
    out[:, POS] = np.einsum("bij,bj->bi", R, v)

    qw, qx, qy, qz = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    wx, wy, wz = w[:, 0], w[:, 1], w[:, 2]
    out[:, 3] = 0.5 * (-qx * wx - qy * wy - qz * wz)
    out[:, 4] = 0.5 * (qw * wx + qy * wz - qz * wy)
    out[:, 5] = 0.5 * (qw * wy - qx * wz + qz * wx)
    out[:, 6] = 0.5 * (qw * wz + qx * wy - qy * wx)

    vx, vy, vz = v[:, 0], v[:, 1], v[:, 2]
    fz = params.CT * W2.sum(axis=1)
    out[:, 7] = -params.g * R[:, 2, 0] - (wy * vz - wz * vy)
    out[:, 8] = -params.g * R[:, 2, 1] - (wz * vx - wx * vz)
    out[:, 9] = -params.g * R[:, 2, 2] - (wx * vy - wy * vx)
    out[:, 9] += fz / params.m

    ctl = params.CT * params.l
    mx = ctl * (-W2[:, 0] - W2[:, 1] + W2[:, 2] + W2[:, 3])
    my = ctl * (-W2[:, 0] + W2[:, 1] + W2[:, 2] - W2[:, 3])
    mz = params.CD * (-W2[:, 0] + W2[:, 1] - W2[:, 2] + W2[:, 3])
    J = params.inertia
    Jw = w * J
    hx, hy, hz = Jw[:, 0], Jw[:, 1], Jw[:, 2]
    out[:, 10] = (mx - (wy * hz - wz * hy)) / J[0]
    out[:, 11] = (my - (wz * hx - wx * hz)) / J[1]
    out[:, 12] = (mz - (wx * hy - wy * hx)) / J[2]
    return out


def _rotmat_batch(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((q.shape[0], 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def ode_jacobians_batch(
    XI: np.ndarray, U: np.ndarray, params: QuadrotorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized analytic Jacobians of the ODE over a batch of points.

    Returns ``(fx, fu)`` with shapes (B, 13, 13) and (B, 13, 4).
    """
    B = XI.shape[0]
    q = XI[:, QUAT]
    v = XI[:, VEL]
    w = XI[:, OMEGA]
    qw, qx, qy, qz = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    vx, vy, vz = v[:, 0], v[:, 1], v[:, 2]
    wx, wy, wz = w[:, 0], w[:, 1], w[:, 2]
    zero = np.zeros(B)

    fx = np.zeros((B, NX, NX))
    fu = np.zeros((B, NX, NU))

    # d(R v)/dq, one 3-column per quaternion component
    fx[:, 0, 3] = 2 * (-qz * vy + qy * vz)
    fx[:, 1, 3] = 2 * (qz * vx - qx * vz)
    fx[:, 2, 3] = 2 * (-qy * vx + qx * vy)
    fx[:, 0, 4] = 2 * (qy * vy + qz * vz)
    fx[:, 1, 4] = 2 * (qy * vx - 2 * qx * vy - qw * vz)
    fx[:, 2, 4] = 2 * (qz * vx + qw * vy - 2 * qx * vz)
    fx[:, 0, 5] = 2 * (-2 * qy * vx + qx * vy + qw * vz)
    fx[:, 1, 5] = 2 * (qx * vx + qz * vz)
    fx[:, 2, 5] = 2 * (-qw * vx + qz * vy - 2 * qy * vz)
    fx[:, 0, 6] = 2 * (-2 * qz * vx - qw * vy + qx * vz)
    fx[:, 1, 6] = 2 * (qw * vx - 2 * qz * vy + qy * vz)
    fx[:, 2, 6] = 2 * (qx * vx + qy * vy)
    # d(R v)/dv = R
    fx[:, POS, VEL] = _rotmat_batch(q)

    # quaternion kinematics: dq_dot/dq = 0.5 * Xi(omega), dq_dot/domega
    half = 0.5
    fx[:, 3, 4] = -half * wx
    fx[:, 3, 5] = -half * wy
    fx[:, 3, 6] = -half * wz
    fx[:, 4, 3] = half * wx
    fx[:, 4, 5] = half * wz
    fx[:, 4, 6] = -half * wy
    fx[:, 5, 3] = half * wy
    fx[:, 5, 4] = -half * wz
    fx[:, 5, 6] = half * wx
    fx[:, 6, 3] = half * wz
    fx[:, 6, 4] = half * wy
    fx[:, 6, 5] = -half * wx

    fx[:, 3, 10] = -half * qx
    fx[:, 3, 11] = -half * qy
    fx[:, 3, 12] = -half * qz
    fx[:, 4, 10] = half * qw
    fx[:, 4, 11] = -half * qz
    fx[:, 4, 12] = half * qy
    fx[:, 5, 10] = half * qz
    fx[:, 5, 11] = half * qw
    fx[:, 5, 12] = -half * qx
    fx[:, 6, 10] = -half * qy
    fx[:, 6, 11] = half * qx
    fx[:, 6, 12] = half * qw

    # body acceleration: -g * d(R[2,:])/dq, -skew(omega), +skew(v)
    g2 = -2 * params.g
    fx[:, 7, 3] = g2 * -qy
    fx[:, 8, 3] = g2 * qx
    fx[:, 9, 3] = zero
    fx[:, 7, 4] = g2 * qz
    fx[:, 8, 4] = g2 * qw
    fx[:, 9, 4] = g2 * -2 * qx
    fx[:, 7, 5] = g2 * -qw
    fx[:, 8, 5] = g2 * qz
    fx[:, 9, 5] = g2 * -2 * qy
    fx[:, 7, 6] = g2 * qx
    fx[:, 8, 6] = g2 * qy
    fx[:, 9, 6] = zero

    fx[:, 7, 8] = wz
    fx[:, 7, 9] = -wy
    fx[:, 8, 7] = -wz
    fx[:, 8, 9] = wx
    fx[:, 9, 7] = wy
    fx[:, 9, 8] = -wx

    fx[:, 7, 11] = -vz
    fx[:, 7, 12] = vy
    fx[:, 8, 10] = vz
    fx[:, 8, 12] = -vx
    fx[:, 9, 10] = -vy
    fx[:, 9, 11] = vx

    # angular acceleration: J^-1 (skew(J w) - skew(w) J)
    Jx, Jy, Jz = params.inertia
    fx[:, 10, 11] = (Jy - Jz) / Jx * wz
    fx[:, 10, 12] = (Jy - Jz) / Jx * wy
    fx[:, 11, 10] = (Jz - Jx) / Jy * wz
    fx[:, 11, 12] = (Jz - Jx) / Jy * wx
    fx[:, 12, 10] = (Jx - Jy) / Jz * wy
    fx[:, 12, 11] = (Jx - Jy) / Jz * wx

    # input Jacobian: thrust and moments are quadratic in rotor speed
    two_ct = 2 * params.CT
    fu[:, 9, :] = two_ct / params.m * U
    ctl = params.CT * params.l
    sx = np.array([-1.0, -1.0, 1.0, 1.0])
    sy = np.array([-1.0, 1.0, 1.0, -1.0])
    sz = np.array([-1.0, 1.0, -1.0, 1.0])
    fu[:, 10, :] = 2 * ctl / Jx * sx * U
    fu[:, 11, :] = 2 * ctl / Jy * sy * U
    fu[:, 12, :] = 2 * params.CD / Jz * sz * U
    return fx, fu


# ---------------------------------------------------------------------------
# explicit Runge-Kutta 4
# ---------------------------------------------------------------------------


def erk4_step(f, x: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of size ``h`` for ``x_dot = f(x)``.

    ``h = 0`` returns ``x`` unchanged.
    """
    if h < 0:
        raise ValueError("step size must be nonnegative")
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
