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

import functools
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

    def hover_speed(self) -> float:
        """Rotor speed [krpm] at which four rotors balance the weight."""
        return math.sqrt(self.m * self.g / (4.0 * self.CT))

    def hover_input(self) -> np.ndarray:
        return np.full(NU, self.hover_speed())


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


def ode_terms(params: QuadrotorParams) -> tuple[tuple[int, float, tuple[int, ...]], ...]:
    """The ODE as a sum of terms ``(row, coefficient, monomial)``.

    A monomial is a sorted tuple of variable indices, with repeats, into
    the 17 variables ``(xi, u)``: row ``i`` of the state derivative is the
    sum of ``coefficient * prod(z[k] for k in monomial)`` over the terms
    of row ``i``. The position rows are cubic (``q q v``), all others at
    most quadratic. The coefficients come from ``params`` alone.
    """
    # variable indices: quaternion, body velocity, body rate, rotor speeds
    W, X, Y, Z = 3, 4, 5, 6
    VX, VY, VZ = 7, 8, 9
    WX, WY, WZ = 10, 11, 12
    ROTORS = (13, 14, 15, 16)
    Jx, Jy, Jz = params.Jxx, params.Jyy, params.Jzz
    # rotation matrix body -> inertial, entry by entry, as in quat_to_rotmat
    R = (
        ([(1, ()), (-2, (Y, Y)), (-2, (Z, Z))], [(2, (X, Y)), (-2, (W, Z))],
         [(2, (X, Z)), (2, (W, Y))]),
        ([(2, (X, Y)), (2, (W, Z))], [(1, ()), (-2, (X, X)), (-2, (Z, Z))],
         [(2, (Y, Z)), (-2, (W, X))]),
        ([(2, (X, Z)), (-2, (W, Y))], [(2, (Y, Z)), (2, (W, X))],
         [(1, ()), (-2, (X, X)), (-2, (Y, Y))]),
    )
    # position: R v
    V = (VX, VY, VZ)
    terms = [(i, c, mono + (V[j],)) for i in range(3) for j in range(3) for c, mono in R[i][j]]
    # attitude: 0.5 q (x) (0, w)
    terms += [
        (3, -0.5, (X, WX)), (3, -0.5, (Y, WY)), (3, -0.5, (Z, WZ)),
        (4, 0.5, (W, WX)), (4, 0.5, (Y, WZ)), (4, -0.5, (Z, WY)),
        (5, 0.5, (W, WY)), (5, -0.5, (X, WZ)), (5, 0.5, (Z, WX)),
        (6, 0.5, (W, WZ)), (6, 0.5, (X, WY)), (6, -0.5, (Y, WX)),
    ]
    # body acceleration: thrust / m - R^T (0, 0, g) - w x v
    terms += [(7 + j, -params.g * c, mono) for j in range(3) for c, mono in R[2][j]]
    terms += [(9, params.CT / params.m, (k, k)) for k in ROTORS]
    terms += [
        (7, -1.0, (WY, VZ)), (7, 1.0, (WZ, VY)),
        (8, -1.0, (WZ, VX)), (8, 1.0, (WX, VZ)),
        (9, -1.0, (WX, VY)), (9, 1.0, (WY, VX)),
    ]
    # Euler's equations: J^-1 (M - w x J w), moments quadratic in rotor speed
    ctl = params.CT * params.l
    for row, scale, signs in (
        (10, ctl / Jx, (-1, -1, 1, 1)),
        (11, ctl / Jy, (-1, 1, 1, -1)),
        (12, params.CD / Jz, (-1, 1, -1, 1)),
    ):
        terms += [(row, s * scale, (k, k)) for s, k in zip(signs, ROTORS)]
    terms += [
        (10, -Jz / Jx, (WY, WZ)), (10, Jy / Jx, (WZ, WY)),
        (11, -Jx / Jy, (WZ, WX)), (11, Jz / Jy, (WX, WZ)),
        (12, -Jy / Jz, (WX, WY)), (12, Jx / Jz, (WY, WX)),
    ]
    return tuple((row, float(c), tuple(sorted(mono))) for row, c, mono in terms)


@dataclass(frozen=True)
class _Table:
    """A polynomial map ``z -> phi(z) @ C`` over ``z = (xi, u)``.

    ``gather[d]`` indexes the ``d``-th factor of every distinct monomial
    in ``[1, xi, u]`` (index 0 is the constant 1, for monomials of lower
    degree), ``C`` holds the coefficients, and output column ``j`` is
    entry ``outputs[j]`` of the map.
    """

    gather: np.ndarray
    C: np.ndarray
    outputs: np.ndarray

    @classmethod
    def of(cls, terms) -> _Table:
        """Collect ``(output, coefficient, monomial)`` terms, summing repeats."""
        coef = {}
        for out, c, mono in terms:
            coef[mono, out] = coef.get((mono, out), 0.0) + c
        coef = {key: c for key, c in coef.items() if c != 0.0}
        monos = sorted({mono for mono, _ in coef})
        outputs = sorted({out for _, out in coef})
        C = np.zeros((len(monos), len(outputs)))
        for (mono, out), c in coef.items():
            C[monos.index(mono), outputs.index(out)] = c
        degree = max(map(len, monos))
        gather = np.array(
            [[mono[d] + 1 if d < len(mono) else 0 for mono in monos] for d in range(degree)]
        )
        return cls(gather, C, np.array(outputs))

    def __call__(self, XI: np.ndarray, U: np.ndarray) -> np.ndarray:
        Z = np.empty((XI.shape[0], 1 + NX + NU))
        Z[:, 0] = 1.0
        Z[:, 1 : 1 + NX] = XI
        Z[:, 1 + NX :] = U
        phi = Z[:, self.gather[0]]
        for idx in self.gather[1:]:
            phi *= Z[:, idx]
        return phi @ self.C


@functools.lru_cache(maxsize=16)
def _tables(params: QuadrotorParams) -> tuple[_Table, _Table, int]:
    """Tables of ODE rows 0-6 and of the Jacobian, and the Jacobian's ``fx`` entry count.

    The Jacobian table differentiates every term of :func:`ode_terms`.
    Its outputs index ``fx`` flat row-major (0-168), then ``fu`` (169-220);
    only structurally nonzero entries are outputs.
    """
    terms = ode_terms(params)
    rhs = _Table.of(t for t in terms if t[0] < 7)
    jac = []
    for row, c, mono in terms:
        for k in set(mono):
            rest = list(mono)
            rest.remove(k)
            out = row * NX + k if k < NX else NX * NX + row * NU + k - NX
            jac.append((out, c * mono.count(k), tuple(rest)))
    jac = _Table.of(jac)
    return rhs, jac, int(np.searchsorted(jac.outputs, NX * NX))


def ode_rhs_batch(XI: np.ndarray, U: np.ndarray, params: QuadrotorParams) -> np.ndarray:
    """Vectorized :func:`ode_rhs` over leading batch axis (B, 13), (B, 4).

    Rows 0-6 (position and attitude) come from the term table of
    :func:`ode_terms`. Rows 7-12 keep :func:`ode_rhs`'s operation order:
    there gravity and Coriolis terms, or moments and gyroscopic terms,
    cancel, and a flat sum of terms loses the last digits.
    """
    out = np.empty_like(XI)
    out[:, :7] = _tables(params)[0](XI, U)

    qw, qx, qy, qz, vx, vy, vz, wx, wy, wz = XI[:, 3:].T
    W2 = U**2
    g = params.g
    # body acceleration: thrust / m - R^T (0, 0, g) - w x v
    out[:, 7] = -g * (2 * (qx * qz - qw * qy)) - (wy * vz - wz * vy)
    out[:, 8] = -g * (2 * (qy * qz + qw * qx)) - (wz * vx - wx * vz)
    out[:, 9] = -g * (1 - 2 * (qx * qx + qy * qy)) - (wx * vy - wy * vx)
    out[:, 9] += params.CT * W2.sum(axis=1) / params.m

    # Euler's equations: J^-1 (M - w x J w)
    w0, w1, w2, w3 = W2.T
    ctl = params.CT * params.l
    Jx, Jy, Jz = params.Jxx, params.Jyy, params.Jzz
    hx, hy, hz = Jx * wx, Jy * wy, Jz * wz
    out[:, 10] = (ctl * (-w0 - w1 + w2 + w3) - (wy * hz - wz * hy)) / Jx
    out[:, 11] = (ctl * (-w0 + w1 + w2 - w3) - (wz * hx - wx * hz)) / Jy
    out[:, 12] = (params.CD * (-w0 + w1 - w2 + w3) - (wx * hy - wy * hx)) / Jz
    return out


def ode_jacobians_batch(
    XI: np.ndarray, U: np.ndarray, params: QuadrotorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Jacobians of the ODE over a batch of points, from the term table.

    Returns ``(fx, fu)`` with shapes (B, 13, 13) and (B, 13, 4). Only the
    structurally nonzero entries are evaluated, by one product.
    """
    _, jac, n_fx = _tables(params)
    values = jac(XI, U)
    B = XI.shape[0]
    fx = np.zeros((B, NX * NX))
    fx[:, jac.outputs[:n_fx]] = values[:, :n_fx]
    fu = np.zeros((B, NX * NU))
    fu[:, jac.outputs[n_fx:] - NX * NX] = values[:, n_fx:]
    return fx.reshape(B, NX, NX), fu.reshape(B, NX, NU)


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
