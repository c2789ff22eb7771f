"""Independent reference computations used to check the library.

Everything here is deliberately naive: central finite differences,
vector-form rotor forces, dense KKT factorizations, and exhaustive
active-set enumeration. None of it shares code with the solver paths it
validates.
"""

import itertools

import numpy as np
from scipy.linalg import solve_discrete_lyapunov
from scipy.linalg.lapack import dpotrf, dpotrs


def central_diff_jacobian(f, x, eps=1e-6):
    """Central-difference Jacobian of a vector function at ``x``."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x))
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        h = eps * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return J


def forces_moments(u, params):
    """Total body-frame force and moment produced by rotor speeds ``u`` [krpm].

    Thrust acts along body z only. Roll/pitch moments come from the
    thrust imbalance across the X configuration, yaw from rotor drag.
    """
    w2 = np.asarray(u, dtype=float) ** 2
    fz = params.CT * w2.sum()
    mx = params.CT * params.l * (-w2[0] - w2[1] + w2[2] + w2[3])
    my = params.CT * params.l * (-w2[0] + w2[1] + w2[2] - w2[3])
    mz = params.CD * (-w2[0] + w2[1] - w2[2] + w2[3])
    return np.array([0.0, 0.0, fz]), np.array([mx, my, mz])


def stack_qp_dense(qp):
    """Flatten a stage-wise QP into one dense problem.

    Variables are ordered ``x_0, u_0, x_1, u_1, ..., x_N``. Returns
    ``(H, g, E, e, lb_idx, lb, ub)`` where ``E z = e`` collects the
    initial condition and the dynamics, and the bounds apply to the
    input components listed in ``lb_idx``.
    """
    nx = qp.nx
    N = qp.num_stages
    dims_u = [qp.nu] * N
    offs_x = []
    offs_u = []
    off = 0
    for i in range(N):
        offs_x.append(off)
        off += nx
        offs_u.append(off)
        off += dims_u[i]
    offs_x.append(off)
    nz = off + nx

    H = np.zeros((nz, nz))
    g = np.zeros(nz)
    for i in range(N):
        ix, iu, mu = offs_x[i], offs_u[i], dims_u[i]
        H[ix : ix + nx, ix : ix + nx] = qp.Q[i]
        H[iu : iu + mu, iu : iu + mu] = qp.R[i]
        H[iu : iu + mu, ix : ix + nx] = qp.S[i]
        H[ix : ix + nx, iu : iu + mu] = qp.S[i].T
        g[ix : ix + nx] = qp.q[i]
        g[iu : iu + mu] = qp.r[i]
    ixN = offs_x[N]
    H[ixN : ixN + nx, ixN : ixN + nx] = qp.Q_N
    g[ixN : ixN + nx] = qp.q_N

    ne = nx * (N + 1)
    E = np.zeros((ne, nz))
    e = np.zeros(ne)
    E[:nx, :nx] = np.eye(nx)
    e[:nx] = qp.x0_residual
    for i in range(N):
        r0 = nx * (i + 1)
        ix, iu, mu = offs_x[i], offs_u[i], dims_u[i]
        E[r0 : r0 + nx, offs_x[i + 1] : offs_x[i + 1] + nx] = np.eye(nx)
        E[r0 : r0 + nx, ix : ix + nx] = -qp.A[i]
        E[r0 : r0 + nx, iu : iu + mu] = -qp.B[i]
        e[r0 : r0 + nx] = qp.c[i]

    lb_idx = []
    lb = []
    ub = []
    for i in range(N):
        for j in range(dims_u[i]):
            lb_idx.append(offs_u[i] + j)
            lb.append(qp.lb[i, j])
            ub.append(qp.ub[i, j])
    return H, g, E, e, np.array(lb_idx), np.array(lb), np.array(ub)


def solve_qp_equality_kkt(H, g, E, e):
    """Solve ``min 0.5 z'Hz + g'z  s.t.  Ez = e`` via one dense KKT factorization."""
    nz = H.shape[0]
    ne = E.shape[0]
    K = np.zeros((nz + ne, nz + ne))
    K[:nz, :nz] = H
    K[:nz, nz:] = E.T
    K[nz:, :nz] = E
    rhs = np.concatenate([-g, e])
    sol = np.linalg.solve(K, rhs)
    return sol[:nz], sol[nz:]


def solve_qp_active_set_enum(qp, tol=1e-9):
    """Globally solve a small box-constrained stage QP by enumerating active sets.

    Each bounded component can be inactive, at its lower bound, or at
    its upper bound; every combination is tried and checked against the
    KKT conditions. Only sensible for a handful of bounded variables.
    """
    H, g, E, e, bidx, lb, ub = stack_qp_dense(qp)
    nb = len(bidx)
    nz = H.shape[0]
    best = None
    for combo in itertools.product((0, -1, 1), repeat=nb):
        rows = [k for k, c in enumerate(combo) if c != 0]
        na = len(rows)
        A_act = np.zeros((na, nz))
        b_act = np.zeros(na)
        for r, k in enumerate(rows):
            A_act[r, bidx[k]] = 1.0
            b_act[r] = lb[k] if combo[k] < 0 else ub[k]
        Efull = np.vstack([E, A_act]) if na else E
        efull = np.concatenate([e, b_act]) if na else e
        try:
            z, mults = solve_qp_equality_kkt(H, g, Efull, efull)
        except np.linalg.LinAlgError:
            continue
        rho = mults[E.shape[0] :]
        # primal feasibility of inactive bounds
        ok = True
        for k in range(nb):
            zj = z[bidx[k]]
            if combo[k] == 0 and not (lb[k] - tol <= zj <= ub[k] + tol):
                ok = False
                break
        if not ok:
            continue
        # dual feasibility: lower-active needs rho <= 0, upper-active rho >= 0
        for r, k in enumerate(rows):
            if combo[k] < 0 and rho[r] > tol:
                ok = False
                break
            if combo[k] > 0 and rho[r] < -tol:
                ok = False
                break
        if not ok:
            continue
        obj = 0.5 * z @ H @ z + g @ z
        if best is None or obj < best[0] - 1e-12:
            best = (obj, z)
    if best is None:
        raise RuntimeError("active-set enumeration found no KKT point")
    return best[1]


def dense_primal_from_qp(qp, z):
    """Split a stacked dense solution back into per-stage (x, u) lists."""
    nx = qp.nx
    xs = []
    us = []
    off = 0
    for _ in range(qp.num_stages):
        xs.append(z[off : off + nx])
        off += nx
        us.append(z[off : off + qp.nu])
        off += qp.nu
    xs.append(z[off : off + nx])
    return xs, us


class RiccatiSweepReference:
    """Per-stage Riccati factorization and solve of one IPM Newton system.

    The textbook recursion, stage by stage: ``G = R_bar + B' P B``,
    ``H = S + B' P A``, ``K = -G^-1 H`` and ``P = Q + A' P A + H' K``;
    the solve runs the backward recursion on ``(rx, ru, re)`` with the
    same factors and rolls the step forward with ``du = K dx + k``.
    ``R_bar`` is the input Hessian with the barrier diagonal included.
    A block that is not positive definite is retried once with 1e-10
    added to its diagonal.
    """

    def __init__(self, qp, R_bar):
        N, nx, nu = qp.B.shape
        A, B, S, Q = qp.A, qp.B, qp.S, qp.Q
        self.qp = qp
        self.P = P = np.empty((N + 1, nx, nx))
        self.L = np.empty((N, nu, nu))
        self.K = np.empty((N, nu, nx))
        self.H = np.empty((N, nu, nx))
        P[N] = qp.Q_N
        for i in range(N - 1, -1, -1):
            Pn = P[i + 1]
            PB = Pn @ B[i]
            G = R_bar[i] + B[i].T @ PB
            H = S[i] + PB.T @ A[i]
            L = _cholesky_retry(0.5 * (G + G.T))
            K = -dpotrs(L, H, lower=1)[0]
            Pi = Q[i] + A[i].T @ (Pn @ A[i]) + H.T @ K
            self.L[i] = L
            self.K[i] = K
            self.H[i] = H
            P[i] = 0.5 * (Pi + Pi.T)

    def solve(self, rx, ru, re):
        """Newton direction ``(dx, du, dpi)`` for right-hand sides (-rx, -ru, -re)."""
        A, B = self.qp.A, self.qp.B
        P, L, K, H = self.P, self.L, self.K, self.H
        N = len(L)
        Pre = np.array([P[i + 1] @ re[i + 1] for i in range(N)])
        p = np.empty_like(rx)
        k = np.empty_like(ru)
        p[N] = rx[N]
        for i in range(N - 1, -1, -1):
            m1 = p[i + 1] - Pre[i]
            k[i] = -dpotrs(L[i], ru[i] + B[i].T @ m1, lower=1)[0]
            p[i] = rx[i] + A[i].T @ m1 + H[i].T @ k[i]
        dx = np.empty_like(rx)
        du = np.empty_like(ru)
        dx[0] = -re[0]
        for i in range(N):
            du[i] = K[i] @ dx[i] + k[i]
            dx[i + 1] = A[i] @ dx[i] + B[i] @ du[i] - re[i + 1]
        return dx, du, np.array([P[i] @ dx[i] for i in range(N + 1)]) + p


def _cholesky_retry(G):
    L, info = dpotrf(G, lower=1)
    if info:
        L, info = dpotrf(G + 1e-10 * np.eye(G.shape[0]), lower=1)
        if info:
            raise np.linalg.LinAlgError("recursion block not positive definite")
    return L


class CondenseReference:
    """Partial condensing by the forward rollout, one stage position at a time.

    Every block of ``M`` stages is rolled out as ``x = T x_s + G U + f``
    and each stage cost is added through that map (``G' Q G`` on the
    inputs so far), so the cost per block grows with the cube of ``M``.
    A ragged last block is padded with inert stages: identity dynamics,
    no state cost, unit input cost, zero input gradient, bounds +-1 and
    zero input columns. The attributes are the arrays of the condensed QP:
    ``A, B, c, Q, R, S, q, r, lb, ub, Q_N, q_N, x0_residual``.
    """

    def __init__(self, qp, M):
        N, nx, nu = qp.B.shape
        arrays = [qp.A, qp.B, qp.c, qp.Q, qp.q, qp.R, qp.r, qp.lb, qp.ub]
        pad = -N % M
        fills = [np.eye(nx), 0.0, 0.0, 0.0, 0.0, np.eye(nu), 0.0, -1.0, 1.0]
        arrays = [
            np.concatenate([a, np.broadcast_to(fill, (pad,) + a.shape[1:])])
            for a, fill in zip(arrays, fills)
        ]
        A, B, c, Q, q, R, r, lb, ub = [a.reshape((-1, M) + a.shape[1:]) for a in arrays]
        nb = A.shape[0]
        mU = M * nu
        T = np.broadcast_to(np.eye(nx), (nb, nx, nx))
        G = np.zeros((nb, nx, mU))
        f = np.zeros((nb, nx))
        Qb = np.zeros((nb, nx, nx))
        qb = np.zeros((nb, nx))
        Rb = np.zeros((nb, mU, mU))
        Sb = np.zeros((nb, mU, nx))
        rb = np.zeros((nb, mU))
        for j in range(M):
            k = j * nu
            cols = slice(k, k + nu)
            Tt = T.swapaxes(1, 2)
            Gk = G[:, :, :k]
            Gkt = Gk.swapaxes(1, 2)
            QT = Q[:, j] @ T
            Qb += Tt @ QT
            w = _mv(Q[:, j], f) + q[:, j]
            qb += _mv(Tt, w)
            Rb[:, cols, cols] += R[:, j]
            Rb[:, :k, :k] += Gkt @ (Q[:, j] @ Gk)
            Sb[:, :k] += Gkt @ QT
            rb[:, cols] += r[:, j]
            rb[:, :k] += _mv(Gkt, w)
            f = _mv(A[:, j], f) + c[:, j]
            G[:, :, :k] = A[:, j] @ Gk
            G[:, :, cols] = B[:, j]
            T = A[:, j] @ T
        self.A, self.B, self.c = T, G, f
        self.Q = 0.5 * (Qb + Qb.swapaxes(1, 2))
        self.R = 0.5 * (Rb + Rb.swapaxes(1, 2))
        self.S = Sb
        self.q, self.r = qb, rb
        self.lb, self.ub = lb.reshape(nb, mU), ub.reshape(nb, mU)
        self.Q_N, self.q_N, self.x0_residual = qp.Q_N, qp.q_N, qp.x0_residual


def _mv(M, v):
    return np.einsum("nij,nj->ni", M, v)


def _skew(a):
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def ode_vector_form(xi, u, params):
    """The quadrotor ODE in matrix-vector form; real or complex arguments.

    ``R = I + 2 qw [qv]x + 2 [qv]x^2`` (equal to the entrywise rotation
    matrix for any quaternion, unit or not), ``q_dot = 0.5 L(q) (0, w)``
    with the left-multiplication matrix of the Hamilton product, thrust
    and moments from a mixing matrix applied to the squared rotor speeds,
    and Euler's equations with ``np.cross``. Nothing here takes an
    absolute value or a conjugate, so complex-step derivatives are exact.
    """
    qw, qx, qy, qz = xi[3:7]
    v, w = xi[7:10], xi[10:13]
    K = _skew(xi[4:7])
    R = np.eye(3) + 2.0 * qw * K + 2.0 * K @ K
    Lq = np.array([[qw, -qx, -qy, -qz], [qx, qw, -qz, qy], [qy, qz, qw, -qx], [qz, -qy, qx, qw]])
    ct, ctl, cd = params.CT, params.CT * params.l, params.CD
    mix = np.array(
        [[ct, ct, ct, ct], [-ctl, -ctl, ctl, ctl], [-ctl, ctl, ctl, -ctl], [-cd, cd, -cd, cd]]
    )
    thrust, *moment = mix @ (u * u)
    J = np.array([params.Jxx, params.Jyy, params.Jzz])
    e3 = np.array([0.0, 0.0, 1.0])
    return np.concatenate(
        [
            R @ v,
            0.5 * Lq[:, 1:] @ w,
            (thrust / params.m) * e3 - params.g * (R.T @ e3) - np.cross(w, v),
            (np.array(moment) - np.cross(w, J * w)) / J,
        ]
    )


def rk4_vector_form(xi, u, dt, params):
    """One classical RK4 step of :func:`ode_vector_form`; real or complex arguments."""
    f = lambda x: ode_vector_form(x, u, params)
    k1 = f(xi)
    k2 = f(xi + 0.5 * dt * k1)
    k3 = f(xi + 0.5 * dt * k2)
    k4 = f(xi + dt * k3)
    return xi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def complex_step_jacobian(f, x, h=1e-30):
    """Jacobian of a real-analytic ``f`` at real ``x`` by the complex step ``Im f(x + ih e_k) / h``."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        xc = x.astype(complex)
        xc[k] += 1j * h
        cols.append(np.imag(f(xc)) / h)
    return np.array(cols).T


def dare_residual(A, B, Q, R, P) -> float:
    """Infinity norm of the discrete Riccati equation defect at ``P``."""
    APB = A.T @ P @ B
    res = A.T @ P @ A - P - APB @ np.linalg.solve(B.T @ P @ B + R, APB.T) + Q
    return float(np.abs(res).max())


def lqr_dare_check(design, Q_diag, R_diag) -> tuple[float, float]:
    """How well an LQR design's gain solves the DARE of the weights ``Q_diag``, ``R_diag``.

    ``P`` is the cost of the gain the law uses, the closed-loop Lyapunov
    solution ``P = (A - BK)' P (A - BK) + Q + K'RK``; at the stabilizing
    DARE solution's gain it is that solution. Returns the DARE residual at
    ``P`` relative to ``|P|``, and the gap between ``K`` and the gain
    ``(R + B'PB)^-1 B'PA`` that ``P`` gives, relative to ``|K|``.
    """
    A, B, K = design.A, design.B, design.K
    Q, R = np.diag(Q_diag), np.diag(R_diag)
    Acl = A - B @ K
    P = solve_discrete_lyapunov(Acl.T, Q + K.T @ R @ K)
    K_of_P = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return (
        dare_residual(A, B, Q, R, P) / np.abs(P).max(),
        float(np.abs(K_of_P - K).max() / np.abs(K).max()),
    )
