"""Stage-banded optimal-control QPs and their interior-point solvers.

The problem class is

    min   sum_i  0.5 w_i' H_i w_i + h_i' w_i      w_i = (x_i, u_i), w_N = x_N
    s.t.  x_0 = b0
          x_{i+1} = A_i x_i + B_i u_i + c_i        i = 0..N-1
          lb_i <= u_i <= ub_i                      i = 0..N-1

with H_i = [[Q_i, S_i'], [S_i, R_i]] and h_i = (q_i, r_i). Two solvers are
provided: a Riccati-recursion primal-dual interior-point method whose cost
is linear in the number of stages, and a baseline that condenses the full
horizon into one dense bound-constrained QP and factorizes it with
Cholesky (cubic in horizon times input size). Partial condensing bridges
the two, eliminating intermediate states in blocks of ``M`` stages.

The stage data is held as stacked arrays with the stage index first, so
residuals, complementarity and step lengths are whole-array operations;
only the Riccati sweeps and the condensing rollout loop over stages.

Each stage stores the affine prediction-model constant
``d_i = F_i - A_i xbar_i - B_i ubar_i`` together with the linearization
points, so the model reconstructs ``F_i`` exactly at ``(xbar_i, ubar_i)``.
The continuity constant in deviation variables (the shooting defect)
is derived from it:  ``c_i = d_i + A_i xbar_i + B_i ubar_i - xbar_{i+1}``,
which vanishes on a dynamically feasible linearization trajectory.

Solver calls keep all workspace local and never mutate the QP data, so
concurrent solves of distinct problem objects are safe; a single solve
is single-threaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dpotrf, dpotrs


class QpNumericalError(RuntimeError):
    """A factorization inside the solver failed beyond recoverable regularization."""


# single Levenberg-style retry before declaring numerical failure
_REGULARIZATION = 1e-10
_FRACTION_TO_BOUNDARY = 0.995


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stage-wise products ``M[i] @ v[i]``."""
    return np.matmul(M, v[..., None])[..., 0]


def _mtv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stage-wise products ``M[i].T @ v[i]``."""
    return np.matmul(v[..., None, :], M)[..., 0, :]


@dataclass
class OcpQp:
    """Banded QP data over ``N`` stages plus a terminal cost.

    Stage ``i`` is row ``i`` of the stacked arrays ``A (N,nx,nx)``,
    ``B (N,nx,nu)``, ``S (N,nu,nx)``, ``Q (N,nx,nx)``, ``R (N,nu,nu)``,
    ``d, q (N,nx)`` and ``r, lb, ub (N,nu)``. ``xbar (N+1,nx)`` and
    ``ubar (N,nu)`` are the linearization points the stage data was
    built at; for hand-built QPs they default to zero, in which case
    ``d`` is itself the continuity constant. ``S`` defaults to zero.
    Shapes and bound ordering are validated once, on construction.
    """

    A: np.ndarray
    B: np.ndarray
    d: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    q: np.ndarray
    r: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    Q_N: np.ndarray
    q_N: np.ndarray
    x0_residual: np.ndarray
    S: np.ndarray = None
    xbar: np.ndarray = None
    ubar: np.ndarray = None

    def __post_init__(self):
        if self.B.ndim != 3 or self.B.shape[0] < 1:
            raise ValueError("input matrices must be stacked as (N, nx, nu) with N >= 1")
        N, nx, nu = self.B.shape
        if self.S is None:
            self.S = np.zeros((N, nu, nx))
        if self.xbar is None:
            self.xbar = np.zeros((N + 1, nx))
        if self.ubar is None:
            self.ubar = np.zeros((N, nu))
        expected = {
            "A": (N, nx, nx), "S": (N, nu, nx), "Q": (N, nx, nx), "R": (N, nu, nu),
            "d": (N, nx), "q": (N, nx), "r": (N, nu), "lb": (N, nu), "ub": (N, nu),
            "Q_N": (nx, nx), "q_N": (nx,), "x0_residual": (nx,),
            "xbar": (N + 1, nx), "ubar": (N, nu),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(
                    f"{name} has shape {getattr(self, name).shape}, expected {shape}"
                )
        if np.any(self.lb >= self.ub):
            raise ValueError("lower bounds must be strictly below upper bounds")

    @property
    def nx(self) -> int:
        return self.B.shape[1]

    @property
    def nu(self) -> int:
        return self.B.shape[2]

    @property
    def num_stages(self) -> int:
        return self.B.shape[0]

    def defects(self) -> np.ndarray:
        """Continuity constants of all stages in deviation variables, (N, nx)."""
        return self.d + _mv(self.A, self.xbar[:-1]) + _mv(self.B, self.ubar) - self.xbar[1:]


@dataclass
class CondensedQp:
    """A partially condensed QP plus everything needed to undo the condensing."""

    qp: OcpQp
    original: OcpQp
    block_size: int


@dataclass
class KktResiduals:
    stationarity: float
    equality: float
    inequality: float
    complementarity: float

    def max(self) -> float:
        return max(self.stationarity, self.equality, self.inequality, self.complementarity)


@dataclass
class QpSolution:
    """Primal-dual solution; residuals are recomputed from the point itself.

    ``x`` and ``pi`` are (N+1, nx), ``u``, ``lam_lo`` and ``lam_hi``
    (N, nu). ``linalg_us`` accumulates the time spent factorizing and
    solving the Newton systems (the part whose cost scales with the
    problem shape), excluding residual bookkeeping.
    """

    x: np.ndarray
    u: np.ndarray
    pi: np.ndarray
    lam_lo: np.ndarray
    lam_hi: np.ndarray
    iters: int
    status: str
    residuals: KktResiduals = None
    linalg_us: float = 0.0


def _residuals(qp: OcpQp, c: np.ndarray, x, u, pi, lam_lo, lam_hi):
    """Stationarity ``(rx, ru)`` and equality ``re`` residuals of a primal-dual point.

    ``c`` holds the continuity constants ``qp.defects()``; ``re[0]`` is
    the initial-condition residual.
    """
    N = qp.num_stages
    rx = np.empty_like(x)
    rx[:N] = _mv(qp.Q, x[:-1]) + _mtv(qp.S, u) + qp.q + _mtv(qp.A, pi[1:]) - pi[:-1]
    rx[N] = qp.Q_N @ x[N] + qp.q_N - pi[N]
    ru = _mv(qp.R, u) + _mv(qp.S, x[:-1]) + qp.r + _mtv(qp.B, pi[1:]) - lam_lo + lam_hi
    re = np.empty_like(x)
    re[0] = x[0] - qp.x0_residual
    re[1:] = x[1:] - _mv(qp.A, x[:-1]) - _mv(qp.B, u) - c
    return rx, ru, re


def kkt_residuals(qp: OcpQp, sol: QpSolution) -> KktResiduals:
    """Infinity norms of the four KKT residual groups at ``sol``."""
    rx, ru, re = _residuals(qp, qp.defects(), sol.x, sol.u, sol.pi, sol.lam_lo, sol.lam_hi)
    sl = sol.u - qp.lb
    su = qp.ub - sol.u
    return KktResiduals(
        stationarity=float(max(np.abs(rx).max(), np.abs(ru).max())),
        equality=float(np.abs(re).max()),
        inequality=float(
            max(0.0, (-sl).max(), (-su).max(), (-sol.lam_lo).max(), (-sol.lam_hi).max())
        ),
        complementarity=float(
            max(np.abs(sol.lam_lo * sl).max(), np.abs(sol.lam_hi * su).max())
        ),
    )


# ---------------------------------------------------------------------------
# partial condensing
# ---------------------------------------------------------------------------


def _blocked(qp: OcpQp, M: int):
    """Stage data regrouped into blocks of ``M`` stages, each array (nb, M, ...).

    Returns ``A, B, c, Q, q, R, r, lb, ub, ubar`` with ``c`` the
    continuity constants. When ``M`` does not divide ``N`` the last block
    is padded with inert stages: identity dynamics, no state cost, and an
    input with unit cost, zero gradient, bounds +-1 and no effect on the
    state, whose optimal value is therefore zero.
    """
    N, nx, nu = qp.B.shape
    arrays = [qp.A, qp.B, qp.defects(), qp.Q, qp.q, qp.R, qp.r, qp.lb, qp.ub, qp.ubar]
    pad = -N % M
    if pad:
        fills = [
            np.eye(nx), 0.0, 0.0, 0.0, 0.0, np.eye(nu), 0.0, -1.0, 1.0, 0.0,
        ]
        arrays = [
            np.concatenate([a, np.broadcast_to(fill, (pad,) + a.shape[1:])])
            for a, fill in zip(arrays, fills)
        ]
    return [a.reshape((-1, M) + a.shape[1:]) for a in arrays]


def partial_condense(qp: OcpQp, M: int) -> CondensedQp:
    """Eliminate intermediate states in blocks of ``M`` stages.

    Within every block the states after the first are substituted out
    through the continuity constraints, leaving one state variable per
    block and a stacked input vector of ``M * nu`` components. All
    blocks are condensed together, one stage position at a time; a
    ragged last block is padded with inert inputs that :func:`expand`
    drops again. ``M = 1`` is the identity transformation,
    ``M = num_stages`` the fully condensed problem. Stage costs must be
    separable (no state-input cross terms) on entry.
    """
    N = qp.num_stages
    if not 1 <= M <= N:
        raise ValueError(f"block size must be within [1, {N}], got {M}")
    if np.any(qp.S):
        raise ValueError("partial condensing expects a separable stage cost")

    nx, nu = qp.nx, qp.nu
    A, B, c, Q, q, R, r, lb, ub, ubar = _blocked(qp, M)
    nb = A.shape[0]
    mU = M * nu
    # rollout map of the current stage: x = T x_s + G U + f
    T = np.broadcast_to(np.eye(nx), (nb, nx, nx))
    G = np.zeros((nb, nx, mU))
    f = np.zeros((nb, nx))
    Qb = np.zeros((nb, nx, nx))
    qb = np.zeros((nb, nx))
    Rb = np.zeros((nb, mU, mU))
    Sb = np.zeros((nb, mU, nx))
    rb = np.zeros((nb, mU))
    for j in range(M):
        # only the columns of earlier inputs, [0, k), are nonzero in G
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
    xb = qp.xbar[:N:M]
    Ub = ubar.reshape(nb, mU)
    x_next = qp.xbar[np.minimum(np.arange(1, nb + 1) * M, N)]
    cqp = OcpQp(
        A=T,
        B=G,
        d=f - (_mv(T, xb) + _mv(G, Ub) - x_next),
        Q=0.5 * (Qb + Qb.swapaxes(1, 2)),
        R=0.5 * (Rb + Rb.swapaxes(1, 2)),
        q=qb,
        r=rb,
        lb=lb.reshape(nb, mU),
        ub=ub.reshape(nb, mU),
        S=Sb,
        Q_N=qp.Q_N.copy(),
        q_N=qp.q_N.copy(),
        x0_residual=qp.x0_residual.copy(),
        xbar=np.concatenate([xb, qp.xbar[N:]]),
        ubar=Ub,
    )
    return CondensedQp(qp=cqp, original=qp, block_size=M)


def expand(sol: QpSolution, cond: CondensedQp) -> QpSolution:
    """Recover the solution of the original QP from a condensed one.

    Eliminated states come from forward simulation of the affine
    dynamics, eliminated equality multipliers from the backward
    stationarity recursion, both run for all blocks at once; input bound
    multipliers transfer directly. Padded inert inputs are dropped.
    """
    qp = cond.original
    M = cond.block_size
    N, nx, nu = qp.B.shape
    nb = cond.qp.num_stages
    if sol.u.shape != (nb, M * nu) or sol.x.shape[0] != nb + 1:
        raise ValueError("solution does not match the condensing metadata")

    A, B, c, Q, q = _blocked(qp, M)[:5]
    U = sol.u.reshape(nb, M, nu)
    X = np.empty((nb, M, nx))
    X[:, 0] = sol.x[:-1]
    for j in range(M - 1):
        X[:, j + 1] = _mv(A[:, j], X[:, j]) + _mv(B[:, j], U[:, j]) + c[:, j]
    # column M holds the multiplier of the next block's first state
    P = np.empty((nb, M + 1, nx))
    P[:, 0] = sol.pi[:-1]
    P[:, M] = sol.pi[1:]
    for j in range(M - 1, 0, -1):
        P[:, j] = _mv(Q[:, j], X[:, j]) + q[:, j] + _mtv(A[:, j], P[:, j + 1])
    out = QpSolution(
        x=np.concatenate([X.reshape(-1, nx)[:N], sol.x[-1:]]),
        u=sol.u.reshape(-1, nu)[:N],
        pi=np.concatenate([P[:, :M].reshape(-1, nx)[:N], sol.pi[-1:]]),
        lam_lo=sol.lam_lo.reshape(-1, nu)[:N],
        lam_hi=sol.lam_hi.reshape(-1, nu)[:N],
        iters=sol.iters,
        status=sol.status,
        linalg_us=sol.linalg_us,
    )
    out.residuals = kkt_residuals(qp, out)
    return out


# ---------------------------------------------------------------------------
# Riccati-recursion primal-dual interior-point method
# ---------------------------------------------------------------------------


def _cholesky(G: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``G``, retried once with regularization."""
    L, info = dpotrf(G, lower=1)
    if info:
        L, info = dpotrf(G + _REGULARIZATION * np.eye(G.shape[0]), lower=1)
        if info:
            raise QpNumericalError("recursion block not positive definite")
    return L


class _RiccatiSweep:
    """Backward factorization of one interior-point Newton system.

    Matrix factors depend only on the barrier-modified Hessian, so one
    sweep serves both the predictor and the corrector right-hand sides.
    """

    def __init__(self, qp: OcpQp, R_bar: np.ndarray):
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
            L = _cholesky(0.5 * (G + G.T))
            K = -dpotrs(L, H, lower=1)[0]
            Pi = Q[i] + A[i].T @ (Pn @ A[i]) + H.T @ K
            self.L[i] = L
            self.K[i] = K
            self.H[i] = H
            P[i] = 0.5 * (Pi + Pi.T)

    def solve(self, rx, ru, re):
        """Newton direction for right-hand sides (−rx, −ru, −re)."""
        A, B = self.qp.A, self.qp.B
        P, L, K, H = self.P, self.L, self.K, self.H
        N = len(L)
        Pre = _mv(P[1:], re[1:])
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
        return dx, du, _mv(P, dx) + p


def _step_to_boundary(v, dv) -> float:
    """Largest alpha with ``v + alpha dv >= 0`` in every entry, for strictly positive ``v``.

    ``v`` and ``dv`` are sequences of equally shaped arrays; the result
    is infinite when no entry of ``dv`` is negative.
    """
    v = np.stack(v)
    dv = np.stack(dv)
    return float(np.min(-v / dv, where=dv < 0, initial=np.inf))


def solve_riccati_ipm(qp: OcpQp, tol: float = 1e-8, max_iters: int = 50) -> QpSolution:
    """Solve the banded QP by a Mehrotra predictor-corrector interior point.

    Every Newton system is factorized by one backward Riccati recursion
    and solved by a forward rollout, so the per-iteration cost is linear
    in the stage count and cubic in the per-stage dimensions. A single
    step length with fraction-to-boundary 0.995 is applied to all
    primal and dual variables.

    Raises :class:`QpNumericalError` if a recursion block stays
    indefinite after one shot of regularization, or if iterates go
    non-finite. Hitting ``max_iters`` is reported through ``status``
    with the best iterate, not raised.
    """
    # slack collapse on pathological data produces inf/nan that the
    # finite-residual check inside turns into QpNumericalError
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _riccati_ipm(qp, tol, max_iters)


def _riccati_ipm(qp: OcpQp, tol: float, max_iters: int) -> QpSolution:
    linalg_ns = 0
    N, nx, nu = qp.B.shape
    c = qp.defects()
    lb, ub = qp.lb, qp.ub
    n_bnd = N * nu
    diag = np.arange(nu)

    # strictly interior start at the bound midpoints, rolled out feasibly
    u = 0.5 * (lb + ub)
    x = np.empty((N + 1, nx))
    x[0] = qp.x0_residual
    for i in range(N):
        x[i + 1] = qp.A[i] @ x[i] + qp.B[i] @ u[i] + c[i]
    pi = np.zeros((N + 1, nx))
    lam_lo = 1.0 / np.maximum(u - lb, 1e-2)
    lam_hi = 1.0 / np.maximum(ub - u, 1e-2)

    status = "max_iterations"
    iters = 0
    for iters in range(max_iters + 1):
        sl = u - lb
        su = ub - u
        rx, ru, re = _residuals(qp, c, x, u, pi, lam_lo, lam_hi)
        rcl = lam_lo * sl
        rcu = lam_hi * su

        stat_norm = max(np.abs(rx).max(), np.abs(ru).max())
        eq_norm = np.abs(re).max()
        compl_norm = max(np.abs(rcl).max(), np.abs(rcu).max())
        if not np.isfinite(stat_norm + eq_norm + compl_norm):
            raise QpNumericalError("non-finite values encountered in interior-point iterate")
        if stat_norm <= tol and eq_norm <= tol and compl_norm <= tol:
            status = "converged"
            break
        if iters == max_iters:
            break

        mu = float(rcl.sum() + rcu.sum()) / (2 * n_bnd)
        R_bar = qp.R.copy()
        R_bar[:, diag, diag] += lam_lo / sl + lam_hi / su
        t0 = time.perf_counter_ns()
        sweep = _RiccatiSweep(qp, R_bar)
        linalg_ns += time.perf_counter_ns() - t0

        # predictor: pure Newton step on the unperturbed KKT system
        ru_eff = ru + rcl / sl - rcu / su
        t0 = time.perf_counter_ns()
        dx_a, du_a, dpi_a = sweep.solve(rx, ru_eff, re)
        linalg_ns += time.perf_counter_ns() - t0
        dll_a = -(rcl + lam_lo * du_a) / sl
        dlh_a = -(rcu - lam_hi * du_a) / su

        alpha_aff = min(
            1.0, _step_to_boundary((sl, su, lam_lo, lam_hi), (du_a, -du_a, dll_a, dlh_a))
        )
        mu_aff = float(
            ((lam_lo + alpha_aff * dll_a) * (sl + alpha_aff * du_a)).sum()
            + ((lam_hi + alpha_aff * dlh_a) * (su - alpha_aff * du_a)).sum()
        ) / (2 * n_bnd)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector: recentered with Mehrotra second-order terms
        rcl = rcl + du_a * dll_a - sigma * mu
        rcu = rcu - du_a * dlh_a - sigma * mu
        ru_eff = ru + rcl / sl - rcu / su
        t0 = time.perf_counter_ns()
        dx, du, dpi = sweep.solve(rx, ru_eff, re)
        linalg_ns += time.perf_counter_ns() - t0
        dll = -(rcl + lam_lo * du) / sl
        dlh = -(rcu - lam_hi * du) / su

        alpha = min(
            1.0 / _FRACTION_TO_BOUNDARY,
            _step_to_boundary((sl, su, lam_lo, lam_hi), (du, -du, dll, dlh)),
        )
        alpha = min(1.0, _FRACTION_TO_BOUNDARY * alpha)

        x = x + alpha * dx
        pi = pi + alpha * dpi
        u = u + alpha * du
        lam_lo = lam_lo + alpha * dll
        lam_hi = lam_hi + alpha * dlh

    sol = QpSolution(
        x=x,
        u=u,
        pi=pi,
        lam_lo=lam_lo,
        lam_hi=lam_hi,
        iters=iters,
        status=status,
        linalg_us=linalg_ns / 1000.0,
    )
    sol.residuals = kkt_residuals(qp, sol)
    return sol


# ---------------------------------------------------------------------------
# fully condensed dense baseline
# ---------------------------------------------------------------------------


def _box_qp_dense(H, g, lb, ub, tol, max_iters):
    """Mehrotra interior point for ``min 0.5 z'Hz + g'z, lb <= z <= ub``.

    Dense normal equations, one Cholesky-backed solve per predictor and
    corrector step. Returns ``(z, lam_lo, lam_hi, iters, status, linalg_us)``.
    """
    linalg_ns = 0
    n = H.shape[0]
    z = 0.5 * (lb + ub)
    lam_lo = 1.0 / np.maximum(z - lb, 1e-2)
    lam_hi = 1.0 / np.maximum(ub - z, 1e-2)
    status = "max_iterations"
    iters = 0
    for iters in range(max_iters + 1):
        sl = z - lb
        su = ub - z
        r = H @ z + g - lam_lo + lam_hi
        compl = max(np.abs(lam_lo * sl).max(), np.abs(lam_hi * su).max())
        if not np.isfinite(np.abs(r).max() + compl):
            raise QpNumericalError("non-finite values encountered in interior-point iterate")
        if np.abs(r).max() <= tol and compl <= tol:
            status = "converged"
            break
        if iters == max_iters:
            break
        mu = float(lam_lo @ sl + lam_hi @ su) / (2 * n)
        D = lam_lo / sl + lam_hi / su
        t0 = time.perf_counter_ns()
        M = H.copy()
        M.flat[:: n + 1] += D
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            try:
                M.flat[:: n + 1] += _REGULARIZATION
                L = np.linalg.cholesky(M)
            except np.linalg.LinAlgError as exc:
                raise QpNumericalError("dense Newton matrix not positive definite") from exc
        linalg_ns += time.perf_counter_ns() - t0

        rcl = lam_lo * sl
        rcu = lam_hi * su
        t0 = time.perf_counter_ns()
        dz_a = -sla.cho_solve((L, True), r + rcl / sl - rcu / su, check_finite=False)
        linalg_ns += time.perf_counter_ns() - t0
        dll_a = -(rcl + lam_lo * dz_a) / sl
        dlh_a = -(rcu - lam_hi * dz_a) / su
        alpha_aff = min(
            1.0, _step_to_boundary((sl, su, lam_lo, lam_hi), (dz_a, -dz_a, dll_a, dlh_a))
        )
        mu_aff = (
            float(
                (lam_lo + alpha_aff * dll_a) @ (sl + alpha_aff * dz_a)
                + (lam_hi + alpha_aff * dlh_a) @ (su - alpha_aff * dz_a)
            )
            / (2 * n)
        )
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        rcl = rcl + dz_a * dll_a - sigma * mu
        rcu = rcu - dz_a * dlh_a - sigma * mu
        t0 = time.perf_counter_ns()
        dz = -sla.cho_solve((L, True), r + rcl / sl - rcu / su, check_finite=False)
        linalg_ns += time.perf_counter_ns() - t0
        dll = -(rcl + lam_lo * dz) / sl
        dlh = -(rcu - lam_hi * dz) / su
        alpha = min(
            1.0,
            _FRACTION_TO_BOUNDARY
            * _step_to_boundary((sl, su, lam_lo, lam_hi), (dz, -dz, dll, dlh)),
        )
        z = z + alpha * dz
        lam_lo = lam_lo + alpha * dll
        lam_hi = lam_hi + alpha * dlh
    return z, lam_lo, lam_hi, iters, status, linalg_ns / 1000.0


def solve_condensed_dense(cqp: OcpQp, tol: float = 1e-8, max_iters: int = 50) -> QpSolution:
    """Solve a fully condensed QP (one stage plus the terminal state) densely.

    The fixed initial state and the terminal state are substituted out,
    and the remaining box QP in the stacked inputs is solved by a dense
    interior point with Cholesky factorizations. The solution is that of
    ``cqp``; :func:`expand` maps it back to the original stages.
    """
    if cqp.num_stages != 1:
        raise ValueError("the dense solver expects a fully condensed QP")
    A, B, S, Q = cqp.A[0], cqp.B[0], cqp.S[0], cqp.Q[0]
    b0 = cqp.x0_residual
    c0 = cqp.defects()[0]
    H = cqp.R[0] + B.T @ (cqp.Q_N @ B)
    H = 0.5 * (H + H.T)
    g = cqp.r[0] + S @ b0 + B.T @ (cqp.Q_N @ (A @ b0 + c0) + cqp.q_N)
    # slack collapse on pathological data is caught by the finite check
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        U, lam_lo, lam_hi, iters, status, linalg_us = _box_qp_dense(
            H, g, cqp.lb[0], cqp.ub[0], tol, max_iters
        )
    xN = A @ b0 + B @ U + c0
    piN = cqp.Q_N @ xN + cqp.q_N
    pi0 = Q @ b0 + S.T @ U + cqp.q[0] + A.T @ piN
    return QpSolution(
        x=np.array([b0, xN]),
        u=U[None],
        pi=np.array([pi0, piN]),
        lam_lo=lam_lo[None],
        lam_hi=lam_hi[None],
        iters=iters,
        status=status,
        linalg_us=linalg_us,
    )


def solve_dense_ipm(qp: OcpQp, tol: float = 1e-8, max_iters: int = 50) -> QpSolution:
    """Condense the full horizon, solve the dense box QP, and expand back.

    The baseline pipeline: all state deviations are eliminated, the
    remaining problem in the stacked inputs is solved by a dense
    interior point with Cholesky factorizations, and the stage-wise
    solution is reconstructed.
    """
    cond = partial_condense(qp, qp.num_stages)
    return expand(solve_condensed_dense(cond.qp, tol, max_iters), cond)
