"""Stage-banded optimal-control QPs and their interior-point solvers.

The problem class is

    min   sum_i  0.5 w_i' H_i w_i + h_i' w_i      w_i = (x_i, u_i), w_N = x_N
    s.t.  x_0 = b0
          x_{i+1} = A_i x_i + B_i u_i + c_i        i = 0..N-1
          lb_i <= u_i <= ub_i                      i = 0..N-1

with H_i = [[Q_i, S_i'], [S_i, R_i]] and h_i = (q_i, r_i). There is one
solver, a Riccati-recursion primal-dual interior-point method whose cost
is linear in the number of stages. Partial condensing eliminates the
intermediate states in blocks of ``M`` stages before it runs; the
"dense" pipeline is full condensing (``M = N``), where the fixed initial
state is eliminated and the recursion reduces to one dense Cholesky
factorization per iteration (cubic in horizon times input size). Such a
one-stage QP skips all per-stage work: an iteration is that
factorization, two ``dpotrs`` solves with a few products of the stage-0
blocks, a rewrite of the barrier diagonal in a buffer the solve keeps,
and the whole-array residual and step-length bookkeeping.

The stage data is held as stacked arrays with the stage index first, so
residuals, complementarity and step lengths are whole-array operations;
only the backward Riccati factorization and the condensing recursions
loop over stages. The interior point's stage recursions (the Newton
solve's backward and forward ones and the starting rollout) are each one
banded triangular solve, and its point and step each live in one array
for the whole solve.

In an SQP the variables are deviations from the linearization
trajectory ``(X, U)``, and the continuity constant is its shooting defect
``c_i = F(X_i, U_i) - X_{i+1}``, which vanishes on a dynamically feasible
trajectory; HPIPM stores the dynamics offset the same way.

Solver calls keep all workspace local and never mutate the QP data, so
concurrent solves of distinct problem objects are safe; a single solve
is single-threaded.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtbtrs, dtrtri


class QpNumericalError(RuntimeError):
    """The interior point cannot go on: a factorization failed beyond recoverable
    regularization, an iterate went non-finite, or a bound slack reached zero."""


# the interior point's default stopping tolerance and iteration limit
QP_TOL = 1e-8
QP_MAX_ITERS = 50

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
    ``c, q (N,nx)`` and ``r, lb, ub (N,nu)``, with ``c`` the continuity
    constants. ``S`` defaults to zero. Shapes and bound ordering are
    validated once, on construction.
    """

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
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

    def __post_init__(self):
        if self.B.ndim != 3 or self.B.shape[0] < 1:
            raise ValueError("input matrices must be stacked as (N, nx, nu) with N >= 1")
        N, nx, nu = self.B.shape
        if self.S is None:
            self.S = np.zeros((N, nu, nx))
        expected = {
            "A": (N, nx, nx), "S": (N, nu, nx), "Q": (N, nx, nx), "R": (N, nu, nu),
            "c": (N, nx), "q": (N, nx), "r": (N, nu), "lb": (N, nu), "ub": (N, nu),
            "Q_N": (nx, nx), "q_N": (nx,), "x0_residual": (nx,),
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


@dataclass
class CondensedQp:
    """A partially condensed QP plus everything needed to undo the condensing."""

    qp: OcpQp
    original: OcpQp


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
    """Primal-dual solution and the KKT residuals at that point.

    ``x`` and ``pi`` are (N+1, nx), ``u``, ``lam_lo`` and ``lam_hi``
    (N, nu). ``linalg_us`` accumulates the time spent factorizing and
    solving the Newton systems (the part whose cost scales with the
    problem shape), the first factorization included, excluding residual
    bookkeeping. A solution returned by the interior point also carries
    the factorization of its last Newton step, ``sweep``, and the barrier
    diagonal ``lam / s`` (2, N, nu) that factorization was formed with,
    for :func:`tangential_predictor`; a solve that stops before its first
    step carries those of its start.
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
    sweep: _RiccatiSweep | None = None
    barrier: np.ndarray | None = None


def _residual_views(r: np.ndarray, N: int, nx: int, nu: int):
    """Views ``rx (N+1, nx)``, ``ru (N, nu)`` and ``re (N+1, nx)`` of the residuals
    held in one array ``r``; its first ``(N+1) nx + N nu`` entries are the stationarity."""
    n_x, n_u = (N + 1) * nx, N * nu
    return (
        r[:n_x].reshape(N + 1, nx),
        r[n_x : n_x + n_u].reshape(N, nu),
        r[n_x + n_u :].reshape(N + 1, nx),
    )


def _residuals(qp: OcpQp, x, u, pi, lam_lo, lam_hi, r: np.ndarray) -> None:
    """Write the stationarity ``(rx, ru)`` and equality ``re`` residuals of a primal-dual
    point into the views of ``r`` (:func:`_residual_views`).

    ``re[0]`` is the initial-condition residual.
    """
    N = qp.num_stages
    rx, ru, re = _residual_views(r, N, qp.nx, qp.nu)
    rx[:N] = _mv(qp.Q, x[:-1]) + _mtv(qp.S, u) + qp.q + _mtv(qp.A, pi[1:]) - pi[:-1]
    rx[N] = qp.Q_N @ x[N] + qp.q_N - pi[N]
    np.add(_mv(qp.R, u) + _mv(qp.S, x[:-1]) + qp.r + _mtv(qp.B, pi[1:]) - lam_lo, lam_hi, out=ru)
    re[0] = x[0] - qp.x0_residual
    re[1:] = x[1:] - _mv(qp.A, x[:-1]) - _mv(qp.B, u) - qp.c


def kkt_residuals(qp: OcpQp, sol: QpSolution) -> KktResiduals:
    """Infinity norms of the four KKT residual groups at ``sol``."""
    N, nx, nu = qp.B.shape
    r = np.empty(2 * (N + 1) * nx + N * nu)
    _residuals(qp, sol.x, sol.u, sol.pi, sol.lam_lo, sol.lam_hi, r)
    v = np.empty((2, 2) + sol.u.shape)
    np.subtract(sol.u, qp.lb, out=v[0, 0])
    np.subtract(qp.ub, sol.u, out=v[0, 1])
    v[1] = sol.lam_lo, sol.lam_hi
    return _kkt_norms(r, (N + 1) * nx + N * nu, v, v[1] * v[0])


def _kkt_norms(r, n_stat, v, rc) -> KktResiduals:
    """The norms of the residuals ``r`` from :func:`_residuals`, whose first ``n_stat``
    entries are the stationarity, of the bound slacks and duals ``v`` stacked
    (2, 2, N, nu) as in the IPM, and of the complementarity ``rc``."""
    a = np.abs(r)
    return KktResiduals(
        stationarity=float(a[:n_stat].max()),
        equality=float(a[n_stat:].max()),
        inequality=float(max(0.0, -v.min())),
        complementarity=float(np.abs(rc).max()),
    )


# ---------------------------------------------------------------------------
# partial condensing
# ---------------------------------------------------------------------------


def _blocked(qp: OcpQp, M: int):
    """Stage data regrouped into blocks of ``M`` stages, each array (nb, M, ...).

    Returns ``A, B, c, Q, q, R, r, lb, ub``. When ``M`` does not divide
    ``N`` the last block is padded with inert stages: identity dynamics,
    no state cost, and an input with unit cost, zero gradient, bounds +-1
    and no effect on the state, whose optimal value is therefore zero.
    """
    N, nx, nu = qp.B.shape
    arrays = [qp.A, qp.B, qp.c, qp.Q, qp.q, qp.R, qp.r, qp.lb, qp.ub]
    pad = -N % M
    if pad:
        fills = [np.eye(nx), 0.0, 0.0, 0.0, 0.0, np.eye(nu), 0.0, -1.0, 1.0]
        arrays = [
            np.concatenate([a, np.broadcast_to(fill, (pad,) + a.shape[1:])])
            for a, fill in zip(arrays, fills)
        ]
    return [a.reshape((-1, M) + a.shape[1:]) for a in arrays]


@functools.lru_cache(maxsize=64)
def _hessian_indices(nx: int, nu: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into a condensed block Hessian in ``(x_s, u_0, ..., u_{M-1})``.

    Returns the strict lower triangle, the mirror image of each of its
    entries, and the entries of the ``M`` diagonal input blocks, block by
    block in row-major order.
    """
    n = nx + M * nu
    i, j = np.tril_indices(n, -1)
    start = nx + nu * np.arange(M)[:, None, None]
    rows = start + np.arange(nu)[:, None]
    cols = start + np.arange(nu)[None, :]
    return i * n + j, j * n + i, (rows * n + cols).ravel()


def partial_condense(qp: OcpQp, M: int) -> CondensedQp:
    """Eliminate intermediate states in blocks of ``M`` stages.

    Within every block the states after the first are substituted out
    through the continuity constraints, leaving one state variable per
    block and a stacked input vector of ``M * nu`` components. All
    blocks are condensed together by HPIPM's recursion: a backward pass
    carries the state cost back through the dynamics,
    ``P_j = Q_j + A_j' P_{j+1} A_j`` from ``P_M = 0``, and a forward pass
    over the rollout ``x_j = T_j x_s + G_j U + f_j`` forms the Hessian
    column block of input ``j`` as ``[T_{j+1} G_{j+1}]' P_{j+1} B_j``, so
    the cost per block grows with the square of ``M``. A ragged last
    block is padded with inert inputs that :func:`expand` drops again.
    ``M = 1`` is the identity transformation; a block never spans more
    than the horizon, so any ``M >= num_stages`` gives the fully condensed
    problem. Stage costs must be separable (no state-input cross terms)
    on entry.
    """
    N = qp.num_stages
    if M < 1:
        raise ValueError(f"block size must be at least 1, got {M}")
    M = min(M, N)
    if np.any(qp.S):
        raise ValueError("partial condensing expects a separable stage cost")

    nx, nu = qp.nx, qp.nu
    A, B, c, Q, q, R, r, lb, ub = _blocked(qp, M)
    nb = A.shape[0]
    nw = nx + M * nu
    # backward, from P_{M-1} = Q_{M-1}: P_{j+1} B_j for every stage but the
    # last (whose P_M is zero), kept next to a column for the gradient below
    PBw = np.empty((nb, M - 1, nx, nu + 1))
    P = Q[:, M - 1]
    for j in range(M - 2, -1, -1):
        np.matmul(P, B[:, j], out=PBw[:, j, :, :nu])
        P = A[:, j].swapaxes(1, 2) @ (P @ A[:, j])
        P += Q[:, j]
    # forward: the rollout offsets f_j (x_s = 0, U = 0) of every stage, and
    # the gradient column of the products below, Q_{j+1} f_{j+1} + q_{j+1}
    F = np.empty((nb, M, nx))
    F[:, 0] = 0.0
    for j in range(M - 1):
        F[:, j + 1] = _mv(A[:, j], F[:, j]) + c[:, j]
    f = _mv(A[:, M - 1], F[:, M - 1]) + c[:, M - 1]
    PBw[:, :, :, nu] = _mv(Q[:, 1:], F[:, 1:]) + q[:, 1:]
    # TG = [T_{j+1} G_{j+1}], the rollout after stage j, has its first
    # nx + (j+1) nu columns nonzero. W is the block's Hessian in (x_s, U),
    # filled in its upper triangle, and g its gradient
    TG = np.zeros((nb, nx, nw))
    TG[:, :, :nx] = A[:, 0]
    TG[:, :, nx : nx + nu] = B[:, 0]
    W = np.zeros((nb, nw, nw))
    W[:, :nx, :nx] = P
    g = np.empty((nb, nw))
    g[:, :nx] = q[:, 0]
    g[:, nx:] = r.reshape(nb, -1)
    for j in range(M - 1):
        # one product gives input j's Hessian column and stage j+1's gradient
        k = nx + (j + 1) * nu
        H = TG[:, :, :k].swapaxes(1, 2) @ PBw[:, j]
        W[:, :k, k - nu : k] = H[:, :, :nu]
        g[:, :k] += H[:, :, nu]
        TG[:, :, :k] = A[:, j + 1] @ TG[:, :, :k]
        TG[:, :, k : k + nu] = B[:, j + 1]
    lower, upper, diagonal = _hessian_indices(nx, nu, M)
    W = W.reshape(nb, -1)
    W[:, diagonal] += R.reshape(nb, -1)
    W[:, lower] = W[:, upper]
    W = W.reshape(nb, nw, nw)
    cqp = OcpQp(
        A=TG[:, :, :nx],
        B=TG[:, :, nx:],
        c=f,
        Q=W[:, :nx, :nx],
        R=W[:, nx:, nx:],
        q=g[:, :nx],
        r=g[:, nx:],
        lb=lb.reshape(nb, -1),
        ub=ub.reshape(nb, -1),
        S=W[:, nx:, :nx],
        Q_N=qp.Q_N.copy(),
        q_N=qp.q_N.copy(),
        x0_residual=qp.x0_residual.copy(),
    )
    return CondensedQp(qp=cqp, original=qp)


def expand(sol: QpSolution, cond: CondensedQp) -> QpSolution:
    """Recover the solution of the original QP from a condensed one.

    Eliminated states come from forward simulation of the affine
    dynamics, eliminated equality multipliers from the backward
    stationarity recursion, both run for all blocks at once. The input
    and gradient terms of every stage are formed in one product each
    beforehand, so a step of either recursion is one product and one add.
    Input bound multipliers transfer directly. Padded inert inputs are
    dropped.
    """
    qp = cond.original
    N, nx, nu = qp.B.shape
    M = cond.qp.nu // nu
    nb = cond.qp.num_stages
    if sol.u.shape != (nb, M * nu) or sol.x.shape[0] != nb + 1:
        raise ValueError("solution does not match the condensing metadata")

    A, B, c, Q, q = _blocked(qp, M)[:5]
    U = sol.u.reshape(nb, M, nu)
    X = np.empty((nb, M, nx))
    X[:, 0] = sol.x[:-1]
    # the input and constant terms of every step at once: x_{j+1} = A_j x_j + (B_j u_j + c_j)
    drift = _mv(B, U) + c
    for j in range(M - 1):
        np.add(_mv(A[:, j], X[:, j]), drift[:, j], out=X[:, j + 1])
    # column M holds the multiplier of the next block's first state;
    # p_j = A_j' p_{j+1} + (Q_j x_j + q_j)
    P = np.empty((nb, M + 1, nx))
    P[:, 0] = sol.pi[:-1]
    P[:, M] = sol.pi[1:]
    gradient = _mv(Q, X) + q
    for j in range(M - 1, 0, -1):
        np.add(_mtv(A[:, j], P[:, j + 1]), gradient[:, j], out=P[:, j])
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


def _regularized_cholesky(G: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``G`` plus a small regularization, for when
    ``dpotrf`` failed on ``G`` itself."""
    L, info = dpotrf(G + _REGULARIZATION * np.eye(G.shape[0]), lower=1)
    if info:
        raise QpNumericalError("recursion block not positive definite")
    return L


def _unit_lower_band(C: np.ndarray) -> np.ndarray:
    """LAPACK band storage of the unit lower block-bidiagonal matrix with ``-C[k]``
    below diagonal block ``k``, for ``dtbtrs`` with ``uplo="L"``, ``diag="U"``.

    Solving with it runs the recursion ``y_{k+1} = C_k y_k + b_{k+1}`` from
    ``y_0 = b_0``; solving with its transpose runs
    ``y_k = C_k' y_{k+1} + b_k`` back from ``y_n = b_n``. The matrix has
    ``2 nx - 1`` sub-diagonals; the band is (2 nx, (n + 1) nx), in Fortran
    order, with the unit diagonal in its first row left unreferenced.
    """
    n, nx, _ = C.shape
    band = np.zeros(((n + 1) * nx, 2 * nx))
    # entry (r, c) of block k sits in row k nx + c of the buffer, at column nx + r - c
    item = band.itemsize
    blocks = np.ndarray(
        (n, nx, nx), buffer=band, offset=nx * item,
        strides=(2 * nx * nx * item, item, (2 * nx - 1) * item),
    )
    np.negative(C, out=blocks)
    return band.T


def _band_solve(band: np.ndarray, y: np.ndarray, trans: str = "N") -> None:
    """Overwrite the stacked right-hand sides ``y (n + 1, nx)``, a C-contiguous array,
    with the solution of ``band`` (``trans="T"``: its transpose) from :func:`_unit_lower_band`."""
    dtbtrs(band, y.reshape(-1), uplo="L", trans=trans, diag="U", overwrite_b=1)


class _RiccatiSweep:
    """Backward factorization of one interior-point Newton system, x0 eliminated.

    Stage ``i`` forms ``M = [B A]' P_{i+1} [B A] + W_i`` from the stacked
    dynamics ``BA[i] = [B_i A_i]`` and stage Hessian
    ``W[i] = [[R_bar_i, S_i], [S_i', Q_i]]``. The last stage's ``W``
    already holds the terminal product ``[B A]' Q_N [B A]``
    (:func:`_stacked_stages` adds it once per QP), so there ``M`` is
    ``W`` itself. Every stage after the first factorizes its input block
    ``G_i = L_i L_i'`` and inverts the factor, so that with
    ``V_i = L_i^-1 H_i`` the next cost-to-go is ``P_i = Q_bar_i - V_i' V_i``,
    written by one subtraction and not symmetrized (its asymmetry stays at
    rounding level);
    the gains ``K_i = -G_i^-1 H_i``, the inverse input blocks, the
    closed-loop matrices ``A_i + B_i K_i`` and the band of the solve's two
    recursions (:func:`_unit_lower_band` of the closed-loop matrices) are
    formed for all of them after the loop. The initial state is fixed, so
    stage 0 keeps only the Cholesky factor of ``G_0`` and the rest of its
    ``M``: no inverse, gain or cost-to-go. One sweep serves both the
    predictor and the corrector right-hand sides, and a solve's last
    sweep also the tangential predictor's (:func:`tangential_predictor`).

    A fully condensed QP has stage 0 alone, and the stages after it are
    skipped, not run on empty arrays: its sweep is one dense Cholesky
    factorization, and its solve one ``dpotrs`` plus a few products with
    the stage-0 blocks.
    """

    def __init__(self, A, B, BA, W, Q_N):
        N, nx, nu = B.shape
        self.B, self.A0, self.BA0 = B, A[0], BA[0]
        self.P = P = np.empty((N + 1, nx, nx))
        P[N] = Q_N
        M = W[N - 1]
        if N > 1:
            L_inv = np.empty((N - 1, nu, nu))
            V = np.empty((N - 1, nu, nx))
            for i in range(N - 1, 0, -1):
                L, info = dpotrf(M[:nu, :nu], lower=1)
                if info:
                    L = _regularized_cholesky(M[:nu, :nu])
                L_inv[i - 1] = Li = dtrtri(L, lower=1)[0]
                Vi = np.matmul(Li, M[:nu, nu:], out=V[i - 1])
                np.subtract(M[nu:, nu:], Vi.T @ Vi, out=P[i])
                M = BA[i - 1].T @ (P[i] @ BA[i - 1])
                M += W[i - 1]
            L_invT = L_inv.swapaxes(1, 2)
            self.G_inv = L_invT @ L_inv
            self.K = K = -(L_invT @ V)
            self.A_cl = A[1:] + B[1:] @ K
            self.band = _unit_lower_band(self.A_cl)
        L, info = dpotrf(M[:nu, :nu], lower=1)
        self.L0 = _regularized_cholesky(M[:nu, :nu]) if info else L
        self.H0, self.M0x = M[:nu, nu:], M[nu:]

    def solve(self, rx, ru, re, dx, du, dpi=None):
        """Write the Newton direction for right-hand sides (−rx, −ru, −re) into
        ``dx``, ``du`` and, unless it is ``None``, ``dpi``.

        Backward, ``p_i = a_i + (A_i + B_i K_i)' p_{i+1}`` down to stage 1;
        ``du_0`` from one solve with ``G_0`` at the fixed ``dx_0 = -re_0``;
        forward, ``dx_{i+1} = (A_i + B_i K_i) dx_i + e_i``; ``dpi_0`` from
        the stationarity of stage 0, whose ``M`` rows carry ``A_0' P_1``.
        Each recursion is one banded triangular solve (``dtbtrs``) with the
        sweep's band, the backward one transposed; the offsets ``a`` and
        ``e``, the feedforward ``k`` and the other steps are whole-array
        operations. ``dx`` must be C-contiguous.
        """
        P, B = self.P, self.B
        N, _, nu = B.shape
        Pre = _mv(P[1:], re[1:])
        # p[i - 1] = p_i, i = 1..N
        p = np.empty((N, rx.shape[1]))
        p[N - 1] = rx[N]
        if N > 1:
            K = self.K
            np.subtract(rx[1:N] + _mtv(K, ru[1:]), _mtv(self.A_cl, Pre[1:]), out=p[:-1])
            _band_solve(self.band, p, "T")
        m = p - Pre
        # w0 = (du_0, dx_0), with dx_0 = -re_0
        g0 = ru[0] + np.dot(m[0], B[0])
        w0 = np.concatenate((dpotrs(self.L0, np.dot(self.H0, re[0]) - g0, lower=1)[0], -re[0]))
        dx[0] = w0[nu:]
        dx[1] = np.dot(self.BA0, w0) - re[1]
        du[0] = w0[:nu]
        if N > 1:
            k = -_mv(self.G_inv, ru[1:] + _mtv(B[1:], m[1:]))
            np.subtract(_mv(B[1:], k), re[2:], out=dx[2:])
            _band_solve(self.band, dx[1:])
            np.add(_mv(K, dx[1:-1]), k, out=du[1:])
        if dpi is not None:
            np.add(_mv(P[1:], dx[1:]), p, out=dpi[1:])
            dpi[0] = rx[0] + np.dot(self.M0x, w0) + np.dot(m[0], self.A0)


# +1 for the lower bound slack u - lb, -1 for the upper one ub - u
_SIDE = np.array([1.0, -1.0])[:, None, None]


def _add_barrier(W_bar: np.ndarray, W: np.ndarray, D: np.ndarray) -> None:
    """Write the input diagonal of the stage Hessians ``W`` plus the barrier ``D (N, nu)``
    into ``W_bar``, a buffer that equals ``W`` everywhere else; nothing else is written."""
    N, nu = D.shape
    diagonal = np.s_[:, : nu * (W.shape[1] + 1) : W.shape[1] + 1]
    np.add(W.reshape(N, -1)[diagonal], D, out=W_bar.reshape(N, -1)[diagonal])


def _zero_slack(s: np.ndarray) -> str:
    """The error for the first bound slack of ``s (2, N, nu)`` that is not positive."""
    side, i, j = np.unravel_index(np.argmin(s > 0.0), s.shape)
    return (
        f"the {('lower', 'upper')[side]} bound slack of input {j} at stage {i} reached "
        f"{s[side, i, j]:.3g}, so the barrier diagonal lam / s is not finite"
    )


def _bound_steps(du, rc, s, lam, dv: np.ndarray) -> None:
    """Write the slack and dual steps ``(ds, dlam)`` of the input step ``du`` into
    ``dv (2, 2, N, nu)``, for complementarity residuals ``rc``, slacks ``s`` and duals ``lam``."""
    np.multiply(_SIDE, du, out=dv[0])
    np.divide(-(rc + lam * dv[0]), s, out=dv[1])


def _step_to_boundary(v: np.ndarray, dv: np.ndarray, fraction: float) -> float:
    """``fraction`` of the largest ``alpha`` with ``v + alpha dv >= 0`` in every entry, at most 1.

    For strictly positive ``v`` the largest step is ``1 / max(-dv / v)``,
    unbounded when no entry of ``dv`` is negative.
    """
    return fraction / max(fraction, -float((dv / v).min()))


def _stacked_stages(qp: OcpQp) -> tuple[np.ndarray, np.ndarray]:
    """The stage data of ``qp`` as one interior-point solve forms it once:
    ``BA (N,nx,nu+nx)`` the dynamics ``[B A]`` and ``W (N,nu+nx,nu+nx)`` the
    Hessians ``[[R, S], [S', Q]]``, the last stage's with the terminal
    product ``[B A]' Q_N [B A]`` added."""
    N, nx, nu = qp.B.shape
    BA = np.concatenate([qp.B, qp.A], axis=2)
    W = np.empty((N, nu + nx, nu + nx))
    W[:, :nu, :nu] = qp.R
    W[:, :nu, nu:] = qp.S
    W[:, nu:, :nu] = qp.S.swapaxes(1, 2)
    W[:, nu:, nu:] = qp.Q
    # only the barrier diagonal changes between iterations, so the last
    # stage's terminal product is formed once per QP
    W[-1] += BA[-1].T @ (qp.Q_N @ BA[-1])
    return BA, W


def solve_riccati_ipm(qp: OcpQp, tol: float = QP_TOL, max_iters: int = QP_MAX_ITERS) -> QpSolution:
    """Solve the banded QP by a Mehrotra predictor-corrector interior point.

    Every Newton system is factorized by one backward Riccati recursion
    and solved by a forward rollout, so the per-iteration cost is linear
    in the stage count and cubic in the per-stage dimensions. A single
    step length with fraction-to-boundary 0.995 is applied to all
    primal and dual variables.

    Raises :class:`QpNumericalError` if a recursion block stays
    indefinite after one shot of regularization, if iterates go
    non-finite, or if a bound slack rounds to zero before a factorization
    (the message names that slack). Hitting ``max_iters`` is reported through ``status``
    with the best iterate, not raised.
    """
    return _ipm(qp, tol, max_iters)


def solve_condensed_dense(cqp: OcpQp, tol: float = QP_TOL, max_iters: int = QP_MAX_ITERS) -> QpSolution:
    """Solve a fully condensed QP (one stage plus the terminal state).

    The interior point of :func:`solve_riccati_ipm`, on one stage: with
    the initial state eliminated and the terminal product prepared, each
    iteration factorizes the dense ``R_bar + B' Q_N B`` once by Cholesky
    and solves with that factor twice, once for the predictor's input step
    and once for the corrector's full step; no per-stage recursion runs.
    The solution is that of ``cqp``; :func:`expand` maps it back to the
    original stages. The separate name keeps an iteration count taken at
    :func:`solve_riccati_ipm` to the banded pipeline.
    """
    if cqp.num_stages != 1:
        raise ValueError("the dense solver expects a fully condensed QP")
    return _ipm(cqp, tol, max_iters)


def tangential_predictor(sol: QpSolution, b0: np.ndarray) -> QpSolution:
    """``sol`` moved to first order to the QP whose ``x0_residual`` is larger by ``b0``.

    ``sol`` is a solution the interior point returned. Its last Newton
    factorization (``sol.sweep``) makes one solve whose right-hand side is
    zero except the initial-condition residual ``-b0``, so that
    ``dx_0 = b0``; the bound duals follow the linearized complementarity,
    ``dlam = -(lam / s) ds``, with the barrier diagonal ``sol.barrier`` that
    factorization was formed with. At a converged barrier solution this is
    the tangential predictor of the parametric QP (advanced-step NMPC):
    inputs at strongly active bounds barely move, and the others move as
    the unconstrained optimum does. Nothing is factorized, and the bounds
    are not enforced on the step. The result carries ``sol``'s iteration
    count, status and ``linalg_us`` and no residuals.
    """
    N, nu = sol.u.shape
    nx = sol.x.shape[1]
    rhs = np.zeros(2 * (N + 1) * nx + N * nu)
    rx, ru, re = _residual_views(rhs, N, nx, nu)
    re[0] = -np.asarray(b0, dtype=float)
    dx, dpi, du = np.empty((N + 1, nx)), np.empty((N + 1, nx)), np.empty((N, nu))
    sol.sweep.solve(rx, ru, re, dx, du, dpi)
    # ds = _SIDE du, and dlam = -(lam / s) ds
    dlam = -sol.barrier * (_SIDE * du)
    return QpSolution(
        x=sol.x + dx,
        u=sol.u + du,
        pi=sol.pi + dpi,
        lam_lo=sol.lam_lo + dlam[0],
        lam_hi=sol.lam_hi + dlam[1],
        iters=sol.iters,
        status=sol.status,
        linalg_us=sol.linalg_us,
    )


def stage0_tangential_step(sol: QpSolution, b0: np.ndarray) -> np.ndarray:
    """Stage 0's input step of :func:`tangential_predictor`, without the other stages.

    With a right-hand side that is zero except ``re_0 = -b0``, the sweep's
    backward recursion yields ``p = 0`` and ``g_0 = 0``, so
    :meth:`_RiccatiSweep.solve` finds ``du_0`` by one ``dpotrs`` with the
    stage-0 input block: the same floating-point operations, so
    ``sol.u[0] + stage0_tangential_step(sol, b0)`` equals
    ``tangential_predictor(sol, b0).u[0]`` bit for bit.
    """
    sweep = sol.sweep
    return dpotrs(sweep.L0, np.dot(sweep.H0, -np.asarray(b0, dtype=float)), lower=1)[0]


def _point(z: np.ndarray, N: int, nx: int, nu: int):
    """Views ``x, pi (N+1, nx)``, ``u (N, nu)`` and the bound slacks and duals
    ``v (2, 2, N, nu)`` of a primal-dual point held in one array ``z``."""
    n_x, n_u = (N + 1) * nx, N * nu
    return (
        z[:n_x].reshape(N + 1, nx),
        z[n_x : 2 * n_x].reshape(N + 1, nx),
        z[2 * n_x : 2 * n_x + n_u].reshape(N, nu),
        z[2 * n_x + n_u :].reshape(2, 2, N, nu),
    )


# slack collapse on pathological data produces inf/nan that the
# finite-residual check turns into QpNumericalError; a slack that rounds
# to zero raises, naming it, before the barrier diagonal is formed from it
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _ipm(qp: OcpQp, tol: float, max_iters: int) -> QpSolution:
    N, nx, nu = qp.B.shape
    BA, W = _stacked_stages(qp)
    bounds = np.stack((qp.lb, qp.ub))
    n_bnd = 2 * N * nu
    n_stat = (N + 1) * nx + N * nu

    # the point and its step, each one array: x, pi, u, then the slacks
    # and bound duals side by side, for one step-to-boundary test
    z = np.empty(2 * (N + 1) * nx + 5 * N * nu)
    dz = np.empty_like(z)
    x, pi, u, v = _point(z, N, nx, nu)
    dx, dpi, du, dv = _point(dz, N, nx, nu)
    s, lam = v
    # the residuals, one array for one norm pass
    r = np.empty(n_stat + (N + 1) * nx)
    rx, ru, re = _residual_views(r, N, nx, nu)
    # the predictor's slack and dual steps
    dv_a = np.empty_like(v)
    # a strictly interior start: the bound midpoints, rolled out feasibly
    # from the initial state
    u[:] = 0.5 * (qp.lb + qp.ub)
    x[0] = qp.x0_residual
    x[1:] = _mv(qp.B, u) + qp.c
    _band_solve(_unit_lower_band(qp.A), x)
    pi[:] = 0.0
    lam[:] = 1.0 / np.maximum(_SIDE * (u - bounds), 1e-2)
    # the barrier Hessians of every iteration, of which only the input diagonal changes
    W_bar = W.copy()
    # the barrier diagonal lam / s of the last factorization, per side
    D = np.empty_like(s)
    linalg_ns = 0

    def factorize() -> _RiccatiSweep:
        nonlocal linalg_ns
        t0 = time.perf_counter_ns()
        np.divide(lam, s, out=D)
        _add_barrier(W_bar, W, D.sum(0))
        sweep = _RiccatiSweep(qp.A, qp.B, BA, W_bar, qp.Q_N)
        linalg_ns += time.perf_counter_ns() - t0
        return sweep

    # the start is strictly interior; a solve that stops before its first
    # step keeps this factorization for a tangential predictor
    np.multiply(_SIDE, u - bounds, out=s)
    sweep = factorize()
    status = "max_iterations"
    iters = 0
    for iters in range(max_iters + 1):
        _residuals(qp, x, u, pi, lam[0], lam[1], r)
        rc = lam * s

        res = _kkt_norms(r, n_stat, v, rc)
        if not math.isfinite(res.stationarity + res.equality + res.complementarity):
            raise QpNumericalError("non-finite values encountered in interior-point iterate")
        if res.stationarity <= tol and res.equality <= tol and res.complementarity <= tol:
            status = "converged"
            break
        if iters == max_iters:
            break

        rc_sum = float(rc.sum())
        mu = rc_sum / n_bnd
        if iters:
            if s.min() <= 0.0:
                raise QpNumericalError(_zero_slack(s))
            sweep = factorize()

        # predictor: pure Newton step on the unperturbed KKT system; only
        # its input step is used, and the corrector overwrites dx and du
        g = rc / s
        t0 = time.perf_counter_ns()
        sweep.solve(rx, ru + g[0] - g[1], re, dx, du)
        linalg_ns += time.perf_counter_ns() - t0
        _bound_steps(du, rc, s, lam, dv_a)

        # s_aff lam_aff = (1 - alpha) s lam + alpha^2 ds dlam, since s dlam + lam ds = -s lam
        alpha_aff = _step_to_boundary(v, dv_a, 1.0)
        dd = dv_a[0] * dv_a[1]
        mu_aff = ((1.0 - alpha_aff) * rc_sum + alpha_aff**2 * float(dd.sum())) / n_bnd
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # corrector: recentered with Mehrotra second-order terms
        dd -= sigma * mu
        rc += dd
        g = rc / s
        t0 = time.perf_counter_ns()
        sweep.solve(rx, ru + g[0] - g[1], re, dx, du, dpi)
        linalg_ns += time.perf_counter_ns() - t0
        _bound_steps(du, rc, s, lam, dv)

        # x, pi, u and lam take the step; the slacks are formed from u again
        z += _step_to_boundary(v, dv, _FRACTION_TO_BOUNDARY) * dz
        np.multiply(_SIDE, u - bounds, out=s)

    # the last residuals were computed at the returned point
    return QpSolution(
        x=x,
        u=u,
        pi=pi,
        lam_lo=lam[0],
        lam_hi=lam[1],
        iters=iters,
        status=status,
        residuals=res,
        linalg_us=linalg_ns / 1000.0,
        sweep=sweep,
        barrier=D,
    )


def solve_dense_ipm(qp: OcpQp, tol: float = QP_TOL, max_iters: int = QP_MAX_ITERS) -> QpSolution:
    """Condense the full horizon, solve the one-stage QP, and expand back.

    The dense pipeline: all state deviations are eliminated, the
    remaining problem in the stacked inputs is solved by
    :func:`solve_condensed_dense`, and the stage-wise solution is
    reconstructed.
    """
    cond = partial_condense(qp, qp.num_stages)
    return expand(solve_condensed_dense(cond.qp, tol, max_iters), cond)
