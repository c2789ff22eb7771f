"""Real-time-iteration controller: one SQP iteration per sampling instant.

Each control cycle splits into a preparation phase and a feedback phase,
in the advanced-step form (Zavala & Biegler 2009; Nurkanovic et al.
2019). Preparation does all that needs no measurement: it linearizes
the whole horizon at the current guess, assembles and condenses the QP
at the predicted initial state ``X[0]`` and solves it with the interior
point. Feedback, the controller's own delay between measurement and
command, does only what the command needs: stage 0 of the tangential
predictor of the QP solution for the deviation of the estimated state
from ``X[0]``, one solve with the stage-0 factor of that interior
point's last Newton factorization, and the clipped first input. The
post-command step then does the rest of the cycle (Diehl, Bock &
Schloeder 2005): the whole tangential predictor, its expansion and
residuals, the Newton-type step of the guess and its shift. A
run-to-convergence mode iterates SQP steps on a fixed problem under an
exact-penalty step safeguard; trajectory generation uses it offline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from .ocp import OcpConfig, ReferenceWindow, build_qp, discrete_dynamics_batch
from .qp import (
    QP_MAX_ITERS,
    QP_TOL,
    CondensedQp,
    QpNumericalError,
    QpSolution,
    expand,
    kkt_residuals,
    partial_condense,
    solve_condensed_dense,
    solve_riccati_ipm,
    stage0_tangential_step,
    tangential_predictor,
)


# the QP pipelines a controller can run: partial condensing, or full condensing
SOLVERS = ("riccati", "dense")
DEFAULT_SOLVER = "riccati"
DEFAULT_BLOCK_SIZE = 5
# the KKT tolerance of a solve to convergence
SQP_KKT_TOL = 1e-6


class SqpConvergenceError(RuntimeError):
    """Run-to-convergence SQP hit its iteration limit; carries the residual history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass
class ControlOutput:
    """One control cycle's record: the applied input and the cycle's diagnostics.

    The defaults are those of a cycle that solves no QP (the LQR
    controller). ``qp_status`` is the QP solver's status (``converged``
    or ``max_iterations``), ``none`` without a QP, or ``numerical_error``
    when the solve raised or the state estimate was not finite, and the
    cycle is degraded: the guess is shifted without a step and ``u0`` is
    its clipped first input. ``qp_iters``, ``qp_status`` and
    ``qp_linalg_us`` are those of the preparation phase's solve.
    ``kkt_stationarity`` (taken after the tangential predictor, on the QP
    at the estimated state) and ``step_norm`` are filled by the
    post-command step, whose time is ``post_us``; the cycle's time is
    ``prep_us + fb_us + post_us``. ``x0_gap`` is ``|xhat - X[0]|`` in the
    infinity norm: how far the tangential predictor extrapolated from the
    state the QP was solved at (not finite for a non-finite estimate).
    """

    u0: np.ndarray
    prep_us: float = 0.0
    fb_us: float = 0.0
    post_us: float = 0.0
    qp_iters: int = 0
    qp_status: str = "none"
    qp_linalg_us: float = 0.0
    kkt_stationarity: float = 0.0
    step_norm: float = 0.0
    degraded: bool = False
    x0_gap: float = 0.0


def _us() -> float:
    return time.perf_counter_ns() / 1000.0


def _normalize_guess_attitudes(X: np.ndarray) -> None:
    """Project the guess quaternions back onto the unit sphere, in place.

    Large Newton steps on far targets can push the linearization
    attitudes off the sphere, where the linearized thrust direction is
    meaningless; projecting keeps every linearization point physical.
    Identity at any converged iterate with unit quaternions. Degenerate
    rows fall back to level attitude.
    """
    q = X[:, 3:7]
    norms = np.linalg.norm(q, axis=1)
    bad = norms < 1e-6
    if np.any(bad):
        q[bad] = (1.0, 0.0, 0.0, 0.0)
        norms[bad] = 1.0
    q /= norms[:, None]


class RtiController:
    """Receding-horizon tracker performing exactly one QP solve per cycle.

    ``prepare`` solves the QP at the predicted state ``X[0]``;
    ``feedback(xhat)`` emits the command, the prepared first input moved
    to the estimated state by stage 0 of the tangential predictor, and
    forms no Newton factorization; ``post_command`` then steps the guess
    by the whole tangential predictor
    (:func:`~quadnmpc.qp.tangential_predictor`) and shifts it.
    ``cycle`` runs all three, and ``prepare`` runs a post-command step
    still pending, so a loop may call ``post_command`` once its command
    is out or leave it to the next ``prepare``. Not shareable across
    threads mid-cycle; the phases of a cycle must run in program order.

    Parameters
    ----------
    cfg : OcpConfig
    solver : "riccati" (partial condensing, block ``block_size``) or
        "dense" (full condensing, block size N). Both run the one
        interior-point method; on the fully condensed QP its sweep is one
        dense Cholesky factorization per iteration.
    block_size : partial-condensing block size for the riccati pipeline;
        a block never spans more than the horizon
        (:func:`~quadnmpc.qp.partial_condense`), and "dense" ignores it.
    """

    def __init__(
        self,
        cfg: OcpConfig,
        solver: str = DEFAULT_SOLVER,
        block_size: int = DEFAULT_BLOCK_SIZE,
        qp_tol: float = QP_TOL,
        qp_max_iters: int = QP_MAX_ITERS,
    ):
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
        self.cfg = cfg
        self.solver = solver
        self.block_size = block_size if solver == "riccati" else cfg.N
        self.qp_tol = qp_tol
        self.qp_max_iters = qp_max_iters
        self.X = np.zeros((cfg.N + 1, dyn.NX))
        self.U = np.zeros((cfg.N, dyn.NU))
        self.reset()

    def reset(self, position=(0.0, 0.0, 0.0)) -> None:
        """Cold-start the guess at hover: the unique steady state."""
        self.X[:] = dyn.hover_state(position)
        self.U[:] = self.cfg.params.hover_input()
        # the prepared cycle: the QP, its solution or the error its solve
        # raised, and the preparation's time
        self._prepared: tuple[CondensedQp, QpSolution | QpNumericalError, float] | None = None
        # what post_command needs of the last feedback: its record, the QP, the
        # solution (None for a degraded cycle) and b0
        self._pending: tuple | None = None

    def prepare(self, refs: ReferenceWindow) -> None:
        """Linearize, assemble, condense and solve the QP at the predicted state ``X[0]``:
        all that needs no measurement.

        A solve that raises does not raise here; the feedback of this
        cycle then reports a degraded cycle. A post-command step still
        pending from the last feedback runs first, outside ``prep_us``.
        """
        self.post_command()
        t0 = _us()
        qp = build_qp(self.X, self.U, refs, self.X[0], self.cfg)
        cond = partial_condense(qp, self.block_size)
        try:
            # one interior point under two names: the dense one takes the
            # fully condensed QP
            if self.solver == "dense":
                csol = solve_condensed_dense(cond.qp, self.qp_tol, self.qp_max_iters)
            else:
                csol = solve_riccati_ipm(cond.qp, self.qp_tol, self.qp_max_iters)
        except QpNumericalError as exc:
            csol = exc
        self._prepared = (cond, csol, _us() - t0)

    def feedback(self, xhat: np.ndarray) -> ControlOutput:
        """Emit the command for the estimated state ``xhat``: the prepared solution's
        first input moved by stage 0 of the tangential predictor.

        ``b0 = xhat - X[0]`` enters one ``dpotrs`` with the stage-0 factor
        of the interior point's last Newton factorization
        (:func:`~quadnmpc.qp.stage0_tangential_step`), which gives the input
        the full tangential step would, bit for bit. A non-finite ``xhat``
        is not passed to the solver: the cycle is degraded like one whose
        QP solve failed, and ``u0`` is the guess's clipped first input.
        All else, the step of the whole guess and the shift, waits for
        :meth:`post_command`; until it runs, the record's
        ``kkt_stationarity`` and ``step_norm`` are NaN.
        """
        if self._prepared is None:
            raise RuntimeError("feedback called without a prepared cycle")
        t0 = _us()
        (cond, csol, prep_us), self._prepared = self._prepared, None
        b0 = np.asarray(xhat, dtype=float) - self.X[0]
        u0 = self.U[0]
        try:
            if not np.isfinite(b0).all():
                raise QpNumericalError("non-finite state estimate")
            if isinstance(csol, QpNumericalError):
                raise csol
            u0 = u0 + (csol.u[0, : dyn.NU] + stage0_tangential_step(csol, b0)[: dyn.NU])
            stats = dict(qp_iters=csol.iters, qp_status=csol.status, qp_linalg_us=csol.linalg_us)
        except QpNumericalError:
            csol = None
            stats = dict(qp_status="numerical_error", degraded=True)

        out = ControlOutput(
            u0=np.clip(u0, self.cfg.u_lower, self.cfg.u_upper),
            prep_us=prep_us,
            kkt_stationarity=np.nan,
            step_norm=np.nan,
            x0_gap=float(np.abs(b0).max()),
            **stats,
        )
        self._pending = (out, cond, csol, b0)
        out.fb_us = _us() - t0
        return out

    def post_command(self) -> None:
        """The work of the last feedback that its command did not need; nothing
        if none is pending.

        The whole tangential predictor is expanded onto the original
        stages, so the record's ``kkt_stationarity`` is that of the QP at
        the estimated state (the stationarity does not involve the initial
        state), and the guess takes the step (none for a degraded cycle)
        and is shifted.
        After it, ``X[0]`` is the state predicted one step ahead. It fills
        the record :meth:`feedback` returned: ``kkt_stationarity``,
        ``step_norm`` and its own time, ``post_us``.
        """
        if self._pending is None:
            return
        t0 = _us()
        out, cond, csol, b0 = self._pending
        self._pending = None
        if csol is not None:
            sol = expand(tangential_predictor(csol, b0), cond)
            out.kkt_stationarity = sol.residuals.stationarity
            out.step_norm = max(np.abs(sol.x).max(), np.abs(sol.u).max())
            self.X = self.X + sol.x
            self.U = self.U + sol.u
            _normalize_guess_attitudes(self.X)
        # warm-start shift: move every stage forward, duplicate the last
        self.X[:-1] = self.X[1:]
        self.U[:-1] = self.U[1:]
        out.post_us = _us() - t0

    def cycle(self, xhat: np.ndarray, refs: ReferenceWindow) -> ControlOutput:
        """One full control cycle: preparation, feedback, then the post-command step;
        the record it returns is complete."""
        self.prepare(refs)
        out = self.feedback(xhat)
        self.post_command()
        return out


@dataclass
class SqpResult:
    X: np.ndarray
    U: np.ndarray
    iterations: int
    kkt_history: list[float] = field(default_factory=list)


def solve_to_convergence(
    cfg: OcpConfig,
    refs: ReferenceWindow,
    xi0: np.ndarray,
    max_sqp_iters: int = 100,
    kkt_tol: float = SQP_KKT_TOL,
) -> SqpResult:
    """SQP on a fixed problem, iterated until the nonlinear KKT residual
    falls below ``kkt_tol``.

    Each iteration linearizes at the current guess, solves the banded
    QP, and applies the step. The step length is unit whenever the exact
    L1-penalty merit accepts it and is backtracked otherwise; plain full
    stepping diverges on multi-second maneuvers, while near a solution
    the unit step is always accepted. Convergence is measured on
    gradient stationarity with the latest QP multipliers, shooting
    defects, the initial-condition residual, and bound complementarity.

    Raises :class:`SqpConvergenceError` with the residual history if the
    iteration limit is reached or no acceptable step exists.
    """
    xi0 = np.asarray(xi0, dtype=float)
    N = cfg.N
    X = np.tile(xi0, (N + 1, 1))
    U = np.tile(cfg.params.hover_input(), (N, 1))
    pi = np.zeros((N + 1, dyn.NX))
    lam_lo = np.zeros((N, dyn.NU))
    lam_hi = np.zeros((N, dyn.NU))

    Wx = cfg.W[: dyn.NX]
    Wu = cfg.W[dyn.NX :]
    state_refs = refs.stages[:, : dyn.NX]
    input_refs = refs.stages[:, dyn.NX :]

    def merit(X, U, sigma):
        dx = X[:N] - state_refs
        du = U - input_refs
        dN = X[N] - refs.terminal
        J = 0.5 * (np.sum(dx * dx * Wx) + np.sum(du * du * Wu) + np.sum(dN * dN * cfg.W_N))
        F = discrete_dynamics_batch(X[:N], U, cfg.dt, cfg.params)
        infeas = np.abs(F - X[1:]).sum() + np.abs(X[0] - xi0).sum()
        return J + sigma * infeas

    def residual(pi, lam_lo, lam_hi):
        qp = build_qp(X, U, refs, xi0, cfg)
        zero_step = QpSolution(
            x=np.zeros((N + 1, dyn.NX)),
            u=np.zeros((N, dyn.NU)),
            pi=pi,
            lam_lo=lam_lo,
            lam_hi=lam_hi,
            iters=0,
            status="probe",
        )
        return qp, kkt_residuals(qp, zero_step)

    sigma = 1.0
    history = []
    for it in range(max_sqp_iters + 1):
        qp, res = residual(pi, lam_lo, lam_hi)
        history.append(res.max())
        if res.max() <= kkt_tol:
            return SqpResult(X=X, U=U, iterations=it, kkt_history=history)
        if it == max_sqp_iters:
            break
        cond = partial_condense(qp, DEFAULT_BLOCK_SIZE)
        sol = expand(solve_riccati_ipm(cond.qp, tol=1e-9, max_iters=60), cond)

        # exact-penalty weight must dominate the equality multipliers
        sigma = max(sigma, 2.0 * np.abs(sol.pi).max())
        phi0 = merit(X, U, sigma)
        alpha = 1.0
        accepted = False
        while alpha >= 2.0**-16:
            if merit(X + alpha * sol.x, U + alpha * sol.u, sigma) < phi0:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise SqpConvergenceError(
                f"line search stalled at KKT residual {res.max():.3e}", history
            )
        X = X + alpha * sol.x
        U = U + alpha * sol.u
        pi = pi + alpha * (sol.pi - pi)
        lam_lo = lam_lo + alpha * (sol.lam_lo - lam_lo)
        lam_hi = lam_hi + alpha * (sol.lam_hi - lam_hi)
    raise SqpConvergenceError(
        f"SQP did not reach KKT tolerance {kkt_tol:g} in {max_sqp_iters} iterations "
        f"(last residual {history[-1]:.3e})",
        history,
    )
