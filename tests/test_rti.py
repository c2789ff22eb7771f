import numpy as np
import pytest

from conftest import hover_window
import quadnmpc.qp as qp_mod
import quadnmpc.rti as rti_mod
from quadnmpc import dynamics as dyn
from quadnmpc.ocp import OcpConfig, ReferenceWindow, build_qp, discrete_dynamics_batch
from quadnmpc.qp import QpNumericalError
from quadnmpc.rti import RtiController, SqpConvergenceError, solve_to_convergence


@pytest.fixture
def cfg(params):
    return OcpConfig(N=20, params=params)


def minjerk_window(cfg, start, goal, T_man):
    """Quintic position profile with matching velocities, hover inputs."""
    rows = np.zeros((cfg.N + 1, 17))
    delta = np.asarray(goal) - np.asarray(start)
    for j in range(cfg.N + 1):
        s = min(1.0, j * cfg.dt / T_man)
        b = 10 * s**3 - 15 * s**4 + 6 * s**5
        bd = (30 * s**2 - 60 * s**3 + 30 * s**4) / T_man
        st = dyn.hover_state(np.asarray(start) + b * delta)
        st[7:10] = bd * delta
        rows[j, :13] = st
        rows[j, 13:] = cfg.params.hover_input()
    return ReferenceWindow(stages=rows[: cfg.N], terminal=rows[cfg.N, :13])


def shifted(X):
    """The warm-start shift: every stage moves forward, the last is duplicated."""
    return np.concatenate([X[1:], X[-1:]])


def count_solves(monkeypatch) -> list:
    """Record each QP solution the controller expands: one per solved QP."""
    solves = []
    expand = rti_mod.expand

    def counting_expand(csol, cond):
        solves.append(csol)
        return expand(csol, cond)

    monkeypatch.setattr(rti_mod, "expand", counting_expand)
    return solves


class TestRtiController:
    def test_hover_fixed_point(self, cfg):
        ctrl = RtiController(cfg)
        refs = hover_window(cfg)
        ctrl.prepare(refs)
        out = ctrl.feedback(dyn.hover_state())
        ctrl.post_command()
        np.testing.assert_allclose(out.u0, cfg.params.hover_input(), atol=1e-6)
        assert out.step_norm <= 1e-6
        assert not out.degraded
        assert out.qp_status == "converged"

    def test_one_qp_solve_per_cycle(self, cfg, monkeypatch):
        solves = count_solves(monkeypatch)
        ctrl = RtiController(cfg)
        refs = hover_window(cfg)
        for k in range(5):
            ctrl.cycle(dyn.hover_state(), refs)
            assert len(solves) == k + 1

    def test_feedback_requires_prepare(self, cfg):
        ctrl = RtiController(cfg)
        with pytest.raises(RuntimeError):
            ctrl.feedback(dyn.hover_state())

    def test_consecutive_prepares_identical(self, cfg):
        ctrl = RtiController(cfg)
        refs = hover_window(cfg, p=(0.3, 0.0, 0.1))
        ctrl.prepare(refs)
        first = ctrl._prepared[0]
        ctrl.prepare(refs)
        second = ctrl._prepared[0]
        np.testing.assert_array_equal(first.qp.A, second.qp.A)
        np.testing.assert_array_equal(first.qp.B, second.qp.B)
        np.testing.assert_array_equal(first.qp.q, second.qp.q)
        np.testing.assert_array_equal(first.qp.r, second.qp.r)

    def test_prepare_after_shift_uses_shifted_guess(self, cfg, rng):
        ctrl = RtiController(cfg)
        refs = hover_window(cfg, p=(0.2, -0.1, 0.3))
        xhat = dyn.hover_state((0.05, 0.0, 0.0))
        ctrl.cycle(xhat, refs)
        X, U = ctrl.X.copy(), ctrl.U.copy()
        ctrl.prepare(refs)
        # linearization points of the new cycle are the shifted updated iterate
        got, expected = ctrl._prepared[0].original, build_qp(X, U, refs, X[0], cfg)
        for name in ("A", "B", "c", "q", "r", "lb", "ub", "q_N"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

    def test_shift_consistency(self, cfg, monkeypatch):
        steps = []
        expand = rti_mod.expand

        def recording_expand(csol, cond):
            steps.append(expand(csol, cond))
            return steps[-1]

        monkeypatch.setattr(rti_mod, "expand", recording_expand)
        ctrl = RtiController(cfg)
        refs = hover_window(cfg, p=(0.2, 0.2, 0.2))
        X, U = ctrl.X.copy(), ctrl.U.copy()
        out = ctrl.cycle(dyn.hover_state(), refs)
        # the updated iterate, as feedback forms it before the shift
        X, U = X + steps[0].x, U + steps[0].u
        rti_mod._normalize_guess_attitudes(X)
        np.testing.assert_array_equal(out.u0, np.clip(U[0], cfg.u_lower, cfg.u_upper))
        np.testing.assert_array_equal(ctrl.X, shifted(X))
        np.testing.assert_array_equal(ctrl.U, shifted(U))

    def test_input_always_within_bounds(self, cfg, rng):
        from conftest import random_state

        ctrl = RtiController(cfg)
        refs = hover_window(cfg, p=(1.0, -1.0, 1.0))
        for _ in range(10):
            out = ctrl.cycle(random_state(rng), refs)
            assert np.all(out.u0 >= cfg.u_lower - 1e-12)
            assert np.all(out.u0 <= cfg.u_upper + 1e-12)

    def test_contractivity_near_hover(self, cfg, rng):
        ctrl = RtiController(cfg)
        ctrl.X += rng.uniform(-0.1, 0.1, ctrl.X.shape)
        ctrl.U += rng.uniform(-0.1, 0.1, ctrl.U.shape)
        refs = hover_window(cfg)
        xhat = dyn.hover_state()
        norms = [ctrl.cycle(xhat, refs).step_norm for _ in range(5)]
        assert all(norms[i + 1] <= norms[i] for i in range(4))

    def test_degraded_mode_on_qp_failure(self, cfg, monkeypatch):
        ctrl = RtiController(cfg)
        refs = hover_window(cfg)
        ctrl.cycle(dyn.hover_state(), refs)
        expected = np.clip(ctrl.U[0], cfg.u_lower, cfg.u_upper)

        def boom(*args, **kwargs):
            raise QpNumericalError("forced failure")

        monkeypatch.setattr(rti_mod, "solve_riccati_ipm", boom)
        out = ctrl.cycle(dyn.hover_state(), refs)
        assert out.degraded
        assert out.qp_status == "numerical_error"
        np.testing.assert_array_equal(out.u0, expected)

    def test_indefinite_first_newton_matrix_degrades_feedback_not_prepare(
        self, cfg, monkeypatch
    ):
        self.check_indefinite_first_newton_matrix(cfg, monkeypatch, "riccati")

    def test_dense_indefinite_first_newton_matrix_degrades_feedback_not_prepare(
        self, cfg, monkeypatch
    ):
        self.check_indefinite_first_newton_matrix(cfg, monkeypatch, "dense")

    @staticmethod
    def check_indefinite_first_newton_matrix(cfg, monkeypatch, solver):
        ctrl = RtiController(cfg, solver=solver)
        refs = hover_window(cfg)
        ctrl.cycle(dyn.hover_state(), refs)
        expected = np.clip(ctrl.U[0], cfg.u_lower, cfg.u_upper)
        guess = ctrl.X.copy()

        def concave_build_qp(*args, **kwargs):
            qp = build_qp(*args, **kwargs)
            qp.R[0] = -1e6 * np.eye(qp.nu)
            return qp

        monkeypatch.setattr(rti_mod, "build_qp", concave_build_qp)
        name = "solve_condensed_dense" if solver == "dense" else "solve_riccati_ipm"
        solve, raised = getattr(rti_mod, name), []

        def recording_solve(*args):
            try:
                return solve(*args)
            except QpNumericalError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(rti_mod, name, recording_solve)
        ctrl.prepare(refs)  # must not raise, though its QP solve did
        assert len(raised) == 1
        out = ctrl.feedback(dyn.hover_state())
        assert out.degraded
        assert out.qp_status == "numerical_error"
        np.testing.assert_array_equal(out.u0, expected)
        # no step: after the post-command step the guess is only shifted once more
        ctrl.post_command()
        np.testing.assert_array_equal(ctrl.X, shifted(guess))

    @pytest.mark.parametrize("solver", ["riccati", "dense"])
    def test_feedback_runs_no_interior_point_iteration(self, cfg, solver, monkeypatch):
        # the interior point runs in prepare; feedback only solves with stage 0 of
        # its last factorization, and the whole tangent, its expansion and the
        # residuals wait for the post-command step
        counts = {name: 0 for name in ("ipm", "sweep", "tangent", "expand", "residuals")}
        ipm, sweep = qp_mod._ipm, qp_mod._RiccatiSweep

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        class CountingSweep(sweep):
            def __init__(self, *args):
                counts["sweep"] += 1
                super().__init__(*args)

        monkeypatch.setattr(qp_mod, "_ipm", counting("ipm", ipm))
        monkeypatch.setattr(qp_mod, "_RiccatiSweep", CountingSweep)
        monkeypatch.setattr(
            rti_mod, "tangential_predictor", counting("tangent", rti_mod.tangential_predictor)
        )
        monkeypatch.setattr(rti_mod, "expand", counting("expand", rti_mod.expand))
        monkeypatch.setattr(qp_mod, "kkt_residuals", counting("residuals", qp_mod.kkt_residuals))
        ctrl = RtiController(cfg, solver=solver)
        refs = hover_window(cfg, p=(0.2, 0.0, 0.1))
        for _ in range(3):
            ctrl.prepare(refs)
            assert counts["ipm"] == 1 and counts["sweep"] >= 1
            counts.update(dict.fromkeys(counts, 0))
            out = ctrl.feedback(dyn.hover_state((0.01, 0.0, 0.0)))
            assert set(counts.values()) == {0}
            assert not out.degraded and out.qp_iters > 0
            assert out.x0_gap > 0.0
            ctrl.post_command()
            assert counts == dict(ipm=0, sweep=0, tangent=1, expand=1, residuals=1)
            counts.update(dict.fromkeys(counts, 0))

    @pytest.mark.parametrize("solver", ["riccati", "dense"])
    def test_command_is_the_first_input_of_the_whole_step(self, cfg, solver):
        # stage 0's tangent gives the input the expanded full tangent does, bit
        # for bit, also where an input sits at its bound
        ctrl = RtiController(cfg, solver=solver)
        refs = hover_window(cfg, p=(1.0, -1.0, 1.0))
        at_bound = 0
        for k in range(4):
            ctrl.prepare(refs)
            (cond, csol, _), U0 = ctrl._prepared, ctrl.U[0].copy()
            xhat = dyn.hover_state((0.02 * (k + 1), 0.0, 0.0))
            b0 = xhat - ctrl.X[0]
            step = rti_mod.expand(rti_mod.tangential_predictor(csol, b0), cond)
            out = ctrl.feedback(xhat)
            np.testing.assert_array_equal(
                out.u0, np.clip(U0 + step.u[0], cfg.u_lower, cfg.u_upper)
            )
            at_bound += np.isin(out.u0, (cfg.u_lower, cfg.u_upper)).any()
            ctrl.post_command()
        assert at_bound > 0

    @pytest.mark.parametrize("solver", ["riccati", "dense"])
    def test_prepare_runs_a_pending_post_command_step(self, cfg, solver):
        refs = hover_window(cfg, p=(0.3, -0.2, 0.2))
        estimates = [dyn.hover_state((0.01 * k, 0.0, 0.0)) for k in range(2)]
        a, b = RtiController(cfg, solver=solver), RtiController(cfg, solver=solver)
        full = [a.cycle(xhat, refs) for xhat in estimates]
        split = []
        for xhat in estimates:
            b.prepare(refs)
            split.append(b.feedback(xhat))
        b.post_command()
        for x, y in zip(full, split):
            np.testing.assert_array_equal(x.u0, y.u0)
            assert (x.kkt_stationarity, x.step_norm) == (y.kkt_stationarity, y.step_norm)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.U, b.U)
        # a second post-command step has nothing left to do
        X, U = b.X.copy(), b.U.copy()
        b.post_command()
        np.testing.assert_array_equal(b.X, X)
        np.testing.assert_array_equal(b.U, U)

    @pytest.mark.parametrize("solver", ["riccati", "dense"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_degrades_the_cycle(self, cfg, solver, bad, monkeypatch):
        solves = count_solves(monkeypatch)
        ctrl = RtiController(cfg, solver=solver)
        refs = hover_window(cfg, p=(0.2, 0.0, 0.1))
        ctrl.cycle(dyn.hover_state(), refs)
        expected = np.clip(ctrl.U[0], cfg.u_lower, cfg.u_upper)
        guess = ctrl.X.copy()
        xhat = dyn.hover_state()
        xhat[8] = bad
        out = ctrl.cycle(xhat, refs)
        assert out.degraded
        assert out.qp_status == "numerical_error"
        assert len(solves) == 1
        assert np.all(np.isfinite(out.u0))
        assert np.all(out.u0 >= cfg.u_lower) and np.all(out.u0 <= cfg.u_upper)
        np.testing.assert_array_equal(out.u0, expected)
        # no step: the guess is only shifted once more
        np.testing.assert_array_equal(ctrl.X, shifted(guess))
        # the next cycle with a finite estimate solves again
        assert not ctrl.cycle(dyn.hover_state(), refs).degraded

    def test_dense_solver_pipeline_matches_riccati(self, params):
        cfg = OcpConfig(N=10, params=params)
        refs = hover_window(cfg, p=(0.3, 0.1, 0.2))
        a = RtiController(cfg, solver="riccati", block_size=5)
        b = RtiController(cfg, solver="dense")
        xhat = dyn.hover_state((0.05, 0.0, 0.1))
        for _ in range(3):
            oa = a.cycle(xhat, refs)
            ob = b.cycle(xhat, refs)
            np.testing.assert_allclose(oa.u0, ob.u0, atol=1e-6)

    @pytest.mark.parametrize("solver", ["riccati", "dense"])
    def test_horizon_shorter_than_the_block_size(self, params, solver):
        # the default block of 5 spans the whole 3-stage horizon
        cfg = OcpConfig(N=3, params=params)
        out = RtiController(cfg, solver=solver).cycle(dyn.hover_state(), hover_window(cfg))
        np.testing.assert_allclose(out.u0, params.hover_input(), atol=1e-6)
        assert out.qp_status == "converged"

    def test_rejects_unknown_solver(self, cfg):
        with pytest.raises(ValueError):
            RtiController(cfg, solver="simplex")


class TestSolveToConvergence:
    def test_hover_to_hover_immediate(self, params):
        cfg = OcpConfig(N=15, params=params)
        refs = hover_window(cfg, p=(0.0, 0.0, 0.4))
        res = solve_to_convergence(cfg, refs, dyn.hover_state((0.0, 0.0, 0.4)))
        assert res.iterations <= 1
        assert np.abs(res.U - cfg.params.hover_speed()).max() <= 1e-9

    def test_smooth_maneuver_converges(self, params):
        cfg = OcpConfig(N=120, params=params)
        start = (0.0, 0.0, 0.4)
        refs = minjerk_window(cfg, start, (0.3, -0.3, 0.7), T_man=1.0)
        res = solve_to_convergence(cfg, refs, dyn.hover_state(start), kkt_tol=1e-6)
        assert res.kkt_history[-1] <= 1e-6
        np.testing.assert_allclose(res.X[-1][:3], [0.3, -0.3, 0.7], atol=1e-3)
        # dynamic feasibility of the converged trajectory
        for i in range(cfg.N):
            F = discrete_dynamics_batch(res.X[i : i + 1], res.U[i : i + 1], cfg.dt, cfg.params)
            assert np.abs(res.X[i + 1] - F[0]).max() <= 1e-6
        assert np.all(res.U >= cfg.u_lower - 1e-9)
        assert np.all(res.U <= cfg.u_upper + 1e-9)

    def test_rerun_after_convergence_is_fixed_point(self, params):
        cfg = OcpConfig(N=30, params=params)
        refs = minjerk_window(cfg, (0, 0, 0.4), (0.1, 0.0, 0.5), T_man=0.4)
        a = solve_to_convergence(cfg, refs, dyn.hover_state((0, 0, 0.4)), max_sqp_iters=30)
        b = solve_to_convergence(cfg, refs, dyn.hover_state((0, 0, 0.4)), max_sqp_iters=60)
        np.testing.assert_allclose(a.X, b.X, atol=1e-10)
        np.testing.assert_allclose(a.U, b.U, atol=1e-10)

    def test_iteration_limit_raises_with_history(self, params):
        cfg = OcpConfig(N=10, params=params)
        refs = hover_window(cfg, p=(0.5, 0.0, 0.9))
        with pytest.raises(SqpConvergenceError) as exc:
            solve_to_convergence(
                cfg, refs, dyn.hover_state((0, 0, 0.4)), max_sqp_iters=1, kkt_tol=1e-14
            )
        assert len(exc.value.history) >= 1
