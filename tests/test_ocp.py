import numpy as np
import pytest

from conftest import hover_window, random_state
from oracles import central_diff_jacobian, complex_step_jacobian, rk4_vector_form
from quadnmpc import dynamics as dyn
from quadnmpc.ocp import (
    DEFAULT_STATE_WEIGHT,
    OcpConfig,
    ReferenceWindow,
    build_qp,
    discrete_dynamics_batch,
    discrete_jacobians_batch,
)


def step(xi, u, dt, params):
    """One prediction-model step of a single state: the batch with B = 1."""
    return discrete_dynamics_batch(xi[None], u[None], dt, params)[0]


def jacobians(xi, u, dt, params):
    """``(x_next, A, B)`` of a single state: the batch with B = 1."""
    x_next, A, B = discrete_jacobians_batch(xi[None], u[None], dt, params)
    return x_next[0], A[0], B[0]


@pytest.fixture
def cfg(params):
    return OcpConfig(params=params)


def hover_guess(cfg):
    X = np.tile(dyn.hover_state(), (cfg.N + 1, 1))
    U = np.tile(cfg.params.hover_input(), (cfg.N, 1))
    return X, U


class TestConfig:
    def test_defaults(self, cfg):
        assert cfg.N == 50
        assert cfg.dt == 0.015
        assert cfg.N * cfg.dt == pytest.approx(0.75)
        np.testing.assert_allclose(cfg.W_N, 50.0 * cfg.W[:13])

    def test_validation(self, params):
        with pytest.raises(ValueError):
            OcpConfig(N=0, params=params)
        with pytest.raises(ValueError):
            OcpConfig(dt=0.0, params=params)
        with pytest.raises(ValueError):
            OcpConfig(W=np.ones(16), params=params)
        with pytest.raises(ValueError):
            OcpConfig(u_lower=np.full(4, 22.0), u_upper=np.full(4, 22.0), params=params)


class TestDiscreteDynamics:
    def test_hover_is_fixed_point(self, cfg):
        xi = dyn.hover_state((0.1, 0.2, 0.3))
        out = step(xi, cfg.params.hover_input(), cfg.dt, cfg.params)
        np.testing.assert_allclose(out, xi, atol=1e-12)

    def test_small_dt_limit(self, cfg, rng):
        xi = random_state(rng)
        u = rng.uniform(5, 20, 4)
        out = step(xi, u, 1e-12, cfg.params)
        np.testing.assert_allclose(out, xi, atol=1e-9)

    def test_matches_generic_integrator(self, cfg, rng):
        # the plant's integrator on the float ODE; the two ODE paths agree to rounding
        xi = random_state(rng)
        u = rng.uniform(5, 20, 4)
        direct = step(xi, u, cfg.dt, cfg.params)
        generic = dyn.erk4_step(lambda x: dyn.ode_rhs(x, u, cfg.params), xi, cfg.dt)
        np.testing.assert_allclose(direct, generic, rtol=0, atol=1e-14)


class TestSensitivities:
    def test_match_central_differences(self, cfg, rng):
        for _ in range(30):
            xi = random_state(rng)
            u = rng.uniform(2, 20, 4)
            _, A, B = jacobians(xi, u, cfg.dt, cfg.params)
            A_fd = central_diff_jacobian(lambda x: step(x, u, cfg.dt, cfg.params), xi, eps=1e-6)
            B_fd = central_diff_jacobian(lambda v: step(xi, v, cfg.dt, cfg.params), u, eps=1e-6)
            assert np.abs(A - A_fd).max() / np.abs(A).max() < 1e-5
            assert np.abs(B - B_fd).max() / np.abs(B).max() < 1e-5

    def test_batch_matches_complex_step_of_vector_form(self, rng):
        params = dyn.QuadrotorParams(Jyy=1.7e-5)
        dt = 0.015
        XI = np.array([random_state(rng, rate_scale=10.0) for _ in range(20)])
        XI[:, 3:7] *= rng.uniform(0.5, 1.5, (20, 1))
        U = rng.uniform(0.0, 22.0, (20, 4))
        _, A, B = discrete_jacobians_batch(XI, U, dt, params)
        for i in range(20):
            AB = np.concatenate([A[i], B[i]], axis=1)
            J = complex_step_jacobian(
                lambda z: rk4_vector_form(z[:13], z[13:], dt, params), np.r_[XI[i], U[i]]
            )
            assert np.abs(AB - J).max() <= 1e-12 * np.abs(J).max()

    def test_predicted_state_consistency(self, cfg, rng):
        xi = random_state(rng)
        u = rng.uniform(2, 20, 4)
        x_next, _, _ = jacobians(xi, u, cfg.dt, cfg.params)
        np.testing.assert_allclose(x_next, step(xi, u, cfg.dt, cfg.params), atol=1e-14)


def random_guess(cfg, rng):
    X = np.array([random_state(rng) for _ in range(cfg.N + 1)])
    U = rng.uniform(2, 20, (cfg.N, 4))
    return X, U


def window_of(cfg, row):
    """A constant reference window with stage row ``row`` (17 entries)."""
    return ReferenceWindow(stages=np.tile(row, (cfg.N, 1)), terminal=row[:13])


class TestStageLinearization:
    """Rows of ``build_qp``: each stage's affine model, cost and bounds."""

    def test_zero_gradient_at_reference(self, cfg):
        X, U = hover_guess(cfg)
        ref = np.concatenate([X[0], U[0]])
        qp = build_qp(X, U, window_of(cfg, ref), X[0], cfg)
        np.testing.assert_allclose(qp.q[0], 0)
        np.testing.assert_allclose(qp.r[0], 0)

    def test_hessian_blocks_are_the_weights(self, cfg, rng):
        X, U = random_guess(cfg, rng)
        qp = build_qp(X, U, window_of(cfg, rng.normal(size=17)), X[0], cfg)
        np.testing.assert_array_equal(np.diag(qp.Q[0]), DEFAULT_STATE_WEIGHT)
        np.testing.assert_array_equal(np.diag(qp.R[0]), cfg.W[13:])

    def test_hessian_constant_across_linearizations(self, cfg, rng):
        # identity residuals make the Gauss-Newton blocks iteration-independent
        X, U = random_guess(cfg, rng)
        a = build_qp(X, U, window_of(cfg, rng.normal(size=17)), X[0], cfg)
        X, U = random_guess(cfg, rng)
        b = build_qp(X, U, window_of(cfg, rng.normal(size=17)), X[0], cfg)
        assert np.array_equal(a.Q[0], b.Q[0])
        assert np.array_equal(a.R[0], b.R[0])

    def test_affine_constant_reconstructs_prediction(self, cfg, rng):
        X, U = random_guess(cfg, rng)
        qp = build_qp(X, U, window_of(cfg, np.zeros(17)), X[0], cfg)
        x_next = jacobians(X[0], U[0], cfg.dt, cfg.params)[0]
        # c_0 = F(X_0, U_0) - X_1
        np.testing.assert_allclose(X[1] + qp.c[0], x_next, atol=1e-12)

    def test_shifted_bounds(self, cfg):
        X, _ = hover_guess(cfg)
        U = np.zeros((cfg.N, 4))
        qp = build_qp(X, U, window_of(cfg, np.zeros(17)), X[0], cfg)
        np.testing.assert_allclose(qp.lb[0], cfg.u_lower)
        np.testing.assert_allclose(qp.ub[0], cfg.u_upper)


class TestBuildQp:
    def test_hover_structure(self, cfg, params):
        X, U = hover_guess(cfg)
        refs = hover_window(cfg)
        qp = build_qp(X, U, refs, X[0], cfg)
        assert qp.num_stages == cfg.N
        for i in range(qp.num_stages):
            # hover is a fixed point: c_i = F(X_i, U_i) - X_{i+1} vanishes
            np.testing.assert_allclose(qp.c[i], 0, atol=1e-12)
            np.testing.assert_allclose(qp.q[i], 0, atol=1e-14)
            np.testing.assert_allclose(qp.r[i], 0, atol=1e-14)
        np.testing.assert_allclose(qp.x0_residual, 0)

    def test_single_stage_horizon(self, params):
        cfg = OcpConfig(N=1, params=params)
        X, U = hover_guess(cfg)
        qp = build_qp(X, U, hover_window(cfg), X[0], cfg)
        assert qp.num_stages == 1
        assert qp.Q_N.shape == (13, 13)

    def test_matches_single_stage_linearization(self, cfg, rng):
        X = np.array([random_state(rng) for _ in range(cfg.N + 1)])
        U = rng.uniform(2, 20, (cfg.N, 4))
        refs = hover_window(cfg)
        qp = build_qp(X, U, refs, X[0], cfg)
        Wx, Wu = cfg.W[:13], cfg.W[13:]
        for i in (0, 7, cfg.N - 1):
            x_next, A, B = jacobians(X[i], U[i], cfg.dt, cfg.params)
            np.testing.assert_allclose(qp.A[i], A, atol=1e-12)
            np.testing.assert_allclose(qp.B[i], B, atol=1e-12)
            np.testing.assert_allclose(qp.c[i], x_next - X[i + 1], atol=1e-10)
            np.testing.assert_allclose(qp.q[i], Wx * (X[i] - refs.stages[i, :13]), atol=1e-12)
            np.testing.assert_allclose(qp.r[i], Wu * (U[i] - refs.stages[i, 13:]), atol=1e-12)

    def test_dimension_mismatch_raises(self, cfg):
        X, U = hover_guess(cfg)
        refs = hover_window(cfg)
        with pytest.raises(ValueError):
            build_qp(X[:-1], U, refs, X[0], cfg)
        with pytest.raises(ValueError):
            build_qp(X, U[:-1], refs, X[0], cfg)
        with pytest.raises(ValueError):
            build_qp(X, U, ReferenceWindow(refs.stages[:-1], refs.terminal), X[0], cfg)

    def test_initial_residual(self, cfg, rng):
        X, U = hover_guess(cfg)
        xhat = random_state(rng)
        qp = build_qp(X, U, hover_window(cfg), xhat, cfg)
        np.testing.assert_allclose(qp.x0_residual, xhat - X[0])
