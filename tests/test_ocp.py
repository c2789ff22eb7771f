import numpy as np
import pytest

from conftest import random_state
from oracles import central_diff_jacobian
from quadnmpc import dynamics as dyn
from quadnmpc.ocp import (
    DEFAULT_STATE_WEIGHT,
    OcpConfig,
    ReferenceWindow,
    build_qp,
    discrete_dynamics,
    discrete_jacobians,
    hover_reference_window,
    linearize_stage,
)


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
        assert cfg.horizon_seconds == pytest.approx(0.75)
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
        out = discrete_dynamics(xi, cfg.params.hover_input(), cfg.dt, cfg.params)
        np.testing.assert_allclose(out, xi, atol=1e-12)

    def test_small_dt_limit(self, cfg, rng):
        xi = random_state(rng)
        u = rng.uniform(5, 20, 4)
        out = discrete_dynamics(xi, u, 1e-12, cfg.params)
        np.testing.assert_allclose(out, xi, atol=1e-9)

    def test_matches_generic_integrator_bitwise(self, cfg, rng):
        xi = random_state(rng)
        u = rng.uniform(5, 20, 4)
        direct = discrete_dynamics(xi, u, cfg.dt, cfg.params)
        generic = dyn.erk4_step(lambda x: dyn.ode_rhs(x, u, cfg.params), xi, cfg.dt)
        assert np.array_equal(direct, generic)


class TestSensitivities:
    def test_match_central_differences(self, cfg, rng):
        for _ in range(30):
            xi = random_state(rng)
            u = rng.uniform(2, 20, 4)
            _, A, B = discrete_jacobians(xi, u, cfg.dt, cfg.params)
            A_fd = central_diff_jacobian(
                lambda x: discrete_dynamics(x, u, cfg.dt, cfg.params), xi, eps=1e-6
            )
            B_fd = central_diff_jacobian(
                lambda v: discrete_dynamics(xi, v, cfg.dt, cfg.params), u, eps=1e-6
            )
            assert np.abs(A - A_fd).max() / np.abs(A).max() < 1e-5
            assert np.abs(B - B_fd).max() / np.abs(B).max() < 1e-5

    def test_predicted_state_consistency(self, cfg, rng):
        xi = random_state(rng)
        u = rng.uniform(2, 20, 4)
        x_next, _, _ = discrete_jacobians(xi, u, cfg.dt, cfg.params)
        np.testing.assert_allclose(
            x_next, discrete_dynamics(xi, u, cfg.dt, cfg.params), atol=1e-14
        )


class TestStageLinearization:
    def test_zero_gradient_at_reference(self, cfg):
        xi = dyn.hover_state()
        u = cfg.params.hover_input()
        ref = np.concatenate([xi, u])
        lin = linearize_stage(xi, u, ref, cfg)
        np.testing.assert_allclose(lin.q, 0)
        np.testing.assert_allclose(lin.r, 0)

    def test_hessian_blocks_are_the_weights(self, cfg, rng):
        xi = random_state(rng)
        u = rng.uniform(2, 20, 4)
        ref = rng.normal(size=17)
        lin = linearize_stage(xi, u, ref, cfg)
        np.testing.assert_array_equal(np.diag(lin.Q), DEFAULT_STATE_WEIGHT)
        np.testing.assert_array_equal(np.diag(lin.R), cfg.W[13:])

    def test_hessian_constant_across_linearizations(self, cfg, rng):
        # identity residuals make the Gauss-Newton blocks iteration-independent
        a = linearize_stage(random_state(rng), rng.uniform(2, 20, 4), rng.normal(size=17), cfg)
        b = linearize_stage(random_state(rng), rng.uniform(2, 20, 4), rng.normal(size=17), cfg)
        assert np.array_equal(a.Q, b.Q)
        assert np.array_equal(a.R, b.R)

    def test_affine_constant_reconstructs_prediction(self, cfg, rng):
        xi = random_state(rng)
        u = rng.uniform(2, 20, 4)
        lin = linearize_stage(xi, u, np.zeros(17), cfg)
        np.testing.assert_allclose(lin.A @ xi + lin.B @ u + lin.d, lin.x_next, atol=1e-12)

    def test_shifted_bounds(self, cfg):
        lin = linearize_stage(dyn.hover_state(), np.zeros(4), np.zeros(17), cfg)
        np.testing.assert_allclose(lin.g_lower, cfg.u_lower)
        np.testing.assert_allclose(lin.g_upper, cfg.u_upper)


class TestBuildQp:
    def test_hover_structure(self, cfg, params):
        X, U = hover_guess(cfg)
        refs = hover_reference_window(cfg)
        qp = build_qp(X, U, refs, X[0], cfg)
        assert qp.num_stages == cfg.N
        xi = X[0]
        u = U[0]
        defects = qp.defects()
        for i in range(qp.num_stages):
            np.testing.assert_allclose(qp.d[i], xi - qp.A[i] @ xi - qp.B[i] @ u, atol=1e-12)
            np.testing.assert_allclose(qp.q[i], 0, atol=1e-14)
            np.testing.assert_allclose(qp.r[i], 0, atol=1e-14)
            np.testing.assert_allclose(defects[i], 0, atol=1e-12)
        np.testing.assert_allclose(qp.x0_residual, 0)

    def test_single_stage_horizon(self, params):
        cfg = OcpConfig(N=1, params=params)
        X, U = hover_guess(cfg)
        qp = build_qp(X, U, hover_reference_window(cfg), X[0], cfg)
        assert qp.num_stages == 1
        assert qp.Q_N.shape == (13, 13)

    def test_matches_single_stage_linearization(self, cfg, rng):
        X = np.array([random_state(rng) for _ in range(cfg.N + 1)])
        U = rng.uniform(2, 20, (cfg.N, 4))
        refs = hover_reference_window(cfg)
        qp = build_qp(X, U, refs, X[0], cfg)
        for i in (0, 7, cfg.N - 1):
            lin = linearize_stage(X[i], U[i], refs.stages[i], cfg)
            np.testing.assert_allclose(qp.A[i], lin.A, atol=1e-12)
            np.testing.assert_allclose(qp.B[i], lin.B, atol=1e-12)
            np.testing.assert_allclose(qp.d[i], lin.d, atol=1e-10)
            np.testing.assert_allclose(qp.q[i], lin.q, atol=1e-12)
            np.testing.assert_allclose(qp.r[i], lin.r, atol=1e-12)

    def test_dimension_mismatch_raises(self, cfg):
        X, U = hover_guess(cfg)
        refs = hover_reference_window(cfg)
        with pytest.raises(ValueError):
            build_qp(X[:-1], U, refs, X[0], cfg)
        with pytest.raises(ValueError):
            build_qp(X, U[:-1], refs, X[0], cfg)
        with pytest.raises(ValueError):
            build_qp(X, U, ReferenceWindow(refs.stages[:-1], refs.terminal), X[0], cfg)

    def test_initial_residual(self, cfg, rng):
        X, U = hover_guess(cfg)
        xhat = random_state(rng)
        qp = build_qp(X, U, hover_reference_window(cfg), xhat, cfg)
        np.testing.assert_allclose(qp.x0_residual, xhat - X[0])
