import numpy as np
import pytest

from conftest import hover_window
from oracles import dare_residual
from quadnmpc import dynamics as dyn
from quadnmpc.lqr import (
    DEFAULT_LQR_Q,
    DEFAULT_LQR_R,
    design_lqr,
    linearize_and_reduce,
    lqr_control,
    reduce_state,
)
from quadnmpc.ocp import DEFAULT_INPUT_WEIGHT, DEFAULT_STATE_WEIGHT


@pytest.fixture(scope="module")
def design():
    return design_lqr(dyn.QuadrotorParams())


class TestReduction:
    def test_dimensions_and_controllability(self, params):
        A, B = linearize_and_reduce(params, 0.015)
        assert A.shape == (12, 12)
        assert B.shape == (12, 4)
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(12)])
        assert np.linalg.matrix_rank(ctrb) == 12

    def test_position_velocity_coupling_is_sampling_time(self, params):
        A, _ = linearize_and_reduce(params, 0.015)
        # x row couples to vx with the stage duration at identity attitude
        for ax in range(3):
            assert A[ax, 6 + ax] == pytest.approx(0.015, rel=1e-6)

    def test_quaternion_scalar_rows_vanish(self, params):
        from quadnmpc.ocp import discrete_jacobians_batch

        _, (A13,), (B13,) = discrete_jacobians_batch(
            dyn.hover_state()[None], params.hover_input()[None], 0.015, params
        )
        row = A13[3].copy()
        row[3] -= 1.0
        assert np.abs(row).max() <= 1e-10
        assert np.abs(B13[3]).max() <= 1e-10


def nmpc_weight_design(params):
    """The LQR designed from the NMPC tracking weights, its local approximation."""
    Q12 = np.concatenate([DEFAULT_STATE_WEIGHT[:3], DEFAULT_STATE_WEIGHT[4:]])
    return design_lqr(params, Q_diag=Q12, R_diag=DEFAULT_INPUT_WEIGHT)


class TestDare:
    def test_residual_contract(self, design):
        res = dare_residual(design.A, design.B, design.Q, design.R, design.P)
        assert res <= 1e-8 * np.abs(design.P).max()

    def test_default_design_residual_at_rounding_level(self, design, params):
        for name, d in (("default", design), ("nmpc_weights", nmpc_weight_design(params))):
            res = dare_residual(d.A, d.B, d.Q, d.R, d.P)
            assert res <= 1e-12 * np.abs(d.P).max(), name


class TestDesign:
    def test_default_weights_shape(self):
        assert DEFAULT_LQR_Q.shape == (12,)
        assert DEFAULT_LQR_R.shape == (4,)
        assert DEFAULT_LQR_Q[2] == pytest.approx(9e5)

    def test_stabilizing(self, design):
        assert design.closed_loop_radius < 1.0

    def test_invalid_weights_rejected(self, params):
        with pytest.raises(ValueError):
            design_lqr(params, Q_diag=np.ones(11))
        with pytest.raises(ValueError):
            design_lqr(params, R_diag=np.zeros(4))

    def test_zero_state_weight_is_not_stabilizing(self, params):
        # with Q = 0 the Riccati solution is P = 0, so K = 0 and the
        # open-loop hover (eigenvalues on the unit circle) is left as it is
        with pytest.raises(ValueError, match="not stabilizing"):
            design_lqr(params, Q_diag=np.zeros(12))


class TestControlLaw:
    def test_hover_gives_hover_input(self, design, params):
        u = lqr_control(design, dyn.hover_state((0.3, 0.1, 0.5)), p_ref=(0.3, 0.1, 0.5))
        np.testing.assert_allclose(u, params.hover_input(), atol=1e-12)

    def test_above_reference_reduces_thrust(self, design, params):
        u = lqr_control(design, dyn.hover_state((0, 0, 0.62)), p_ref=(0, 0, 0.5))
        assert u.sum() < 4 * params.hover_speed()

    def test_clamped_to_bounds(self, design):
        u = lqr_control(design, dyn.hover_state((0, 0, 5.0)), p_ref=(0, 0, 0.0))
        assert np.all(u >= design.u_lower)
        assert np.all(u <= design.u_upper)

    def test_reduce_state_ordering(self):
        xi = np.arange(13.0)
        reduced = reduce_state(xi)
        np.testing.assert_array_equal(reduced, [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12])

    def test_local_equivalence_to_nmpc(self, params):
        # an LQR designed from the tracking weights is the receding-horizon
        # controller's local approximation: small-deviation trajectories agree
        # (the default baseline gains are a different tuning on purpose)
        from quadnmpc.ocp import OcpConfig
        from quadnmpc.rti import RtiController

        design = nmpc_weight_design(params)
        delta = np.array([0.03, -0.02, 0.03])
        x0 = dyn.hover_state(delta)
        cfg = OcpConfig(N=30, params=params)
        ctrl = RtiController(cfg, block_size=5)
        refs = hover_window(cfg)

        def rollout(controller):
            x = x0.copy()
            path = []
            for _ in range(67):  # one second
                u = controller(x)
                for _ in range(15):
                    x = dyn.erk4_step(lambda s: dyn.ode_rhs(s, u, params), x, 1e-3)
                    x[3:7] = dyn.quat_normalize(x[3:7])
                path.append(x[:3].copy())
            return np.array(path)

        p_lqr = rollout(lambda x: lqr_control(design, x, p_ref=(0, 0, 0)))
        p_nmpc = rollout(lambda x: ctrl.cycle(x, refs).u0)
        diff = np.sqrt(np.mean(np.sum((p_lqr - p_nmpc) ** 2, axis=1)))
        assert diff <= 0.1 * np.linalg.norm(delta)
