import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_unit_quat
from oracles import central_diff_jacobian, complex_step_jacobian, forces_moments, ode_vector_form
from quadnmpc.dynamics import (
    NX,
    QuadrotorParams,
    erk4_step,
    hover_state,
    ode_jacobians_batch,
    ode_rhs,
    ode_rhs_batch,
    ode_terms,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_to_euler,
    quat_to_rotmat,
)

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
# the default airframe has Jxx == Jyy, which would hide a swapped inertia
ASYMMETRIC = QuadrotorParams(Jyy=1.7e-5)


class TestParams:
    def test_defaults_positive(self, params):
        assert params.m == 0.033
        assert params.hover_speed() == pytest.approx(
            np.sqrt(params.m * params.g / (4 * params.CT))
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            QuadrotorParams(m=0.0)
        with pytest.raises(ValueError):
            QuadrotorParams(CT=-1e-4)

    def test_published_mass_cannot_hover(self):
        # the 0.33 kg variant needs more than the 22 krpm cap to hover
        p = QuadrotorParams(m=0.33)
        assert p.hover_speed() > 22.0


class TestQuaternions:
    def test_multiply_identity(self, rng):
        for _ in range(20):
            b = random_unit_quat(rng)
            np.testing.assert_allclose(quat_multiply(IDENTITY_Q, b), b)
            np.testing.assert_allclose(quat_multiply(b, IDENTITY_Q), b)

    def test_rotmat_identity(self):
        np.testing.assert_allclose(quat_to_rotmat(IDENTITY_Q), np.eye(3))

    def test_rotmat_orthonormal(self, rng):
        for _ in range(1000):
            q = random_unit_quat(rng)
            R = quat_to_rotmat(q)
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_multiply_matches_rotmat_composition(self, rng):
        for _ in range(100):
            a = random_unit_quat(rng)
            b = random_unit_quat(rng)
            Rab = quat_to_rotmat(quat_multiply(a, b))
            np.testing.assert_allclose(Rab, quat_to_rotmat(a) @ quat_to_rotmat(b), atol=1e-12)

    def test_normalize(self):
        q = quat_normalize(np.array([2.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(q, IDENTITY_Q)
        with pytest.raises(ValueError):
            quat_normalize(np.zeros(4))

    def test_euler_roundtrip(self, rng):
        for _ in range(100):
            roll, pitch, yaw = rng.uniform([-3, -1.4, -3], [3, 1.4, 3])
            qz = quat_from_rotvec(np.array([0, 0, yaw]))
            qy = quat_from_rotvec(np.array([0, pitch, 0]))
            qx = quat_from_rotvec(np.array([roll, 0, 0]))
            q = quat_multiply(quat_multiply(qz, qy), qx)
            r, p, y = quat_to_euler(q)
            np.testing.assert_allclose([r, p, y], [roll, pitch, yaw], atol=1e-10)

    def test_rotvec_small_angle(self):
        q = quat_from_rotvec(np.array([1e-14, 0, 0]))
        np.testing.assert_allclose(q, IDENTITY_Q, atol=1e-13)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)


class TestForcesMoments:
    def test_zero_input(self, params):
        fb, mb = forces_moments(np.zeros(4), params)
        np.testing.assert_allclose(fb, 0)
        np.testing.assert_allclose(mb, 0)

    def test_equal_speeds_no_moment(self, params):
        for omega in (1.0, 7.3, 22.0):
            _, mb = forces_moments(np.full(4, omega), params)
            np.testing.assert_allclose(mb, 0, atol=1e-15)

    def test_roll_sign(self, params):
        # spinning up rotors 3 and 4 rolls positive
        fb, mb = forces_moments(np.array([0.0, 0.0, 5.0, 5.0]), params)
        assert mb[0] == pytest.approx(2 * params.CT * params.l * 25.0)
        assert fb[2] == pytest.approx(params.CT * 50.0)

    def test_yaw_sign(self, params):
        _, mb = forces_moments(np.array([5.0, 0.0, 5.0, 0.0]), params)
        assert mb[2] == pytest.approx(-2 * params.CD * 25.0)

    def test_quadratic_scaling(self, params, rng):
        u = rng.uniform(0, 22, 4)
        _, m1 = forces_moments(u, params)
        _, m2 = forces_moments(3.0 * u, params)
        np.testing.assert_allclose(m2, 9.0 * m1, rtol=1e-12)


class TestOde:
    def test_hover_equilibrium_exact(self, params):
        # hover speed round-trips through sqrt, so "exact" means a few ulp of g
        xi = hover_state((0.4, -1.2, 0.7))
        u = params.hover_input()
        np.testing.assert_allclose(ode_rhs(xi, u, params), np.zeros(NX), atol=1e-13)

    def test_free_fall(self, params):
        xi = hover_state()
        xdot = ode_rhs(xi, np.zeros(4), params)
        expected = np.zeros(NX)
        expected[9] = -params.g
        np.testing.assert_allclose(xdot, expected)

    def test_batch_matches_single(self, params, rng):
        XI = np.array([random_state(rng) for _ in range(16)])
        U = rng.uniform(0, 22, (16, 4))
        batch = ode_rhs_batch(XI, U, params)
        for i in range(16):
            np.testing.assert_allclose(batch[i], ode_rhs(XI[i], U[i], params), atol=1e-14)

    def test_cross_products_equal_np_cross_exactly(self, params, rng):
        # reference: the velocity and rate rows written with np.cross
        XI = np.array([random_state(rng, vel_scale=3.0, rate_scale=10.0) for _ in range(64)])
        U = rng.uniform(0, 22, (64, 4))
        J = np.array([params.Jxx, params.Jyy, params.Jzz])
        batch = ode_rhs_batch(XI, U, params)
        for i in range(64):
            v, w = XI[i, 7:10], XI[i, 10:13]
            fb, mb = forces_moments(U[i], params)
            R = quat_to_rotmat(XI[i, 3:7])
            dv = fb / params.m - params.g * R[2, :] - np.cross(w, v)
            dw = (mb - np.cross(w, J * w)) / J
            single = ode_rhs(XI[i], U[i], params)
            np.testing.assert_array_equal(single[7:10], dv)
            np.testing.assert_array_equal(single[10:13], dw)
        W = XI[:, 10:13]
        dv_batch = -params.g * np.array([quat_to_rotmat(q)[2] for q in XI[:, 3:7]])
        dv_batch = dv_batch - np.cross(W, XI[:, 7:10])
        dv_batch[:, 2] += params.CT * (U**2).sum(axis=1) / params.m
        np.testing.assert_array_equal(batch[:, 7:10], dv_batch)
        gyro = np.cross(W, W * J)
        for i in range(64):
            _, mb = forces_moments(U[i], params)
            np.testing.assert_array_equal(batch[i, 10:13], (mb - gyro[i]) / J)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.tuples(
            *[st.floats(-10.0, 10.0)] * 3,
            # quaternion components drawn independently: not unit norm
            *[st.floats(-1.5, 1.5)] * 4,
            *[st.floats(-5.0, 5.0)] * 3,
            *[st.floats(-50.0, 50.0)] * 3,
        ),
        st.tuples(*[st.floats(0.0, 22.0)] * 4),
    )
    def test_scalar_matches_batch_property(self, xi, u):
        params = ASYMMETRIC
        xi, u = np.array(xi), np.array(u)
        single = ode_rhs(xi, u, params)
        batch = ode_rhs_batch(xi[None, :], u[None, :], params)[0]
        assert np.all(np.abs(single - batch) <= 1e-14 * np.maximum(1.0, np.abs(batch)))

    def test_plant_loop_tracks_vector_form_reference(self):
        # 1 s of 1 ms plant micro-steps, each ERK4 plus renormalization as in
        # the simulator, against the ODE written with rotation matrices and np.cross
        params = ASYMMETRIC
        J = np.array([params.Jxx, params.Jyy, params.Jzz])

        def reference(xi, u):
            R = quat_to_rotmat(xi[3:7])
            v, w = xi[7:10], xi[10:13]
            fb, mb = forces_moments(u, params)
            out = np.empty(NX)
            out[0:3] = R @ v
            out[3:7] = 0.5 * quat_multiply(xi[3:7], np.array([0.0, *w]))
            out[7:10] = fb / params.m - params.g * R[2, :] - np.cross(w, v)
            out[10:13] = (mb - np.cross(w, J * w)) / J
            return out

        x0 = hover_state((0.3, -0.2, 1.0))
        x0[3:7] = quat_from_rotvec(np.array([0.3, -0.2, 0.8]))
        x0[7:10] = [0.8, -0.5, 0.3]
        x0[10:13] = [3.0, -2.0, 1.5]
        phases = np.array([0.0, 1.3, 2.1, 4.0])
        x, x_ref = x0.copy(), x0.copy()
        for k in range(1000):
            u = params.hover_input() * (1.0 + 0.05 * np.sin(0.02 * k + phases))
            x = erk4_step(lambda s: ode_rhs(s, u, params), x, 1e-3)
            x[3:7] = quat_normalize(x[3:7])
            x_ref = erk4_step(lambda s: reference(s, u), x_ref, 1e-3)
            x_ref[3:7] = quat_normalize(x_ref[3:7])
        assert np.linalg.norm(x - x0) > 1.0
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12)

    def test_jacobians_match_finite_differences(self, params, rng):
        for _ in range(100):
            xi = random_state(rng)
            u = rng.uniform(1.0, 21.0, 4)
            fx, fu = (J[0] for J in ode_jacobians_batch(xi[None, :], u[None, :], params))
            fx_fd = central_diff_jacobian(lambda x: ode_rhs(x, u, params), xi)
            fu_fd = central_diff_jacobian(lambda v: ode_rhs(xi, v, params), u)
            assert np.abs(fx - fx_fd).max() / np.abs(fx).max() < 1e-6
            assert np.abs(fu - fu_fd).max() / np.abs(fu).max() < 1e-6

    def test_term_table_matches_batch_rhs(self, rng):
        # the table's flat sum of terms against the kernel, on the property test's ranges
        params = ASYMMETRIC
        B = 2000
        hi = np.repeat([10.0, 1.5, 5.0, 50.0, 22.0], [3, 4, 3, 3, 4])
        Z = rng.uniform(np.r_[-hi[:NX], np.zeros(4)], hi, (B, NX + 4))
        f = np.zeros((B, NX))
        scale = np.zeros((B, NX))
        for row, c, mono in ode_terms(params):
            value = c * np.prod(Z[:, list(mono)], axis=1)
            f[:, row] += value
            scale[:, row] += np.abs(value)
        batch = ode_rhs_batch(Z[:, :NX], Z[:, NX:], params)
        assert np.all(np.abs(f - batch) <= 1e-14 * scale)

    def test_jacobians_match_complex_step(self, rng):
        # exact derivatives of the independent vector form, quaternions off the unit sphere
        params = ASYMMETRIC
        for _ in range(50):
            xi = random_state(rng, rate_scale=10.0)
            xi[3:7] *= rng.uniform(0.5, 1.5)
            u = rng.uniform(0.0, 22.0, 4)
            fx, fu = (J[0] for J in ode_jacobians_batch(xi[None, :], u[None, :], params))
            J = complex_step_jacobian(lambda z: ode_vector_form(z[:NX], z[NX:], params), np.r_[xi, u])
            assert np.abs(fx - J[:, :NX]).max() <= 1e-13 * np.abs(J[:, :NX]).max()
            assert np.abs(fu - J[:, NX:]).max() <= 1e-13 * np.abs(J[:, NX:]).max()

    def test_jacobian_batch_matches_single(self, params, rng):
        XI = np.array([random_state(rng) for _ in range(8)])
        U = rng.uniform(0, 22, (8, 4))
        FX, FU = ode_jacobians_batch(XI, U, params)
        for i in range(8):
            fx, fu = ode_jacobians_batch(XI[i : i + 1], U[i : i + 1], params)
            np.testing.assert_allclose(FX[i], fx[0])
            np.testing.assert_allclose(FU[i], fu[0])


class TestErk4:
    def test_zero_field(self):
        x = np.arange(5.0)
        np.testing.assert_allclose(erk4_step(lambda x: np.zeros(5), x, 0.7), x)

    def test_constant_field_exact(self):
        c = np.array([1.0, -2.0, 0.5])
        x = np.zeros(3)
        np.testing.assert_allclose(erk4_step(lambda x: c, x, 0.3), 0.3 * c, rtol=1e-15)

    def test_zero_step(self, params):
        xi = hover_state()
        out = erk4_step(lambda x: ode_rhs(x, np.zeros(4), params), xi, 0.0)
        np.testing.assert_allclose(out, xi)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            erk4_step(lambda x: x, np.ones(2), -0.1)

    def test_convergence_order(self, params):
        # perturbed hover, self-convergence against a fine reference
        xi = hover_state()
        xi[3:7] = quat_from_rotvec(np.array([0.12, -0.08, 0.3]))
        xi[7:10] = [0.3, -0.2, 0.1]
        xi[10:13] = [1.0, -0.8, 0.5]
        u = params.hover_input() * np.array([1.05, 0.97, 1.02, 0.99])
        f = lambda x: ode_rhs(x, u, params)
        T = 0.2

        def integrate(n):
            x = xi.copy()
            for _ in range(n):
                x = erk4_step(f, x, T / n)
            return x

        ref = integrate(4096)
        errors = [np.linalg.norm(integrate(n) - ref) for n in (4, 8, 16, 32)]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(3)]
        assert min(orders) >= 3.8

    def test_hover_fixed_point_under_integration(self, params):
        xi = hover_state((1.0, 2.0, 3.0))
        u = params.hover_input()
        x = xi.copy()
        for _ in range(100):
            x = erk4_step(lambda s: ode_rhs(s, u, params), x, 0.01)
        np.testing.assert_allclose(x, xi, atol=1e-12)

    def test_quaternion_drift_small_and_normalizable(self, params):
        xi = hover_state()
        xi[10:13] = [2.0, 1.0, -1.5]
        u = params.hover_input()
        x = xi.copy()
        for _ in range(100):
            x = erk4_step(lambda s: ode_rhs(s, u, params), x, 0.01)
        drift = abs(np.linalg.norm(x[3:7]) - 1.0)
        assert drift < 1e-6
        assert abs(np.linalg.norm(quat_normalize(x[3:7])) - 1.0) < 1e-12
