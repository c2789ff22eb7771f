import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    CondenseReference,
    RiccatiSweepReference,
    dense_primal_from_qp,
    solve_qp_active_set_enum,
    solve_qp_equality_kkt,
    stack_qp_dense,
)
from conftest import hover_window, random_state
from quadnmpc.dynamics import hover_state
from quadnmpc.ocp import OcpConfig, build_qp, discrete_dynamics_batch
from quadnmpc.qp import (
    OcpQp,
    QpNumericalError,
    QpSolution,
    _add_barrier,
    _RiccatiSweep,
    _stacked_stages,
    expand,
    kkt_residuals,
    partial_condense,
    solve_condensed_dense,
    solve_dense_ipm,
    solve_riccati_ipm,
    stage0_tangential_step,
    tangential_predictor,
)


def make_random_qp(rng, N=4, nx=3, nu=2, bound_scale=1.0):
    """Random stage QP with PSD state cost, PD input cost, finite bounds."""
    stages = {key: [] for key in ("A", "B", "c", "Q", "R", "q", "r", "lb", "ub")}
    for _ in range(N):
        A = rng.normal(size=(nx, nx))
        A *= 0.9 / max(1.0, np.abs(np.linalg.eigvals(A)).max())
        B = rng.normal(size=(nx, nu))
        L = rng.normal(size=(nx, nx)) * 0.5
        Q = L @ L.T + 0.1 * np.eye(nx)
        Lr = rng.normal(size=(nu, nu)) * 0.5
        R = Lr @ Lr.T + 0.5 * np.eye(nu)
        lb = rng.uniform(-2.0, -0.3, nu) * bound_scale
        ub = rng.uniform(0.3, 2.0, nu) * bound_scale
        stage = dict(
            A=A,
            B=B,
            c=rng.normal(size=nx) * 0.2,
            Q=Q,
            R=R,
            q=rng.normal(size=nx),
            r=rng.normal(size=nu),
            lb=lb,
            ub=ub,
        )
        for key, value in stage.items():
            stages[key].append(value)
    Lq = rng.normal(size=(nx, nx)) * 0.5
    return OcpQp(
        **{key: np.array(values) for key, values in stages.items()},
        Q_N=Lq @ Lq.T + 0.1 * np.eye(nx),
        q_N=rng.normal(size=nx),
        x0_residual=rng.normal(size=nx) * 0.5,
    )


def qp_arrays(qp):
    """Copies of every array of ``qp``, by name."""
    return {name: value.copy() for name, value in vars(qp).items() if isinstance(value, np.ndarray)}


def assert_same_iterates(a, b):
    assert a.iters == b.iters and a.status == b.status
    for name in ("x", "u", "pi", "lam_lo", "lam_hi"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestDataModel:
    def test_dimension_mismatch_raises(self, rng):
        qp = make_random_qp(rng)
        with pytest.raises(ValueError):
            OcpQp(**{**vars(qp), "A": qp.A[:, :2, :2]})

    def test_bounds_ordering_enforced(self, rng):
        qp = make_random_qp(rng)
        with pytest.raises(ValueError):
            OcpQp(**{**vars(qp), "lb": qp.ub, "ub": qp.lb})

    def test_continuity_constant_is_the_defect_of_the_zero_step(self, rng):
        # x_{i+1} = A_i x_i + B_i u_i + c_i misses by c_i at x = 0, u = 0
        qp = make_random_qp(rng)
        qp.x0_residual[:] = 0
        N, nx, nu = qp.B.shape
        zero = QpSolution(
            x=np.zeros((N + 1, nx)), u=np.zeros((N, nu)), pi=np.zeros((N + 1, nx)),
            lam_lo=np.zeros((N, nu)), lam_hi=np.zeros((N, nu)), iters=0, status="probe",
        )
        assert kkt_residuals(qp, zero).equality == np.abs(qp.c).max()

    def test_affine_model_reconstructs_f_at_linearization_point(self, params, rng):
        # at the linearization point (zero deviation) the affine model
        # predicts c_i = F(X_i, U_i) - X_{i+1}
        cfg = OcpConfig(N=3, params=params)
        X = np.array([random_state(rng) for _ in range(cfg.N + 1)])
        U = rng.uniform(2, 20, (cfg.N, 4))
        qp = build_qp(X, U, hover_window(cfg), X[0], cfg)
        F = discrete_dynamics_batch(X[:-1], U, cfg.dt, params)
        np.testing.assert_allclose(qp.c, F - X[1:], rtol=0, atol=1e-14)


class TestRiccatiIpm:
    def test_unconstrained_matches_dense_kkt(self, rng):
        for _ in range(20):
            qp = make_random_qp(rng, N=1, nx=3, nu=2, bound_scale=1e6)
            sol = solve_riccati_ipm(qp)
            assert sol.status == "converged"
            H, g, E, e, *_ = stack_qp_dense(qp)
            z, _ = solve_qp_equality_kkt(H, g, E, e)
            xs, us = dense_primal_from_qp(qp, z)
            np.testing.assert_allclose(sol.u[0], us[0], atol=1e-8)
            np.testing.assert_allclose(sol.x[1], xs[1], atol=1e-8)

    def test_scalar_active_bound_by_hand(self):
        # min 0.5 u^2 + u  s.t. 0 <= u <= 22  ->  u* = 0, lower multiplier 1
        qp = OcpQp(
            A=np.zeros((1, 1, 1)),
            B=np.zeros((1, 1, 1)),
            c=np.zeros((1, 1)),
            Q=np.zeros((1, 1, 1)),
            R=np.ones((1, 1, 1)),
            q=np.zeros((1, 1)),
            r=np.ones((1, 1)),
            lb=np.zeros((1, 1)),
            ub=np.full((1, 1), 22.0),
            Q_N=np.zeros((1, 1)),
            q_N=np.zeros(1),
            x0_residual=np.zeros(1),
        )
        sol = solve_riccati_ipm(qp)
        assert sol.status == "converged"
        assert abs(sol.u[0][0]) < 1e-8
        assert sol.lam_lo[0][0] == pytest.approx(1.0, abs=1e-6)

    def test_zero_data_solves_to_zero(self, rng):
        # a KKT point by construction: no gradients, no residuals
        qp = make_random_qp(rng, N=5)
        qp.q[:] = 0
        qp.r[:] = 0
        qp.c[:] = 0
        qp.q_N[:] = 0
        qp.x0_residual[:] = 0
        sol = solve_riccati_ipm(qp, tol=1e-8)
        assert sol.status == "converged"
        assert max(np.abs(v).max() for v in sol.u) < 1e-7
        assert np.abs(sol.x).max() < 1e-7

    def test_residuals_recomputed_and_small(self, rng):
        for _ in range(10):
            qp = make_random_qp(rng, N=6)
            sol = solve_riccati_ipm(qp, tol=1e-8)
            assert sol.status == "converged"
            res = kkt_residuals(qp, sol)
            assert res.max() <= 1e-8 * 1.01

    def test_max_iterations_returns_best_iterate(self, rng):
        qp = make_random_qp(rng, N=4)
        sol = solve_riccati_ipm(qp, tol=1e-14, max_iters=2)
        assert sol.status == "max_iterations"
        assert sol.iters == 2
        assert sol.residuals is not None

    def test_indefinite_raises_numerical_error(self, rng):
        # strongly concave input cost defeats the barrier diagonal immediately
        qp = make_random_qp(rng, N=2)
        qp.R[0] = -1e6 * np.eye(2)
        with pytest.raises(QpNumericalError):
            solve_riccati_ipm(qp)

    def test_repeated_solves_give_the_same_iterates(self, rng):
        for _ in range(10):
            qp = make_random_qp(rng, N=int(rng.integers(1, 8)))
            before = qp_arrays(qp)
            first = solve_riccati_ipm(qp, 1e-8, 50)
            assert_same_iterates(solve_riccati_ipm(qp, 1e-8, 50), first)
            # the solves write their barrier Hessians into buffers of their own
            for name, value in qp_arrays(qp).items():
                assert np.array_equal(value, before[name]), name

    @pytest.mark.parametrize("N", [1, 2, 80])
    def test_start_is_rolled_out_from_the_initial_state(self, rng, N):
        qp = make_random_qp(rng, N=N)
        sol = solve_riccati_ipm(qp, max_iters=0)
        assert sol.iters == 0 and sol.status == "max_iterations"
        np.testing.assert_array_equal(sol.u, 0.5 * (qp.lb + qp.ub))
        assert not sol.pi.any()
        scale = max(1.0, np.abs(sol.x).max())
        assert kkt_residuals(qp, sol).equality <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_slack_raises_naming_it(self, seed):
        # at tol 0 the loop runs on until an active bound's slack rounds to zero;
        # the solve then stops before it factorizes an infinite barrier diagonal
        qp = make_random_qp(np.random.default_rng(seed), N=6, nx=3, nu=2, bound_scale=0.1)
        with pytest.raises(QpNumericalError, match=r"bound slack of input \d at stage \d reached"):
            solve_riccati_ipm(qp, tol=0.0)

    def test_agrees_with_enumeration_oracle(self, rng):
        for _ in range(25):
            N = int(rng.integers(2, 5))
            nu = int(rng.integers(1, 3))
            if N * nu > 8:
                continue
            qp = make_random_qp(rng, N=N, nx=int(rng.integers(2, 4)), nu=nu)
            sol = solve_riccati_ipm(qp)
            assert sol.status == "converged"
            z = solve_qp_active_set_enum(qp)
            xs, us = dense_primal_from_qp(qp, z)
            for i in range(N):
                np.testing.assert_allclose(sol.u[i], us[i], atol=1e-6)


class TestDenseIpm:
    def test_matches_riccati_on_random_instances(self, rng):
        for _ in range(30):
            N = int(rng.integers(1, 8))
            qp = make_random_qp(rng, N=N, nx=int(rng.integers(2, 5)), nu=int(rng.integers(1, 4)))
            a = solve_riccati_ipm(qp)
            b = solve_dense_ipm(qp)
            assert a.status == b.status == "converged"
            for i in range(N):
                np.testing.assert_allclose(a.u[i], b.u[i], atol=1e-6)
                np.testing.assert_allclose(a.x[i], b.x[i], atol=1e-6)
            assert b.residuals.max() <= 1e-7

    def test_single_stage_matches_dense_kkt(self, rng):
        qp = make_random_qp(rng, N=1, bound_scale=1e6)
        sol = solve_dense_ipm(qp)
        H, g, E, e, *_ = stack_qp_dense(qp)
        z, _ = solve_qp_equality_kkt(H, g, E, e)
        xs, us = dense_primal_from_qp(qp, z)
        np.testing.assert_allclose(sol.u[0], us[0], atol=1e-8)

    def test_fully_saturated_instance(self, rng):
        # gradients push every input far beyond its upper bound
        qp = make_random_qp(rng, N=3)
        qp.S[:] = 0
        qp.B[:] = 0
        qp.r[:] = -100.0
        qp.x0_residual[:] = 0
        sol = solve_dense_ipm(qp)
        for ub, u in zip(qp.ub, sol.u):
            np.testing.assert_allclose(u, ub, atol=1e-6)

    def test_repeated_solves_give_the_same_iterates(self, rng):
        cqp = partial_condense(make_random_qp(rng, N=6), 6).qp
        before = qp_arrays(cqp)
        first = solve_condensed_dense(cqp, 1e-8, 50)
        assert first.iters > 1
        assert_same_iterates(solve_condensed_dense(cqp, 1e-8, 50), first)
        for name, value in qp_arrays(cqp).items():
            assert np.array_equal(value, before[name]), name

    def test_rejects_a_qp_that_is_not_fully_condensed(self, rng):
        with pytest.raises(ValueError):
            solve_condensed_dense(make_random_qp(rng, N=2))

    @pytest.mark.parametrize("N", [120, 130])
    def test_long_horizon_step_converges(self, params, N):
        # hover at the origin with the reference at (0.6, 0, 0.6), fully
        # condensed; the stationarity residual's rounding floor nears the
        # default tolerance 1e-8 from about N = 140
        cfg = OcpConfig(N=N, params=params)
        X = np.tile(hover_state((0.0, 0.0, 0.0)), (N + 1, 1))
        U = np.tile(params.hover_input(), (N, 1))
        qp = build_qp(X, U, hover_window(cfg, (0.6, 0.0, 0.6)), X[0], cfg)
        assert solve_dense_ipm(qp).status == "converged"


class TestTangentialPredictor:
    @pytest.mark.parametrize("M", [1, 3, 6])
    def test_matches_a_full_solve_with_inactive_bounds(self, rng, M):
        # with the bounds out of reach the solution is affine in x0_residual, up
        # to barrier terms, so the first-order step lands on the solve at b0;
        # M = 6 is the one-stage (fully condensed) sweep
        for _ in range(5):
            qp = partial_condense(make_random_qp(rng, N=6, bound_scale=1e6), M).qp
            qp.x0_residual[:] = 0.0
            sol = solve_riccati_ipm(qp, tol=1e-10)
            b0 = 1e-3 * rng.normal(size=qp.nx)
            step = tangential_predictor(sol, b0)
            qp.x0_residual[:] = b0
            full = solve_riccati_ipm(qp, tol=1e-10)
            assert full.status == "converged"
            for name in ("x", "u", "pi", "lam_lo", "lam_hi"):
                np.testing.assert_allclose(getattr(step, name), getattr(full, name), atol=1e-8)
            assert kkt_residuals(qp, step).max() <= 1e-8

    def test_inputs_at_strongly_active_bounds_do_not_move(self, rng):
        qp = make_random_qp(rng, N=4)
        qp.r[:] = -50.0  # the unconstrained optimum lies far past every upper bound
        qp.x0_residual[:] = 0.0
        sol = solve_riccati_ipm(qp)
        np.testing.assert_allclose(sol.u, qp.ub, atol=1e-6)
        b0 = 1e-2 * rng.normal(size=qp.nx)
        step = tangential_predictor(sol, b0)
        np.testing.assert_allclose(step.u - sol.u, 0.0, atol=1e-8)
        np.testing.assert_allclose(step.x[0] - sol.x[0], b0, rtol=0, atol=1e-14)
        # the active set does not change, so the multipliers move as the full solve's do
        qp.x0_residual[:] = b0
        full = solve_riccati_ipm(qp)
        for name in ("x", "pi", "lam_hi"):
            np.testing.assert_allclose(getattr(step, name), getattr(full, name), atol=1e-6)
        # the same shift moves the inputs when the bounds are out of reach
        qp.lb[:], qp.ub[:] = -1e6, 1e6
        loose = solve_riccati_ipm(qp)
        assert np.abs(tangential_predictor(loose, b0).u - loose.u).max() > 1e-4

    @pytest.mark.parametrize("M", [1, 3, 6])
    @pytest.mark.parametrize("r", [None, -50.0])
    def test_stage0_step_is_the_full_step_bit_for_bit(self, rng, M, r):
        # r = -50 puts every input at its upper bound; M = 6 is the one-stage sweep
        for _ in range(3):
            qp = make_random_qp(rng, N=6)
            if r is not None:
                qp.r[:] = r
            qp = partial_condense(qp, M).qp
            sol = solve_riccati_ipm(qp)
            b0 = 1e-2 * rng.normal(size=qp.nx)
            np.testing.assert_array_equal(
                sol.u[0] + stage0_tangential_step(sol, b0), tangential_predictor(sol, b0).u[0]
            )


class TestCondensing:
    def test_block_size_validation(self, rng):
        qp = make_random_qp(rng, N=4)
        with pytest.raises(ValueError):
            partial_condense(qp, 0)
        # a block never spans more than the horizon
        wide, full = partial_condense(qp, 5).qp, partial_condense(qp, 4).qp
        for f in dataclasses.fields(OcpQp):
            np.testing.assert_array_equal(getattr(wide, f.name), getattr(full, f.name))

    def test_identity_for_block_size_one(self, rng):
        qp = make_random_qp(rng, N=5)
        cond = partial_condense(qp, 1)
        assert cond.qp.num_stages == qp.num_stages
        c, o = cond.qp, qp
        for i in range(qp.num_stages):
            np.testing.assert_allclose(c.A[i], o.A[i])
            np.testing.assert_allclose(c.B[i], o.B[i])
            np.testing.assert_allclose(c.Q[i], o.Q[i])
            np.testing.assert_allclose(c.R[i], o.R[i])
            np.testing.assert_allclose(c.q[i], o.q[i])
            np.testing.assert_allclose(c.r[i], o.r[i])
            np.testing.assert_allclose(c.c[i], o.c[i])
            np.testing.assert_allclose(c.S[i], 0.0)

    def test_stage_count_arithmetic(self, rng):
        qp = make_random_qp(rng, N=50, nx=2, nu=1)
        assert partial_condense(qp, 5).qp.num_stages == 10
        assert partial_condense(qp, 7).qp.num_stages == 8  # ragged tail block

    def test_full_condensing_matches_sparse_optimum(self, rng):
        for _ in range(10):
            qp = make_random_qp(rng, N=2)
            cond = partial_condense(qp, 2)
            csol = solve_riccati_ipm(cond.qp)
            full = expand(csol, cond)
            H, g, E, e, bidx, lb, ub = stack_qp_dense(qp)
            z = solve_qp_active_set_enum(qp)
            xs, us = dense_primal_from_qp(qp, z)
            for i in range(2):
                np.testing.assert_allclose(full.u[i], us[i], atol=1e-8)
                np.testing.assert_allclose(full.x[i], xs[i], atol=1e-8)

    def test_expansion_identity_for_block_one(self, rng):
        qp = make_random_qp(rng, N=4)
        cond = partial_condense(qp, 1)
        sol = solve_riccati_ipm(cond.qp)
        full = expand(sol, cond)
        for i in range(4):
            np.testing.assert_allclose(full.u[i], sol.u[i])
        np.testing.assert_allclose(full.x, sol.x)
        np.testing.assert_allclose(full.pi, sol.pi)

    def test_expanded_equality_residual_tiny(self, rng):
        qp = make_random_qp(rng, N=4)
        cond = partial_condense(qp, 2)
        full = expand(solve_riccati_ipm(cond.qp), cond)
        assert full.residuals.equality <= 1e-10

    def test_expanded_stationarity_within_solver_tolerance(self, rng):
        for _ in range(100):
            N = int(rng.integers(2, 7))
            M = int(rng.integers(1, N + 1))
            qp = make_random_qp(rng, N=N, nx=int(rng.integers(2, 4)), nu=int(rng.integers(1, 3)))
            cond = partial_condense(qp, M)
            full = expand(solve_riccati_ipm(cond.qp, tol=1e-9), cond)
            assert full.residuals.stationarity <= 1e-8

    def test_optimum_invariant_to_block_size(self, rng):
        qp = make_random_qp(rng, N=12, nx=3, nu=2)
        ref = None
        for M in (1, 2, 3, 4, 6, 12):
            cond = partial_condense(qp, M)
            full = expand(solve_riccati_ipm(cond.qp), cond)
            U = np.concatenate(full.u)
            if ref is None:
                ref = U
            else:
                np.testing.assert_allclose(U, ref, atol=1e-6)

    def test_expand_rejects_mismatched_solution(self, rng):
        qp = make_random_qp(rng, N=4)
        cond2 = partial_condense(qp, 2)
        cond4 = partial_condense(qp, 4)
        sol4 = solve_riccati_ipm(cond4.qp)
        with pytest.raises(ValueError):
            expand(sol4, cond2)

    def test_rejects_cross_terms(self, rng):
        qp = make_random_qp(rng, N=3)
        qp.S[1] = 1.0
        with pytest.raises(ValueError):
            partial_condense(qp, 2)


@st.composite
def banded_qps(draw):
    """A random banded QP with a block size in [1, N], ragged blocks included."""
    N = draw(st.integers(1, 12))
    M = draw(st.integers(1, N))
    nx = draw(st.integers(1, 4))
    nu = draw(st.integers(1, 3))
    loose = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    qp = make_random_qp(
        np.random.default_rng(seed), N=N, nx=nx, nu=nu, bound_scale=1e6 if loose else 1.0
    )
    return qp, M, loose


class TestCondensingProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(banded_qps())
    # ill-conditioned: at tol 1e-8 its inputs stop 1.4e-6 from the enumeration optimum
    @example((make_random_qp(np.random.default_rng(214038), N=7, nx=1, nu=1), 1, False))
    def test_condense_solve_expand_matches_oracles(self, case):
        qp, M, loose = case
        cond = partial_condense(qp, M)
        assert cond.qp.num_stages == -(-qp.num_stages // M)
        sol = expand(solve_riccati_ipm(cond.qp), cond)
        assert sol.status == "converged"
        assert sol.u.shape == (qp.num_stages, qp.nu)
        assert kkt_residuals(qp, sol).max() <= 1.5e-8
        # the stopping error at the default tolerance is amplified by the
        # conditioning, so the oracles are compared with a tighter solve
        sol = expand(solve_riccati_ipm(cond.qp, tol=1e-10), cond)
        if loose:
            H, g, E, e, *_ = stack_qp_dense(qp)
            z, _ = solve_qp_equality_kkt(H, g, E, e)
        elif qp.num_stages * qp.nu <= 8:
            z = solve_qp_active_set_enum(qp)
        else:
            return
        xs, us = dense_primal_from_qp(qp, z)
        np.testing.assert_allclose(sol.u, np.array(us), atol=1e-6)
        np.testing.assert_allclose(sol.x, np.array(xs), atol=1e-6)


@st.composite
def condensing_cases(draw):
    """A banded QP with zero-``Q`` stages and any block size."""
    N = draw(st.integers(1, 12))
    M = draw(st.integers(1, N))
    nx = draw(st.integers(1, 4))
    nu = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qp = make_random_qp(rng, N=N, nx=nx, nu=nu)
    zero_Q = draw(st.lists(st.booleans(), min_size=N, max_size=N))
    qp.Q[np.array(zero_Q)] = 0.0
    return qp, M


class TestCondensingRecursion:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(condensing_cases())
    def test_matches_rollout_reference(self, case):
        qp, M = case
        got = partial_condense(qp, M).qp
        ref = CondenseReference(qp, M)
        for name in ("A", "B", "c", "Q", "R", "S", "q", "r", "lb", "ub", "Q_N", "q_N", "x0_residual"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), name

    def test_condensed_hessian_exactly_symmetric(self, rng):
        qp = make_random_qp(rng, N=12, nx=4, nu=2)
        for M in (2, 5, 12):
            cqp = partial_condense(qp, M).qp
            assert np.array_equal(cqp.Q, cqp.Q.swapaxes(1, 2))
            assert np.array_equal(cqp.R, cqp.R.swapaxes(1, 2))


class TestIpmResiduals:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(banded_qps(), st.sampled_from([2, 50]))
    def test_equal_to_recomputed_residuals(self, case, max_iters):
        # the residuals of the loop's last iterate are those of the returned point, bit for bit
        qp, M, _ = case
        cqp = partial_condense(qp, M).qp
        sol = solve_riccati_ipm(cqp, 1e-8, max_iters)
        assert sol.residuals == kkt_residuals(cqp, sol)


def newton_system(seed, N, M, nx, nu, zero_Q, zero_Q_N):
    """A partially condensed QP (ragged blocks padded), a barrier diagonal and right-hand sides."""
    rng = np.random.default_rng(seed)
    qp = make_random_qp(rng, N=N, nx=nx, nu=nu)
    qp.Q[np.array(zero_Q, dtype=bool)] = 0.0
    if zero_Q_N:
        qp.Q_N[:] = 0.0
    cqp = partial_condense(qp, M).qp
    nb, nU = cqp.num_stages, cqp.nu
    D = rng.uniform(1e-3, 1e3, (nb, nU))
    rhs = (rng.normal(size=(nb + 1, nx)), rng.normal(size=(nb, nU)), rng.normal(size=(nb + 1, nx)))
    return cqp, D, rhs


@st.composite
def newton_systems(draw):
    """:func:`newton_system` over drawn sizes, block size and zero state costs."""
    N = draw(st.integers(1, 12))
    M = draw(st.integers(1, N))
    nx = draw(st.integers(1, 4))
    nu = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    zero_Q = draw(st.lists(st.booleans(), min_size=N, max_size=N))
    return newton_system(seed, N, M, nx, nu, zero_Q, draw(st.booleans()))


def sweep_of(qp, D):
    """The sweep of ``qp``'s Newton matrix with the barrier diagonal ``D``."""
    BA, W = _stacked_stages(qp)
    W_bar = W.copy()
    _add_barrier(W_bar, W, D)
    return _RiccatiSweep(qp.A, qp.B, BA, W_bar, qp.Q_N)


def newton_step(sweep, rx, ru, re):
    """``(dx, du, dpi)`` that ``sweep.solve`` writes into fresh arrays."""
    step = np.empty_like(rx), np.empty_like(ru), np.empty_like(rx)
    sweep.solve(rx, ru, re, *step)
    return step


class TestRiccatiSweep:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(newton_systems())
    # one-stage sweeps (M = N, fully condensed), with and without a terminal cost
    @example(newton_system(3, N=1, M=1, nx=3, nu=2, zero_Q=[False], zero_Q_N=False))
    @example(newton_system(4, N=8, M=8, nx=4, nu=3, zero_Q=[False] * 8, zero_Q_N=False))
    @example(newton_system(5, N=8, M=8, nx=4, nu=3, zero_Q=[False] * 8, zero_Q_N=True))
    @example(newton_system(6, N=5, M=5, nx=2, nu=1, zero_Q=[True] * 5, zero_Q_N=True))
    # the benchmark's shapes: 10 stages (N = 50) and 80 stages (N = 400) of
    # 13 states, whose recursions' band has 25 sub-diagonals
    @example(newton_system(7, N=50, M=5, nx=13, nu=4, zero_Q=[False] * 50, zero_Q_N=False))
    @example(newton_system(8, N=400, M=5, nx=13, nu=4, zero_Q=[False] * 400, zero_Q_N=False))
    def test_matches_per_stage_reference(self, case):
        qp, D, (rx, ru, re) = case
        R_bar = qp.R.copy()
        R_bar[:, range(qp.nu), range(qp.nu)] += D
        expected = RiccatiSweepReference(qp, R_bar).solve(rx, ru, re)
        for got, ref in zip(newton_step(sweep_of(qp, D), rx, ru, re), expected):
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(got - ref).max() <= 1e-12 * scale

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(newton_systems())
    @example(newton_system(3, N=6, M=6, nx=3, nu=2, zero_Q=[False] * 6, zero_Q_N=False))
    def test_primal_only_solve_matches_the_full_solve(self, case):
        # the predictor's solve skips the multiplier step and nothing else
        qp, D, rhs = case
        sweep = sweep_of(qp, D)
        dx, du, _ = newton_step(sweep, *rhs)
        primal = np.empty_like(dx), np.empty_like(du)
        sweep.solve(*rhs, *primal)
        assert np.array_equal(primal[0], dx) and np.array_equal(primal[1], du)
