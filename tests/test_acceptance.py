"""End-to-end acceptance criteria.

One test per criterion; each prints a PASS/FAIL line (run with ``-s`` or
``-v`` to see them live). Heavy simulation campaigns are shared through
session-scoped fixtures. Criterion 13 is a soft budget check that warns
instead of failing on slow machines.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import hover_window
from oracles import (
    central_diff_jacobian,
    dare_residual,
    dense_primal_from_qp,
    solve_qp_active_set_enum,
)
from test_qp import make_random_qp

from quadnmpc import dynamics as dyn
from quadnmpc.delay import DelayConfig, InputBuffer, predict
from quadnmpc.lqr import design_lqr, solve_discrete_are
from quadnmpc.ocp import OcpConfig, discrete_dynamics_batch, discrete_jacobians_batch
from quadnmpc.qp import expand, partial_condense, solve_dense_ipm, solve_riccati_ipm
from quadnmpc.rti import RtiController
from quadnmpc.sim import (
    SimConfig,
    compute_metrics,
    gen_helix,
    gen_smooth_step,
    reconstruct_commands,
    run_closed_loop,
    zstep_scenario,
)
from quadnmpc.studies import (
    _reference_qp,
    benchmark,
    compare_study,
    delay_study,
    horizon_study,
)

PARAMS = dyn.QuadrotorParams()
TAU_S = 0.015


def step(xi, u):
    """One prediction-model step of a single state: the batch with B = 1."""
    return discrete_dynamics_batch(xi[None], u[None], TAU_S, PARAMS)[0]


def report(num: int, name: str, ok: bool) -> bool:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}")
    return ok


@pytest.fixture(scope="session")
def smooth_step_gen():
    return gen_smooth_step(PARAMS, target=(1.0, -1.0, 1.0), start=(0.0, 0.0, 0.4), T=6.0, N=400)


@pytest.fixture(scope="session")
def smooth_step_track(smooth_step_gen):
    source, _ = smooth_step_gen
    cfg = SimConfig(scenario=source, ocp=OcpConfig(N=50, params=PARAMS), duration=7.5)
    trace = run_closed_loop(cfg)
    return cfg, trace


@pytest.fixture(scope="session")
def helix_track():
    cfg = SimConfig(scenario=gen_helix(PARAMS), ocp=OcpConfig(N=50, params=PARAMS), duration=15.0)
    trace = run_closed_loop(cfg)
    return cfg, trace


@pytest.fixture(scope="session")
def benchmark_result():
    return benchmark(PARAMS)


class TestCriterion01Dynamics:
    def test_dynamics_correctness(self):
        # hover equilibrium derivative: zero to machine precision
        xdot = dyn.ode_rhs(dyn.hover_state((0.2, -0.4, 1.0)), PARAMS.hover_input(), PARAMS)
        hover_ok = np.abs(xdot).max() <= 1e-13

        # observed ERK4 self-convergence order
        xi = dyn.hover_state()
        xi[3:7] = dyn.quat_from_rotvec(np.array([0.12, -0.08, 0.3]))
        xi[7:10] = [0.3, -0.2, 0.1]
        xi[10:13] = [1.0, -0.8, 0.5]
        u = PARAMS.hover_input() * np.array([1.05, 0.97, 1.02, 0.99])
        f = lambda x: dyn.ode_rhs(x, u, PARAMS)
        T = 0.2

        def integrate(n):
            x = xi.copy()
            for _ in range(n):
                x = dyn.erk4_step(f, x, T / n)
            return x

        ref = integrate(4096)
        errs = [np.linalg.norm(integrate(n) - ref) for n in (4, 8, 16, 32)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        order_ok = min(orders) >= 3.8

        # quaternion norm after renormalizing propagation, 1 simulated second
        cfg = SimConfig(
            scenario=zstep_scenario(PARAMS, amplitude=0.3),
            ocp=OcpConfig(N=20, params=PARAMS),
            duration=1.0,
        )
        trace = run_closed_loop(cfg)
        norms = np.linalg.norm(trace.state[:, 3:7], axis=1)
        norm_ok = np.abs(norms - 1.0).max() <= 1e-9

        ok = report(
            1,
            f"dynamics: hover residual, ERK4 order {min(orders):.2f}, quaternion norm",
            hover_ok and order_ok and norm_ok,
        )
        assert ok


class TestCriterion02Sensitivities:
    def test_jacobians_match_finite_differences(self, rng):
        from conftest import random_state

        worst = 0.0
        for _ in range(100):
            xi = random_state(rng)
            u = rng.uniform(2.0, 20.0, 4)
            _, (A,), (B,) = discrete_jacobians_batch(xi[None], u[None], TAU_S, PARAMS)
            A_fd = central_diff_jacobian(lambda x: step(x, u), xi)
            B_fd = central_diff_jacobian(lambda v: step(xi, v), u)
            worst = max(
                worst,
                np.abs(A - A_fd).max() / np.abs(A).max(),
                np.abs(B - B_fd).max() / np.abs(B).max(),
            )
        ok = report(2, f"sensitivities vs central differences (worst {worst:.2e})", worst <= 1e-5)
        assert ok


class TestCriterion03SolverEquivalence:
    def test_three_way_oracle_agreement(self, rng):
        worst_primal = 0.0
        worst_res = 0.0
        enum_checked = 0
        for _ in range(100):
            nu = int(rng.integers(1, 3))
            N = int(rng.integers(2, 11 if nu == 1 else 5))
            qp = make_random_qp(rng, N=N, nx=int(rng.integers(2, 5)), nu=nu)
            a = solve_riccati_ipm(qp, tol=1e-8)
            b = solve_dense_ipm(qp, tol=1e-8)
            assert a.status == b.status == "converged"
            for i in range(N):
                worst_primal = max(worst_primal, np.abs(a.u[i] - b.u[i]).max())
            worst_res = max(worst_res, a.residuals.max(), b.residuals.max())
            if nu * N <= 8:
                enum_checked += 1
                z = solve_qp_active_set_enum(qp)
                _, us = dense_primal_from_qp(qp, z)
                for i in range(N):
                    worst_primal = max(worst_primal, np.abs(a.u[i] - us[i]).max())
        ok = report(
            3,
            f"solver equivalence on 100 QPs ({enum_checked} enumerated), "
            f"primal {worst_primal:.2e}, residuals {worst_res:.2e}",
            worst_primal <= 1e-6 and worst_res <= 1.5e-8 and enum_checked >= 30,
        )
        assert ok


class TestCriterion04CondensingEquivalence:
    def test_block_size_invariance_on_tracking_qp(self):
        qp = _reference_qp(PARAMS, N=50)
        reference = None
        worst = 0.0
        for M in (1, 2, 5, 10, 25, 50):
            cond = partial_condense(qp, M)
            sol = expand(solve_riccati_ipm(cond.qp, tol=1e-8), cond)
            U = np.concatenate(sol.u)
            if reference is None:
                reference = U
            worst = max(worst, np.abs(U - reference).max())
        cond1 = partial_condense(qp, 1)
        identity_ok = (
            np.array_equal(cond1.qp.A, qp.A)
            and np.array_equal(cond1.qp.B, qp.B)
            and np.array_equal(cond1.qp.q, qp.q)
        )
        ok = report(
            4,
            f"condensing invariance over M in {{1,2,5,10,25,50}} (max dev {worst:.2e})",
            worst <= 1e-6 and identity_ok,
        )
        assert ok


class TestCriterion05ScalingCrossover:
    def test_pipeline_scaling_trends(self, benchmark_result):
        fit = benchmark_result.scaling["fit_exponents"]
        ratios = benchmark_result.scaling["dense_over_riccati_ratio"]
        riccati_ok = benchmark_result.verdicts["riccati_per_iter_scales_subquadratically"]
        dense_ok = benchmark_result.verdicts["dense_per_iter_scales_at_least_quadratically"]
        ratio_ok = benchmark_result.verdicts["ratio_increasing_with_horizon"]
        ok = report(
            5,
            f"scaling: riccati exp {fit['riccati']:.2f} (<=1.3), dense exp "
            f"{fit['dense']:.2f} (>=2), ratio {ratios[0]:.2f}->{ratios[-1]:.2f} increasing",
            riccati_ok and dense_ok and ratio_ok,
        )
        assert riccati_ok, "riccati per-iteration time must scale sub-quadratically"
        assert ratio_ok, "dense/riccati per-iteration ratio must increase with horizon"
        assert dense_ok, (
            "dense per-iteration time must scale at least quadratically; interpreter "
            "call-dispatch floors mask the cubic kernel at these sizes on slow hosts"
        )
        assert ok


class TestCriterion06RtiFixedPoint:
    def test_hover_feedback_is_stationary(self):
        cfg = OcpConfig(N=50, params=PARAMS)
        ctrl = RtiController(cfg, block_size=5)
        refs = hover_window(cfg)
        ctrl.prepare(refs)
        out = ctrl.feedback(dyn.hover_state())
        # the step norm is filled by the post-command step
        ctrl.post_command()
        u_dev = np.abs(out.u0 - PARAMS.hover_input()).max()
        ok = report(
            6,
            f"RTI fixed point: step norm {out.step_norm:.2e}, input dev {u_dev:.2e} krpm",
            out.step_norm <= 1e-6 and u_dev <= 1e-6,
        )
        assert ok


class TestCriterion07HorizonStudy:
    def test_rms_non_increasing_in_horizon(self):
        res = horizon_study(PARAMS)
        rms = [row["rms_m"] for row in res.rows]
        ok = report(
            7,
            "horizon study RMS over N=10..50: "
            + ", ".join("inf" if not math.isfinite(v) else f"{v:.3f}" for v in rms),
            res.verdicts["rms_non_increasing_in_horizon"],
        )
        assert ok


class TestCriterion08LqrVsNmpc:
    def test_comparison_and_dare(self):
        res = compare_study(PARAMS)
        by = {row["controller"]: row for row in res.rows}
        design = design_lqr(PARAMS)
        rel_residual = dare_residual(design.A, design.B, design.Q, design.R, design.P) / np.abs(
            design.P
        ).max()
        # the scalar case of the solver design_lqr calls: P^2 = P + 1, the golden ratio
        scalar = solve_discrete_are(np.eye(1), np.eye(1), np.eye(1), np.eye(1))[0, 0]
        scalar_ok = abs(scalar - (1 + math.sqrt(5)) / 2) <= 1e-10
        ok = report(
            8,
            f"NMPC z-ovs {by['nmpc']['z_overshoot_pct']:.2f}% < LQR "
            f"{by['lqr']['z_overshoot_pct']:.2f}%, settling {by['nmpc']['settling_s']:.2f}"
            f" <= {by['lqr']['settling_s']:.2f} s, DARE rel res {rel_residual:.1e}, "
            f"rho {design.closed_loop_radius:.5f}",
            all(res.verdicts.values())
            and rel_residual <= 1e-8
            and design.closed_loop_radius < 1.0
            and scalar_ok,
        )
        assert ok


class TestCriterion09DelayStudy:
    def test_overshoot_trend_and_compensation(self):
        res = delay_study(PARAMS)
        unc = [r for r in res.rows if not r["compensated"]]
        comp = [r for r in res.rows if r["compensated"]][0]
        ok = report(
            9,
            "delay study z-overshoot: "
            + ", ".join(
                f"lam={r['lambda']}:{'inf' if not math.isfinite(r['z_overshoot_pct']) else format(r['z_overshoot_pct'], '.2f')}%"
                for r in unc
            )
            + f"; compensated lam=4: {comp['z_overshoot_pct']:.2f}%",
            all(res.verdicts.values()),
        )
        assert ok


class TestCriterion10PredictorExactness:
    def test_sixty_ms_prediction_matches_ground_truth(self):
        # exact model, replayed inputs, predictor substeps on the micro grid
        cfg = SimConfig(
            scenario=zstep_scenario(PARAMS, amplitude=0.4),
            ocp=OcpConfig(N=30, params=PARAMS),
            duration=2.5,
            delay=DelayConfig.from_cycle_multiple(4, TAU_S, compensate=True, predictor_steps=60),
        )
        trace = run_closed_loop(cfg)
        worst = np.abs(trace.estimated - trace.state).max()
        exact_ok = trace.failure is None and worst <= 1e-6

        # replaying the buffered sequence beats holding the last command
        buf = InputBuffer()
        rng = np.random.default_rng(3)
        for k in range(4):
            buf.push(k * TAU_S, PARAMS.hover_input() * rng.uniform(0.85, 1.15, 4))
        xi = dyn.hover_state((0, 0, 0.4))
        xi[10:13] = [0.5, -0.3, 0.2]
        truth = xi.copy()
        for j in range(60):
            u = buf.at(j * 1e-3)
            truth = dyn.erk4_step(lambda s: dyn.ode_rhs(s, u, PARAMS), truth, 1e-3)
            truth[3:7] = dyn.quat_normalize(truth[3:7])
        err_replay = np.abs(predict(xi, 0.0, buf, 0.06, PARAMS, steps=4) - truth).max()
        err_latest = np.abs(
            predict(xi, 0.0, buf, 0.06, PARAMS, steps=4, mode="latest") - truth
        ).max()
        variant_ok = err_replay <= err_latest

        ok = report(
            10,
            f"predictor exactness {worst:.2e} (<=1e-6); replay {err_replay:.2e} "
            f"<= hold-last {err_latest:.2e}",
            exact_ok and variant_ok,
        )
        assert ok


class TestCriterion11TrajectoryExperiments:
    def test_smooth_step_generation(self, smooth_step_gen):
        source, res = smooth_step_gen
        kkt_ok = res.kkt_history[-1] <= 1e-6
        defects = []
        for i in range(0, 400, 7):
            nxt = step(source.rows[i, :13], source.rows[i, 13:])
            defects.append(np.abs(source.rows[i + 1, :13] - nxt).max())
        defect_ok = max(defects) <= 1e-6
        terminal_ok = np.abs(source.rows[-1, :3] - [1, -1, 1]).max() <= 1e-3
        ok = report(
            11,
            f"smooth step: KKT {res.kkt_history[-1]:.2e}, defect {max(defects):.2e}, "
            f"terminal error {np.abs(source.rows[-1, :3] - [1, -1, 1]).max():.2e} m",
            kkt_ok and defect_ok and terminal_ok,
        )
        assert ok

    def test_smooth_step_closed_loop_tracking(self, smooth_step_track):
        cfg, trace = smooth_step_track
        err = np.linalg.norm(trace.state[:, :3] - trace.ref, axis=1)
        rms = float(np.sqrt((err**2).mean()))
        bounds_ok = np.all(trace.u >= cfg.ocp.u_lower - 1e-12) and np.all(
            trace.u <= cfg.ocp.u_upper + 1e-12
        )
        ok = report(
            11,
            f"smooth-step tracking RMS {rms:.4f} m (<=0.05), bound violations: "
            f"{'none' if bounds_ok else 'PRESENT'}",
            trace.failure is None and rms <= 0.05 and bounds_ok,
        )
        assert ok

    def test_helix_closed_loop_tracking(self, helix_track):
        cfg, trace = helix_track
        m = compute_metrics(trace, cfg.ocp.u_lower, cfg.ocp.u_upper)
        err = np.linalg.norm(trace.state[:, :3] - trace.ref, axis=1)
        bounds_ok = np.all(trace.u >= cfg.ocp.u_lower - 1e-12) and np.all(
            trace.u <= cfg.ocp.u_upper + 1e-12
        )
        ok = report(
            11,
            f"helix tracking: max err {err.max():.3f} m, saturation {m.saturation_pct:.1f}%, "
            f"{'completed' if trace.failure is None else 'TRUNCATED'}",
            trace.failure is None and err.max() <= 0.3 and bounds_ok and m.saturation_pct < 50.0,
        )
        assert ok


class TestCriterion12CommandMapping:
    def test_pwm_map_values(self):
        _, _, _, pwm16 = reconstruct_commands(np.full(4, 16.0), dyn.hover_state())
        _, _, _, pwm0 = reconstruct_commands(np.full(4, 4.0703), dyn.hover_state())
        _, _, _, pwm_hi = reconstruct_commands(np.full(4, 22.0), dyn.hover_state())
        ok = report(
            12,
            f"command mapping: 16 krpm -> {pwm16}, 4.0703 krpm -> {pwm0}, 22 krpm -> {pwm_hi}",
            pwm16 == 44431 and pwm0 == 0 and pwm_hi == 65535,
        )
        assert ok


class TestCriterion13TimingSanity:
    def test_cycle_time_budget_soft(self, benchmark_result):
        rows = [
            r
            for r in benchmark_result.scaling["aggregate"]
            if r["N"] == 50 and r["solver"] == "riccati"
        ]
        mean_ms = rows[0]["mean_cycle_us"] / 1000.0
        max_ms = rows[0]["max_cycle_us"] / 1000.0
        within = mean_ms < 15.0
        report(
            13,
            f"timing sanity (soft): N=50 riccati cycle t_AVG {mean_ms:.1f} ms, "
            f"t_MAX {max_ms:.1f} ms vs 15 ms budget",
            within,
        )
        if not within:
            warnings.warn(
                f"mean N=50 cycle time {mean_ms:.1f} ms exceeds the 15 ms sampling "
                "budget on this machine (soft criterion: recorded, not failed)"
            )
        assert mean_ms > 0  # always recorded; budget miss only warns
