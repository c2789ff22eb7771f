import math

import numpy as np
import pytest

from quadnmpc import dynamics as dyn
from quadnmpc.delay import DelayConfig
from quadnmpc.ocp import OcpConfig
from quadnmpc.sim import (
    Butterworth2,
    Metrics,
    NoiseConfig,
    SampledTrajectory,
    SimConfig,
    SimTrace,
    VelocityFilterConfig,
    compute_metrics,
    gen_helix,
    gen_smooth_step,
    hover_scenario,
    read_reference_csv,
    reconstruct_commands,
    run_closed_loop,
    step_scenario,
    write_reference_csv,
    write_trace_csv,
    zstep_scenario,
)


def small_cfg(params, scenario, duration=2.0, N=20, **kw):
    return SimConfig(
        scenario=scenario,
        ocp=OcpConfig(N=N, params=params),
        duration=duration,
        **kw,
    )


class TestScenarios:
    def test_hover_holds(self, params):
        src = hover_scenario(params, p=(0.1, 0.2, 0.4))
        np.testing.assert_allclose(src.position(0.0), [0.1, 0.2, 0.4])
        np.testing.assert_allclose(src.position(99.0), [0.1, 0.2, 0.4])

    def test_step_scenario_endpoints(self, params):
        src = step_scenario(params)
        np.testing.assert_allclose(src.position(0.0), [0, 0, 0.4])
        np.testing.assert_allclose(src.position(100.0), [1, -1, 1])

    def test_zstep(self, params):
        src = zstep_scenario(params, amplitude=0.6)
        np.testing.assert_allclose(src.position(0.49), [0, 0, 0.4])
        np.testing.assert_allclose(src.position(0.5), [0, 0, 1.0])

    def test_window_streaming_fills_current_point(self, params):
        src = zstep_scenario(params)
        win = src.window(1.0, 7, 0.015)
        assert win.stages.shape == (7, 17)
        np.testing.assert_allclose(win.stages[:, 2], 1.0)

    @pytest.mark.parametrize(
        "t, stage_rows, terminal_row", [(0.0, [0, 0, 1, 1], 2), (0.03, [1, 1, 2, 2], 3)]
    )
    def test_sampled_window_previews_at_the_stage_spacing(self, t, stage_rows, terminal_row):
        # 15 ms stages over a 30 ms grid: each row is held for two stages, and
        # the terminal row is the one at t + N dt
        rows = np.zeros((10, 17))
        rows[:, 0] = 0.03 * np.arange(10)
        win = SampledTrajectory(0.03 * np.arange(10), rows).window(t, 4, 0.015)
        np.testing.assert_array_equal(win.stages, rows[stage_rows])
        np.testing.assert_array_equal(win.terminal, rows[terminal_row, : dyn.NX])


class TestHelix:
    def test_paper_parameters(self, params):
        src = gen_helix(params)
        assert len(src.rows) == 1001
        np.testing.assert_allclose(src.rows[0, :3], [0.3, 0.0, 0.38], atol=1e-12)
        assert src.rows[-1, 2] == pytest.approx(0.38 + 1000 * 0.002)

    def test_zero_radius_degenerates_to_vertical_ramp(self, params):
        src = gen_helix(params, radius=0.0)
        np.testing.assert_allclose(src.rows[:, 0], 0.0)
        np.testing.assert_allclose(src.rows[:, 1], 0.0)
        assert np.all(np.diff(src.rows[:, 2]) > 0)

    def test_velocity_is_position_derivative(self, params):
        src = gen_helix(params)
        dt = src.times[1] - src.times[0]
        num = np.gradient(src.rows[:, 0], dt)
        np.testing.assert_allclose(src.rows[:, 7], num, atol=2e-3)

    def test_invalid_parameters(self, params):
        with pytest.raises(ValueError):
            gen_helix(params, t_f=-1.0)


class TestSmoothStep:
    def test_generation_feasible(self, params):
        src, res = gen_smooth_step(
            params, target=(0.3, -0.3, 0.7), start=(0, 0, 0.4), T=2.25, N=150
        )
        assert res.kkt_history[-1] <= 1e-6
        np.testing.assert_allclose(src.rows[-1, :3], [0.3, -0.3, 0.7], atol=1e-3)
        # defect check by re-simulation
        from quadnmpc.ocp import discrete_dynamics_batch

        for i in range(0, 150, 10):
            row = src.rows[i : i + 1]
            nxt = discrete_dynamics_batch(row[:, :13], row[:, 13:], 0.015, params)[0]
            assert np.abs(src.rows[i + 1, :13] - nxt).max() <= 1e-6
        assert np.all(src.rows[:, 13:] >= -1e-9)
        assert np.all(src.rows[:, 13:] <= 22.0 + 1e-9)

    def test_trivial_target_is_constant_hover(self, params):
        src, res = gen_smooth_step(
            params, target=(0, 0, 0.4), start=(0, 0, 0.4), T=0.75, N=50
        )
        assert res.iterations <= 1
        np.testing.assert_allclose(src.rows[:, 2], 0.4, atol=1e-9)


class TestButterworth:
    def test_dc_gain_unity(self):
        filt = Butterworth2(10.0, 100.0)
        out = [filt.step(1.0) for _ in range(500)]
        assert out[-1][0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_in_zero_out(self):
        filt = Butterworth2(10.0, 100.0)
        np.testing.assert_array_equal([filt.step(0.0) for _ in range(100)], 0.0)

    def test_cutoff_attenuation(self):
        fs, fc = 100.0, 10.0
        t = np.arange(4000) / fs
        x = np.sin(2 * np.pi * fc * t)
        filt = Butterworth2(fc, fs)
        y = np.array([filt.step(v)[0] for v in x])
        amp = np.abs(y[2000:]).max()
        assert amp == pytest.approx(1 / math.sqrt(2), rel=0.02)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            Butterworth2(60.0, 100.0)
        with pytest.raises(ValueError):
            Butterworth2(0.0, 100.0)


class TestCommandReconstruction:
    def test_nominal_sixteen_krpm(self):
        r, p, w, pwm = reconstruct_commands(np.full(4, 16.0), dyn.hover_state())
        assert pwm == 44431
        assert (r, p, w) == (0.0, 0.0, 0.0)

    def test_affine_zero(self):
        _, _, _, pwm = reconstruct_commands(np.full(4, 4.0703), dyn.hover_state())
        assert pwm == 0

    def test_clamped_at_16_bits(self):
        _, _, _, pwm = reconstruct_commands(np.full(4, 22.0), dyn.hover_state())
        assert pwm == 65535

    def test_angles_from_prediction(self):
        x = dyn.hover_state()
        x[dyn.QUAT] = dyn.quat_from_rotvec(np.array([0.1, 0.0, 0.0]))
        x[12] = 0.5
        roll, pitch, yaw_rate, _ = reconstruct_commands(np.full(4, 16.0), x)
        assert roll == pytest.approx(math.degrees(0.1))
        assert pitch == pytest.approx(0.0, abs=1e-9)
        assert yaw_rate == pytest.approx(math.degrees(0.5))


class TestClosedLoop:
    def test_hover_regulation_tight(self, params):
        cfg = small_cfg(params, hover_scenario(params), duration=1.5)
        trace = run_closed_loop(cfg)
        assert trace.failure is None
        err = np.abs(trace.state[:, :3] - trace.ref)
        assert err.max() <= 1e-6

    def test_quaternion_norm_preserved(self, params):
        cfg = small_cfg(params, zstep_scenario(params, amplitude=0.3), duration=2.0)
        trace = run_closed_loop(cfg)
        norms = np.linalg.norm(trace.state[:, 3:7], axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_inputs_always_within_bounds(self, params):
        cfg = small_cfg(params, zstep_scenario(params), duration=2.0)
        trace = run_closed_loop(cfg)
        assert np.all(trace.u >= cfg.ocp.u_lower - 1e-12)
        assert np.all(trace.u <= cfg.ocp.u_upper + 1e-12)

    def test_step_settles_with_zero_steady_state_error(self, params):
        cfg = SimConfig(
            scenario=step_scenario(params),
            ocp=OcpConfig(N=50, params=params),
            duration=7.5,
        )
        trace = run_closed_loop(cfg)
        m = compute_metrics(trace, cfg.ocp.u_lower, cfg.ocp.u_upper)
        assert math.isfinite(m.settling_s)
        assert np.abs(trace.state[-1, :3] - [1, -1, 1]).max() <= 1e-4

    def test_determinism_bitwise(self, params):
        def run():
            cfg = small_cfg(
                params,
                zstep_scenario(params, amplitude=0.3),
                duration=1.0,
                noise=NoiseConfig(enabled=True),
                vel_filter=VelocityFilterConfig(enabled=True),
                seed=42,
            )
            return run_closed_loop(cfg)

        a, b = run(), run()
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.measured, b.measured)

    def test_block_size_of_the_horizon_is_the_dense_pipeline(self, params):
        # a block never spans more than the horizon, so block size N condenses fully
        def run(**kw):
            scenario = zstep_scenario(params, amplitude=0.3)
            return run_closed_loop(small_cfg(params, scenario, duration=1.0, **kw))

        a, b = run(block_size=20), run(solver="dense")
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.state, b.state)
        for name in ("qp_iters", "qp_status", "kkt_stationarity", "step_norm", "x0_gap"):
            assert np.array_equal(a.column(name), b.column(name)), name

    def test_lqr_controller_runs(self, params):
        cfg = small_cfg(
            params, zstep_scenario(params, amplitude=0.3), duration=2.5, controller="lqr"
        )
        trace = run_closed_loop(cfg)
        assert trace.failure is None
        assert np.abs(trace.state[-1, 2] - 0.7) <= 0.01

    def test_compensated_estimate_matches_truth(self, params):
        # exact model + replayed inputs: the predictor cancels the delay
        cfg = small_cfg(
            params,
            zstep_scenario(params, amplitude=0.3),
            duration=2.0,
            N=30,
            delay=DelayConfig.from_cycle_multiple(
                4, 0.015, compensate=True, predictor_steps=60
            ),
        )
        trace = run_closed_loop(cfg)
        assert trace.failure is None
        assert np.abs(trace.estimated - trace.state).max() <= 1e-6

    def test_history_stays_bounded_over_long_delayed_flight(self, params, monkeypatch):
        import quadnmpc.sim as sim_module
        from quadnmpc.delay import StateHistory

        lengths = []

        class RecordingHistory(StateHistory):
            def push(self, t, xi):
                super().push(t, xi)
                lengths.append(len(self))

        monkeypatch.setattr(sim_module, "StateHistory", RecordingHistory)
        cfg = small_cfg(
            params,
            zstep_scenario(params, amplitude=0.3),
            duration=6.0,
            controller="lqr",
            delay=DelayConfig.from_cycle_multiple(4, 0.015, compensate=True),
        )
        trace = run_closed_loop(cfg)
        assert trace.failure is None and len(trace) == 400
        # the round trip plus one cycle of 1 ms micro-steps, and the entry before them
        assert max(lengths) <= round((0.06 + 0.015) / 1e-3) + 2
        assert len(lengths) == 1 + 400 * 15

    def test_micro_step_must_divide_sampling(self, params):
        with pytest.raises(ValueError):
            small_cfg(params, hover_scenario(params), micro_step=0.004)

    def test_divergence_truncates_with_failure(self, params):
        cfg = small_cfg(
            params,
            zstep_scenario(params, amplitude=0.6),
            duration=4.5,
            N=10,
            delay=DelayConfig.from_cycle_multiple(4, 0.015),
        )
        trace = run_closed_loop(cfg)
        assert trace.failure is not None
        m = compute_metrics(trace, cfg.ocp.u_lower, cfg.ocp.u_upper)
        assert m.diverged
        assert not np.isfinite(m.rms).any()


class TestMetrics:
    @staticmethod
    def synthetic_trace(t, p, ref):
        K = len(t)
        state = np.zeros((K, 13))
        state[:, 3] = 1.0
        state[:, :3] = p
        return SimTrace(
            t=t,
            state=state,
            measured=state.copy(),
            estimated=state.copy(),
            u=np.full((K, 4), 15.0),
            ref=ref,
        )

    def test_perfect_tracking(self):
        t = np.arange(100) * 0.015
        ref = np.zeros((100, 3))
        ref[50:, 2] = 1.0
        tr = self.synthetic_trace(t, ref.copy(), ref)
        m = compute_metrics(tr, np.zeros(4), np.full(4, 22.0))
        np.testing.assert_allclose(m.rms, 0.0)
        np.testing.assert_allclose(m.overshoot_pct, 0.0)
        assert m.settling_s == 0.0
        assert m.saturation_pct == 0.0

    def test_overshoot_twenty_percent(self):
        t = np.arange(200) * 0.015
        ref = np.zeros((200, 3))
        ref[10:, 2] = 1.0
        p = ref.copy()
        p[60, 2] = 1.2
        m = compute_metrics(self.synthetic_trace(t, p, ref))
        assert m.overshoot_pct[2] == pytest.approx(20.0)

    def test_settling_first_order_response(self):
        dt = 0.001
        t = np.arange(8000) * dt
        ref = np.zeros((len(t), 3))
        ref[1:, 0] = 1.0
        p = np.zeros_like(ref)
        p[1:, 0] = 1.0 - np.exp(-t[: len(t) - 1])
        m = compute_metrics(self.synthetic_trace(t, p, ref))
        assert m.settling_s == pytest.approx(-math.log(0.02), abs=0.01)

    def test_empty_trace_rejected(self):
        tr = self.synthetic_trace(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            compute_metrics(tr)


class TestCsvRoundTrip:
    def test_trace(self, params, tmp_path):
        cfg = small_cfg(params, hover_scenario(params), duration=0.3)
        trace = run_closed_loop(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        back = np.genfromtxt(path, delimiter=",", names=True)
        # the flight only; the controller's record of each cycle is diagnostics.csv
        assert ",".join(back.dtype.names) == (
            "t,x,y,z,qw,qx,qy,qz,vx,vy,vz,wx,wy,wz,u1,u2,u3,u4,ref_x,ref_y,ref_z"
        )
        columns = lambda names: np.column_stack([back[name] for name in names.split(",")])
        state = columns("x,y,z,qw,qx,qy,qz,vx,vy,vz,wx,wy,wz")
        np.testing.assert_allclose(state, trace.state, rtol=1e-6)
        np.testing.assert_allclose(columns("u1,u2,u3,u4"), trace.u, rtol=1e-6)
        np.testing.assert_allclose(columns("ref_x,ref_y,ref_z"), trace.ref, rtol=1e-6)
        assert back["t"].shape == trace.t.shape

    def test_reference_full(self, params, tmp_path):
        src = gen_helix(params, m=50)
        path = tmp_path / "helix.csv"
        write_reference_csv(path, src)
        back = read_reference_csv(path, params)
        np.testing.assert_allclose(back.rows, src.rows, atol=1e-9)
        np.testing.assert_allclose(back.times, src.times, atol=1e-9)

    def test_reference_minimal_columns(self, tmp_path):
        path = tmp_path / "min.csv"
        with open(path, "w") as fh:
            fh.write("t,x,y,z\n0.0,0.1,0.2,0.3\n0.015,0.1,0.2,0.4\n")
        heavy = dyn.QuadrotorParams(m=0.04)
        src = read_reference_csv(path, heavy)
        assert src.rows.shape == (2, 17)
        np.testing.assert_allclose(src.rows[1, :3], [0.1, 0.2, 0.4])
        assert src.rows[0, 3] == 1.0
        np.testing.assert_array_equal(src.rows[:, 13:], np.tile(heavy.hover_input(), (2, 1)))


class TestDiagnosticsCsv:
    def test_roundtrip_columns(self, params, tmp_path):
        from quadnmpc.sim import DIAGNOSTICS_COLUMNS, write_diagnostics_csv

        cfg = small_cfg(params, zstep_scenario(params, amplitude=0.2), duration=0.6)
        trace = run_closed_loop(cfg)
        path = tmp_path / "diagnostics.csv"
        write_diagnostics_csv(path, trace)
        header = path.read_text().splitlines()[0]
        assert header == DIAGNOSTICS_COLUMNS
        back = np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="utf-8")
        assert len(back) == len(trace)
        np.testing.assert_allclose(back["qp_iters"], trace.column("qp_iters"))
        np.testing.assert_allclose(back["degraded"], trace.column("degraded").astype(int))
        np.testing.assert_array_equal(back["qp_status"], trace.column("qp_status"))
        # times are written with one decimal
        np.testing.assert_allclose(back["qp_linalg_us"], trace.column("qp_linalg_us"), atol=0.05)
        assert np.all(back["qp_linalg_us"] > 0.0)
        # the gap is written with four significant digits
        np.testing.assert_allclose(back["x0_gap"], trace.column("x0_gap"), rtol=5e-4)
        assert np.all(back["x0_gap"] >= 0.0)
