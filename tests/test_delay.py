import numpy as np
import pytest

from quadnmpc import dynamics as dyn
from quadnmpc.delay import (
    DelayConfig,
    InputBuffer,
    StateHistory,
    predict,
)


class TestDelayConfig:
    def test_round_trip_sum(self):
        cfg = DelayConfig(tau1=0.03, tau2=0.02, tauc=0.01)
        assert cfg.round_trip == pytest.approx(0.06)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DelayConfig(tau1=-0.01)

    def test_cycle_multiple_lumped_into_measurement(self):
        cfg = DelayConfig.from_cycle_multiple(4, 0.015)
        assert cfg.tau1 == pytest.approx(0.06)
        assert cfg.tau2 == cfg.tauc == 0.0
        assert cfg.round_trip == pytest.approx(4 * 0.015)


class TestBuffers:
    def test_input_buffer_sample_and_hold(self):
        buf = InputBuffer()
        buf.push(0.0, np.full(4, 1.0))
        buf.push(0.015, np.full(4, 2.0))
        buf.push(0.030, np.full(4, 3.0))
        np.testing.assert_allclose(buf.at(0.000), 1.0)
        np.testing.assert_allclose(buf.at(0.014), 1.0)
        np.testing.assert_allclose(buf.at(0.015), 2.0)
        np.testing.assert_allclose(buf.at(0.1), 3.0)
        np.testing.assert_allclose(buf.at(-1.0), 1.0)

    def test_strictly_increasing_enforced(self):
        buf = InputBuffer()
        buf.push(0.0, np.zeros(4))
        with pytest.raises(ValueError):
            buf.push(0.0, np.ones(4))

    def test_trim_keeps_reconstruction(self):
        buf = InputBuffer()
        for k in range(10):
            buf.push(k * 0.015, np.full(4, float(k)))
        buf.trim(0.05)
        np.testing.assert_allclose(buf.at(0.05), 3.0)
        assert len(buf) < 10

    def test_trimmed_lookups_equal_untrimmed(self, rng):
        # grid times accumulated like the simulator's micro-steps
        times = [-1.0] + [k * 0.015 + j * 1e-3 + 1e-3 for k in range(20) for j in range(15)]
        for make in (StateHistory, InputBuffer):
            full, trimmed = make(), make()
            for t in times:
                value = rng.normal(size=13)
                full.push(t, value)
                trimmed.push(t, value)
            for t_keep in (-2.0, -1.0, 0.0, 0.06, 0.15 - 0.06, 0.1234, times[-1], 5.0):
                trimmed.trim(t_keep)
                probes = [t_keep, t_keep + 1e-10, t_keep + 7e-4, times[-1], times[-1] + 1.0]
                probes += [t for t in times if t >= t_keep]
                for t in probes:
                    np.testing.assert_array_equal(trimmed.at(t), full.at(t))
            assert len(trimmed) == 1

    def test_empty_buffer_returns_none(self):
        assert InputBuffer().at(0.0) is None

    def test_history_before_start_returns_initial(self):
        hist = StateHistory()
        hist.push(0.0, dyn.hover_state((1, 2, 3)))
        hist.push(0.1, dyn.hover_state((4, 5, 6)))
        np.testing.assert_allclose(hist.at(0.05 - 0.2)[:3], [1, 2, 3])


class TestDelayedLookups:
    def test_zero_delay_returns_current(self):
        hist = StateHistory()
        for k in range(5):
            hist.push(k * 0.01, dyn.hover_state((k, 0, 0)))
        np.testing.assert_allclose(hist.at(0.04 - 0.0)[:3], [4, 0, 0])

    def test_constant_history_any_delay(self):
        hist = StateHistory()
        for k in range(5):
            hist.push(k * 0.01, dyn.hover_state((7, 7, 7)))
        for tau in (0.0, 0.01, 0.035):
            np.testing.assert_allclose(hist.at(0.04 - tau)[:3], 7.0)

    def test_ramp_history_shifts_by_delay(self):
        hist = StateHistory()
        for k in range(101):
            t = k * 0.01
            hist.push(t, dyn.hover_state((t, 0, 0)))
        out = hist.at(0.5 - 0.03)
        # sample-and-hold on the stored grid: exact up to one sample interval
        assert out[0] == pytest.approx(0.47, abs=0.0101)

    def test_delayed_actuation(self):
        buf = InputBuffer()
        buf.push(0.0, np.full(4, 1.0))
        buf.push(0.015, np.full(4, 2.0))
        np.testing.assert_allclose(buf.at(0.02 - 0.0), 2.0)
        np.testing.assert_allclose(buf.at(0.02 - 0.01), 1.0)


class TestPredictor:
    def test_zero_round_trip_identity(self, params, rng):
        from conftest import random_state

        xi = random_state(rng)
        buf = InputBuffer()
        buf.push(0.0, params.hover_input())
        np.testing.assert_array_equal(predict(xi, 0.0, buf, 0.0, params), xi)

    def test_hover_invariant(self, params):
        xi = dyn.hover_state((0.3, 0.2, 1.0))
        buf = InputBuffer()
        buf.push(0.0, params.hover_input())
        for tau in (0.015, 0.06, 0.5):
            out = predict(xi, 0.0, buf, tau, params)
            np.testing.assert_allclose(out, xi, atol=1e-12)

    def test_empty_buffer_assumes_hover(self, params):
        xi = dyn.hover_state()
        out = predict(xi, 0.0, InputBuffer(), 0.06, params)
        np.testing.assert_allclose(out, xi, atol=1e-12)

    def test_deterministic(self, params, rng):
        from conftest import random_state

        xi = random_state(rng)
        buf = InputBuffer()
        buf.push(0.0, rng.uniform(10, 20, 4))
        buf.push(0.015, rng.uniform(10, 20, 4))
        a = predict(xi, 0.0, buf, 0.06, params, steps=4)
        b = predict(xi, 0.0, buf, 0.06, params, steps=4)
        np.testing.assert_array_equal(a, b)

    def test_multistep_replays_simulator_exactly(self, params, rng):
        # same integrator, same micro-steps, same inputs: prediction equals truth
        h = 0.001
        tau_r = 0.06
        buf = InputBuffer()
        inputs = []
        for k in range(4):
            u = params.hover_input() * rng.uniform(0.9, 1.1, 4)
            buf.push(k * 0.015, u)
            inputs.append(u)
        xi = dyn.hover_state((0, 0, 0.4))
        xi[10:13] = [0.3, -0.2, 0.1]
        truth = xi.copy()
        for j in range(60):
            t = j * h
            u = buf.at(t)
            truth = dyn.erk4_step(lambda s: dyn.ode_rhs(s, u, params), truth, h)
            truth[3:7] = dyn.quat_normalize(truth[3:7])
        pred = predict(xi, 0.0, buf, tau_r, params, steps=60)
        assert np.abs(pred - truth).max() <= 1e-6

    def test_single_step_renormalizes_quaternion(self, params):
        xi = dyn.hover_state()
        xi[10:13] = [3.0, -2.0, 1.0]
        buf = InputBuffer()
        buf.push(0.0, params.hover_input())
        out = predict(xi, 0.0, buf, 0.06, params, steps=1)
        assert abs(np.linalg.norm(out[3:7]) - 1.0) <= 1e-12

    def test_negative_round_trip_rejected(self, params):
        with pytest.raises(ValueError):
            predict(dyn.hover_state(), 0.0, InputBuffer(), -0.01, params)
