import dataclasses
import inspect
import json

import numpy as np
import pytest

import quadnmpc.config as config_mod
from quadnmpc.cli import main
from quadnmpc.config import DEFAULTS, ConfigError, RunConfig
from quadnmpc.dynamics import QuadrotorParams
from quadnmpc.lqr import DEFAULT_LQR_Q, DEFAULT_LQR_R
from quadnmpc.ocp import OcpConfig
from quadnmpc.sim import (
    PositionSource,
    SampledTrajectory,
    SimConfig,
    gen_helix,
    gen_smooth_step,
    read_reference_csv,
)


def read_diagnostics(out_dir):
    return np.genfromtxt(
        out_dir / "diagnostics.csv", delimiter=",", names=True, dtype=None, encoding="utf-8"
    )


class TestConfig:
    def test_defaults_validate(self):
        rc = RunConfig.load()
        assert rc.get("nmpc", "N") == 50
        assert rc.make_params().m == 0.033
        ocp = rc.make_ocp()
        assert ocp.N * ocp.dt == pytest.approx(0.75)

    def test_defaults_are_the_dataclass_defaults(self):
        rc = RunConfig()
        assert rc.make_params() == QuadrotorParams()
        built, default = rc.make_ocp(), OcpConfig()
        for f in dataclasses.fields(OcpConfig):
            np.testing.assert_array_equal(getattr(built, f.name), getattr(default, f.name))
        sim = {f.name: f.default for f in dataclasses.fields(SimConfig)}
        assert rc.get("qp", "solver") == sim["solver"]
        assert rc.get("qp", "block_size") == sim["block_size"]
        assert rc.get("qp", "tol") == sim["qp_tol"]
        assert rc.get("qp", "max_iters") == sim["qp_max_iters"]
        # every field of the built SimConfig but the scenario, the horizon and
        # the CLI's longer flight is the dataclass default, nested ones included
        built = rc.make_sim()
        default = SimConfig(scenario=built.scenario, ocp=built.ocp)
        for f in dataclasses.fields(SimConfig):
            if f.name not in ("scenario", "ocp", "duration"):
                assert getattr(built, f.name) == getattr(default, f.name), f.name
        assert built.duration == 7.5
        # [traj] holds the generators' keyword defaults
        smooth = inspect.signature(gen_smooth_step).parameters
        for key in ("start", "target"):
            np.testing.assert_array_equal(rc.vector("traj", key, 3), smooth[key].default)
        assert rc.get("traj", "T") == smooth["T"].default
        assert rc.get("traj", "N") == smooth["N"].default
        helix, _ = rc.make_trajectory("helix")
        np.testing.assert_array_equal(helix.rows, gen_helix(QuadrotorParams()).rows)
        np.testing.assert_array_equal(helix.times, gen_helix(QuadrotorParams()).times)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(overrides=["nmpc.horizon=10"])
        with pytest.raises(ConfigError):
            RunConfig.load(overrides=["flight.N=10"])

    def test_override_types(self):
        rc = RunConfig.load(overrides=["nmpc.N=25", "delay.compensate=true", "qp.tol=1e-6"])
        assert rc.get("nmpc", "N") == 25
        assert rc.get("delay", "compensate") is True
        assert rc.get("qp", "tol") == 1e-6

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(overrides=["nmpc.N=ten"])
        with pytest.raises(ConfigError):
            RunConfig.load(overrides=["model.m=-1"])

    def test_compensation_needs_a_predictor_step_per_cycle(self):
        with pytest.raises(ConfigError, match=r"delay\.predictor_steps=2 "):
            RunConfig.load(overrides=["delay.tau1=0.03", "delay.compensate=true"])
        with pytest.raises(ConfigError, match=r"delay\.predictor_steps=3 "):
            RunConfig.load(
                overrides=["delay.tau1=0.03", "delay.tauc=0.01", "delay.compensate=true"]
            )
        rc = RunConfig.load(
            overrides=["delay.tau1=0.03", "delay.compensate=true", "delay.predictor_steps=2"]
        )
        assert rc.make_delay().round_trip == pytest.approx(0.03)
        assert rc.make_delay().predictor_steps == 2
        # uncompensated, the predictor is not used
        RunConfig.load(overrides=["delay.tau1=0.03"])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[nmpc]\nN = 30\n[sim]\nscenario = zstep\nduration = 2.0\n")
        rc = RunConfig.load(path)
        assert rc.get("nmpc", "N") == 30
        assert rc.get("sim", "scenario") == "zstep"

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nmpc\nN = 30\n")
        with pytest.raises(ConfigError):
            RunConfig.load(path)

    def test_position_only_reference_hovers_at_the_configured_mass(self, tmp_path):
        path = tmp_path / "positions.csv"
        path.write_text("t,x,y,z\n0.0,0.0,0.0,0.4\n0.015,0.0,0.0,0.5\n")
        rc = RunConfig.load(
            overrides=["model.m=0.04", "sim.scenario=file", f"sim.reference_csv={path}"]
        )
        hover = QuadrotorParams(m=0.04).hover_input()
        assert hover[0] == pytest.approx(17.4, abs=0.05)
        np.testing.assert_array_equal(rc.make_scenario().rows[:, 13:], np.tile(hover, (2, 1)))

    def test_weight_vectors(self):
        rc = RunConfig.load()
        W = rc.vector("nmpc", "W", 17)
        assert W[0] == 120.0
        assert W[13] == pytest.approx(6e-2)
        assert DEFAULT_LQR_Q[2] == pytest.approx(9e5)
        assert np.all(DEFAULT_LQR_R == 0.12)


def scaled(section, key, factor):
    """The override setting the vector ``section.key`` to its default times ``factor``."""
    values = [float(v) * factor for v in str(DEFAULTS[section][key]).split(",")]
    return f"{section}.{key}=" + ",".join(repr(v) for v in values)


def same_build(a, b) -> bool:
    """Whether two builds hold the same values; reference sources compare by their rows."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (PositionSource, SampledTrajectory)):
        times = np.arange(0.0, 10.0, 0.05)
        def rows(source):
            return [source.window(t, 1, 0.0).stages[0] for t in times]

        return np.array_equal(rows(a), rows(b))
    if dataclasses.is_dataclass(a):
        return all(
            same_build(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_build, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_build(a[k], b[k]) for k in a)
    return a == b


class TestEveryKeyIsRead:
    @pytest.fixture
    def generator_calls(self, monkeypatch):
        """Stub the trajectory generators: record their arguments, run no SQP."""
        calls = []
        for kind, (_, keys) in list(config_mod.TRAJECTORIES.items()):
            source = SampledTrajectory(np.zeros(1), np.zeros((1, 17)))
            result = source if kind == "helix" else (source, None)

            def gen(params, _kind=kind, _result=result, **kwargs):
                calls.append((_kind, params, kwargs))
                return _result

            monkeypatch.setitem(config_mod.TRAJECTORIES, kind, (gen, keys))
        return calls

    def test_every_key_changes_what_its_command_builds(self, tmp_path, generator_calls):
        def build(overrides):
            rc = RunConfig.load(overrides=overrides)
            generator_calls.clear()
            sim = rc.make_sim()  # simulate
            for kind in config_mod.TRAJECTORIES:  # trajgen KIND
                rc.make_trajectory(kind)
            return sim, list(generator_calls)

        low, high = tmp_path / "low.csv", tmp_path / "high.csv"
        low.write_text("t,x,y,z\n0.0,0.0,0.0,0.4\n")
        high.write_text("t,x,y,z\n0.0,0.0,0.0,0.5\n")
        noisy = ["sim.noise=true"]
        # the overrides under which a key is read
        context = {
            ("delay", "compensate"): ["delay.tau1=0.015"],
            ("delay", "predictor_steps"): ["delay.tau1=0.015", "delay.compensate=true"],
            ("sim", "reference_csv"): ["sim.scenario=file", f"sim.reference_csv={low}"],
            ("sim", "seed"): noisy,
            ("sim", "noise_pos"): noisy,
            ("sim", "noise_att_deg"): noisy,
            ("sim", "noise_gyro"): noisy,
            ("sim", "vel_filter_cutoff"): ["sim.vel_filter=true"],
        }
        # valid non-default values where changing the default by rule gives none
        special = {
            ("nmpc", "dt"): "0.02",
            ("qp", "solver"): "dense",
            ("sim", "micro_step"): "5e-4",
            ("sim", "controller"): "lqr",
            ("sim", "scenario"): "hover",
            ("sim", "reference_csv"): str(high),
        }
        dead = []
        for section, keys in DEFAULTS.items():
            for key, default in keys.items():
                base = context.get((section, key), [])
                if (section, key) in special:
                    change = f"{section}.{key}={special[section, key]}"
                elif isinstance(default, bool):
                    change = f"{section}.{key}={not default}"
                elif isinstance(default, int):
                    change = f"{section}.{key}={default + 1}"
                elif isinstance(default, float):
                    change = f"{section}.{key}={default * 1.25 if default else 1e-3}"
                else:
                    change = scaled(section, key, 1.25)
                if same_build(build(base), build(base + [change])):
                    dead.append(change)
        assert dead == []


class TestCli:
    def test_simulate_hover(self, tmp_path):
        code = main(
            [
                "simulate",
                "--set", "sim.scenario=hover",
                "--set", "sim.duration=0.6",
                "--set", "nmpc.N=15",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "diagnostics.csv").exists()
        assert (tmp_path / "plot_trace.py").exists()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["rms_norm_m"] <= 1e-6
        trace = np.genfromtxt(tmp_path / "trace.csv", delimiter=",", names=True)
        assert len(trace) == 40
        diag = read_diagnostics(tmp_path)
        assert len(diag) == 40
        assert np.all(diag["qp_linalg_us"] > 0.0)
        cycle_us = diag["prep_us"] + diag["fb_us"] + diag["post_us"]
        # diagnostics.csv rounds each time to 0.1 us
        assert metrics["p50_cycle_us"] == pytest.approx(np.percentile(cycle_us, 50), abs=0.1)
        assert metrics["p95_cycle_us"] == pytest.approx(np.percentile(cycle_us, 95), abs=0.1)
        assert metrics["p50_cycle_us"] <= metrics["p95_cycle_us"] <= metrics["max_cycle_us"]
        assert metrics["deadline_misses"] == np.count_nonzero(cycle_us > 15000.0)
        assert set(diag["qp_status"]) == {"converged"}
        assert metrics["unconverged_cycles"] == 0
        gaps = diag["x0_gap"]
        assert metrics["x0_gap_p50"] == pytest.approx(np.percentile(gaps, 50), rel=5e-4)
        assert metrics["x0_gap_p95"] == pytest.approx(np.percentile(gaps, 95), rel=5e-4)
        assert metrics["x0_gap_max"] == pytest.approx(gaps.max(), rel=5e-4)

    def test_simulate_counts_unconverged_cycles(self, tmp_path):
        code = main(
            [
                "simulate",
                "--set", "sim.scenario=step",
                "--set", "sim.duration=0.3",
                "--set", "nmpc.N=15",
                "--set", "qp.max_iters=1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        diag = read_diagnostics(tmp_path)
        unconverged = np.count_nonzero(diag["qp_status"] == "max_iterations")
        assert unconverged > 0
        assert metrics["unconverged_cycles"] == unconverged
        assert np.all(diag["qp_iters"][diag["qp_status"] == "max_iterations"] == 1)
        assert set(diag["qp_status"]) <= {"converged", "max_iterations"}

    def test_simulate_lqr_records_cycles_without_qp(self, tmp_path):
        code = main(
            [
                "simulate",
                "--set", "sim.controller=lqr",
                "--set", "sim.scenario=zstep",
                "--set", "sim.duration=0.3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        diag = read_diagnostics(tmp_path)
        assert len(diag) == 20
        assert set(diag["qp_status"]) == {"none"}
        assert np.all(diag["qp_iters"] == 0)
        assert np.all(diag["prep_us"] == 0.0)
        assert np.all(diag["degraded"] == 0)
        assert np.all(diag["fb_us"] > 0.0)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["degraded_cycles"] == 0 and metrics["unconverged_cycles"] == 0

    def test_simulate_malformed_config_exits_2_without_outputs(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[nmpc]\nN = banana\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    def test_trajgen_helix_paper_defaults(self, tmp_path):
        code = main(["trajgen", "helix", "--out", str(tmp_path)])
        assert code == 0
        src = read_reference_csv(tmp_path / "helix.csv", QuadrotorParams())
        assert len(src.rows) == 1001
        np.testing.assert_allclose(src.rows[0, :3], [0.3, 0.0, 0.38], atol=1e-9)

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["trajgen", "helix", "--set", "traj.N=100"], "traj.N"),
            (["trajgen", "smooth_step", "--set", "traj.r=0.4"], "traj.r"),
            (["trajgen", "helix", "--set", "traj.T=3"], "traj.T"),
        ],
    )
    def test_trajgen_rejects_traj_keys_its_kind_does_not_read(self, argv, key, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_trajgen_without_a_kind_generates_a_smooth_step(self, tmp_path):
        argv = ["trajgen", "--set", "traj.N=100"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        src = read_reference_csv(tmp_path / "smooth_step.csv", QuadrotorParams())
        assert len(src.rows) == 101

    @pytest.mark.parametrize("key", ["delay.lambda=2", "traj.kind=helix"])
    def test_deleted_keys_are_unknown(self, key, tmp_path, capsys):
        # a stale configuration fails loudly rather than being half read
        out = tmp_path / "out"
        assert main(["simulate", "--set", key, "--out", str(out)]) == 2
        assert f"unknown configuration key {key.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_trajgen_unknown_kind(self, tmp_path):
        code = main(["trajgen", "corkscrew", "--out", str(tmp_path)])
        assert code == 2

    def test_study_unknown_name(self, tmp_path):
        code = main(["study", "everything", "--out", str(tmp_path)])
        assert code == 2

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUADNMPC_OUT", str(tmp_path / "from_env"))
        code = main(
            [
                "simulate",
                "--set", "sim.scenario=hover",
                "--set", "sim.duration=0.3",
                "--set", "nmpc.N=10",
            ]
        )
        assert code == 0
        assert (tmp_path / "from_env" / "trace.csv").exists()

    def test_usage_error_exit_code(self):
        assert main([]) == 2
        assert main(["simulate", "--set", "noequals"]) == 2


class TestPlotScripts:
    def test_emitted_scripts_are_valid_python(self, tmp_path):
        from quadnmpc.cli import BENCHMARK_PLOT, STUDY_PLOT, TRACE_PLOT

        for name, template in (
            ("trace", TRACE_PLOT.format(csv_name="trace.csv")),
            ("study", STUDY_PLOT.format(name="delay", csv_name="study_delay.csv")),
            ("benchmark", BENCHMARK_PLOT.format(csv_name="benchmark.csv")),
        ):
            compile(template, f"plot_{name}.py", "exec")
