import numpy as np
import pytest

import quadnmpc.cli as cli_mod
from quadnmpc.cli import main
from quadnmpc.studies import (
    StudyResult,
    _non_increasing,
    _reference_qp,
    benchmark,
    condensing_study,
)


class TestTrendHelpers:
    def test_non_increasing_with_infinities(self):
        assert _non_increasing([np.inf, np.inf, 5.0, 1.0])
        assert _non_increasing([3.0, 3.0, 3.0])
        assert not _non_increasing([1.0, 2.0])
        assert not _non_increasing([np.inf, 1.0, 2.0])


class TestReferenceQp:
    def test_mid_transient_qp_is_nontrivial(self, params):
        qp = _reference_qp(params, N=20)
        assert qp.num_stages == 20
        assert np.abs(qp.x0_residual).max() > 0
        grads = np.abs(qp.q).max()
        assert grads > 1.0  # genuinely away from the reference


class TestCondensingStudy:
    def test_invariance_verdicts(self, params):
        res = condensing_study(params, block_sizes=(1, 2, 5, 10), N=10)
        assert all(res.verdicts.values())
        assert [row["stages"] for row in res.rows] == [10, 5, 2, 1]
        assert all(row["deviation_from_M1"] <= 1e-6 for row in res.rows)


class TestBenchmarkSmoke:
    def test_row_schema_and_aggregate(self, params):
        res = benchmark(params, horizons=(5, 10), cycles=4, warmup=1)
        row = res.rows[0]
        assert list(row.keys()) == [
            "N", "solver", "block_size", "ip_iters", "time_prep_us", "time_feedback_us",
            "time_post_us", "qp_linalg_us",
        ]
        # 2 horizons x 2 solvers x 4 timed cycles
        assert len(res.rows) == 16
        aggregate = res.scaling["aggregate"]
        assert {(r["N"], r["solver"]) for r in aggregate} == {
            (5, "riccati"), (5, "dense"), (10, "riccati"), (10, "dense"),
        }
        assert all(r["per_iter_us"] > 0 for r in aggregate)


class TestStudyCli:
    def test_study_condensing_writes_outputs(self, tmp_path):
        code = main(["study", "condensing", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "study_condensing.csv").exists()
        assert (tmp_path / "plot_study_condensing.py").exists()
        verdicts = (tmp_path / "study_condensing_verdicts.txt").read_text()
        assert "PASS" in verdicts

    def test_benchmark_cli_plumbing(self, tmp_path, monkeypatch):
        stub = StudyResult(name="benchmark")
        stub.rows = [
            {
                "N": 10, "solver": "riccati", "block_size": 5,
                "ip_iters": 6, "time_prep_us": 100.0, "time_feedback_us": 20.0,
                "qp_linalg_us": 150.0,
            }
        ]
        stub.scaling["aggregate"] = [
            {"N": 10, "solver": "riccati", "mean_cycle_us": 300.0,
             "max_cycle_us": 400.0, "per_iter_us": 30.0},
        ]
        stub.scaling["fit_exponents"] = {"riccati": 1.0, "dense": 2.5}
        stub.scaling["dense_over_riccati_ratio"] = [0.5, 1.5]
        stub.verdicts = {"ratio_strictly_increasing": True}
        monkeypatch.setattr(cli_mod, "benchmark", lambda *a, **k: stub)
        code = main(["benchmark", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "benchmark.csv").exists()
        summary = (tmp_path / "benchmark_summary.txt").read_text()
        assert "PASS" in summary

    @staticmethod
    def never_called(*args, **kwargs):
        raise AssertionError("the command ran although its settings were rejected")

    @staticmethod
    def assert_rejected(argv, keys, tmp_path, capsys):
        """``argv`` exits 2 naming each of ``keys`` and makes no output directory."""
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err
        assert not out.exists()

    def test_study_rejects_a_setting_it_does_not_read(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(cli_mod.STUDIES, "horizon", self.never_called)
        argv = ["study", "horizon", "--set", "nmpc.N=10"]
        self.assert_rejected(argv, ["nmpc.N"], tmp_path, capsys)

    def test_benchmark_rejects_a_setting_it_does_not_read(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "benchmark", self.never_called)
        argv = ["benchmark", "--set", "sim.duration=1"]
        self.assert_rejected(argv, ["sim.duration"], tmp_path, capsys)

    def test_trajgen_rejects_a_setting_it_does_not_read(self, tmp_path, capsys):
        argv = ["trajgen", "helix", "--set", "qp.tol=1e-3", "--set", "nmpc.N=10"]
        self.assert_rejected(argv, ["qp.tol", "nmpc.N"], tmp_path, capsys)

    def test_trajgen_takes_traj_settings(self, tmp_path):
        code = main(["trajgen", "helix", "--set", "traj.r=0.4", "--out", str(tmp_path)])
        assert code == 0
        first = (tmp_path / "helix.csv").read_text().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(0.4)

    def test_benchmark_takes_model_and_block_size(self, tmp_path, monkeypatch):
        calls = []

        def stub(params, block_size):
            calls.append((params.m, block_size))
            raise RuntimeError("stop after the call")

        monkeypatch.setattr(cli_mod, "benchmark", stub)
        argv = ["benchmark", "--set", "model.m=0.04", "--set", "qp.block_size=10"]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert calls == [(0.04, 10)]

    def test_study_takes_model(self, tmp_path, monkeypatch):
        masses = []

        def stub(params):
            masses.append(params.m)
            return StudyResult(name="horizon", rows=[{"N": 10}], verdicts={"ok": True})

        monkeypatch.setitem(cli_mod.STUDIES, "horizon", stub)
        code = main(["study", "horizon", "--set", "model.m=0.04", "--out", str(tmp_path)])
        assert code == 0
        assert masses == [0.04]
