import csv
import json

import numpy as np
import pytest

from scatopt import oracles
from scatopt.cli import ConfigError, RunConfig, main


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.problem == "lasso_huber"
        assert cfg.mode == "sync"

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            RunConfig(problem="nope")
        with pytest.raises(ConfigError, match="mode"):
            RunConfig(mode="turbo")
        with pytest.raises(ConfigError, match="p must"):
            RunConfig(p=0.0)
        with pytest.raises(ConfigError, match="gamma"):
            RunConfig(gamma=2.0)
        with pytest.raises(ConfigError, match="tol"):
            RunConfig(tol=-1.0)

    def test_delay_bank_modes(self):
        assert RunConfig(mode="sync").delay_bank().mode == "synchronous"
        bank = RunConfig(mode="async", p=0.25, seed=5).delay_bank()
        assert bank.mode == "asynchronous"
        assert bank.p == 0.25
        assert bank.seed == 5


class TestRunCommand:
    def test_writes_trace_and_summary(self, tmp_path):
        code = main([
            "run", "--problem", "lasso_huber", "--tol", "1e-6",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["converged"] is True
        assert summary["config"]["problem"] == "lasso_huber"
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "iter", "normalized_iter", "self_residual", "oracle_residual", "objective",
        ]
        assert len(rows) - 1 == summary["iterations"] + 1

    def test_trace_round_trips_losslessly(self, tmp_path):
        main(["run", "--problem", "lasso_huber", "--tol", "1e-6", "--out", str(tmp_path)])
        with open(tmp_path / "trace.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        iters = np.array([int(r["iter"]) for r in rows])
        resid = np.array([float(r["self_residual"]) for r in rows])
        obj = np.array([float(r["objective"]) for r in rows])
        assert np.array_equal(iters, np.arange(len(rows)))
        assert np.all(np.isfinite(resid)) and np.all(np.isfinite(obj))
        # repr round-trip: re-serializing must give identical text
        with open(tmp_path / "trace.csv") as fh:
            text = fh.read()
        line1 = text.splitlines()[1].split(",")
        assert line1[2] == repr(float(line1[2]))

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["run", "--problem", "lasso_augmented", "--mode", "async",
                "--seed", "7", "--tol", "1e-6"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        s1["config"].pop("out"), s2["config"].pop("out")
        assert s1 == s2

    def test_nonconvergence_exit_code(self, tmp_path):
        code = main([
            "run", "--problem", "lasso_huber", "--tol", "1e-12",
            "--max-iters", "5", "--out", str(tmp_path),
        ])
        assert code == 2
        assert read_json(tmp_path / "summary.json")["converged"] is False

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": "lasso_huber", "tol": 1e-6}))
        code = main([
            "run", "--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["config"]["seed"] == 3
        assert summary["config"]["tol"] == 1e-6

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": "lasso_huber", "bogus": 1}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        cfg_path.write_text("not json")
        assert main(["run", "--config", str(cfg_path)]) == 1
        # an instance parameter that neither the instance nor the builder takes
        cfg_path.write_text(json.dumps({"instance": {"coupling_weight": 5.0}}))
        assert main(["run", "--problem", "minimax_fir", "--config", str(cfg_path)]) == 1

    def test_invalid_p_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "async", "p": 0.0}))
        assert main(["run", "--config", str(cfg_path)]) == 1


class TestVerifyCommand:
    def test_lasso_huber_all_pass(self, tmp_path):
        code = main([
            "verify", "--problem", "lasso_huber", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "verify.json")
        assert report["passed"] is True
        assert report["orthonormality"]["passed"] is True
        assert report["interconnection_neutrality"]["passed"] is True
        assert report["norm_reduction"]["informational"] is False
        assert all(e["passed"] for e in report["elements"])

    def test_equalizer_nonconvex_informational(self, tmp_path):
        code = main([
            "verify", "--problem", "sparse_equalizer", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "verify.json")
        assert report["passed"] is True
        capped = [e for e in report["elements"] if e["kind"] == "CappedL1"]
        assert capped and all(e["informational"] for e in capped)
        assert report["norm_reduction"]["informational"] is True

    def test_svm_report_serializes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"problem": "svm_consensus", "instance": {"n_agents": 8}}))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = read_json(out / "verify.json")
        assert report["passed"] is True
        assert all(type(v) is int for e in report["elements"] for v in e["block"])


class TestCompareCommand:
    def test_lasso_augmented_support_match(self, tmp_path):
        code = main([
            "compare", "--problem", "lasso_augmented", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "compare.json")
        assert report["metrics"]["support_match"] is True
        assert report["metrics"]["max_coefficient_error"] <= 1e-3

    def test_minimax_fir_ratio(self, tmp_path):
        code = main([
            "compare", "--problem", "minimax_fir", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "compare.json")
        assert report["metrics"]["error_ratio"] <= 1.01

    def test_svm_full_agreement(self, tmp_path):
        code = main([
            "compare", "--problem", "svm_consensus", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "compare.json")
        assert report["metrics"]["classification_agreement"] == 1.0

    def test_equalizer_has_no_oracle(self, tmp_path, capsys):
        code = main([
            "compare", "--problem", "sparse_equalizer", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "no independent oracle" in capsys.readouterr().err

    def test_oracle_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def stalled(instance):
            raise oracles.OracleFailure("stalled at gradient norm 1.2e-06")

        monkeypatch.setattr(oracles, "oracle_lasso_huber", stalled)
        code = main([
            "compare", "--problem", "lasso_huber", "--tol", "1e-6", "--out", str(tmp_path),
        ])
        assert code == 3
        assert "error: reference oracle failed: stalled" in capsys.readouterr().err
        assert not (tmp_path / "compare.json").exists()
