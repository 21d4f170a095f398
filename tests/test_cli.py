import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from scatopt import monitor, oracles, problems
from scatopt.cli import ConfigError, RunConfig, main
from scatopt.engine import DelayBank, run
from scatopt.interconnect import BlockReflection, check_orthonormal


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# every problem's instance parameters and their annotations, written out so
# that a parameter the derived schema drops or retypes fails here
_LASSO = {"m": "int", "n": "int", "sparsity": "int", "noise": "float",
          "l1_weight": "float", "residual_weight": "float", "huber_width": "float"}
_FIR = {"num_taps": "int", "passband_edge": "float", "stopband_edge": "float",
        "grid_size": "int", "passband_weight": "float", "stopband_weight": "float"}
_ENVELOPE = "np.ndarray | None"
SCHEMAS = {
    "lasso_huber": _LASSO,
    "lasso_augmented": _LASSO,
    "minimax_fir": _FIR,
    "minimax_fir_split": {**_FIR, "coupling_weight": "float"},
    "svm_consensus": {"n_agents": "int", "separation": "float", "degree": "int",
                      "coupling_weight": "float", "hinge_weight": "float"},
    "sparse_equalizer": {"length": "int", "num_taps": "int", "target_delay": "int",
                         "upper_env": _ENVELOPE, "lower_env": _ENVELOPE, "cap_height": "float",
                         "notch_width": "float", "upper_weight": "float", "lower_weight": "float"},
}
# per annotation, its name in the message and values that are not of it: a
# bool, a value of the wrong kind, a string (and an envelope list holding a bool)
_NOT_OF_KIND = {"int": ("an integer", [True, 15.5, "15"]),
                "float": ("a number", [True, "x", "1.0"]),
                _ENVELOPE: ("a list of numbers or null", [True, 15.5, "x", [1.0, True]])}
_PREFIX = "error: invalid instance parameters: "
SCHEMA_CASES = [
    *((name, key, value, f"{_PREFIX}{key} must be {_NOT_OF_KIND[kind][0]}, got {value!r}")
      for name, schema in SCHEMAS.items() for key, kind in schema.items()
      for value in _NOT_OF_KIND[kind][1]),
    # NaN passes the type check to each field's value check, which names it
    *((name, key, float("nan"), None)
      for name, schema in SCHEMAS.items() for key, kind in schema.items() if kind == "float"),
    # the factories' `seed` and the instance fields that have no default
    *((name, key, value, f"{_PREFIX}{name} takes no {key!r}; "
       f"choose from {', '.join(SCHEMAS[name])}")
      for name, key, value in [*((name, "seed", 3) for name in SCHEMAS),
                               ("sparse_equalizer", "channel", [1.0]),
                               ("lasso_huber", "A", [[1.0]]), ("lasso_augmented", "A", [[1.0]])]),
]


def _set_gamma(system, gamma):
    system.gamma = gamma


# one bad value per run setting, and the call that checks it in the module that uses it
OWNED_SETTINGS = [
    ("p", 0.0, lambda system, p: DelayBank("asynchronous", p=p)),
    ("gamma", 2.0, _set_gamma),
    ("seed", -1, lambda system, seed: DelayBank(seed=seed)),
    *(("tol", tol, lambda system, tol: run(system, tol=tol)) for tol in (math.inf, -1.0, math.nan)),
    ("max_iters", -1, lambda system, max_iters: run(system, max_iters=max_iters)),
    ("problem", "nope", lambda system, name: problems.default_instance(name)),
]


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
        with pytest.raises(ConfigError, match="tol must be positive and finite"):
            RunConfig(tol=float("inf"))
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("key, value, owner", OWNED_SETTINGS,
                             ids=[f"{key}={value!r}" for key, value, _ in OWNED_SETTINGS])
    def test_message_is_the_owners(self, lasso_huber_built, key, value, owner):
        with pytest.raises(ValueError) as owned:
            owner(lasso_huber_built.system, value)
        with pytest.raises(ConfigError) as config:
            RunConfig(**{key: value})
        assert str(config.value) == str(owned.value)

    def test_delay_bank_modes(self):
        assert RunConfig(mode="sync").delay_bank().mode == "synchronous"
        # a synchronous bank carries the config's p and ignores it
        assert RunConfig(mode="sync", p=0.25).delay_bank().effective_p == 1.0
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

    @pytest.mark.parametrize("args", [
        ["run", "--problem", "lasso_augmented", "--mode", "async", "--seed", "7", "--tol", "1e-6"],
        ["verify", "--problem", "lasso_huber"],
        ["compare", "--problem", "lasso_huber"],
    ], ids=["run", "verify", "compare"])
    def test_byte_identical_reruns(self, tmp_path, args):
        # every file repeats byte for byte in another directory
        written = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(args + ["--out", str(out)]) == 0
            written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert written[0] == written[1]

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

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": "lasso_huber", "bogus": 1}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        cfg_path.write_text("not json")
        assert main(["run", "--config", str(cfg_path)]) == 1
        # an instance parameter that neither the instance nor the builder takes
        cfg_path.write_text(json.dumps({"instance": {"coupling_weight": 5.0}}))
        assert main(["run", "--problem", "minimax_fir", "--config", str(cfg_path)]) == 1
        # an infinite relation parameter (JSON `Infinity`) fails before the solve
        for name, key in (("svm_consensus", "coupling_weight"),
                          ("lasso_huber", "residual_weight")):
            cfg_path.write_text(json.dumps({"instance": {key: float("inf")}}))
            capsys.readouterr()
            assert main(["run", "--problem", name, "--config", str(cfg_path),
                         "--out", str(tmp_path / "inf")]) == 1
            assert capsys.readouterr().err == ("error: invalid instance parameters: "
                                               f"{key} must be nonnegative and finite, "
                                               "got inf\n")
            assert not (tmp_path / "inf").exists()
        # a FIR band weight is checked before the design grid multiplies by it
        for band, value in (("stopband_weight", float("inf")), ("passband_weight", -1.0)):
            cfg_path.write_text(json.dumps({"instance": {band: value}}))
            capsys.readouterr()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["run", "--problem", "minimax_fir", "--config", str(cfg_path),
                             "--out", str(tmp_path / "fir")]) == 1
            assert not caught
            assert capsys.readouterr().err == ("error: invalid instance parameters: "
                                               f"{band} must be nonnegative and finite, "
                                               f"got {value}\n")
            assert not (tmp_path / "fir").exists()
        # a finite band weight so large that the constraint matrix's Gram matrix overflows
        cfg_path.write_text(json.dumps({"instance": {"stopband_weight": 1e200}}))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--problem", "minimax_fir", "--config", str(cfg_path),
                         "--out", str(tmp_path / "fir")]) == 1
        assert not caught
        assert capsys.readouterr().err == ("error: invalid instance parameters: constraint "
                                           "matrix A is too large: its Gram matrix overflows; "
                                           "the config sets stopband_weight\n")
        assert not (tmp_path / "fir").exists()
        # values of the wrong JSON type
        for bad in ({"max_iters": 1000.5}, {"p": "0.1"}, {"tol": None},
                    {"instance": [1, 2]}, {"seed": 1.5}, {"gamma": True}):
            cfg_path.write_text(json.dumps(bad))
            capsys.readouterr()
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1, bad
            assert capsys.readouterr().err.startswith(f"error: {next(iter(bad))} must be "), bad

    def test_nan_envelope_exit_code(self, tmp_path, capsys):
        # JSON `NaN` and `Infinity` are read as floats; the envelope that
        # holds one is named before the solve
        m = problems.default_instance("sparse_equalizer").upper_env.size
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "eq"
        for key in ("upper_env", "lower_env"):
            for value in (float("nan"), float("inf"), -float("inf")):
                envelope = [value] + [0.0 if key == "lower_env" else 1.0] * (m - 1)
                cfg_path.write_text(json.dumps({"instance": {key: envelope}}))
                assert main(["run", "--problem", "sparse_equalizer", "--config",
                             str(cfg_path), "--out", str(out)]) == 1
                err = capsys.readouterr().err
                assert err == f"error: invalid instance parameters: {key} must be finite\n"
                assert not out.exists()

    def test_invalid_p_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "async", "p": 0.0}))
        assert main(["run", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("name, key, value, message", SCHEMA_CASES,
                             ids=[f"{n}-{k}-{v!r}" for n, k, v, _ in SCHEMA_CASES])
    def test_instance_schema(self, tmp_path, capsys, name, key, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": name, "instance": {key: value}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        if message is None:
            assert err.startswith(_PREFIX) and key in err and err.count("\n") == 1, err
        else:
            assert err == message + "\n"
        assert not out.exists()

    def test_null_envelope_is_the_default(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"problem": "sparse_equalizer", "instance": {"upper_env": None}}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "null")]) == 0
        assert main(["run", "--problem", "sparse_equalizer", "--out", str(tmp_path / "default")]) == 0
        assert ((tmp_path / "null" / "trace.csv").read_bytes()
                == (tmp_path / "default" / "trace.csv").read_bytes())

    @pytest.mark.parametrize("argv, message", [
        (["--tol", "inf"], "error: tol must be positive and finite, got inf"),
        (["--p", "0"], "error: p must lie in (0, 1], got 0.0"),
        (["--seed", "-1"], "error: seed must be nonnegative, got -1"),
        (["--problem", "minimax_fir", "--mode", "async", "--seed", "-1"],
         "error: seed must be nonnegative, got -1"),
        (["--out", "{tmp}/file.txt"],
         "error: out must name a directory, but {tmp}/file.txt is not one"),
        (["--out", "{tmp}/file.txt/sub"],
         "error: out must name a directory, but {tmp}/file.txt is not one"),
        (["--config", "{tmp}/cfgdir"],
         "error: config file could not be read: [Errno 21] Is a directory: '{tmp}/cfgdir'"),
        (["--config", "{tmp}/latin1.json"],
         "error: config file is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 "
         "in position 9: invalid continuation byte"),
        (["--config", "{tmp}/delay.json"],
         "error: invalid instance parameters: target_delay must be an integer, got 1.5"),
        (["--config", "{tmp}/no_taps.json"],
         "error: invalid instance parameters: num_taps must be positive, got 0"),
        (["--config", "{tmp}/negative_m.json"],
         "error: invalid instance parameters: need m, n >= 1 and 0 <= sparsity <= n, "
         "got m=-1, n=20, sparsity=3"),
        (["--config", "{tmp}/zero_n.json"],
         "error: invalid instance parameters: need m, n >= 1 and 0 <= sparsity <= n, "
         "got m=10, n=0, sparsity=3"),
        (["--config", "{tmp}/zero_m.json"],
         "error: invalid instance parameters: need m, n >= 1 and 0 <= sparsity <= n, "
         "got m=0, n=20, sparsity=3"),
        (["--config", "{tmp}/sparsity_above_n.json"],
         "error: invalid instance parameters: need m, n >= 1 and 0 <= sparsity <= n, "
         "got m=10, n=20, sparsity=30"),
        (["--config", "{tmp}/late_delay.json"],
         "error: invalid instance parameters: target_delay must lie in [0, 47), got 47"),
        (["--config", "{tmp}/negative_length.json"],
         "error: invalid instance parameters: length must give the channel at least one tap, "
         "got -1"),
        (["--config", "{tmp}/short_upper_env.json"],
         "error: invalid instance parameters: upper_env must have one entry per output sample "
         "(47), got shape (2,)"),
        (["--config", "{tmp}/few_svm_agents.json"],
         "error: invalid instance parameters: n_agents must exceed degree (4), got 4"),
        (["--config", "{tmp}/one_point_grid.json"],
         "error: invalid instance parameters: grid_size must be at least 2, got 1"),
        # an 8 EiB adjacency: numpy refuses it before allocating anything
        (["--config", "{tmp}/huge_svm.json"],
         "error: invalid instance parameters: Unable to allocate 6.94 EiB for an array with "
         "shape (1000000000, 1000000000) and data type int64"),
    ], ids=["infinite_tol", "zero_p", "negative_seed", "negative_trigger_seed", "out_is_file",
            "out_below_file", "config_is_directory", "config_not_utf8",
            "noninteger_target_delay", "zero_equalizer_taps", "negative_lasso_rows",
            "zero_lasso_columns", "zero_lasso_rows", "lasso_sparsity_above_n",
            "equalizer_delay_past_output", "negative_equalizer_length", "short_upper_envelope",
            "too_few_svm_agents", "one_point_fir_grid", "huge_svm_agent_count"])
    def test_rejected_config_exit_code(self, tmp_path, capsys, argv, message):
        (tmp_path / "file.txt").write_text("")
        (tmp_path / "cfgdir").mkdir()
        (tmp_path / "latin1.json").write_bytes(b'{"tol": "\xe9"}')
        for stem, problem, instance in (
                ("delay", "sparse_equalizer", {"target_delay": 1.5}),
                ("no_taps", "sparse_equalizer", {"num_taps": 0}),
                ("late_delay", "sparse_equalizer", {"target_delay": 47}),
                ("negative_length", "sparse_equalizer", {"length": -1}),
                ("short_upper_env", "sparse_equalizer", {"upper_env": [1, 2]}),
                ("few_svm_agents", "svm_consensus", {"n_agents": 4}),
                ("one_point_grid", "minimax_fir", {"grid_size": 1}),
                ("negative_m", "lasso_huber", {"m": -1}), ("zero_n", "lasso_huber", {"n": 0}),
                ("zero_m", "lasso_huber", {"m": 0}),
                ("sparsity_above_n", "lasso_augmented", {"sparsity": 30}),
                ("huge_svm", "svm_consensus", {"n_agents": 10**9})):
            (tmp_path / f"{stem}.json").write_text(json.dumps(
                {"problem": problem, "instance": instance}))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path)]
        assert main(["run", *argv]) == 1
        assert capsys.readouterr().err == message.format(tmp=tmp_path) + "\n"
        assert not (tmp_path / "summary.json").exists()

    def test_config_array_rejected(self, tmp_path, capsys):
        config, out = tmp_path / "array.json", tmp_path / "out"
        config.write_text(json.dumps([{"problem": "lasso_huber"}]))
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify", "compare"])
    def test_out_file_rejected_before_solve(self, tmp_path, capsys, monkeypatch, command):
        def no_build(cfg):
            raise AssertionError("solve started")

        monkeypatch.setattr(RunConfig, "built_problem", no_build)
        (tmp_path / "file.txt").write_text("kept")
        assert main([command, "--out", str(tmp_path / "file.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: out must name a directory")
        assert (tmp_path / "file.txt").read_text() == "kept"


class TestLazyImports:
    def test_sync_run_and_compare_leave_numpy_random_unloaded(self, tmp_path):
        # a synchronous DelayBank draws nothing and creates no generator, and
        # minimax_fir's instance is not random: numpy.random is never imported
        code = (
            "import sys, numpy\n"
            "if 'numpy.random' in sys.modules:\n"
            "    print('preloaded')\n"
            "    raise SystemExit\n"
            "from scatopt.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['run', '--problem', 'minimax_fir', '--out', out]) == 0\n"
            "assert main(['compare', '--problem', 'minimax_fir', '--out', out]) == 0\n"
            "print('numpy.random' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        last = out.stdout.splitlines()[-1]
        if last == "preloaded":
            pytest.skip("import numpy loads numpy.random here (numpy < 2)")
        assert last == "False"


class TestProblemGamma:
    """The config's gamma defaults to the problem's row and records the value used."""

    def test_summary_records_the_row_gamma(self, tmp_path):
        for name in problems.PROBLEM_NAMES:
            assert RunConfig(problem=name).gamma == problems.PROBLEMS[name].gamma
        assert main(["run", "--problem", "lasso_huber", "--out", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["config"]["gamma"] == problems.PROBLEMS["lasso_huber"].gamma == 0.8

    def test_flag_and_config_override_the_row(self, tmp_path):
        shipped, flag, config = (tmp_path / k for k in ("shipped", "flag", "config"))
        assert main(["run", "--problem", "lasso_huber", "--out", str(shipped)]) == 0
        assert main(["run", "--problem", "lasso_huber", "--gamma", "0.5",
                     "--out", str(flag)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": "lasso_huber", "gamma": 0.5}))
        assert main(["run", "--config", str(cfg_path), "--out", str(config)]) == 0
        runs = {out.name: read_json(out / "summary.json") for out in (shipped, flag, config)}
        assert runs["flag"]["config"]["gamma"] == runs["config"]["config"]["gamma"] == 0.5
        assert runs["flag"]["iterations"] == runs["config"]["iterations"]
        assert runs["flag"]["iterations"] > runs["shipped"]["iterations"]

    @pytest.mark.parametrize("value", [True, "0.8"])
    def test_typed_gamma_rejected_by_name(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"gamma": value}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: gamma must be a number, got {value!r}\n"
        with pytest.raises(ConfigError, match="gamma must be a number"):
            RunConfig(gamma=value)

    @pytest.mark.parametrize("name, command, written", [
        ("minimax_fir", "run", ("summary.json", "trace.csv")),
        ("minimax_fir", "verify", ("verify.json",)),
        ("minimax_fir", "compare", ("compare.json",)),
        ("sparse_equalizer", "run", ("summary.json", "trace.csv")),
        ("sparse_equalizer", "verify", ("verify.json",)),
    ])
    def test_half_gamma_rows_write_the_same_bytes(self, tmp_path, name, command, written):
        # the rows that keep gamma = 0.5 write what an explicit --gamma 0.5 writes
        args = [command, "--problem", name, "--out", str(tmp_path)]
        runs = []
        for extra in ([], ["--gamma", "0.5"]):
            assert main(args + extra) == 0
            runs.append([(tmp_path / f).read_bytes() for f in written])
        assert runs[0] == runs[1]


class TestVerifyCommand:
    def test_lasso_huber_all_pass(self, tmp_path):
        code = main([
            "verify", "--problem", "lasso_huber", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_json(tmp_path / "verify.json")
        assert report["passed"] is True
        assert {k: sorted(report[k]) for k in (
            "orthonormality", "interconnection_neutrality", "norm_reduction")} == {
            "orthonormality": ["max_deviation", "passed"],
            "interconnection_neutrality": ["max_deviation", "passed", "samples"],
            "norm_reduction": ["informational", "max_ratio", "passed", "samples",
                               "strict_reductions"],
        }
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

    def test_block_form_checked_block_by_block(self, tmp_path, monkeypatch):
        # the svm keeps its G as per-agent blocks; verify checks each block
        # and reports the worst, never forming the N x N G
        def refuse(self):
            raise AssertionError("verify formed the dense G")

        monkeypatch.setattr(BlockReflection, "_dense", refuse)
        assert main(["verify", "--problem", "svm_consensus", "--out", str(tmp_path)]) == 0
        ic = problems.build(
            "svm_consensus", problems.default_instance("svm_consensus")).system.interconnection
        deviation = max(check_orthonormal(B).max_deviation for B in ic.blocks)
        report = read_json(tmp_path / "verify.json")["orthonormality"]
        assert report == {"max_deviation": deviation, "passed": True}

    def test_svm_report_serializes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"problem": "svm_consensus", "instance": {"n_agents": 8}}))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = read_json(out / "verify.json")
        assert report["passed"] is True
        assert all(type(v) is int for e in report["elements"] for v in e["block"])


    def test_reference_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def stalled(system, tol, max_iters):
            raise RuntimeError(f"reference run did not reach tolerance {tol}")

        monkeypatch.setattr(monitor, "reference_fixed_point", stalled)
        code = main(["verify", "--problem", "lasso_huber", "--out", str(tmp_path)])
        assert code == 2
        assert "error: reference run did not reach tolerance" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()

    def test_larger_system_passes(self, tmp_path):
        # the reference stops at a relative update of 1e-12, so at ||d*|| = 52
        # it still meets the certificates' absolute residual bar of 1e-8
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"problem": "svm_consensus", "instance": {"n_agents": 100}}))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert read_json(out / "verify.json")["passed"] is True

    def test_reference_not_fixed_point_exit_code(self, tmp_path, capsys, monkeypatch):
        def short(system, tol, max_iters):
            return np.zeros(system.dim)

        monkeypatch.setattr(monitor, "reference_fixed_point", short)
        code = main(["verify", "--problem", "lasso_huber", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: d_star is not a fixed point (residual ")
        assert not (tmp_path / "verify.json").exists()


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

    def test_lasso_huber_matches_oracle(self, tmp_path):
        assert main(["compare", "--problem", "lasso_huber", "--out", str(tmp_path)]) == 0
        metrics = read_json(tmp_path / "compare.json")["metrics"]
        assert metrics["max_coefficient_error"] < 1e-6
        assert abs(metrics["objective_gap"]) < 1e-6

    def test_minimax_fir_split_ratio(self, tmp_path):
        assert main(["compare", "--problem", "minimax_fir_split", "--out", str(tmp_path)]) == 0
        metrics = read_json(tmp_path / "compare.json")["metrics"]
        assert 1.0 <= metrics["error_ratio"] <= 1.02

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

    def test_config_error_before_missing_oracle(self, tmp_path, capsys):
        config = tmp_path / "bogus.json"
        config.write_text(json.dumps({"problem": "sparse_equalizer", "instance": {"bogus": 1}}))
        assert main(["compare", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid instance parameters: sparse_equalizer takes no "
                              "'bogus'")
        assert "no independent oracle" not in err

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

    def test_overflowing_instance_fails_in_one_line(self, tmp_path, capsys):
        # the oracle's gradient norm overflows on this finite instance; it
        # fails by name, with no numpy RuntimeWarning on stderr before it
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"problem": "lasso_huber", "instance": {"noise": 1e300}}))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: reference oracle failed: huber-lasso oracle stalled at gradient norm inf\n")
        assert not (out / "compare.json").exists()

    def test_lp_oracle_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracles, "_LP_MAX_ITERS", 2)
        code = main(["compare", "--problem", "minimax_fir", "--out", str(tmp_path)])
        assert code == 3
        assert "error: reference oracle failed: minimax LP" in capsys.readouterr().err
        assert not (tmp_path / "compare.json").exists()

    def test_lp_normal_equation_failure_exit_code(self, tmp_path, capsys):
        # four grid points against eight coefficients leave the LP's normal equations singular
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(
            {"problem": "minimax_fir", "instance": {"num_taps": 15, "grid_size": 2}}))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: reference oracle failed: minimax LP normal equations failed:")
        assert not out.exists()
