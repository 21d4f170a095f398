"""Command-line front end: run experiments, verify convergence
certificates, and compare fixed points against the reference oracles.

All outputs are deterministic functions of the configuration (seeds
included): re-running a command never changes a written file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import monitor, problems
from .elements import dissipativity_probe
from .engine import DelayBank, run
from .interconnect import BlockReflection, check_orthonormal

__all__ = ["main", "RunConfig"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    problem: str = "lasso_huber"
    mode: str = "sync"
    p: float = 0.1
    gamma: float = 0.5
    seed: int = 0
    tol: float = 1e-8
    max_iters: int = 200000
    out: str = "."
    instance: dict = field(default_factory=dict)

    def __post_init__(self):
        problems.check_params(vars(self), self.__annotations__, "the config", ConfigError)
        if self.problem not in problems.PROBLEM_NAMES:
            raise ConfigError(
                f"unknown problem {self.problem!r}; choose from {', '.join(problems.PROBLEM_NAMES)}"
            )
        if self.mode not in ("sync", "async"):
            raise ConfigError(f"mode must be 'sync' or 'async', got {self.mode!r}")
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"p must lie in (0, 1], got {self.p}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be nonnegative, got {self.max_iters}")
        out = Path(self.out)
        blocked = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
        if blocked is not None:
            raise ConfigError(f"out must name a directory, but {blocked} is not one")

    def delay_bank(self) -> DelayBank:
        mode = "asynchronous" if self.mode == "async" else "synchronous"
        return DelayBank(mode=mode, p=self.p if self.mode == "async" else 1.0, seed=self.seed)

    def built_problem(self) -> problems.BuiltProblem:
        try:
            inst = problems.default_instance(self.problem, seed=self.seed, params=self.instance)
            built = problems.build(self.problem, inst, params=self.instance)
        except (TypeError, ValueError, MemoryError) as exc:
            raise ConfigError(f"invalid instance parameters: {exc}") from exc
        built.system.gamma = self.gamma
        return built


def _load_config(args) -> RunConfig:
    data = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"config file could not be read: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for f in fields(RunConfig):  # every field but `instance` has a flag
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    problems.check_params(data, RunConfig.__annotations__, "the config", ConfigError)
    return RunConfig(**data)


def _fmt(x) -> str:
    return repr(float(x))


def _write_trace(path: Path, trace) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "normalized_iter", "self_residual", "oracle_residual", "objective"])
        for i in range(len(trace)):
            writer.writerow([
                int(trace.iters[i]),
                _fmt(trace.normalized_iters[i]),
                _fmt(trace.self_residual[i]),
                _fmt(trace.oracle_residual[i]) if trace.oracle_residual is not None else "",
                _fmt(trace.objective[i]) if trace.objective is not None else "",
            ])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_run(cfg: RunConfig) -> int:
    built = cfg.built_problem()
    result = run(
        built.system,
        cfg.delay_bank(),
        tol=cfg.tol,
        max_iters=cfg.max_iters,
        objective=built.objective,
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_trace(out / "trace.csv", result.trace)
    summary = {
        "config": asdict(cfg),
        "converged": result.converged,
        "iterations": int(result.state.iter),
        "normalized_iterations": float(result.state.normalized_iter),
        "final_residual": float(result.trace.self_residual[-1]) if len(result.trace) else None,
        "readout": {"a": result.a.tolist(), "b": result.b.tolist()},
        "seed": cfg.seed,
    }
    _write_json(out / "summary.json", summary)
    return 0 if result.converged else 2


def cmd_verify(cfg: RunConfig) -> int:
    built = cfg.built_problem()
    system = built.system
    # the reference stops on the relative update test, while the
    # certificates demand an absolute fixed-point residual of 1e-8
    try:
        d_star = monitor.reference_fixed_point(
            system, tol=min(cfg.tol, 1e-12), max_iters=max(cfg.max_iters, 500000)
        )
        eq1 = monitor.certify_eq1(system, d_star, n=300, seed=cfg.seed)
        eq2 = monitor.certify_eq2(system, d_star, n=300, seed=cfg.seed)
    except (RuntimeError, ValueError) as exc:  # no converged run, or not a fixed point
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a block form is checked block by block, never through its N x N G
    ic = system.interconnection
    stacks = ic.blocks if isinstance(ic, BlockReflection) else (ic.G,)
    ortho = max((check_orthonormal(B) for B in stacks), key=lambda rep: rep.max_deviation)
    element_reports = []
    all_dissipative = all(el.dissipative for el in system.elements)
    required_ok = True
    for el in system.elements:
        rep = dissipativity_probe(el, d_star[el.block.slice], n=200, radius=1.0, seed=cfg.seed)
        informational = not el.dissipative
        if not informational:
            required_ok &= rep.passed
        element_reports.append({
            "kind": el.kind,
            "block": [el.block.offset, el.block.length],
            "max_ratio": rep.max_ratio,
            "passed": rep.passed,
            "informational": informational,
        })
    # the norm-reduction certificate presumes dissipative elements; report
    # it as informational when the system declares non-dissipative blocks
    eq2_required = all_dissipative
    passed = bool(
        ortho.passed and eq1.passed and required_ok and (eq2.passed or not eq2_required)
    )
    report = {
        "config": asdict(cfg),
        "orthonormality": asdict(ortho),
        "elements": element_reports,
        "interconnection_neutrality": asdict(eq1),
        "norm_reduction": {**asdict(eq2), "informational": not eq2_required},
        "passed": passed,
    }
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify.json", report)
    return 0 if passed else 2


def cmd_compare(cfg: RunConfig) -> int:
    # the oracles load only here
    from .oracles import OracleFailure

    compare = problems.PROBLEMS[cfg.problem].compare
    if compare is None:
        print(f"compare: no independent oracle exists for {cfg.problem}; "
              "use `run` and inspect the trace instead", file=sys.stderr)
        return 1
    built = cfg.built_problem()
    result = run(built.system, cfg.delay_bank(), tol=cfg.tol, max_iters=cfg.max_iters)
    try:
        metrics = compare(built, result.state.d)
    except OracleFailure as exc:
        print(f"error: reference oracle failed: {exc}", file=sys.stderr)
        return 3
    report = {
        "config": asdict(cfg),
        "converged": result.converged,
        "iterations": int(result.state.iter),
        "metrics": metrics,
    }
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "compare.json", report)
    return 0 if result.converged else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatopt",
        description="Fixed-point optimization systems built from reflected "
        "proximal elements and a norm-preserving interconnection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "run one experiment and write trace.csv / summary.json"),
        ("verify", "run the convergence certificates and write verify.json"),
        ("compare", "compare the fixed point against the oracle, write compare.json"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="JSON configuration file")
        cmd.add_argument("--problem", choices=problems.PROBLEM_NAMES)
        cmd.add_argument("--mode", choices=("sync", "async"))
        cmd.add_argument("--p", type=float, help="asynchronous sampling probability")
        cmd.add_argument("--gamma", type=float, help="averaging parameter in (0, 1]")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--tol", type=float)
        cmd.add_argument("--max-iters", dest="max_iters", type=int)
        cmd.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_compare(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
