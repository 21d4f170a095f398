"""The four benchmark workloads: desk, ensemble, scale and cli.

Each workload function returns an `Outcome` holding its end-to-end
metrics, its per-layer extras when traced, the checks it made and its
attempted and failed operation counts.  Solves and builds are reached
through module attributes (`engine.run`, `problems.build`, ...) so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from scatopt import engine, problems

import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

P_ASYNC = 0.1
MAX_ITERS = 500_000
# optimality and constraint residuals must stay within KKT_FACTOR * tol
KKT_FACTOR = 1000.0

DESK_TOL = 1e-8
# Desk runs the shipped configuration, async trigger seed included (the
# CLI's default 0), whatever --seed says: one async run's iteration count
# moves by tens of percent with its trigger seed (minimax_fir: 12177 to
# 22865 over eight seeds), which would swamp the per-iteration costs this
# workload is there to expose.
DESK_TRIGGER_SEED = 0
ENSEMBLE_TOL = 1e-6
REF_TOL = 1e-10  # sync reference the ensemble replicas are checked against
# (problem, replicas); the minimax ensemble is smaller because its
# per-row epigraph loop makes each replica cost about 1 s.
ENSEMBLES = (("lasso_huber", 20), ("lasso_augmented", 20),
             ("svm_consensus", 20), ("minimax_fir", 4))
SCALE_TOL = 1e-6
SCALE_ROUNDS = 3
# (problem, instance parameters, whether the instance follows --seed).
# The svm instance is fixed: at this size its iterations to tolerance vary
# twofold across instance seeds, which would drown any code change.
SCALE_SYSTEMS = (("lasso_augmented", {"m": 400, "n": 2000, "sparsity": 20}, True),
                 ("svm_consensus", {"n_agents": 100}, False))


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    record: dict = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values))


def whole_rounds(seconds, min_rounds, body) -> list:
    """Call body() in whole rounds until `seconds` have passed, and at
    least `min_rounds` times; a round is never cut short."""
    results = []
    start = time.perf_counter()
    while len(results) < min_rounds or time.perf_counter() - start < seconds:
        results.append(body())
    return results


def peak_rss_mb(children=False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build_system(name, seed=0, params=None):
    inst = problems.default_instance(name, seed=seed, params=params)
    return problems.build(name, inst, params=params)


def timed_setup(specs):
    """Instance generation plus build for every (name, seed, params)."""
    start = time.perf_counter()
    built = [build_system(*spec) for spec in specs]
    return time.perf_counter() - start, built


def g_mb(built) -> float:
    """Dense interconnection storage, computed from the array shapes."""
    return sum(b.system.interconnection.G.nbytes for b in built) / 1e6


class Sampler:
    """Set-up and cold-start samples taken between a workload's operations.

    Machine speed on a small shared host drifts by tens of percent from
    one second to the next.  Spreading the short samples over the whole
    run lets their medians see the same conditions as the solves, where
    back-to-back repeats would all land in one fast or slow spell.
    """

    def __init__(self, specs, module, per_op=1, cold_every=1):
        self.specs = specs
        self.module = module
        self.per_op = per_op
        self.cold_every = cold_every
        self.setup_s: list[float] = []
        self.cold_start_s: list[float] = []
        self._ops = 0

    def cold_start(self) -> float:
        """Wall time of `import module` in a fresh interpreter."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {self.module}"], env=child_env(),
                       cwd=ROOT, check=True)
        return time.perf_counter() - start

    def warm_up(self):
        """Untimed first set-up and interpreter start (file cache, imports)."""
        self.cold_start()
        return timed_setup(self.specs)[1] if self.specs else None

    def take(self) -> None:
        for _ in range(self.per_op):
            if self.specs:
                self.setup_s.append(timed_setup(self.specs)[0])
            if self._ops % self.cold_every == 0:
                self.cold_start_s.append(self.cold_start())
            self._ops += 1


def traced_round(tracer: Tracer, out: Outcome, rounds, body, specs=None) -> None:
    """One more round under the tracer, after a traced set-up of `specs`;
    the overhead is its solve time minus the untraced median."""
    tracer.install()
    try:
        if specs:
            tracer.begin_op("setup")
            timed_setup(specs)
        traced_solve_s = body()
    finally:
        tracer.uninstall()
    out.layers["trace.overhead_s"] = traced_solve_s - median(r[0] for r in rounds)


# --- independent checks of one solve -------------------------------------------


class References:
    """Reference optima the checks need, solved once per instance."""

    def __init__(self):
        self._cache = {}

    def get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]


def check_solution(built, d, tol, refs: References, label) -> list:
    """Independent checks of one solved system's read-out.

    Optimality and constraint residuals scale with the fixed-point
    tolerance `tol` the system was solved to.
    """
    limit = KKT_FACTOR * tol
    z = built.primal(d)
    inst = built.instance
    name = built.name
    if name == "lasso_huber":
        x = z[built.layout["coefficients"]]
        found = [checks.lasso_huber_kkt(inst.A, inst.y, inst.l1_weight, inst.residual_weight,
                                        inst.huber_width, x, limit)]
    elif name == "lasso_augmented":
        x = z[built.layout["coefficients"]]
        found = [checks.lasso_l1_kkt(inst.A, inst.y, inst.l1_weight, inst.residual_weight, x,
                                     limit)]
    elif name in ("minimax_fir", "minimax_fir_split"):
        grid = checks.fir_grid(inst.num_taps, inst.passband_edge, inst.stopband_edge,
                               inst.grid_size, inst.passband_weight, inst.stopband_weight)
        optimum = refs.get(("lp", repr(inst)), lambda: checks.fir_lp_optimum(*grid))
        if name == "minimax_fir":
            h, slack = z[built.layout["coefficients"]], 0.01
        else:
            h = (z[built.layout["coefficients_pass"]] + z[built.layout["coefficients_stop"]]) / 2
            slack = 0.02
        found = [checks.fir_minimax(*grid, optimum, h, slack, name)]
    elif name == "svm_consensus":
        X, y = inst.features, inst.labels
        w_ref, b_ref = refs.get(("svm", X.tobytes(), inst.hinge_weight),
                                lambda: checks.svm_centralized(X, y, inst.hinge_weight))
        found = checks.svm_decentralized(
            X, y, inst.adjacency, w_ref, b_ref, z[built.layout["weights"]],
            z[built.layout["biases"]], z[built.layout["margins"]], margin_limit=limit)
    elif name == "sparse_equalizer":
        found = [checks.equalizer_constraint(inst.channel, z[built.layout["taps"]],
                                             z[built.layout["output"]],
                                             z[built.layout["output_mirror"]], limit)]
    else:
        raise ValueError(f"no check for problem {name!r}")
    return [checks.Check(f"{label}: {c.name}", c.ok, c.value, c.limit) for c in found]


def solve_once(out: Outcome, tracer, label, built, bank, tol, refs):
    """One timed `engine.run` to tolerance; (seconds, iterations)."""
    if tracer is not None:
        tracer.begin_op(label)
    start = time.perf_counter()
    result = engine.run(built.system, bank, tol=tol, max_iters=MAX_ITERS)
    seconds = time.perf_counter() - start
    out.attempted += 1
    if not result.converged:
        out.failed += 1
    else:
        out.checks += check_solution(built, result.state.d, tol, refs, label)
    return seconds, result.state.iter


def finish(out: Outcome, rounds, sampler: Sampler, rss_mb) -> Outcome:
    out.metrics.update(
        solve_s=median(r[0] for r in rounds),
        setup_s=median(sampler.setup_s),
        iterations=rounds[0][1],
        peak_rss_mb=rss_mb,
        cold_start_s=median(sampler.cold_start_s),
    )
    out.record.update(
        rounds=[{"solve_s": r[0], "iterations": r[1]} for r in rounds],
        setup_s=sampler.setup_s,
        cold_start_s=sampler.cold_start_s,
    )
    return out


# --- desk ----------------------------------------------------------------------------


def desk(seed, seconds, tracer: Tracer | None) -> Outcome:
    """Every shipped problem at its default instance, sync and async.

    `seed` is not used: see DESK_TRIGGER_SEED.
    """
    out = Outcome()
    specs = [(name, 0, None) for name in problems.PROBLEM_NAMES]
    modes = (("sync", lambda: engine.DelayBank()),
             ("async", lambda: engine.DelayBank("asynchronous", P_ASYNC, DESK_TRIGGER_SEED)))
    refs = References()
    sampler = Sampler(specs, "scatopt", cold_every=2)
    built = sampler.warm_up()
    for b in built:
        for _, bank in modes:
            engine.run(b.system, bank(), tol=DESK_TOL, max_iters=30)

    def one_round(sample=True):
        solve_s = iterations = 0
        for b in built:
            for mode, bank in modes:
                if sample:
                    sampler.take()
                s, i = solve_once(out, tracer, f"desk {b.name} {mode}", b, bank(), DESK_TOL, refs)
                solve_s += s
                iterations += i
        return solve_s, iterations

    rounds = whole_rounds(seconds, 1, one_round)
    if tracer is not None:
        traced_round(tracer, out, rounds, lambda: one_round(sample=False)[0], specs)
        out.layers["interconnect.G_mb"] = g_mb(built)
    return finish(out, rounds, sampler, peak_rss_mb())


# --- ensemble ------------------------------------------------------------------------


def ensemble(seed, seconds, tracer: Tracer | None) -> Outcome:
    """Criterion 09's lockstep async ensembles plus a small minimax one."""
    out = Outcome()
    specs = [(name, 0, None) for name, _ in ENSEMBLES]
    replica_seeds = {name: [1000 * seed + i for i in range(count)] for name, count in ENSEMBLES}
    refs = References()
    sampler = Sampler(specs, "scatopt", per_op=3, cold_every=2)
    built = sampler.warm_up()
    for b in built:
        engine.run_ensemble(b.system, replica_seeds[b.name], p=P_ASYNC, tol=ENSEMBLE_TOL,
                            max_iters=30)
    lockstep = {}
    sync_states = {}

    def sync_primal(b):
        if b.name not in sync_states:
            sync_states[b.name] = engine.run(b.system, engine.DelayBank(), tol=REF_TOL,
                                             max_iters=MAX_ITERS).state.d
        return b.primal(sync_states[b.name])

    def one_round(sample=True):
        solve_s = iterations = 0
        for b in built:
            if sample:
                sampler.take()
            if tracer is not None:
                tracer.begin_op(f"ensemble {b.name}")
            start = time.perf_counter()
            resid, states = engine.run_ensemble(b.system, replica_seeds[b.name], p=P_ASYNC,
                                                tol=ENSEMBLE_TOL, max_iters=MAX_ITERS)
            solve_s += time.perf_counter() - start
            # iterations = updates made, as run() counts them
            lockstep[b.name] = resid.shape[1] - 1
            iterations += lockstep[b.name]
            out.attempted += 1
            if resid.shape[1] >= MAX_ITERS:
                out.failed += 1
                continue
            out.checks.append(checks.replicas_match_sync(
                [b.primal(d) for d in states], sync_primal(b), KKT_FACTOR * ENSEMBLE_TOL,
                f"ensemble {b.name}"))
        return solve_s, iterations

    rounds = whole_rounds(seconds, 1, one_round)
    # the synchronous references are themselves checked independently
    for b in built:
        if b.name in sync_states:
            out.checks += check_solution(b, sync_states[b.name], REF_TOL, refs,
                                         f"ensemble {b.name} sync ref")
    if tracer is not None:
        traced_round(tracer, out, rounds, lambda: one_round(sample=False)[0], specs)
        out.layers["interconnect.G_mb"] = g_mb(built)
        # run_ensemble draws its triggers inline.  Row i must reproduce
        # run(seed_i), so replaying each replica's DelayBank stream for the
        # iterations made counts the coordinates it adopted.
        adopted = 0
        for b in built:
            for s in replica_seeds[b.name]:
                bank = engine.DelayBank("asynchronous", P_ASYNC, s)
                bank.reset()
                adopted += sum(int(bank.triggers(b.system).sum())
                               for _ in range(lockstep[b.name]))
        tracer.count("engine.adopted_coords", adopted)
    return finish(out, rounds, sampler, peak_rss_mb())


# --- scale ---------------------------------------------------------------------------


def scale(seed, seconds, tracer: Tracer | None) -> Outcome:
    """Large sync solves where the dense build and apply dominate."""
    out = Outcome()
    specs = [(name, seed if seeded else 0, params) for name, params, seeded in SCALE_SYSTEMS]
    refs = References()
    sampler = Sampler(None, "scatopt")
    sampler.warm_up()
    # warm-up on small instances of the same builders and solves
    _, small = timed_setup([("lasso_augmented", seed, {"m": 40, "n": 200, "sparsity": 4}),
                            ("svm_consensus", 0, {"n_agents": 20})])
    for b in small:
        engine.run(b.system, engine.DelayBank(), tol=SCALE_TOL, max_iters=30)
    del small
    sizes = []

    def one_round(sample=True):
        gc.collect()
        if tracer is not None:
            tracer.begin_op("scale setup")
        setup_s, built = timed_setup(specs)
        sizes.append(g_mb(built))
        if sample:
            sampler.setup_s.append(setup_s)
        solve_s = iterations = 0
        for b in built:
            if sample:
                sampler.take()
            s, i = solve_once(out, tracer, f"scale {b.name}", b, engine.DelayBank(),
                              SCALE_TOL, refs)
            solve_s += s
            iterations += i
        return solve_s, iterations

    rounds = whole_rounds(seconds, SCALE_ROUNDS, one_round)
    rss_mb = peak_rss_mb()
    if tracer is not None:
        traced_round(tracer, out, rounds, lambda: one_round(sample=False)[0])
        out.layers["interconnect.G_mb"] = sizes[-1]
    return finish(out, rounds, sampler, rss_mb)


# --- cli -----------------------------------------------------------------------------

CLI_COMMANDS = tuple(
    (command, name)
    for name in problems.PROBLEM_NAMES
    for command in ("run", "verify", "compare")
    # compare refuses sparse_equalizer by design: it has no oracle
    if not (command == "compare" and name == "sparse_equalizer")
)
CLI_REPORTS = {"run": "summary.json", "verify": "verify.json", "compare": "compare.json"}


def cli(seed, seconds, tracer: Tracer | None) -> Outcome:
    """`scatopt run / verify / compare` over the shipped problems, each in
    a fresh interpreter, plus one seeded command run twice."""
    out = Outcome()
    work = OUT / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    specs = [(name, 0, None) for name in problems.PROBLEM_NAMES]
    sampler = Sampler(specs, "scatopt.cli", cold_every=4)
    built = sampler.warm_up()
    written = []

    def command(args, target, traced):
        rc, wall = invoke(args, target, traced)
        out.attempted += 1
        written[-1] += sum(p.stat().st_size for p in target.iterdir() if p.is_file())
        if rc != 0:
            out.failed += 1
            return wall, 0, None
        out.checks += checks.cli_outputs(args[0], args[2], rc, target)
        report = json.loads((target / CLI_REPORTS[args[0]]).read_text())
        return wall, report.get("iterations", 0), target

    def one_round(traced=None):
        written.append(0)
        solve_s = iterations = 0
        for name, problem in CLI_COMMANDS:
            if traced is None:
                sampler.take()
            wall, iters, _ = command([name, "--problem", problem, "--mode", "sync"],
                                     work / f"{name}-{problem}", traced)
            solve_s += wall
            iterations += iters
        # one seeded command twice into the same directory: same bytes
        seeded = ["run", "--problem", "lasso_huber", "--mode", "sync", "--seed", str(seed)]
        files = []
        for _ in range(2):
            wall, iters, target = command(seeded, work / "seeded", traced)
            solve_s += wall
            iterations += iters
            if target is not None:
                files.append({p.name: p.read_bytes() for p in sorted(target.iterdir())})
        if len(files) == 2:
            out.checks.append(checks.identical_bytes(*files, "run lasso_huber seeded"))
        return solve_s, iterations

    rounds = whole_rounds(seconds, 1, one_round)
    if tracer is not None:
        traced_s = one_round(traced=tracer)[0]
        out.layers["trace.overhead_s"] = traced_s - median(r[0] for r in rounds)
        out.layers["cli.bytes_written"] = written[-1]
        out.layers["interconnect.G_mb"] = g_mb(built)
    shutil.rmtree(work, ignore_errors=True)
    out.record["bytes_written"] = written
    return finish(out, rounds, sampler, peak_rss_mb(children=True))


def invoke(args, target: Path, tracer: Tracer | None):
    """Run one scatopt command in a fresh interpreter; (exit code, wall s).

    Traced, the command runs under cli_child.py and its spans are merged
    into `tracer`.
    """
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    args = args + ["--out", str(target)]
    spans = target.parent / f"{target.name}.spans.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "scatopt.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), *args]
    with open(target.parent / f"{target.name}.log", "wb") as log:
        start = time.perf_counter()
        rc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=log, stderr=log).returncode
        wall = time.perf_counter() - start
    if tracer is not None and spans.exists():
        payload = json.loads(spans.read_text())
        tracer.extend(payload["spans"], f"cli {' '.join(args[:3])}")
        tracer.count("cli.import_s_sum", payload["import_s"])
        tracer.count("cli.commands", 1)
        for key, value in payload["counters"].items():
            tracer.count(key, value)
    return rc, wall


WORKLOADS = {"desk": desk, "ensemble": ensemble, "scale": scale, "cli": cli}
