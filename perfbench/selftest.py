"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Solves small instances with scatopt, then shows that every check in
checks.py accepts the answer and rejects a deliberately perturbed copy of
it.  Exits 1 if any check accepts a perturbed answer or rejects a good one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from scatopt import engine  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

TOL = 1e-8
LIMIT = workloads.KKT_FACTOR * TOL
failures = []


def expect(label, result, ok):
    results = result if isinstance(result, list) else [result]
    got = all(c.ok for c in results)
    verdict = "as expected" if got == ok else "WRONG"
    if got != ok:
        failures.append(label)
    kind = "accepts good answer" if ok else "rejects perturbed"
    print(f"{verdict:11s} {kind:20s} {label}: " + "; ".join(str(c) for c in results))


def solve(name):
    built = workloads.build_system(name)
    result = engine.run(built.system, engine.DelayBank(), tol=TOL, max_iters=500_000)
    return built, built.primal(result.state.d), result.state.d


def lasso():
    built, z, _ = solve("lasso_huber")
    inst, x = built.instance, z[built.layout["coefficients"]]
    args = (inst.A, inst.y, inst.l1_weight, inst.residual_weight, inst.huber_width)
    expect("lasso_huber gradient", checks.lasso_huber_kkt(*args, x, LIMIT), True)
    expect("lasso_huber gradient, x + 1e-4", checks.lasso_huber_kkt(*args, x + 1e-4, LIMIT), False)

    built, z, _ = solve("lasso_augmented")
    inst, x = built.instance, z[built.layout["coefficients"]]
    args = (inst.A, inst.y, inst.l1_weight, inst.residual_weight)
    expect("lasso_l1 subgradient", checks.lasso_l1_kkt(*args, x, LIMIT), True)
    expect("lasso_l1 subgradient, support scaled by 1.001",
           checks.lasso_l1_kkt(*args, x * 1.001, LIMIT), False)
    off = x.copy()
    off[np.flatnonzero(x == 0)[0]] = 1e-4
    expect("lasso_l1 subgradient, one zero moved off", checks.lasso_l1_kkt(*args, off, LIMIT),
           False)


def minimax():
    refs = workloads.References()
    for name, slack in (("minimax_fir", 0.01), ("minimax_fir_split", 0.02)):
        built, z, d = solve(name)
        expect(name, workloads.check_solution(built, d, TOL, refs, name), True)
        s = built.instance
        grid = checks.fir_grid(s.num_taps, s.passband_edge, s.stopband_edge, s.grid_size,
                               s.passband_weight, s.stopband_weight)
        optimum = checks.fir_lp_optimum(*grid)
        h = z[built.layout["coefficients"]] if name == "minimax_fir" else (
            z[built.layout["coefficients_pass"]] + z[built.layout["coefficients_stop"]]) / 2
        bumped = h + 0.03 * optimum
        expect(f"{name}, taps + 3% of the optimum",
               checks.fir_minimax(*grid, optimum, bumped, slack, name), False)


def svm():
    built, z, _ = solve("svm_consensus")
    inst = built.instance
    X, y = inst.features, inst.labels
    w_ref, b_ref = checks.svm_centralized(X, y, inst.hinge_weight)
    w, b, m = (z[built.layout[k]] for k in ("weights", "biases", "margins"))

    def run_checks(w, b, m):
        return checks.svm_decentralized(X, y, inst.adjacency, w_ref, b_ref, w, b, m,
                                        margin_limit=LIMIT)

    expect("svm_consensus", run_checks(w, b, m), True)
    expect("svm_consensus, classifier negated", run_checks(-w, -b, -m), False)
    shifted = w.copy()
    shifted[0] += 0.5
    expect("svm_consensus, one agent's w + 0.5", run_checks(shifted, b, m), False)
    expect("svm_consensus, margins + 1e-4", run_checks(w, b, m + 1e-4), False)


def equalizer():
    built, z, _ = solve("sparse_equalizer")
    inst = built.instance
    taps, out, mirror = (z[built.layout[k]] for k in ("taps", "output", "output_mirror"))
    expect("sparse_equalizer", checks.equalizer_constraint(inst.channel, taps, out, mirror,
                                                           LIMIT), True)
    expect("sparse_equalizer, mirror + 1e-4",
           checks.equalizer_constraint(inst.channel, taps, out, mirror + 1e-4, LIMIT), False)


def ensemble():
    tol = workloads.ENSEMBLE_TOL
    built, z_ref, _ = solve("lasso_huber")
    _, states = engine.run_ensemble(built.system, range(5), p=0.1, tol=tol)
    primals = np.array([built.primal(d) for d in states])
    limit = workloads.KKT_FACTOR * tol
    expect("ensemble replicas", checks.replicas_match_sync(primals, z_ref, limit, "lasso"), True)
    primals[3, 0] += 0.01 * (1.0 + np.abs(z_ref).max())
    expect("ensemble replicas, one replica moved by 1%",
           checks.replicas_match_sync(primals, z_ref, limit, "lasso"), False)


def cli():
    work = workloads.OUT / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for command in ("run", "verify", "compare"):
            target = work / command
            rc, _ = workloads.invoke([command, "--problem", "lasso_huber"], target, None)
            expect(f"cli {command}", checks.cli_outputs(command, "lasso_huber", rc, target), True)
            expect(f"cli {command}, exit code 2",
                   checks.cli_outputs(command, "lasso_huber", 2, target), False)
            name = {"run": "summary.json", "verify": "verify.json",
                    "compare": "compare.json"}[command]
            path = target / name
            good = path.read_text()
            report = json.loads(good)
            if command == "verify":
                report["passed"] = False
            elif command == "run":
                report["converged"] = False
            else:
                report["metrics"]["max_coefficient_error"] = 2e-4
            path.write_text(json.dumps(report))
            expect(f"cli {command}, report altered",
                   checks.cli_outputs(command, "lasso_huber", 0, target), False)
            path.write_text(good[: len(good) // 2])
            expect(f"cli {command}, truncated {name}",
                   checks.cli_outputs(command, "lasso_huber", 0, target), False)
        files = {"trace.csv": b"iter\n0\n", "summary.json": b"{}\n"}
        expect("byte-identical rerun", checks.identical_bytes(files, dict(files), "run"), True)
        expect("byte-identical rerun, one byte changed",
               checks.identical_bytes(files, dict(files, **{"trace.csv": b"iter\n1\n"}), "run"),
               False)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    workloads.OUT.mkdir(exist_ok=True)
    for part in (lasso, minimax, svm, equalizer, ensemble, cli):
        part()
    if failures:
        print(f"{len(failures)} self-test cases went wrong: {', '.join(failures)}")
        return 1
    print("every check accepts the good answer and rejects each perturbed one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
