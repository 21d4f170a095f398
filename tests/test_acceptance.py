"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line to the terminal (bypassing
pytest's capture) before asserting, so the criterion-level outcome is
visible in any run log.
"""

import dataclasses

import numpy as np
import pytest

from scatopt import monitor, oracles, problems
from scatopt.cli import main as cli_main
from scatopt.elements import (
    CappedL1,
    Element,
    Hinge,
    HuberL1,
    OneSidedPenalty,
    Quadratic,
    SoftThreshold,
    dissipativity_probe,
)
from scatopt.engine import DelayBank, run, run_ensemble
from scatopt.interconnect import check_orthonormal
from scatopt.pairs import Block

from grid_oracle import elementwise_cost, grid_prox


@pytest.fixture
def announce(capsys):
    def _announce(num, label, ok):
        with capsys.disabled():
            print(f"\n[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")

    return _announce


def all_built_problems():
    for name in problems.PROBLEM_NAMES:
        yield problems.build(name, problems.default_instance(name, seed=0))


def test_criterion_01_orthonormality_neutrality(announce):
    rng = np.random.default_rng(0)
    ok = True
    for built in all_built_problems():
        G = built.system.interconnection.G
        ok &= check_orthonormal(G, tol=1e-10).passed
        for _ in range(100):
            c = rng.normal(size=G.shape[0])
            nc = np.linalg.norm(c)
            ok &= abs(np.linalg.norm(G @ c) - nc) <= 1e-12 * nc
    announce(1, "orthonormal interconnections preserve norms", ok)
    assert ok


def test_criterion_02_prox_matches_grid_search(announce):
    rng = np.random.default_rng(1)
    makers = [
        lambda: Quadratic(rng.uniform(0, 5), rng.uniform(-2, 2)),
        lambda: HuberL1(rng.uniform(0, 3), rng.uniform(0.05, 2)),
        lambda: SoftThreshold(rng.uniform(0, 3)),
        lambda: Hinge(rng.uniform(0, 3)),
        lambda: OneSidedPenalty(
            rng.uniform(0, 5), rng.uniform(-2, 2),
            "upper" if rng.random() < 0.5 else "lower",
        ),
        lambda: CappedL1(rng.uniform(0.1, 3), rng.uniform(0.1, 2)),
    ]
    worst = 0.0
    ok = True
    for i in range(1000):
        rel = makers[i % len(makers)]()
        d = rng.uniform(-5, 5)
        got = float(np.atleast_1d(rel.prox(np.array([d])))[0])
        want = grid_prox(rel, d)
        if abs(got - want) <= 1e-4:
            worst = max(worst, abs(got - want))
            continue
        # a nonconvex tie can put the two global minimizers far apart;
        # accept iff the closed form attains at least the grid optimum
        obj_got = 0.5 * (got - d) ** 2 + float(elementwise_cost(rel, got))
        obj_want = 0.5 * (want - d) ** 2 + float(elementwise_cost(rel, want))
        ok &= isinstance(rel, CappedL1) and obj_got <= obj_want + 1e-7
    announce(2, "closed-form prox maps match grid-search oracles (1e-4)", ok)
    assert ok, f"worst deviation {worst:.2e}"


def test_criterion_03_dissipativity(announce):
    convex = [
        Quadratic(2.0, 0.5),
        HuberL1(1.0, 0.1),
        SoftThreshold(1.0),
        Hinge(1.0),
        OneSidedPenalty(2.0, 0.3, "upper"),
        OneSidedPenalty(2.0, -0.3, "lower"),
    ]
    ok = True
    for rel in convex:
        el = Element(rel, Block(0, 1))
        rep = dissipativity_probe(el, np.array([0.1]), n=1000, radius=2.0, seed=0)
        ok &= rep.passed and rep.max_ratio <= 1.0 + 1e-10
    capped = Element(CappedL1(1.0, 1.0), Block(0, 1))
    rep = dissipativity_probe(capped, np.array([1.4]), n=1000, radius=0.5, seed=0)
    ok &= (not rep.passed) and rep.max_ratio > 1.0
    announce(3, "convex elements dissipative, capped-l1 demonstrably not", ok)
    assert ok


def test_criterion_04_lasso_huber_monotone(announce, lasso_huber_built, lasso_huber_dstar):
    system = lasso_huber_built.system
    system_full = problems.build_lasso_huber(lasso_huber_built.instance).system
    system_full.gamma = 1.0
    result = run(system_full, DelayBank(), tol=1e-10, max_iters=200000,
                 d_star=lasso_huber_dstar)
    stats = monitor.trace_stats(result.trace)
    ref = oracles.oracle_lasso_huber(lasso_huber_built.instance)
    x = lasso_huber_built.primal(result.state.d)[lasso_huber_built.layout["coefficients"]]
    err = float(np.abs(x - ref.x).max())
    ok = result.converged and stats.monotone and err <= 1e-4
    announce(4, "huber regression converges monotonically to the oracle", ok)
    assert ok, f"converged={result.converged} monotone={stats.monotone} err={err:.2e}"


def test_criterion_05_lasso_augmented_oracle(announce, lasso_augmented_built):
    result = run(lasso_augmented_built.system, DelayBank(), tol=1e-10, max_iters=500000)
    x = lasso_augmented_built.primal(result.state.d)[
        lasso_augmented_built.layout["coefficients"]
    ]
    ref = oracles.oracle_lasso(lasso_augmented_built.instance)
    err = float(np.abs(x - ref.x).max())
    support_ok = np.array_equal(np.abs(x) > 1e-6, np.abs(ref.x) > 1e-6)
    ok = result.converged and err <= 1e-3 and support_ok
    announce(5, "exact-l1 regression matches coordinate descent", ok)
    assert ok, f"err={err:.2e} support_match={support_ok}"


def test_criterion_06_minimax_fir(announce, fir_built, fir_spec):
    result = run(fir_built.system, DelayBank(), tol=1e-10, max_iters=500000)
    z = fir_built.primal(result.state.d)
    h = z[fir_built.layout["coefficients"]]
    ref = oracles.oracle_minimax_lp(fir_spec)
    C = fir_built.extras["cosines"]
    werr = np.abs(fir_built.extras["weights"] * (C @ h - fir_built.extras["desired"]))
    err = float(werr.max())
    alternations = int(np.sum(np.abs(werr - ref.value) <= 0.05 * ref.value))
    ok = (
        result.converged
        and err <= 1.01 * ref.value
        and alternations >= fir_spec.half_taps + 2
    )
    announce(6, "minimax filter within 1% of the LP optimum, equiripple", ok)
    assert ok, f"ratio={err / ref.value:.6f} alternations={alternations}"


def test_criterion_07_split_minimax(announce, fir_built, fir_spec):
    unsplit = run(fir_built.system, DelayBank(), tol=1e-10, max_iters=500000)
    z = fir_built.primal(unsplit.state.d)
    C = fir_built.extras["cosines"]
    weights, desired = fir_built.extras["weights"], fir_built.extras["desired"]
    err_unsplit = float(
        np.abs(weights * (C @ z[fir_built.layout["coefficients"]] - desired)).max()
    )

    gaps = []
    err_split = None
    for w in (10.0, 30.0, 100.0):
        built = problems.build_minimax_fir_split(fir_spec, coupling_weight=w)
        result = run(built.system, DelayBank(), tol=1e-10, max_iters=500000)
        zs = built.primal(result.state.d)
        hp = zs[built.layout["coefficients_pass"]]
        hs = zs[built.layout["coefficients_stop"]]
        gaps.append(float(np.abs(hp - hs).max()))
        if w == 100.0:  # the default, tight coupling
            err_split = float(np.abs(weights * (C @ ((hp + hs) / 2) - desired)).max())
    ok = err_split <= 1.02 * err_unsplit and gaps[0] > gaps[1] > gaps[2]
    announce(7, "split design within 2% of unsplit, copies tighten with coupling", ok)
    assert ok, f"split/unsplit={err_split / err_unsplit:.4f} gaps={gaps}"


def test_criterion_08_decentralized_svm(announce, svm_built):
    inst = svm_built.instance
    structure_ok = (
        inst.n_agents == 30
        and bool(np.all(inst.adjacency.sum(axis=1) == 4))
        and len(svm_built.extras["edges"]) == 60
    )
    result = run(svm_built.system, DelayBank(), tol=1e-9, max_iters=500000)
    w, b = problems.consensus_classifier(svm_built, result.state.d)
    ref = oracles.oracle_svm_qp(inst)
    pred = np.sign(inst.features @ w + b)
    pred_ref = np.sign(inst.features @ ref.x + ref.extras["bias"])
    agreement = float(np.mean(pred == pred_ref))
    ok = structure_ok and result.converged and agreement == 1.0
    announce(8, "30-agent 4-regular consensus matches the centralized QP", ok)
    assert ok, f"structure={structure_ok} agreement={agreement}"


def criterion_09_ratio(system):
    """Whether 20 seeded replicas at p = 0.1 all reach tol 1e-6, and the largest ratio of
    their mean residual to the synchronous one at the same normalized iteration."""
    p = 0.1
    res, final = run_ensemble(system, range(20), p=p, tol=1e-6, max_iters=500000)
    # the ratio reads sync entries up to index floor((K - 1) p) for K
    # lockstep iterations; a budget of floor(K p) + 2 reaches every one
    sync_res = run(system, DelayBank(), tol=1e-300,
                   max_iters=int(res.shape[1] * p) + 2).trace.self_residual
    all_reached = bool(np.all(res[:, -1] <= 1e-6 * (1.0 + np.linalg.norm(final, axis=1))))
    avg = res.mean(axis=0)
    sync_idx = np.minimum((np.arange(len(avg)) * p).astype(int), len(sync_res) - 1)
    mask = (avg > 1e-6) & (sync_res[sync_idx] > 1e-12)
    return all_reached, float((avg[mask] / sync_res[sync_idx][mask]).max())


def test_criterion_09_asynchronous_mode(announce, lasso_huber_built,
                                        lasso_augmented_built, svm_built):
    details = {built.name: criterion_09_ratio(built.system)
               for built in (lasso_huber_built, lasso_augmented_built, svm_built)}
    ok = all(all_reached and ratio <= 3.0 for all_reached, ratio in details.values())
    announce(9, "asynchronous runs track the synchronous residual curve", ok)
    assert ok, str(details)


def test_shipped_svm_scale_keeps_criterion_09_ratio():
    # criterion 09's measure on its three problems as `problems.build` ships
    # them (the svm at alpha = 3, all three at gamma = 0.8); criterion 09
    # itself runs the builders' alpha = 1, gamma = 0.5
    ratios = {}
    for name, alpha in (("lasso_huber", 1.0), ("lasso_augmented", 1.0), ("svm_consensus", 3.0)):
        system = problems.build(name, problems.default_instance(name)).system
        assert (system.alpha, system.gamma) == (alpha, 0.8)
        all_reached, ratios[name] = criterion_09_ratio(system)
        assert all_reached, name
    assert max(ratios.values()) <= 3.0, ratios


def test_criterion_10_error_system_superposition(announce, lasso_huber_built,
                                                 lasso_huber_dstar):
    rng = np.random.default_rng(0)
    e0 = 0.1 * rng.normal(size=lasso_huber_built.system.dim)
    gap = monitor.superposition_gap(
        lasso_huber_built.system, lasso_huber_dstar, e0, iters=100
    )
    # with matched asynchronous triggers too; a single state adopts in place,
    # so a recorded state or error that aliased the live one would fail here
    gap_async = monitor.superposition_gap(
        lasso_huber_built.system, lasso_huber_dstar, e0, iters=100,
        bank=DelayBank("asynchronous", p=0.3, seed=4),
    )
    ok = gap <= 1e-10 and gap_async <= 1e-10
    announce(10, "error-system trajectory superposes onto the original", ok)
    assert ok, f"gap={gap:.2e} async gap={gap_async:.2e}"


def test_criterion_11_sparse_equalizer(announce, equalizer_built):
    result = run(equalizer_built.system, DelayBank(), tol=1e-6, max_iters=500000)
    inst = equalizer_built.instance
    imp = np.zeros(inst.channel.size)
    imp[0] = 1.0
    imp_inst = dataclasses.replace(inst, channel=imp)
    imp_built = problems.build_sparse_equalizer(imp_inst)
    imp_result = run(imp_built.system, DelayBank(), tol=1e-10, max_iters=500000)
    taps = imp_built.primal(imp_result.state.d)[imp_built.layout["taps"]]
    one_sparse = (
        float(np.abs(taps[1:]).max()) < 1e-8
        and imp_inst.lower_env[0] - 1e-8 <= taps[0] <= imp_inst.upper_env[0] + 1e-8
    )
    ok = result.converged and imp_result.converged and one_sparse
    announce(11, "nonconvex equalizer reaches a fixed point, impulse case sparse", ok)
    assert ok, f"converged={result.converged} taps={taps}"


def test_criterion_12_determinism(announce, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["run", "--problem", "lasso_huber", "--mode", "async",
            "--seed", "11", "--tol", "1e-6"]
    cli_main(args + ["--out", str(out1)])
    cli_main(args + ["--out", str(out2)])
    traces_equal = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    import json

    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1["config"].pop("out"), s2["config"].pop("out")
    ok = traces_equal and s1 == s2
    announce(12, "repeated seeded runs are byte-identical", ok)
    assert ok
