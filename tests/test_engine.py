import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from scatopt import engine, problems
from scatopt.elements import Element, Hinge, Quadratic, SoftThreshold, group_elements
from scatopt.engine import (
    DelayBank,
    DivergedError,
    System,
    fixed_point_residual,
    readout,
    run,
    run_ensemble,
    run_error_system,
)
from scatopt.interconnect import AffineInterconnection, from_constraints
from scatopt.pairs import Block, PairTransform


def single_quadratic_system(gamma=1.0, weight=1.0, target=0.0):
    ic = AffineInterconnection(np.eye(1), np.zeros(1))
    return System(ic, [Element(Quadratic(weight, target), Block(0, 1))], gamma=gamma)


def least_squares_system(m=6, n=4, seed=0, weight=5.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    y = rng.normal(size=m)
    ic = from_constraints(A, np.arange(n), np.arange(n, n + m), offset=y)
    elements = [
        Element(Quadratic(0.0), Block(0, n)),
        Element(Quadratic(weight, 0.0), Block(n, m)),
    ]
    return System(ic, elements), A, y, weight


class TestSystemValidation:
    def test_block_partition_required(self):
        ic = AffineInterconnection(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="not owned"):
            System(ic, [Element(Quadratic(1.0), Block(0, 2))])
        with pytest.raises(ValueError, match="overlap"):
            System(ic, [
                Element(Quadratic(1.0), Block(0, 2)),
                Element(Quadratic(1.0), Block(1, 2)),
            ])
        with pytest.raises(ValueError, match="exceeds"):
            System(ic, [Element(Quadratic(1.0), Block(0, 4))])
        # an overlap inside one gathered group, whose index lists coordinate 1 twice
        with pytest.raises(ValueError, match="overlap at coordinate 1"):
            System(AffineInterconnection(np.eye(4), np.zeros(4)), [
                Element(Quadratic(1.0), Block(0, 2)),
                Element(Quadratic(1.0), Block(1, 2)),
                Element(Hinge(1.0), Block(3, 1)),
            ])

    def test_gamma_range(self):
        ic = AffineInterconnection(np.eye(1), np.zeros(1))
        el = [Element(Quadratic(1.0), Block(0, 1))]
        with pytest.raises(ValueError, match="gamma"):
            System(ic, el, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            System(ic, el, gamma=1.5)

    @pytest.mark.parametrize("g, match", [
        (np.ones(2), r"linear_cost must have shape \(3,\), got \(2,\)"),
        (np.ones((1, 3)), r"linear_cost must have shape \(3,\), got \(1, 3\)"),
        (np.array([0.0, np.inf, 0.0]), "linear_cost contains non-finite entries"),
        (np.array([np.nan, 0.0, 0.0]), "linear_cost contains non-finite entries"),
    ], ids=["short", "matrix", "inf", "nan"])
    def test_linear_cost_checked(self, g, match):
        ic = AffineInterconnection(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match=match):
            System(ic, [Element(Quadratic(1.0), Block(0, 3))], linear_cost=g)

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5, float("nan")])
    def test_gamma_checked_on_assignment(self, gamma):
        system = single_quadratic_system(gamma=0.5)
        with pytest.raises(ValueError, match="gamma"):
            system.gamma = gamma
        assert system.gamma == 0.5
        system.gamma = 1.0
        assert system.gamma == 1.0


class TestStepSync:
    """One synchronous update, taken as `run(..., max_iters=1)`."""

    def test_fixed_point_invariance(self):
        for gamma in (0.25, 0.5, 1.0):
            system = single_quadratic_system(gamma=gamma, weight=1.0, target=0.0)
            # d = 0 is the fixed point: m(0) = 0, G 0 + 0 = 0
            result = run(system, d0=np.zeros(1), max_iters=1)
            assert result.trace.self_residual[0] == 0.0
            assert result.state.d[0] == 0.0

    def test_unit_quadratic_full_step(self):
        system = single_quadratic_system(gamma=1.0)
        result = run(system, d0=np.array([5.0]), max_iters=1)
        assert result.state.d[0] == pytest.approx(0.0)
        assert result.state.iter == 1

    def test_unit_quadratic_half_step(self):
        system = single_quadratic_system(gamma=0.5)
        result = run(system, d0=np.array([5.0]), max_iters=1)
        assert result.state.d[0] == pytest.approx(2.5)


def unit_quadratic_bank_system(n, gamma=1.0):
    """n decoupled unit quadratics: with gamma = 1 every update lands on 0."""
    ic = AffineInterconnection(np.eye(n), np.zeros(n))
    return System(ic, [Element(Quadratic(1.0), Block(0, n))], gamma=gamma)


class TestStepAsync:
    """One asynchronous update, taken as `run(..., max_iters=1)`."""

    def test_p_one_reproduces_sync(self):
        system, *_ = least_squares_system()
        d0 = np.full(system.dim, 0.7)
        s_async = run(system, DelayBank("asynchronous", p=1.0, seed=0), d0=d0, max_iters=1)
        s_sync = run(system, DelayBank(), d0=d0, max_iters=1)
        np.testing.assert_array_equal(s_async.state.d, s_sync.state.d)
        assert s_async.state.normalized_iter == pytest.approx(1.0)

    def test_trigger_count_statistics(self):
        # per step, each of n coordinates updates with probability p
        n, p = 1000, 0.1
        system = unit_quadratic_bank_system(n)
        counts = []
        for seed in range(100):
            bank = DelayBank(mode="asynchronous", p=p, seed=seed)
            result = run(system, bank, d0=np.ones(n), max_iters=1)
            counts.append(int(np.sum(result.state.d == 0.0)))
        mean = np.mean(counts)
        sigma = np.sqrt(n * p * (1 - p) / len(counts))
        assert abs(mean - n * p) < 3 * sigma

    def test_fixed_point_held_under_any_triggers(self):
        # coordinate 0 starts at its fixed point, coordinate 1 does not
        system = unit_quadratic_bank_system(2, gamma=0.5)
        for seed in range(5):
            bank = DelayBank(mode="asynchronous", p=0.3, seed=seed)
            result = run(system, bank, d0=np.array([0.0, 5.0]), max_iters=1)
            assert result.state.d[0] == 0.0


class TestDelayBank:
    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            DelayBank(mode="lazy")
        with pytest.raises(ValueError, match="p must lie in"):
            DelayBank(mode="asynchronous", p=0.0)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            DelayBank(mode="asynchronous", p=0.5, seed=-1)

    def test_effective_p(self):
        assert DelayBank().effective_p == 1.0
        assert DelayBank(mode="asynchronous", p=0.2).effective_p == 0.2

    def test_reset_restarts_stream(self):
        system = single_quadratic_system()
        bank = DelayBank(mode="asynchronous", p=0.5, seed=42)
        bank.reset()
        first = [bank.triggers(system).copy() for _ in range(10)]
        bank.reset()
        second = [bank.triggers(system).copy() for _ in range(10)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestTriggerStream:
    """`DelayBank.triggers` serves masks drawn 64 calls ahead and
    `run_ensemble` draws 64 iterations of masks at once; both must still
    give `default_rng(seed).random(N) < p` one call at a time."""

    def test_masks_match_the_stream_call_by_call(self):
        # three chunks; served masks keep their values (uncopied) through
        # refills, and reset restarts the stream, mid-chunk too
        bank, n = DelayBank("asynchronous", 0.3, 11), 7
        chunk = bank.masks(n)
        assert chunk.shape == (64, n) and chunk.dtype == bool
        for calls in (100, 192):
            bank.reset()
            ref = np.random.default_rng(11)
            served = [bank.triggers(SimpleNamespace(dim=n)) for _ in range(calls)]
            want = [ref.random(n) < 0.3 for _ in range(calls)]
            for got, expected in zip(served, want):
                assert np.array_equal(got, expected)

    def test_chunks_continue_the_call_stream_and_served_masks_stay(self):
        # successive chunks continue the call stream, each reading p when it
        # is drawn, and masks already served keep their values (uncopied)
        # through refills and a change of p
        bank, ref = DelayBank("asynchronous", 0.3, 7), np.random.default_rng(7)
        for p in (0.3, 0.6):
            bank.p = p
            assert np.array_equal(bank.masks(5), ref.random((64, 5)) < p)
        bank.p = 0.3
        bank.reset()
        served = [bank.triggers(SimpleNamespace(dim=5)) for _ in range(70)]
        bank.p = 0.6  # the chunk drawn at call 65 keeps 0.3; the next reads 0.6
        served += [bank.triggers(SimpleNamespace(dim=5)) for _ in range(130)]
        ref = np.random.default_rng(7)
        for k, got in enumerate(served):
            assert np.array_equal(got, ref.random(5) < (0.3 if k < 128 else 0.6))

    def test_synchronous_masks_are_all_true(self):
        assert DelayBank().triggers(SimpleNamespace(dim=4)).tolist() == [True] * 4

    def test_synchronous_bank_draws_no_masks(self):
        with pytest.raises(ValueError, match="synchronous delay bank draws no masks"):
            DelayBank().masks(3)

    def test_ensemble_masks_match_one_call_at_a_time(self, monkeypatch):
        system, *_ = least_squares_system()
        seeds, p, masks = [3, 5, 8], 0.25, []

        def drawing_loop(step, d, tol, max_iters, resids, draw=None, observe=None):
            masks.extend(draw().copy() for _ in range(200))  # three refills and a part
            return d, 0, False

        monkeypatch.setattr(engine, "_iterate", drawing_loop)
        run_ensemble(system, seeds, p=p)
        refs = [np.random.default_rng(s) for s in seeds]
        for mask in masks:
            assert np.array_equal(mask, np.stack([r.random(system.dim) < p for r in refs]))


class TestRun:
    def test_least_squares_matches_normal_equations(self):
        system, A, y, w = least_squares_system()
        result = run(system, tol=1e-12, max_iters=100000)
        assert result.converged
        x = result.z[: A.shape[1]]
        x_ref = np.linalg.lstsq(A, y, rcond=None)[0]
        np.testing.assert_allclose(x, x_ref, atol=1e-8)

    def test_fixed_point_initialization_converges_immediately(self):
        system = single_quadratic_system()
        result = run(system, d0=np.zeros(1), tol=1e-10)
        assert result.converged
        assert result.state.iter == 0

    def test_zero_max_iters(self):
        system = single_quadratic_system()
        result = run(system, d0=np.array([5.0]), max_iters=0)
        assert not result.converged
        assert len(result.trace) == 0

    def test_async_run_comparable_normalized_iterations(self):
        system, *_ = least_squares_system()
        sync = run(system, DelayBank(), tol=1e-8)
        p = 0.1
        asyn = run(
            system, DelayBank("asynchronous", p=p, seed=0), tol=1e-8, max_iters=500000
        )
        assert sync.converged and asyn.converged
        assert asyn.state.iter > 3 * sync.state.iter  # roughly 1/p more raw steps
        assert asyn.state.normalized_iter < 10 * sync.state.normalized_iter

    def test_determinism(self):
        system, *_ = least_squares_system()
        kw = dict(bank=DelayBank("asynchronous", p=0.2, seed=3), tol=1e-9)
        r1 = run(system, **kw)
        r2 = run(system, **kw)
        np.testing.assert_array_equal(r1.state.d, r2.state.d)
        np.testing.assert_array_equal(r1.trace.self_residual, r2.trace.self_residual)
        assert r1.state.iter == r2.state.iter

    def test_trace_records_oracle_and_objective(self):
        system, A, y, w = least_squares_system()
        d_star = run(system, tol=1e-13, max_iters=200000).state.d
        result = run(
            system, tol=1e-8, d_star=d_star,
            objective=lambda z: float(np.sum(z**2)),
        )
        trace = result.trace
        assert trace.oracle_residual is not None and trace.objective is not None
        assert len(trace.oracle_residual) == len(trace)
        assert trace.oracle_residual[-1] == pytest.approx(
            np.sum((result.state.d - d_star) ** 2), abs=1e-12
        )

    def test_objective_reuses_the_step_bank(self):
        # the objective sees the step's own m(d): the same values as the
        # primal mix recomputed at each state, from one bank call per step
        system, _, _, _ = least_squares_system()
        calls = []
        bank = system.apply_elements
        system.apply_elements = lambda d: calls.append(1) or bank(d)
        result = run(system, tol=1e-8, objective=lambda z: float(np.sum(z**2)),
                     record_states=True)
        del system.apply_elements
        trace = result.trace
        expect = [float(np.sum(system.primal_mix(d) ** 2)) for d in trace.states]
        np.testing.assert_array_equal(trace.objective, expect)
        # one call per step, then the readout and the final primal mix
        assert len(calls) == len(trace) + 2

    def test_divergence_detected(self):
        # a deliberately non-orthonormal expanding loop blows up
        ic = AffineInterconnection(np.array([[-3.0]]), np.zeros(1))
        system = System(ic, [Element(SoftThreshold(0.1), Block(0, 1))], gamma=1.0)
        with pytest.raises(DivergedError):
            run(system, d0=np.array([1e300]), max_iters=50)

    def test_huge_finite_start_converges(self):
        # ||d0||^2 overflows, but the state is finite and contracting
        system = single_quadratic_system(gamma=0.5)
        result = run(system, d0=np.array([1e200]))
        assert result.converged
        assert result.state.d[0] < 1e-7

    def test_tol_validation(self):
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                run(single_quadratic_system(), tol=tol)

    def test_rejects_negative_budget_and_misshapen_vectors(self):
        system, *_ = least_squares_system()
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            run(system, max_iters=-5)
        with pytest.raises(ValueError, match=r"d0 must have shape \(10,\)"):
            run(system, d0=np.zeros(5))
        # d_star = 0 of length 1 would broadcast and record ||d||^2
        with pytest.raises(ValueError, match=r"d_star must have shape \(10,\)"):
            run(system, d_star=np.zeros(1))


class TestReadout:
    def test_canonical_inverse(self):
        # element c = m(d); readout solves (a, b) from (c, d)
        system = single_quadratic_system()
        a, b = readout(system, np.array([0.0]))
        assert a[0] == pytest.approx(0.0)
        assert b[0] == pytest.approx(0.0)

    def test_known_pair(self):
        # with c = sqrt(2), d = 0 the canonical transform, which readout
        # inverts, gives (1, 1)
        a, b = PairTransform().invert_many(np.array([np.sqrt(2.0)]), np.array([0.0]))
        assert a[0] == pytest.approx(1.0)
        assert b[0] == pytest.approx(1.0)


class TestRunEnsemble:
    def test_stacked_stop_test_is_the_every_row_rule(self):
        # the row of the largest residual passes on its large norm while a
        # row of smaller residual fails on its own: the stack goes on
        D, resid = np.array([[1e3, 0.0], [0.0, 0.0]]), np.array([1e-6, 5e-7])
        assert resid[0] <= 1e-8 * (1.0 + np.linalg.norm(D[0]))
        assert not engine._rows_pass(resid, D, 1e-8)
        rng = np.random.default_rng(3)
        for _ in range(200):
            D = rng.normal(size=(4, 5)) * rng.lognormal(sigma=3.0, size=(4, 1))
            resid = rng.lognormal(sigma=3.0, size=4) * 1e-6
            every = bool(np.all(resid <= 1e-6 * (1.0 + engine._row_norms(D))))
            assert bool(engine._rows_pass(resid, D, 1e-6)) == every

    def test_rows_reproduce_individual_runs(self):
        system, *_ = least_squares_system()
        seeds = [0, 1, 2]
        p = 0.2
        res, final = run_ensemble(system, seeds, p=p, tol=1e-8, max_iters=100000)
        assert res.shape[0] == len(seeds)
        for i, seed in enumerate(seeds):
            single = run(
                system, DelayBank("asynchronous", p=p, seed=seed),
                tol=1e-300, max_iters=res.shape[1],
            )
            np.testing.assert_allclose(res[i], single.trace.self_residual, atol=1e-12)

    def test_overflowing_replica_raises(self):
        ic = AffineInterconnection(np.array([[2.0]]), np.zeros(1))
        system = System(ic, [Element(Quadratic(0.0), Block(0, 1))])
        with pytest.raises(DivergedError):
            run_ensemble(system, [0], p=1.0, d0=np.array([1e300]), max_iters=50)

    def test_huge_finite_start_converges(self):
        system = single_quadratic_system(gamma=0.5)
        res, final = run_ensemble(system, [0], p=0.5, d0=np.array([1e200]))
        assert np.isfinite(res).all()
        assert res[0, -1] <= 1e-6 * (1.0 + abs(final[0, 0]))

    def test_rejects_no_seeds_and_nonpositive_tol(self):
        system = single_quadratic_system()
        with pytest.raises(ValueError, match="seed"):
            run_ensemble(system, [])
        for tol in (0.0, -1.0):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                run_ensemble(system, [0], tol=tol)

    def test_rejects_infinite_tol_negative_budget_and_misshapen_start(self):
        system, *_ = least_squares_system()
        for tol in (np.inf, np.nan):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                run_ensemble(system, [0], tol=tol)
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            run_ensemble(system, [0, 1], max_iters=-3)
        with pytest.raises(ValueError, match=r"d0 must have shape \(10,\)"):
            run_ensemble(system, [0], d0=np.zeros(5))
        res, final = run_ensemble(system, [0, 1, 2], max_iters=0)
        assert res.shape == (3, 0) and final.shape == (3, system.dim)

    def test_all_rows_converge(self):
        system, *_ = least_squares_system()
        res, final = run_ensemble(system, range(5), p=0.1, tol=1e-6, max_iters=200000)
        last = res[:, -1]
        norms = np.linalg.norm(final, axis=1)
        assert np.all(last <= 1e-6 * (1.0 + norms))


class TestErrorSystem:
    def test_error_trajectory_matches_shifted_run(self):
        system, *_ = least_squares_system()
        d_star = run(system, tol=1e-13, max_iters=200000).state.d
        rng = np.random.default_rng(0)
        e0 = 0.1 * rng.normal(size=system.dim)
        traj = run(
            system, tol=1e-300, max_iters=51, d0=d_star + e0, record_states=True
        ).trace.states
        err = run_error_system(system, d_star, e0, iters=len(traj) - 1)
        np.testing.assert_allclose(traj - d_star, err[: len(traj)], atol=1e-10)

    def test_zero_error_stays_zero(self):
        system, *_ = least_squares_system()
        d_star = run(system, tol=1e-13, max_iters=200000).state.d
        err = run_error_system(system, d_star, np.zeros(system.dim), iters=20)
        assert np.abs(err).max() < 1e-10

    def test_rejects_negative_budget_and_misshapen_vectors(self):
        system, *_ = least_squares_system()
        zero = np.zeros(system.dim)
        with pytest.raises(ValueError, match="iters must be nonnegative"):
            run_error_system(system, zero, zero, iters=-2)
        with pytest.raises(ValueError, match=r"e0 must have shape \(10,\)"):
            run_error_system(system, zero, np.zeros(3), iters=2)
        with pytest.raises(ValueError, match=r"d_star must have shape \(10,\)"):
            run_error_system(system, np.zeros(3), zero, iters=2)


class TestFixedPointResidual:
    def test_zero_at_fixed_point(self):
        system = single_quadratic_system(gamma=0.5)
        assert fixed_point_residual(system, np.zeros(1)) == pytest.approx(0.0)

    def test_gamma_independent(self):
        sys_half, *_ = least_squares_system()
        sys_full, *_ = least_squares_system()
        sys_full.gamma = 1.0
        d = np.random.default_rng(1).normal(size=sys_half.dim)
        assert fixed_point_residual(sys_half, d) == pytest.approx(
            fixed_point_residual(sys_full, d)
        )


def gathered_step(system):
    """The plain kernel every faster form of the loop must reproduce bit
    for bit: a bank that gathers every group by index, m(d) = 2 prox(d) - d
    and the update (1 - gamma) d + gamma (G m(d) + s - G g - g), with the
    linear cost g's term formed here from the reflection (G, s).  Returns
    (step, m)."""
    every = np.arange(system.dim)
    bank = [(every[idx].reshape(shape), rel) for idx, shape, rel in group_elements(system.elements)]
    ic, gamma, g = system.interconnection, system.gamma, system.linear_cost
    s = ic.s if g is None else ic.s - ic.linear(g) - g

    def reflect(d):
        prox = np.empty_like(d)
        for idx, rel in bank:
            prox[..., idx] = rel.prox(d[..., idx])
        return 2.0 * prox - d

    return (lambda d: (1.0 - gamma) * d + gamma * (ic.linear(reflect(d)) + s)), reflect


def plain_loop(step, d, tol, max_iters, draw=None):
    """The loop with np.linalg.norm and np.where; returns (residuals,
    iterates seen, final state, updates made)."""
    norm = np.linalg.norm if d.ndim == 1 else partial(np.linalg.norm, axis=1)
    resids, seen = [], []
    for k in range(max_iters):
        cand = step(d)
        resids.append(norm(cand - d))
        seen.append(d)
        if tol is not None and np.all(resids[-1] <= tol * (1.0 + norm(d))):
            return resids, seen, d, k
        d = cand if draw is None else np.where(draw(), cand, d)
    return resids, seen, d, max_iters


def reset_banks(seeds, p=0.1):
    banks = [DelayBank("asynchronous", p, s) for s in seeds]
    for bank in banks:
        bank.reset()
    return banks


@pytest.fixture(scope="module")
def default_systems():
    return {name: problems.build(name, problems.default_instance(name, seed=0)).system
            for name in problems.PROBLEM_NAMES}


class TestReferenceKernel:
    """`run`, `run_ensemble` and `run_error_system` give the plain kernel's
    residuals, iteration counts and states exactly, on every default problem;
    within CAP updates all sync runs but svm's reach TOL, no async one does."""

    TOL, CAP = 1e-4, 300

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_run(self, default_systems, name, mode):
        system = default_systems[name]
        bank = DelayBank() if mode == "sync" else DelayBank("asynchronous", 0.1, 0)
        got = run(system, bank, tol=self.TOL, max_iters=self.CAP)
        draw = None if mode == "sync" else partial(reset_banks([0])[0].triggers, system)
        resids, _, d, k = plain_loop(gathered_step(system)[0], np.zeros(system.dim),
                                     self.TOL, self.CAP, draw)
        assert got.state.iter == k
        assert np.array_equal(got.trace.self_residual, resids)
        assert np.array_equal(got.state.d, d)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_ensemble(self, default_systems, name):
        system = default_systems[name]
        res, D = run_ensemble(system, [0, 1, 2], p=0.1, tol=self.TOL, max_iters=self.CAP)
        banks = reset_banks([0, 1, 2])
        resids, _, d, _ = plain_loop(gathered_step(system)[0], np.zeros((3, system.dim)),
                                     self.TOL, self.CAP,
                                     lambda: np.stack([b.triggers(system) for b in banks]))
        assert np.array_equal(res, np.asarray(resids).T)
        assert np.array_equal(D, d)

    def test_async_error_system(self, default_systems):
        # every stored error is its own array: adopting into one in place
        # would make the whole trajectory read as its last iterate
        system = default_systems["svm_consensus"]
        rng = np.random.default_rng(3)
        d_star, e0 = rng.normal(size=(2, system.dim))
        got = run_error_system(system, d_star, e0, self.CAP,
                               DelayBank("asynchronous", 0.1, 0))
        _, reflect = gathered_step(system)
        c_star, ic, gamma = reflect(d_star), system.interconnection, system.gamma
        _, seen, e, _ = plain_loop(
            lambda e: (1.0 - gamma) * e + gamma * ic.linear(reflect(d_star + e) - c_star),
            e0, None, self.CAP, partial(reset_banks([0])[0].triggers, system))
        assert np.array_equal(got, np.asarray(seen + [e]))


class TestScaled:
    """`System.scaled(alpha)`: alpha = 1 changes no bit of any run, and the
    scaled system reuses the bank's groups and the interconnection."""

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        system, *_ = least_squares_system()
        with pytest.raises(ValueError, match="alpha"):
            system.scaled(alpha)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_unit_scale_reproduces_iterates(self, name, mode):
        # the builder's own system, at alpha = 1 whatever the shipped default
        system = problems.PROBLEMS[name].builder(problems.default_instance(name, seed=0)).system
        results = []
        for s in (system, system.scaled(1.0)):
            bank = DelayBank() if mode == "sync" else DelayBank("asynchronous", 0.1, 0)
            results.append(run(s, bank, tol=1e-4, max_iters=100, objective=s.cost))
        ref, got = results
        assert got.state.iter == ref.state.iter
        for field in ("self_residual", "objective"):
            assert np.array_equal(getattr(got.trace, field), getattr(ref.trace, field))
        for field in ("a", "b", "z"):
            assert np.array_equal(getattr(got, field), getattr(ref, field))
        assert np.array_equal(got.state.d, ref.state.d)

    def test_no_regrouping(self, monkeypatch):
        # a rebuilt bank would put set-up time back: scaling regroups
        # nothing and keeps every group's index object
        system = problems.build_svm_decentralized(problems.SvmInstance.separable_blobs()).system
        calls = []
        monkeypatch.setattr(engine, "group_elements",
                            lambda elements: calls.append(1) or group_elements(elements))
        scaled = system.scaled(3.0)
        assert calls == []
        assert all(new is old for (new, _, _), (old, _, _) in zip(scaled._bank, system._bank,
                                                                     strict=True))
        assert scaled.interconnection is system.interconnection
        assert len({id(el.relation) for el in scaled.elements}) == 4
