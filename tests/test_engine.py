import numpy as np
import pytest

from scatopt.elements import Element, Quadratic, SoftThreshold
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
from scatopt.pairs import Block


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

    def test_gamma_range(self):
        ic = AffineInterconnection(np.eye(1), np.zeros(1))
        el = [Element(Quadratic(1.0), Block(0, 1))]
        with pytest.raises(ValueError, match="gamma"):
            System(ic, el, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            System(ic, el, gamma=1.5)


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

    def test_per_block_triggers_are_blockwise(self):
        system, *_ = least_squares_system()
        d0 = np.random.default_rng(0).normal(size=system.dim)
        outcomes = set()
        for seed in range(10):
            bank = DelayBank(mode="asynchronous", p=0.5, seed=seed, per_block=True)
            moved = run(system, bank, d0=d0, max_iters=1).state.d != d0
            for el in system.elements:
                seg = moved[el.block.slice]
                assert seg.all() or not seg.any()
                outcomes.add(bool(seg.all()))
        assert outcomes == {True, False}


class TestDelayBank:
    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            DelayBank(mode="lazy")
        with pytest.raises(ValueError, match="probability"):
            DelayBank(mode="asynchronous", p=0.0)

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

    def test_divergence_detected(self):
        # a deliberately non-orthonormal expanding loop blows up
        ic = AffineInterconnection(np.array([[-3.0]]), np.zeros(1), neutral=False)
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
        with pytest.raises(ValueError, match="tolerance"):
            run(single_quadratic_system(), tol=0.0)


class TestReadout:
    def test_canonical_inverse(self):
        # element c = m(d); readout solves (a, b) from (c, d)
        system = single_quadratic_system()
        a, b = readout(system, np.array([0.0]))
        assert a[0] == pytest.approx(0.0)
        assert b[0] == pytest.approx(0.0)

    def test_known_pair(self):
        # with c = sqrt(2), d = 0 the canonical transform gives (1, 1);
        # build a zero-weight element so c = d, then check directly on the
        # transform used by readout
        system = single_quadratic_system()
        a, b = system.transform.invert_many(np.array([np.sqrt(2.0)]), np.array([0.0]))
        assert a[0] == pytest.approx(1.0)
        assert b[0] == pytest.approx(1.0)


class TestRunEnsemble:
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
        ic = AffineInterconnection(np.array([[2.0]]), np.zeros(1), neutral=False)
        system = System(ic, [Element(Quadratic(0.0), Block(0, 1))])
        with pytest.raises(DivergedError):
            run_ensemble(system, [0], p=1.0, d0=np.array([1e300]), max_iters=50)

    def test_huge_finite_start_converges(self):
        system = single_quadratic_system(gamma=0.5)
        res, final = run_ensemble(system, [0], p=0.5, d0=np.array([1e200]))
        assert np.isfinite(res).all()
        assert res[0, -1] <= 1e-6 * (1.0 + abs(final[0, 0]))

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
