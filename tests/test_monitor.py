import numpy as np
import pytest

from scatopt import monitor
from scatopt.elements import _ball_sample, dissipativity_probe
from scatopt.engine import DelayBank, RunTrace, fixed_point_residual


class TestOracleResidual:
    def test_zero_at_reference(self):
        d = np.arange(4.0)
        assert monitor.oracle_residual(d, d) == 0.0

    def test_squared_norm_of_error(self):
        d_star = np.zeros(3)
        e = np.array([1.0, -2.0, 2.0])
        assert monitor.oracle_residual(d_star + e, d_star) == pytest.approx(9.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            monitor.oracle_residual(np.zeros(2), np.zeros(3))


class TestReferenceFixedPoint:
    def test_is_a_fixed_point(self, lasso_huber_built, lasso_huber_dstar):
        assert fixed_point_residual(lasso_huber_built.system, lasso_huber_dstar) < 1e-10

    def test_unreachable_tolerance_raises(self, lasso_huber_built):
        with pytest.raises(RuntimeError, match="did not reach"):
            monitor.reference_fixed_point(
                lasso_huber_built.system, tol=1e-14, max_iters=5
            )

    def test_zero_budget_raises(self, lasso_huber_built):
        with pytest.raises(RuntimeError, match=r"in 0 iterations \(no iterations made\)"):
            monitor.reference_fixed_point(lasso_huber_built.system, max_iters=0)


class TestCertifyEq1:
    def test_passes_on_convex_example(self, lasso_huber_built, lasso_huber_dstar):
        rep = monitor.certify_eq1(
            lasso_huber_built.system, lasso_huber_dstar, n=300, seed=0
        )
        assert rep.passed
        assert rep.max_deviation <= 1e-10

    def test_corrupted_g_deviation_detected(self, lasso_huber_built, lasso_huber_dstar):
        # bypass the fixed-point precheck by certifying neutrality directly:
        # a scaled G inflates ||G c'|| by 10%
        system = lasso_huber_built.system
        G = 1.1 * system.interconnection.G
        rng = np.random.default_rng(0)
        c_star = system.apply_elements(lasso_huber_dstar)
        worst = 0.0
        for _ in range(50):
            e = rng.normal(size=system.dim)
            c_dev = system.apply_elements(lasso_huber_dstar + e) - c_star
            worst = max(
                worst,
                abs(np.linalg.norm(G @ c_dev) - np.linalg.norm(c_dev))
                / (1.0 + np.linalg.norm(c_dev)),
            )
        assert worst > 1e-10

    def test_non_fixed_point_rejected(self, lasso_huber_built):
        with pytest.raises(ValueError, match="not a fixed point"):
            monitor.certify_eq1(
                lasso_huber_built.system, np.ones(lasso_huber_built.system.dim)
            )


class TestCertifyEq2:
    def test_huber_lasso_strictly_reduces(self, lasso_huber_built, lasso_huber_dstar):
        cert = monitor.certify_eq2(
            lasso_huber_built.system, lasso_huber_dstar, n=300, seed=0
        )
        assert cert.passed
        assert cert.max_ratio <= 1.0 + 1e-12

    def test_soft_threshold_flat_regions_are_nonstrict(self):
        # a lone soft threshold reflects isometrically inside |d| < weight,
        # so small perturbations about 0 are nonexpansive but never strict
        from scatopt.elements import Element, SoftThreshold
        from scatopt.engine import System
        from scatopt.interconnect import AffineInterconnection
        from scatopt.pairs import Block

        ic = AffineInterconnection(np.eye(1), np.zeros(1))
        system = System(ic, [Element(SoftThreshold(1.0), Block(0, 1))])
        cert = monitor.certify_eq2(system, np.zeros(1), n=100, radius=0.5, seed=0)
        assert cert.passed
        assert cert.max_ratio == pytest.approx(1.0, abs=1e-12)
        assert cert.strict_reductions == 0


@pytest.mark.parametrize("certify", [monitor.certify_eq1, monitor.certify_eq2],
                         ids=["eq1", "eq2"])
def test_nan_fixed_point_rejected(certify):
    # every finite d is a fixed point of the free relation under G = I, but
    # [nan] is not one: its residual is NaN, not <= tol
    from scatopt.elements import Element, Quadratic
    from scatopt.engine import System
    from scatopt.interconnect import AffineInterconnection
    from scatopt.pairs import Block

    system = System(AffineInterconnection(np.eye(1), np.zeros(1)),
                    [Element(Quadratic(0.0), Block(0, 1))])
    with pytest.raises(ValueError, match="not a fixed point"):
        certify(system, np.array([np.nan]), n=10)


def _reference_deviations(f, center, n, radius, seed):
    # the probes' sampling loop as it stood before the shared sample:
    # per point a normal direction, then a length, then pairs (e, dev)
    rng = np.random.default_rng(seed)
    E = np.empty((n, center.size))
    for e in E:
        u = rng.normal(size=center.size)
        e[:] = u * (radius * rng.random() ** (1.0 / center.size) / np.linalg.norm(u))
    return E, zip(E, f(center + E) - f(center))


class TestSharedSample:
    @pytest.fixture(params=["lasso_huber", "svm_consensus"])
    def built_and_dstar(self, request):
        if request.param == "lasso_huber":
            return (request.getfixturevalue("lasso_huber_built"),
                    request.getfixturevalue("lasso_huber_dstar"))
        built = request.getfixturevalue("svm_built")
        return built, monitor.reference_fixed_point(built.system, tol=1e-10)

    def test_probes_match_per_sample_loop(self, built_and_dstar):
        built, d_star = built_and_dstar
        system = built.system
        for el in system.elements:
            d_el = d_star[el.block.slice]
            ref = 0.0
            for e, dev in _reference_deviations(el.reflect, d_el, 200, 1.0, 0)[1]:
                if np.linalg.norm(e) > 0.0:
                    ref = max(ref, float(np.linalg.norm(dev) / np.linalg.norm(e)))
            rep = dissipativity_probe(el, d_el, n=200, radius=1.0, seed=0)
            assert rep.max_ratio == pytest.approx(ref, rel=1e-15, abs=0.0)

        E_ref, pairs = _reference_deviations(system.apply_elements, d_star, 300, 1.0, 0)
        worst_dev, worst_ratio, strict = 0.0, 0.0, 0
        for e, c_dev in pairs:
            lhs = np.linalg.norm(system.interconnection.linear(c_dev))
            rhs = np.linalg.norm(c_dev)
            worst_dev = max(worst_dev, float(abs(lhs - rhs) / (1.0 + rhs)))
            ratio = float(np.linalg.norm(c_dev) / np.linalg.norm(e))
            worst_ratio = max(worst_ratio, ratio)
            strict += ratio < 1.0 - 1e-12
        eq1 = monitor.certify_eq1(system, d_star, n=300, seed=0)
        eq2 = monitor.certify_eq2(system, d_star, n=300, seed=0)
        assert eq1.max_deviation == pytest.approx(worst_dev, rel=0.0, abs=1e-14)
        assert eq2.max_ratio == pytest.approx(worst_ratio, rel=1e-15, abs=0.0)
        assert eq2.strict_reductions == strict

        # the sample is drawn once per shape, bit for bit the old stream,
        # and shared read-only
        E = _ball_sample(300, system.dim, 1.0, 0)
        np.testing.assert_array_equal(E, E_ref)
        assert _ball_sample(300, system.dim, 1.0, 0) is E
        assert not E.flags.writeable
        with pytest.raises(ValueError):
            E[0, 0] = 0.0


class TestTraceStats:
    @staticmethod
    def trace_from_series(series):
        series = np.asarray(series, dtype=float)
        n = len(series)
        return RunTrace(
            iters=np.arange(n),
            normalized_iters=np.arange(n, dtype=float),
            self_residual=series.copy(),
            oracle_residual=series,
        )

    def test_constant_zero(self):
        stats = monitor.trace_stats(self.trace_from_series(np.zeros(5)))
        assert stats.monotone
        assert stats.iters_to_tol == {1e-3: 0, 1e-6: 0, 1e-9: 0}

    def test_increasing_not_monotone(self):
        stats = monitor.trace_stats(self.trace_from_series([1.0, 2.0, 3.0]))
        assert not stats.monotone

    def test_geometric_decay_thresholds(self):
        series = 2.0 ** -np.arange(40)
        stats = monitor.trace_stats(self.trace_from_series(series))
        assert stats.monotone
        assert stats.iters_to_tol[1e-3] == 10
        assert stats.iters_to_tol[1e-6] == 20
        assert stats.iters_to_tol[1e-9] == 30

    def test_unreached_threshold_is_none(self):
        stats = monitor.trace_stats(self.trace_from_series([1.0, 0.5]))
        assert stats.iters_to_tol[1e-9] is None

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            monitor.trace_stats(self.trace_from_series([]))

    def test_falls_back_to_self_residual(self):
        trace = RunTrace(
            iters=np.arange(3),
            normalized_iters=np.arange(3, dtype=float),
            self_residual=np.array([1.0, 0.1, 0.01]),
        )
        stats = monitor.trace_stats(trace)
        assert stats.monotone
        assert stats.final_residual == pytest.approx(0.01)


class TestSuperposition:
    def test_gap_small_sync(self, lasso_huber_built, lasso_huber_dstar):
        rng = np.random.default_rng(0)
        e0 = 0.1 * rng.normal(size=lasso_huber_built.system.dim)
        gap = monitor.superposition_gap(
            lasso_huber_built.system, lasso_huber_dstar, e0, iters=100
        )
        assert gap <= 1e-10

    def test_gap_small_async(self, lasso_huber_built, lasso_huber_dstar):
        rng = np.random.default_rng(1)
        e0 = 0.1 * rng.normal(size=lasso_huber_built.system.dim)
        bank = DelayBank("asynchronous", p=0.1, seed=7)
        gap = monitor.superposition_gap(
            lasso_huber_built.system, lasso_huber_dstar, e0, iters=100, bank=bank
        )
        assert gap <= 1e-10
