import numpy as np
import pytest

from scatopt.elements import (
    CappedL1,
    Element,
    Hinge,
    HuberL1,
    LinfEpigraph,
    OneSidedPenalty,
    PairCoupling,
    Quadratic,
    SoftThreshold,
    dissipativity_probe,
)
from scatopt import monitor
from scatopt.engine import System
from scatopt.interconnect import AffineInterconnection
from scatopt.pairs import Block

from grid_oracle import elementwise_cost, grid_prox


def random_scalar_relation(rng):
    kind = rng.integers(0, 6)
    if kind == 0:
        return Quadratic(weight=rng.uniform(0, 5), target=rng.uniform(-2, 2))
    if kind == 1:
        return HuberL1(weight=rng.uniform(0, 3), halfwidth=rng.uniform(0.05, 2))
    if kind == 2:
        return SoftThreshold(weight=rng.uniform(0, 3))
    if kind == 3:
        return Hinge(weight=rng.uniform(0, 3))
    if kind == 4:
        side = "upper" if rng.random() < 0.5 else "lower"
        return OneSidedPenalty(weight=rng.uniform(0, 5), bound=rng.uniform(-2, 2), side=side)
    return CappedL1(height=rng.uniform(0.1, 3), notch_width=rng.uniform(0.1, 2))


class TestProxAgainstGridSearch:
    def test_random_parameterizations(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            rel = random_scalar_relation(rng)
            d = rng.uniform(-4, 4)
            got = float(np.atleast_1d(rel.prox(np.array([d])))[0])
            want = grid_prox(rel, d)
            # the prox may legitimately pick a different global minimizer at
            # a nonconvex tie; compare objective values, not locations
            obj_got = 0.5 * (got - d) ** 2 + float(elementwise_cost(rel, got))
            obj_want = 0.5 * (want - d) ** 2 + float(elementwise_cost(rel, want))
            assert obj_got <= obj_want + 1e-7


class TestQuadratic:
    def test_target_is_fixed(self):
        rel = Quadratic(weight=3.0, target=1.5)
        el = Element(rel, Block(0, 1))
        assert el.reflect(np.array([1.5]))[0] == pytest.approx(1.5)

    def test_known_values(self):
        assert Element(Quadratic(1.0), Block(0, 1)).reflect(np.array([5.0]))[0] == pytest.approx(0.0)
        rel = Quadratic(1.0, target=2.0)
        assert rel.prox(np.array([0.0]))[0] == pytest.approx(1.0)
        # reflected: 2 * 1 - 0 = 2
        assert Element(rel, Block(0, 1)).reflect(np.array([0.0]))[0] == pytest.approx(2.0)

    def test_zero_weight_is_identity(self):
        rel = Quadratic(0.0)
        d = np.array([-3.0, 0.5, 7.0])
        np.testing.assert_array_equal(rel.prox(d), d)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Quadratic(-1.0)


class TestHuberL1:
    def test_odd_symmetry_at_zero(self):
        rel = HuberL1(weight=2.0, halfwidth=0.3)
        assert rel.prox(np.array([0.0]))[0] == 0.0

    def test_known_values(self):
        rel = HuberL1(weight=1.0, halfwidth=1.0)
        assert rel.prox(np.array([3.0]))[0] == pytest.approx(2.0)
        assert rel.prox(np.array([1.0]))[0] == pytest.approx(0.5)
        el = Element(rel, Block(0, 1))
        assert el.reflect(np.array([3.0]))[0] == pytest.approx(1.0)
        assert el.reflect(np.array([1.0]))[0] == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HuberL1(weight=-1.0, halfwidth=1.0)
        with pytest.raises(ValueError):
            HuberL1(weight=1.0, halfwidth=0.0)


class TestSoftThreshold:
    def test_known_values(self):
        rel = SoftThreshold(1.0)
        assert rel.prox(np.array([2.0]))[0] == pytest.approx(1.0)
        assert rel.prox(np.array([0.5]))[0] == pytest.approx(0.0)
        el = Element(rel, Block(0, 1))
        assert el.reflect(np.array([2.0]))[0] == pytest.approx(0.0)
        assert el.reflect(np.array([0.5]))[0] == pytest.approx(-0.5)


class TestLinfEpigraph:
    def test_feasible_point_unchanged(self):
        rel = LinfEpigraph()
        d = np.array([0.5, -0.3, 1.0])
        np.testing.assert_array_equal(rel.prox(d), d)

    def test_2d_projection(self):
        rel = LinfEpigraph()
        np.testing.assert_allclose(rel.prox(np.array([2.0, 0.0])), [1.0, 1.0])

    def test_vertex_projection(self):
        rel = LinfEpigraph()
        np.testing.assert_allclose(rel.prox(np.array([0.0, 0.0, -3.0])), [0.0, 0.0, 0.0])

    def test_idempotent_and_feasible(self):
        rel = LinfEpigraph()
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = rng.normal(scale=2.0, size=rng.integers(2, 8))
            p = rel.prox(d)
            assert np.abs(p[:-1]).max(initial=0.0) <= p[-1] + 1e-12
            np.testing.assert_allclose(rel.prox(p), p, atol=1e-12)

    def test_optimality_against_feasible_candidates(self):
        # no feasible point may be closer to d than the claimed projection
        rel = LinfEpigraph()
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = rng.normal(scale=2.0, size=4)
            p = rel.prox(d)
            best = np.sum((p - d) ** 2)
            for _ in range(200):
                t = abs(rng.normal(scale=2.0))
                e = rng.uniform(-t, t, size=3)
                cand = np.r_[e, t]
                assert np.sum((cand - d) ** 2) >= best - 1e-9

    def test_min_block_length(self):
        with pytest.raises(ValueError, match="length"):
            Element(LinfEpigraph(), Block(0, 1))


class TestHinge:
    def test_flat_region(self):
        rel = Hinge(weight=3.0)
        assert rel.prox(np.array([2.0]))[0] == pytest.approx(2.0)

    def test_known_values(self):
        rel = Hinge(1.0)
        assert rel.prox(np.array([-1.0]))[0] == pytest.approx(0.0)
        assert rel.prox(np.array([0.5]))[0] == pytest.approx(1.0)
        el = Element(rel, Block(0, 1))
        assert el.reflect(np.array([-1.0]))[0] == pytest.approx(1.0)
        assert el.reflect(np.array([0.5]))[0] == pytest.approx(1.5)


class TestPairCoupling:
    def test_diagonal_unchanged(self):
        rel = PairCoupling(2.0)
        np.testing.assert_array_equal(rel.prox(np.array([1.3, 1.3])), [1.3, 1.3])

    def test_known_value(self):
        np.testing.assert_allclose(
            PairCoupling(0.5).prox(np.array([1.0, 0.0])), [0.75, 0.25]
        )

    def test_zero_weight_reflect_is_identity(self):
        el = Element(PairCoupling(0.0), Block(0, 2))
        d = np.array([2.0, -1.0])
        np.testing.assert_array_equal(el.reflect(d), d)

    def test_requires_length_two_block(self):
        with pytest.raises(ValueError, match="length 2"):
            Element(PairCoupling(1.0), Block(0, 3))


class TestOneSidedPenalty:
    def test_inactive_side(self):
        rel = OneSidedPenalty(weight=1.0, bound=0.0, side="upper")
        assert rel.prox(np.array([-1.0]))[0] == pytest.approx(-1.0)

    def test_known_values(self):
        up = OneSidedPenalty(1.0, 0.0, "upper")
        assert up.prox(np.array([2.0]))[0] == pytest.approx(1.0)
        lo = OneSidedPenalty(1.0, 0.0, "lower")
        assert lo.prox(np.array([-2.0]))[0] == pytest.approx(-1.0)
        assert Element(up, Block(0, 1)).reflect(np.array([2.0]))[0] == pytest.approx(0.0)
        assert Element(lo, Block(0, 1)).reflect(np.array([-2.0]))[0] == pytest.approx(0.0)

    def test_array_bound(self):
        rel = OneSidedPenalty(1.0, np.array([0.0, 10.0]), "upper")
        out = rel.prox(np.array([2.0, 2.0]))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(2.0)

    def test_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            OneSidedPenalty(1.0, 0.0, "sideways")


class TestCappedL1:
    def test_zero_fixed(self):
        assert CappedL1(1.0, 1.0).prox(np.array([0.0]))[0] == 0.0

    def test_plateau_wins_far_out(self):
        assert CappedL1(1.0, 1.0).prox(np.array([10.0]))[0] == pytest.approx(10.0)

    def test_notch_shrinks_to_zero(self):
        assert CappedL1(1.0, 1.0).prox(np.array([0.3]))[0] == pytest.approx(0.0)

    def test_tie_breaks_sparse(self):
        # with height 1, notch 1 the candidates tie in cost at d = 1.5;
        # the sparser (soft-thresholded) value must win
        got = CappedL1(1.0, 1.0).prox(np.array([1.5]))[0]
        assert got == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CappedL1(-1.0, 1.0)
        with pytest.raises(ValueError):
            CappedL1(1.0, 0.0)


CONVEX_RELATIONS = [
    Quadratic(2.0, target=0.7),
    HuberL1(1.5, halfwidth=0.2),
    SoftThreshold(0.8),
    Hinge(1.2),
    OneSidedPenalty(3.0, bound=0.5, side="upper"),
    OneSidedPenalty(3.0, bound=-0.5, side="lower"),
]


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: Quadratic(NAN),
    lambda: HuberL1(NAN, 1.0),
    lambda: HuberL1(1.0, NAN),
    lambda: SoftThreshold(NAN),
    lambda: Hinge(NAN),
    lambda: PairCoupling(NAN),
    lambda: OneSidedPenalty(NAN, bound=0.0),
    lambda: CappedL1(NAN, 1.0),
    lambda: CappedL1(1.0, np.array([1.0, NAN])),
], ids=["quadratic", "huber-weight", "huber-halfwidth", "soft-threshold", "hinge",
        "pair-coupling", "one-sided", "capped-height", "capped-notch"])
def test_nan_parameters_rejected(make):
    with pytest.raises(ValueError):
        make()


class TestNonexpansiveness:
    @pytest.mark.parametrize("rel", CONVEX_RELATIONS, ids=lambda r: type(r).__name__)
    def test_scalar_reflected_maps(self, rel):
        el = Element(rel, Block(0, 1))
        rng = np.random.default_rng(8)
        for _ in range(1000):
            d1, d2 = rng.uniform(-5, 5, size=2)
            lhs = abs(el.reflect(np.array([d1]))[0] - el.reflect(np.array([d2]))[0])
            assert lhs <= abs(d1 - d2) + 1e-10

    def test_pair_coupling(self):
        el = Element(PairCoupling(4.0), Block(0, 2))
        rng = np.random.default_rng(9)
        for _ in range(500):
            d1, d2 = rng.normal(size=(2, 2))
            lhs = np.linalg.norm(el.reflect(d1) - el.reflect(d2))
            assert lhs <= np.linalg.norm(d1 - d2) + 1e-10

    def test_epigraph(self):
        el = Element(LinfEpigraph(), Block(0, 4))
        rng = np.random.default_rng(10)
        for _ in range(500):
            d1, d2 = rng.normal(scale=2.0, size=(2, 4))
            lhs = np.linalg.norm(el.reflect(d1) - el.reflect(d2))
            assert lhs <= np.linalg.norm(d1 - d2) + 1e-10


class TestDissipativityProbe:
    def test_convex_elements_pass(self):
        for rel in CONVEX_RELATIONS:
            el = Element(rel, Block(0, 1))
            rep = dissipativity_probe(el, np.array([0.2]), n=500, radius=2.0, seed=0)
            assert rep.passed, type(rel).__name__

    def test_unit_quadratic_contracts_to_zero(self):
        el = Element(Quadratic(1.0, 0.0), Block(0, 1))
        rep = dissipativity_probe(el, np.array([0.0]), n=200, radius=1.0, seed=0)
        assert rep.max_ratio == pytest.approx(0.0, abs=1e-12)

    def test_capped_l1_fails_near_prox_jump(self):
        # the reflected map jumps where the notch and plateau costs cross;
        # sampling a ball straddling that point exposes ratios above 1
        el = Element(CappedL1(1.0, 1.0), Block(0, 1))
        rep = dissipativity_probe(el, np.array([1.4]), n=1000, radius=0.5, seed=0)
        assert not rep.passed
        assert rep.max_ratio > 1.0

    def test_capped_l1_flag(self):
        assert not CappedL1(1.0, 1.0).dissipative
        assert Quadratic(1.0).dissipative

    def test_sample_count_validation(self):
        # a one-coordinate system with G = I, s = 0 and fixed point 0, so
        # that the certificates get past their fixed-point check
        el = Element(Quadratic(1.0), Block(0, 1))
        system = System(AffineInterconnection(np.eye(1), np.zeros(1)), [el])
        d_star = np.zeros(1)
        probes = (
            lambda n: dissipativity_probe(el, d_star, n=n),
            lambda n: monitor.certify_eq1(system, d_star, n=n),
            lambda n: monitor.certify_eq2(system, d_star, n=n),
        )
        for probe in probes:
            for n in (0, -5):
                with pytest.raises(ValueError, match="at least one sample"):
                    probe(n)
