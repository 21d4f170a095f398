import dataclasses
import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_batch_rows_match_single_calls(self):
        rel = LinfEpigraph()
        D = np.array([
            [0.5, -0.3, 1.0, 2.0],  # already feasible, max|e| <= t
            [0.2, -0.1, 0.3, -5.0],  # projects to the vertex 0
            [3.0, -2.5, 0.5, 0.2],  # generic: the two largest shrink, t grows
        ])
        got = rel.prox(D)
        for row, d in zip(got, D):
            assert np.array_equal(row, rel.prox(d))
        assert np.array_equal(got[0], D[0])
        assert not got[1].any()
        np.testing.assert_allclose(got[2], [1.9, -1.9, 0.5, 1.9])


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

    @pytest.mark.parametrize("bound", [float("nan"), -float("inf"), np.array([0.0, np.nan])],
                             ids=["nan", "inf", "array_nan"])
    def test_non_finite_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be finite"):
            OneSidedPenalty(1.0, bound, "lower")


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


def epigraph_prox_by_search(d):
    """The selection form of the epigraph projection: with |e| sorted in
    decreasing order, t moves to the level (t + sum of the first k) / (k + 1)
    of the last k whose k-th magnitude exceeds it (t stays where none does),
    clamped at 0, and every |e_i| is clipped to that level."""
    d = np.asarray(d, dtype=float)
    e, t = d[..., :-1], d[..., -1:]
    srt = np.sort(np.abs(e), axis=-1)[..., ::-1]
    k = np.arange(e.shape[-1])
    levels = (np.cumsum(srt, axis=-1) + t) / (k + 2.0)
    last = np.where(srt > levels, k, -1).max(axis=-1, keepdims=True)
    t_new = np.maximum(np.where(last >= 0, np.take_along_axis(levels, last, -1), t), 0.0)
    return np.concatenate([np.minimum(np.maximum(e, -t_new), t_new), t_new], axis=-1)


def capped_l1_prox_by_sort(rel, d):
    """The three-candidate form of the capped-l1 prox: the cheapest of the
    clipped soft threshold, the notch edge and the plateau point, ties going
    to the smallest magnitude through a stable magnitude sort."""
    d = np.asarray(d, dtype=float)
    slope = rel.height / rel.notch_width
    soft = np.clip(np.sign(d) * np.maximum(np.abs(d) - slope, 0.0),
                   -rel.notch_width, rel.notch_width)
    edge = np.sign(d) * rel.notch_width
    plateau = np.where(np.abs(d) >= rel.notch_width, d, edge)
    cands = np.stack([soft, edge, plateau])
    costs = 0.5 * (cands - d) ** 2 + rel.height * np.minimum(np.abs(cands) / rel.notch_width, 1.0)
    order = np.argsort(np.abs(cands), axis=0, kind="stable")
    cands = np.take_along_axis(cands, order, axis=0)
    costs = np.take_along_axis(costs, order, axis=0)
    best = np.argmin(costs, axis=0)
    return np.take_along_axis(cands, best[None, ...], axis=0)[0]


def exact_epigraph_level(d):
    """The projection's level in rational arithmetic: t for a feasible
    point, else max(0, max_k (t + S_k) / (k + 2))."""
    mags = sorted((abs(Fraction(x)) for x in d[:-1]), reverse=True)
    t = Fraction(d[-1])
    if mags[0] <= t:
        return t
    return max(0, max((t + s) / (k + 2) for k, s in enumerate(accumulate(mags))))


class TestClosedFormsMatchSelection:
    """The closed-form proxes against the selection forms they replace."""

    @pytest.mark.parametrize("L", [2, 3, 5, 129])
    def test_epigraph_bitwise(self, L):
        rng = np.random.default_rng(L)
        rows = []
        for scale in (1e-3, 1.0, 1e3):
            e = rng.normal(scale=scale, size=(40, L - 1))
            big = np.abs(e).max(axis=1)
            rows += [np.c_[e, rng.normal(scale=scale, size=40)],  # generic
                     np.c_[e, 1.5 * big], np.c_[e, big],  # feasible, on the boundary
                     np.c_[e, -2.0 * np.abs(e).sum(axis=1)]]  # projects to the vertex
        # tied magnitudes in exact arithmetic
        tied = rng.choice([-1.0, 1.0], size=(40, L - 1)) * rng.integers(0, 4, size=(40, 1))
        rows += [np.c_[tied, rng.integers(-3, 4, size=40)],
                 np.c_[tied[:, :1] * np.ones((1, L - 1)), rng.integers(-3, 4, size=40)],
                 rng.integers(-3, 4, size=(200, L))]
        D = np.concatenate(rows).astype(float)
        rel = LinfEpigraph()
        assert np.array_equal(rel.prox(D), epigraph_prox_by_search(D))
        stacked = D.reshape(-1, 4, L)
        assert np.array_equal(rel.prox(stacked), epigraph_prox_by_search(stacked))
        for d in D:
            assert np.array_equal(rel.prox(d), epigraph_prox_by_search(d))

    @pytest.mark.parametrize("L", [2, 3, 5, 129])
    def test_epigraph_rounded_ties(self, L):
        # where tied magnitudes make the sums round, both forms agree with
        # the exact level to within the rounding of the cumulative sum, and a
        # feasible point is returned as it is
        rng = np.random.default_rng(L)
        eps = np.finfo(float).eps
        base = rng.uniform(1e-3, 1.0, size=300)
        ties = rng.integers(1, L, size=300)
        e = base[:, None] * rng.uniform(-1.0, 1.0, size=(300, L - 1))
        for row, b, n in zip(e, base, ties):
            row[:n] = b * rng.choice([-1.0, 1.0], size=n)
        t = base * rng.choice([1.0, 0.5, -0.5, 2.0], size=300)
        rel = LinfEpigraph()
        for d in np.c_[e, t]:
            exact = exact_epigraph_level(d)
            for p in (rel.prox(d), epigraph_prox_by_search(d)):
                assert abs(Fraction(p[-1]) - exact) <= (L + 2) * eps * exact
            if np.abs(d[:-1]).max() <= d[-1]:
                assert np.array_equal(rel.prox(d), d)

    @pytest.mark.parametrize("height, width", [(1.0, 1.0), (0.1, 0.05), (0.0, 1.0), (3.0, 0.5), (1e-3, 2.0)])
    def test_capped_l1(self, height, width):
        rng = np.random.default_rng(7)
        lam = height / width
        marks = np.array([0.0, width, width + lam, width + lam / 2, lam])
        marks = np.concatenate([marks, np.nextafter(marks, np.inf), np.nextafter(marks, -np.inf)])
        d = np.concatenate([marks, -marks, rng.normal(scale=3 * width, size=5000),
                            rng.normal(size=5000) * 10 ** rng.uniform(-6, 6, size=5000)])
        rel = CappedL1(height, width)
        assert np.array_equal(rel.prox(d), capped_l1_prox_by_sort(rel, d))
        for x in d[::50]:
            assert np.array_equal(rel.prox(np.array([x])), capped_l1_prox_by_sort(rel, np.array([x])))

    def test_capped_l1_stacked_parameters(self):
        rng = np.random.default_rng(8)
        rel = CappedL1(rng.uniform(0, 2, size=5000), rng.uniform(0.01, 2, size=5000))
        d = rng.normal(scale=3, size=5000)
        assert np.array_equal(rel.prox(d), capped_l1_prox_by_sort(rel, d))


PROPERTY = settings(derandomize=True, database=None, deadline=None)
finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
weights = st.floats(0.0, 10.0)
# signed offsets at every scale from 1e-12 to 0.1: a prox that switches
# pieces at the wrong input is off only in a window of that width
break_offsets = st.floats(-11.0, 11.0).map(lambda u: math.copysign(10.0 ** (abs(u) - 12.0), u))
EPS = np.finfo(float).eps

CONVEX_PROXES = {
    "quadratic": st.builds(Quadratic, weights, finite),
    "huber": st.builds(HuberL1, weights, st.floats(1e-3, 10.0)),
    "soft_threshold": st.builds(SoftThreshold, weights),
    "hinge": st.builds(Hinge, weights),
    "pair_coupling": st.builds(PairCoupling, weights),
    "one_sided_upper": st.builds(OneSidedPenalty, weights, finite, st.just("upper")),
    "one_sided_lower": st.builds(OneSidedPenalty, weights, finite, st.just("lower")),
}


def prox_breaks(rel):
    """The inputs d at which rel's prox changes from one piece to the next."""
    w = rel.weight
    if isinstance(rel, HuberL1):
        return [-rel.halfwidth - w, rel.halfwidth + w]
    if isinstance(rel, SoftThreshold):
        return [-w, w]
    if isinstance(rel, Hinge):
        return [1.0 - w, 1.0]
    if isinstance(rel, OneSidedPenalty):
        return [rel.bound]
    return [0.0]


def pair_stacks(rel):
    """Two stacks of the same n pairs, the shape PairCoupling takes and the
    coordinatewise relations take as well; entries are anywhere or near
    one of rel's prox breaks."""
    entry = st.one_of(finite, *[break_offsets.map(lambda o, b=b: b + o) for b in prox_breaks(rel)])
    return st.integers(1, 2).flatmap(lambda n: st.tuples(
        *[st.lists(entry, min_size=2 * n, max_size=2 * n)] * 2)).map(
        lambda vs: [np.reshape(v, (-1, 2)) for v in vs])


def subdifferential(rel, x):
    """[lo, hi], coordinatewise, of the subdifferential of rel's cost at x."""
    w = rel.weight
    if isinstance(rel, SoftThreshold):  # |x| is kinked at 0
        return np.where(x == 0, -w, w * np.sign(x)), np.where(x == 0, w, w * np.sign(x))
    if isinstance(rel, Hinge):  # max(0, 1 - x) is kinked at 1
        return np.where(x <= 1.0, -w, 0.0), np.where(x < 1.0, -w, 0.0)
    if isinstance(rel, Quadratic):
        g = w * (x - rel.target)
    elif isinstance(rel, HuberL1):
        g = np.where(np.abs(x) <= rel.halfwidth, w * x / rel.halfwidth, w * np.sign(x))
    elif isinstance(rel, PairCoupling):
        g = w * (x[..., :1] - x[..., 1:]) * np.array([1.0, -1.0])
    else:
        sign = 1.0 if rel.side == "upper" else -1.0
        g = sign * w * np.maximum(0.0, sign * (x - rel.bound))
    return g, g


class TestProxProperties:
    @PROPERTY
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.lists(finite, min_size=n, max_size=n), st.lists(finite, min_size=n, max_size=n))))
    def test_epigraph_is_a_projection(self, pair):
        # feasible, idempotent (a feasible point stays put) and firmly
        # nonexpansive: ||P x - P y||^2 <= <P x - P y, x - y>
        rel = LinfEpigraph()
        x, y = np.array(pair[0]), np.array(pair[1])
        px, py = rel.prox(x), rel.prox(y)
        assert np.abs(px[:-1]).max() <= px[-1]
        assert np.array_equal(rel.prox(px), px)
        diff = px - py
        assert diff @ diff <= diff @ (x - y) + 1e-9 * (1 + (x - y) @ (x - y))

    @PROPERTY
    @given(finite, st.floats(0.0, 10.0), st.floats(1e-3, 10.0))
    def test_capped_l1_beats_its_local_minimizers(self, d, height, width):
        # the prox objective at prox(d) is no larger than at the soft
        # threshold, the notch edge or the plateau point
        rel = CappedL1(height, width)

        def objective(x):
            return 0.5 * (x - d) ** 2 + height * min(abs(x) / width, 1.0)

        soft = np.sign(d) * max(abs(d) - height / width, 0.0)
        edge = np.sign(d) * width
        plateau = d if abs(d) >= width else edge
        best = objective(rel.prox(np.array([d]))[0])
        for x in (soft, edge, plateau):
            assert best <= objective(x) + 1e-12 * (1 + d * d + height)

    @pytest.mark.parametrize("kind", CONVEX_PROXES)
    @PROPERTY
    @given(data=st.data())
    def test_prox_is_optimal_and_firmly_nonexpansive(self, kind, data):
        rel = data.draw(CONVEX_PROXES[kind])
        x, y = data.draw(pair_stacks(rel))
        px, py = rel.prox(x), rel.prox(y)
        # d - prox(d) lies in the subdifferential of f at prox(d), up to
        # rounding relative to the magnitudes involved
        for d, p in ((x, px), (y, py)):
            lo, hi = subdifferential(rel, p)
            slack = 16 * EPS * (1 + rel.weight) * (1 + np.abs(d) + np.abs(p))
            assert np.all(lo - slack <= d - p) and np.all(d - p <= hi + slack)
        # ||P x - P y||^2 <= <P x - P y, x - y>
        diff, step = (px - py).ravel(), (x - y).ravel()
        assert diff @ diff <= diff @ step + 1e-9 * (1 + step @ step)


CONVEX_RELATIONS = [
    Quadratic(2.0, target=0.7),
    HuberL1(1.5, halfwidth=0.2),
    SoftThreshold(0.8),
    Hinge(1.2),
    OneSidedPenalty(3.0, bound=0.5, side="upper"),
    OneSidedPenalty(3.0, bound=-0.5, side="lower"),
]


NAN = float("nan")
INF = float("inf")


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
    lambda: Quadratic(INF),
    lambda: HuberL1(INF, 1.0),
    lambda: HuberL1(1.0, INF),
    lambda: SoftThreshold(np.array([1.0, INF])),
    lambda: Hinge(INF),
    lambda: PairCoupling(INF),
    lambda: OneSidedPenalty(INF, bound=0.0),
    lambda: CappedL1(INF, 1.0),
    lambda: CappedL1(1.0, np.array([1.0, INF])),
], ids=["quadratic", "huber-weight", "huber-halfwidth", "soft-threshold", "hinge",
        "pair-coupling", "one-sided", "capped-height", "capped-notch",
        "quadratic-inf", "huber-weight-inf", "huber-halfwidth-inf", "soft-threshold-inf",
        "hinge-inf", "pair-coupling-inf", "one-sided-inf", "capped-height-inf",
        "capped-notch-inf"])
def test_nan_parameters_rejected(make):
    with pytest.raises(ValueError, match="must be (positive|nonnegative) and finite"):
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

    def test_nan_reflection_fails(self):
        # a NaN ratio fails the probe instead of being passed over
        class NanQuadratic(Quadratic):
            def prox(self, d):
                return np.full_like(d, np.nan)

        rep = dissipativity_probe(Element(NanQuadratic(1.0), Block(0, 1)), np.zeros(1), n=10)
        assert not rep.passed

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


RELATION_CLASSES = (Quadratic, HuberL1, SoftThreshold, LinfEpigraph, Hinge, PairCoupling,
                    OneSidedPenalty, CappedL1)


def scaled_relation(rel, length, alpha):
    """The relation that `System.scaled(alpha)` binds in place of `rel`."""
    system = System(AffineInterconnection(np.eye(length), np.zeros(length)),
                    [Element(rel, Block(0, length))])
    return system.scaled(alpha).elements[0].relation


class TestCostScale:
    """A scaled relation carries alpha f: its cost is alpha times the cost,
    and its prox minimizes (1/2)(x - d)^2 + alpha f(x)."""

    def test_every_relation_declares_its_scale_field(self):
        for cls in RELATION_CLASSES:
            if cls is LinfEpigraph:
                assert cls.scale_field is None  # an indicator: alpha times it is itself
            else:
                assert cls.scale_field in {f.name for f in dataclasses.fields(cls)}, cls

    @pytest.mark.parametrize("alpha", [0.3, 3.0])
    def test_scalar_relations(self, alpha):
        rng = np.random.default_rng(12)
        for _ in range(60):
            rel = random_scalar_relation(rng)
            scaled = scaled_relation(rel, 1, alpha)
            d = rng.uniform(-4, 4, size=200)
            assert scaled.cost(d) == pytest.approx(alpha * rel.cost(d), rel=1e-12, abs=1e-12)
            x = scaled.prox(d)

            def cost(v):
                return alpha * elementwise_cost(rel, v)

            if rel.dissipative:
                # convex: d - x is a subgradient of alpha f at x
                y = x + rng.normal(scale=2.0, size=(20, d.size))
                assert np.all(cost(y) - cost(x) - (d - x) * (y - x) >= -1e-9), rel
            else:
                # nonconvex: x is no worse than any point of a fine grid
                grid = np.linspace(-4.0, 4.0, 8001)[:, None]
                best = (0.5 * (grid - d[:20]) ** 2 + cost(grid)).min(axis=0)
                assert np.all(0.5 * (x[:20] - d[:20]) ** 2 + cost(x[:20]) <= best + 1e-12), rel

    @pytest.mark.parametrize("alpha", [0.3, 3.0])
    def test_blockwise_relations(self, alpha):
        rng = np.random.default_rng(13)
        rel = PairCoupling(rng.uniform(0.0, 5.0))
        scaled = scaled_relation(rel, 2, alpha)
        d = rng.normal(scale=3.0, size=(200, 2))
        assert scaled.cost(d) == pytest.approx(alpha * rel.cost(d), rel=1e-12)
        x = scaled.prox(d)

        def cost(v):
            return alpha * 0.5 * rel.weight * (v[..., 0] - v[..., 1]) ** 2

        y = x + rng.normal(scale=2.0, size=(20, 200, 2))
        assert np.all(cost(y) - cost(x) - np.sum((d - x) * (y - x), axis=-1) >= -1e-9)
        epigraph = LinfEpigraph()
        assert scaled_relation(epigraph, 4, alpha) is epigraph
