"""Constitutive relations: one map per cost term, realized as reflected
proximal maps c = 2 prox_f(d) - d, plus an empirical dissipativity probe.

Each relation documents its cost f and the closed-form prox
    prox_f(d) = argmin_x  (1/2) (x - d)^2 + f(x).
The reflected map is nonexpansive exactly when f is convex, which is the
property the convergence certificates in `monitor` rely on.

Every prox acts on the last axis of a stack `(..., L)`, with numeric
parameters per coordinate or, for the `blockwise` relations, per block of
a stack `(..., k, L)`; `group_elements` makes one call of it per group.
`scale_field` names the parameter f is linear in (None for an indicator).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .pairs import Block

__all__ = [
    "Quadratic",
    "HuberL1",
    "SoftThreshold",
    "LinfEpigraph",
    "Hinge",
    "PairCoupling",
    "OneSidedPenalty",
    "CappedL1",
    "Element",
    "group_elements",
    "DissipativityReport",
    "dissipativity_probe",
]


def _check(value, name: str, strict: bool = False) -> None:
    """Reject a negative parameter (a zero one too when `strict`), a NaN or an infinity."""
    v = np.asarray(value)
    if not np.all((v > 0 if strict else v >= 0) & np.isfinite(v)):
        kind = "positive" if strict else "nonnegative"
        raise ValueError(f"{name} must be {kind} and finite, got {value}")


def _cached_operands(terms):
    """A cached property, `terms(relation)` as float arrays, 0-d for a scalar: a ufunc
    call on a small array takes 0.2 us longer with a Python float operand, same result."""
    return cached_property(lambda rel: tuple(np.asarray(v, dtype=float) for v in terms(rel)))


_ZERO, _HALF, _ONE = (np.broadcast_to(v, ()) for v in (0.0, 0.5, 1.0))  # read-only 0-d


# the epigraph's level divisors 2, 3, ..., n for a block of length n, read-only
_divisors = lru_cache(maxsize=64)(lambda n: np.broadcast_to(np.arange(2.0, n + 1.0), (n - 1,)))


def _total(weight, values) -> float:
    """sum_i weight_i values_i; a scalar weight multiplies the plain sum."""
    if np.ndim(weight) == 0:
        return weight * float(np.sum(values))
    return float(np.sum(weight * values))


@dataclass(frozen=True)
class Quadratic:
    """f(x) = (weight/2) (x - target)^2, applied coordinatewise.

    With weight 0 this is the free (zero-cost) relation: prox is the
    identity and the reflected map is the identity.
    """

    weight: float
    target: float = 0.0
    scale_field = "weight"
    dissipative = True
    _operands = _cached_operands(lambda r: (r.weight * r.target, 1.0 + r.weight))

    def __post_init__(self):
        _check(self.weight, "weight")

    def prox(self, d):
        return (d + self._operands[0]) / self._operands[1]

    def cost(self, x):
        return _total(0.5 * self.weight, (np.asarray(x) - self.target) ** 2)


@dataclass(frozen=True)
class HuberL1:
    """Smoothed 1-norm: quadratic within `halfwidth` of 0, linear outside.

    f(x) = weight * x^2 / (2 halfwidth)          for |x| <= halfwidth
         = weight * (|x| - halfwidth / 2)        otherwise
    prox(d) = d / (1 + weight/halfwidth)  when |d| <= halfwidth + weight,
              sign(d) (|d| - weight)      otherwise.
    """

    weight: float
    halfwidth: float
    scale_field = "weight"
    dissipative = True
    _operands = _cached_operands(
        lambda r: (r.weight, 1.0 + r.weight / r.halfwidth, r.halfwidth + r.weight))

    def __post_init__(self):
        _check(self.weight, "weight")
        _check(self.halfwidth, "halfwidth", strict=True)

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        w, inner_scale, knee = self._operands
        mag = np.abs(d)
        out = np.copysign(mag - w, d)
        np.copyto(out, d / inner_scale, where=mag <= knee)
        return out

    def cost(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        quad = self.weight * x**2 / (2.0 * self.halfwidth)
        lin = self.weight * (x - self.halfwidth / 2.0)
        return float(np.sum(np.where(x <= self.halfwidth, quad, lin)))


@dataclass(frozen=True)
class SoftThreshold:
    """Exact 1-norm, f(x) = weight |x|; prox is soft thresholding."""

    weight: float
    scale_field = "weight"
    dissipative = True
    _operands = _cached_operands(lambda r: (r.weight,))

    def __post_init__(self):
        _check(self.weight, "weight")

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        return np.copysign(np.maximum(np.abs(d) - self._operands[0], _ZERO), d)

    def cost(self, x):
        return _total(self.weight, np.abs(x))


@dataclass(frozen=True)
class LinfEpigraph:
    """Indicator of {(e, t): max|e_i| <= t}; the block's last coordinate is t.

    prox is the Euclidean projection onto the epigraph of the max-abs norm:
    a feasible point stays put, and otherwise t moves to the level
    max(0, max_k (t + S_k) / (k + 2)), where S_k is the sum of the k + 1
    largest |e_i|, and every |e_i| is clipped to it; the levels are formed in
    place over cached read-only divisors k + 2.  Before the clamp at 0 this
    is the root of the increasing function phi(tau) = tau - t - sum_i
    (|e_i| - tau)_+, which is <= 0 at every candidate level and is 0 at the
    one for which the k + 1 largest |e_i| are exactly those above it.
    """

    scale_field = None
    dissipative = True
    blockwise = True

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        e, t = d[..., :-1], d[..., -1:]
        srt = np.abs(e)
        srt.sort(axis=-1)  # ascending; np.add.accumulate is np.cumsum minus its dispatch
        levels = np.add.accumulate(srt[..., ::-1], -1)
        levels += t
        levels /= _divisors(d.shape[-1])
        out = np.empty_like(d)
        t_new = out[..., -1:]
        np.maximum(levels.max(-1, keepdims=True), _ZERO, out=t_new)
        # a feasible point keeps its t exactly: with tied magnitudes the
        # rounded cumulative sum can lift a level above t by an ulp
        np.copyto(t_new, t, where=srt[..., -1:] <= t)
        np.minimum(np.maximum(e, -t_new, out=out[..., :-1]), t_new, out=out[..., :-1])
        return out

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        feasible = np.abs(x[..., :-1]).max(axis=-1, initial=0.0) <= x[..., -1] + 1e-9
        return 0.0 if np.all(feasible) else np.inf


@dataclass(frozen=True)
class Hinge:
    """f(z) = weight * max(0, 1 - z), the margin loss, coordinatewise.

    prox(d) = d + weight  for d <= 1 - weight,
              1           for 1 - weight < d < 1,
              d           for d >= 1.
    """

    weight: float
    scale_field = "weight"
    dissipative = True
    _operands = _cached_operands(lambda r: (r.weight,))

    def __post_init__(self):
        _check(self.weight, "weight")

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        return np.where(d >= _ONE, d, np.minimum(d + self._operands[0], _ONE))

    def cost(self, x):
        return _total(self.weight, np.maximum(0.0, 1.0 - np.asarray(x)))


@dataclass(frozen=True)
class PairCoupling:
    """f(u, v) = (weight/2) (u - v)^2 on a length-2 block.

    prox(u, v) = (u, v) - weight/(1 + 2 weight) * (u - v, v - u).
    """

    weight: float
    scale_field = "weight"
    dissipative = True
    blockwise = True
    _operands = _cached_operands(lambda r: (r.weight / (1.0 + 2.0 * r.weight),))

    def __post_init__(self):
        _check(self.weight, "weight")

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        shift = d[..., 0] - d[..., 1]
        shift *= self._operands[0]
        out = np.empty_like(d)
        np.subtract(d[..., 0], shift, out=out[..., 0])
        np.add(d[..., 1], shift, out=out[..., 1])
        return out

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        return _total(0.5 * self.weight, (x[..., 0] - x[..., 1]) ** 2)


@dataclass(frozen=True)
class OneSidedPenalty:
    """One-sided quadratic barrier about a bound, coordinatewise.

    side="upper": f(x) = (weight/2) max(0, x - bound)^2
    side="lower": f(x) = (weight/2) max(0, bound - x)^2
    The bound may be a scalar or a per-coordinate array.
    """

    weight: float
    bound: float | np.ndarray
    side: str = "upper"
    scale_field = "weight"
    dissipative = True
    _operands = _cached_operands(lambda r: (r.weight * r.bound, 1.0 + r.weight, r.bound))

    def __post_init__(self):
        _check(self.weight, "weight")
        if self.side not in ("upper", "lower"):
            raise ValueError(f"side must be 'upper' or 'lower', got {self.side!r}")
        b = np.asarray(self.bound, dtype=float)
        if not np.isfinite(b).all():
            raise ValueError("bound must be finite")
        object.__setattr__(self, "bound", b if b.ndim else float(b))

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        shift, scale, bound = self._operands
        pulled = (d + shift) / scale
        np.copyto(pulled, d, where=d <= bound if self.side == "upper" else d >= bound)
        return pulled

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        if self.side == "upper":
            v = np.maximum(0.0, x - self.bound)
        else:
            v = np.maximum(0.0, self.bound - x)
        return _total(0.5 * self.weight, v**2)


@dataclass(frozen=True)
class CappedL1:
    """Nonconvex capped 1-norm, f(x) = height * min(|x| / notch_width, 1).

    The cost rises with slope lam = height/notch_width near 0 and plateaus
    at `height` beyond +-notch_width.  prox is sign(d) times the cheaper of
    two magnitudes, worked out on |d|: the soft threshold
    st = min(max(|d| - lam, 0), w) with w the notch width, whose prox
    objective is (st - |d|)^2 / 2 + height st / w, and the plateau point
    max(|d|, w), whose objective is (max(|d|, w) - |d|)^2 / 2 + height; a
    tie goes to st, the smaller magnitude.  The notch edge, the third local
    minimizer, never does better: its prox objective exceeds st's by
    (w - |d| + lam)^2 / 2, and for |d| >= w the plateau's by (|d| - w)^2 / 2
    (for |d| < w it is the plateau point).  At d = -0.0 the result is -0.0.
    """

    height: float
    notch_width: float
    scale_field = "height"
    dissipative = False
    _operands = _cached_operands(lambda r: (r.height, r.notch_width, r.height / r.notch_width))

    def __post_init__(self):
        _check(self.height, "height")
        _check(self.notch_width, "notch_width", strict=True)

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        h, w, slope = self._operands
        mag = np.abs(d)
        st = mag - slope
        np.minimum(np.maximum(st, _ZERO, out=st), w, out=st)
        plateau = np.maximum(mag, w)
        # each magnitude's prox objective, (x - |d|)^2 / 2 + f(x); st <= w and
        # max(|d|, w) >= w round st / w to at most 1 and the plateau's to at least 1
        st_cost = np.square(st - mag) * _HALF + st / w * h
        np.copyto(plateau, st, where=st_cost <= np.square(plateau - mag) * _HALF + h)
        return np.copysign(plateau, d, out=plateau)

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        return _total(self.height, np.minimum(np.abs(x) / self.notch_width, 1.0))


@dataclass(frozen=True)
class Element:
    """A constitutive relation bound to its coordinate block."""

    relation: object
    block: Block

    def __post_init__(self):
        if isinstance(self.relation, PairCoupling) and self.block.length != 2:
            raise ValueError("PairCoupling requires a block of length 2")
        if isinstance(self.relation, LinfEpigraph) and self.block.length < 2:
            raise ValueError("LinfEpigraph requires a block of length >= 2")

    def reflect(self, d_block):
        """The map the iteration runs, c = 2 prox(d) - d."""
        d_block = np.asarray(d_block, dtype=float)
        return 2.0 * self.relation.prox(d_block) - d_block


def group_elements(elements) -> list:
    """The element bank: one (index, shape, relation) per group, such that
    `relation.prox(d[..., index].reshape(lead + shape))` is every member's
    prox at once, d of shape lead + (N,).

    Elements group by relation type and text parameters (`side`), blockwise
    relations also by block length, in the order of their first element.
    The index is a slice when the blocks form one run, else the coordinates;
    the shape is (n,), or (k, L) for k blocks of a blockwise relation.  A
    lone element keeps its relation; in a larger group a numeric parameter
    that every member holds as the same scalar stays that scalar, any other
    is stacked per coordinate, or per block for a blockwise relation.
    """
    groups = {}
    for el in elements:
        rel = el.relation
        length = el.block.length if getattr(rel, "blockwise", False) else None
        # the cached `_operands` sit in `vars` too, but are no strings
        text = tuple(v for v in vars(rel).values() if isinstance(v, str))
        groups.setdefault((type(rel), length, text), []).append(el)
    bank = []
    for (_, length, _), members in groups.items():
        sizes = [1 if length else el.block.length for el in members]
        params = {}
        for name in (f.name for f in fields(members[0].relation)):
            values = [getattr(el.relation, name) for el in members]
            if isinstance(values[0], str) or all(np.ndim(v) == 0 and v == values[0] for v in values):
                continue
            params[name] = np.concatenate([
                np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v, n in zip(values, sizes)])
        if all(a.block.stop == b.block.offset for a, b in zip(members, members[1:])):
            idx = slice(members[0].block.offset, members[-1].block.stop)  # a view, not a gather
        else:
            idx = np.concatenate([np.arange(el.block.offset, el.block.stop) for el in members])
        shape = (len(members), length) if length else (sum(sizes),)
        rel = members[0].relation
        bank.append((idx, shape, rel if len(members) == 1 else replace(rel, **params)))
    return bank


@dataclass(frozen=True)
class DissipativityReport:
    samples: int
    max_ratio: float
    passed: bool


@lru_cache(maxsize=64)
def _ball_sample(n: int, dim: int, radius: float, seed: int) -> np.ndarray:
    """n points uniform in the ball of the given radius in R^dim, one per
    row (per point a normal direction, then the length radius * U^(1/dim)),
    drawn once per arguments (the 64 most recent are kept) and shared
    read-only; ValueError if n < 1."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(seed)
    E = np.empty((n, dim))
    for e in E:
        u = rng.normal(size=dim)
        e[:] = u * (radius * rng.random() ** (1.0 / dim) / np.linalg.norm(u))
    E.flags.writeable = False
    return E


def _deviations(f, center: np.ndarray, n: int, radius: float, seed: int):
    """The probes' sample: the stack E of n points e in the ball about 0 and
    the stack f(center + E) - f(center), `f` mapping all n points at once."""
    E = _ball_sample(n, center.size, radius, seed)
    return E, f(center + E) - f(center)


def _deviation_ratios(f, center: np.ndarray, n: int, radius: float, seed: int) -> np.ndarray:
    """||f(center + e) - f(center)|| / ||e|| for each of the n sampled e."""
    E, dev = _deviations(f, center, n, radius, seed)
    return np.linalg.norm(dev, axis=1) / np.linalg.norm(E, axis=1)


_DISSIPATIVITY_TOL = 1e-10  # rounding allowance on the probe's largest ratio


def dissipativity_probe(
    element: Element,
    d_star: np.ndarray,
    n: int = 1000,
    radius: float = 1.0,
    seed: int = 0,
) -> DissipativityReport:
    """Empirically bound the expansiveness of the reflected map about d_star.

    Samples n points uniformly in a ball of the given radius around d_star
    and reports the largest observed ratio
    ||m(d) - m(d_star)|| / ||d - d_star||; passes iff it stays
    <= 1 + _DISSIPATIVITY_TOL.
    """
    d_star = np.atleast_1d(np.asarray(d_star, dtype=float))
    worst = float(_deviation_ratios(element.reflect, d_star, n, radius, seed).max())
    return DissipativityReport(samples=n, max_ratio=worst, passed=worst <= 1.0 + _DISSIPATIVITY_TOL)
