"""Constitutive relations: one map per cost term, realized as reflected
proximal maps c = 2 prox_f(d) - d, plus an empirical dissipativity probe.

Each relation documents its cost f and the closed-form prox
    prox_f(d) = argmin_x  (1/2) (x - d)^2 + f(x).
The reflected map is nonexpansive exactly when f is convex, which is the
property the convergence certificates in `monitor` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "DissipativityReport",
    "dissipativity_probe",
]


def _check(value, name: str, strict: bool = False) -> None:
    """Reject a negative parameter (a zero one too when `strict`) or a NaN."""
    v = np.asarray(value)
    if not np.all(v > 0 if strict else v >= 0):
        raise ValueError(f"{name} must be {'positive' if strict else 'nonnegative'}, got {value}")


@dataclass(frozen=True)
class Quadratic:
    """f(x) = (weight/2) (x - target)^2, applied coordinatewise.

    With weight 0 this is the free (zero-cost) relation: prox is the
    identity and the reflected map is the identity.
    """

    weight: float
    target: float = 0.0
    dissipative = True

    def __post_init__(self):
        _check(self.weight, "weight")

    def prox(self, d):
        return (d + self.weight * self.target) / (1.0 + self.weight)

    def cost(self, x):
        return 0.5 * self.weight * float(np.sum((np.asarray(x) - self.target) ** 2))


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
    dissipative = True

    def __post_init__(self):
        _check(self.weight, "weight")
        _check(self.halfwidth, "halfwidth", strict=True)

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        knee = self.halfwidth + self.weight
        inner = d / (1.0 + self.weight / self.halfwidth)
        outer = np.sign(d) * (np.abs(d) - self.weight)
        return np.where(np.abs(d) <= knee, inner, outer)

    def cost(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        quad = self.weight * x**2 / (2.0 * self.halfwidth)
        lin = self.weight * (x - self.halfwidth / 2.0)
        return float(np.sum(np.where(x <= self.halfwidth, quad, lin)))


@dataclass(frozen=True)
class SoftThreshold:
    """Exact 1-norm, f(x) = weight |x|; prox is soft thresholding."""

    weight: float
    dissipative = True

    def __post_init__(self):
        _check(self.weight, "weight")

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        return np.sign(d) * np.maximum(np.abs(d) - self.weight, 0.0)

    def cost(self, x):
        return self.weight * float(np.sum(np.abs(x)))


@dataclass(frozen=True)
class LinfEpigraph:
    """Indicator of {(e, t): max|e_i| <= t}; the block's last coordinate is t.

    prox is the Euclidean projection onto the epigraph of the max-abs norm,
    found by a sorted threshold search over the active set.
    """

    dissipative = True

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        e, t = d[:-1], d[-1]
        a = np.abs(e)
        if a.size == 0 or a.max() <= t:
            return d.copy()
        # shrink the largest magnitudes and grow t until they meet
        srt = np.sort(a)[::-1]
        csum = np.cumsum(srt)
        k = np.arange(1, a.size + 1)
        levels = (csum + t) / (k + 1.0)
        active = srt > levels
        if not np.any(active):
            t_new = t
        else:
            kk = int(np.max(np.nonzero(active)[0])) + 1
            t_new = (csum[kk - 1] + t) / (kk + 1.0)
        if t_new <= 0.0:
            return np.zeros_like(d)
        out = np.empty_like(d)
        out[:-1] = np.clip(e, -t_new, t_new)
        out[-1] = t_new
        return out

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        return 0.0 if np.abs(x[:-1]).max(initial=0.0) <= x[-1] + 1e-9 else np.inf


@dataclass(frozen=True)
class Hinge:
    """f(z) = weight * max(0, 1 - z), the margin loss, coordinatewise.

    prox(d) = d + weight  for d <= 1 - weight,
              1           for 1 - weight < d < 1,
              d           for d >= 1.
    """

    weight: float
    dissipative = True

    def __post_init__(self):
        _check(self.weight, "weight")

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        return np.where(d >= 1.0, d, np.minimum(d + self.weight, 1.0))

    def cost(self, x):
        return self.weight * float(np.sum(np.maximum(0.0, 1.0 - np.asarray(x))))


@dataclass(frozen=True)
class PairCoupling:
    """f(u, v) = (weight/2) (u - v)^2 on a length-2 block.

    prox(u, v) = (u, v) - weight/(1 + 2 weight) * (u - v, v - u).
    """

    weight: float
    dissipative = True

    def __post_init__(self):
        _check(self.weight, "weight")

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        shrink = self.weight / (1.0 + 2.0 * self.weight)
        diff = d[..., 0] - d[..., 1]
        out = d.copy()
        out[..., 0] -= shrink * diff
        out[..., 1] += shrink * diff
        return out

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.weight * float((x[0] - x[1]) ** 2)


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
    dissipative = True

    def __post_init__(self):
        _check(self.weight, "weight")
        if self.side not in ("upper", "lower"):
            raise ValueError(f"side must be 'upper' or 'lower', got {self.side!r}")
        b = np.asarray(self.bound, dtype=float)
        object.__setattr__(self, "bound", b if b.ndim else float(b))

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        pulled = (d + self.weight * self.bound) / (1.0 + self.weight)
        if self.side == "upper":
            return np.where(d <= self.bound, d, pulled)
        return np.where(d >= self.bound, d, pulled)

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        if self.side == "upper":
            v = np.maximum(0.0, x - self.bound)
        else:
            v = np.maximum(0.0, self.bound - x)
        return 0.5 * self.weight * float(np.sum(v**2))


@dataclass(frozen=True)
class CappedL1:
    """Nonconvex capped 1-norm, f(x) = height * min(|x| / notch_width, 1).

    The cost rises with slope height/notch_width near 0 and plateaus at
    `height` beyond +-notch_width.  prox selects the best of three
    candidates: stay put on the plateau, soft-threshold down the notch
    slope, or sit on the notch boundary; ties break toward smaller |x|.
    """

    height: float
    notch_width: float
    dissipative = False

    def __post_init__(self):
        _check(self.height, "height")
        _check(self.notch_width, "notch_width", strict=True)

    def _candidate_cost(self, x, d):
        return 0.5 * (x - d) ** 2 + self.height * np.minimum(
            np.abs(x) / self.notch_width, 1.0
        )

    def prox(self, d):
        d = np.asarray(d, dtype=float)
        slope = self.height / self.notch_width
        st = np.sign(d) * np.maximum(np.abs(d) - slope, 0.0)
        st = np.clip(st, -self.notch_width, self.notch_width)
        edge = np.sign(d) * self.notch_width
        plateau = np.where(np.abs(d) >= self.notch_width, d, edge)
        cands = np.stack([st, edge, plateau])
        costs = self._candidate_cost(cands, d)
        # sort by magnitude so argmin's first-occurrence rule breaks ties
        # toward the sparser candidate
        order = np.argsort(np.abs(cands), axis=0, kind="stable")
        cands = np.take_along_axis(cands, order, axis=0)
        costs = np.take_along_axis(costs, order, axis=0)
        best = np.argmin(costs, axis=0)
        return np.take_along_axis(cands, best[None, ...], axis=0)[0]

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        return self.height * float(np.sum(np.minimum(np.abs(x) / self.notch_width, 1.0)))


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

    @property
    def kind(self) -> str:
        return type(self.relation).__name__

    @property
    def dissipative(self) -> bool:
        return self.relation.dissipative

    def prox(self, d_block):
        return self.relation.prox(np.asarray(d_block, dtype=float))

    def reflect(self, d_block):
        """The map the iteration runs, c = 2 prox(d) - d."""
        d_block = np.asarray(d_block, dtype=float)
        return 2.0 * self.relation.prox(d_block) - d_block


@dataclass(frozen=True)
class DissipativityReport:
    samples: int
    max_ratio: float
    passed: bool


def _deviations(f, center: np.ndarray, n: int, radius: float, seed: int):
    """The probes' sampling loop: yield (e, f(center + e) - f(center)) for n
    points e uniform in the ball of the given radius (per point a normal
    direction, then the length radius * U^(1/dim)); ValueError if n < 1."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(seed)
    f_center = f(center)
    for _ in range(n):
        u = rng.normal(size=center.size)
        e = u * (radius * rng.random() ** (1.0 / center.size) / np.linalg.norm(u))
        yield e, f(center + e) - f_center


def dissipativity_probe(
    element: Element,
    d_star: np.ndarray,
    n: int = 1000,
    radius: float = 1.0,
    seed: int = 0,
    tol: float = 1e-10,
) -> DissipativityReport:
    """Empirically bound the expansiveness of the reflected map about d_star.

    Samples n points uniformly in a ball of the given radius around d_star
    and reports the largest observed ratio
    ||m(d) - m(d_star)|| / ||d - d_star||; passes iff it stays <= 1 + tol.
    """
    d_star = np.atleast_1d(np.asarray(d_star, dtype=float))
    max_ratio = 0.0
    for u, dev in _deviations(element.reflect, d_star, n, radius, seed):
        dist = np.linalg.norm(u)
        if dist == 0.0:
            continue
        max_ratio = max(max_ratio, float(np.linalg.norm(dev) / dist))
    return DissipativityReport(samples=n, max_ratio=max_ratio, passed=max_ratio <= 1.0 + tol)
