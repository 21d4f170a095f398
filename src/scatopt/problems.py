"""Builders assembling the example systems from elements and an
orthonormal interconnection, plus their instance data types.

Each builder takes its coordinates from a `_Layout`, records its linear
structure there as constraints z[resid] = A z[free] - data, and takes as
interconnection the layout's `reflection` across that affine set (the
lassos pass their dense A to `from_constraints` directly).  One relation
is attached per coordinate block; variables that appear in several cost
terms are duplicated through the interconnection so blocks stay disjoint.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .elements import (
    CappedL1,
    Element,
    Hinge,
    HuberL1,
    LinfEpigraph,
    OneSidedPenalty,
    PairCoupling,
    Quadratic,
    SoftThreshold,
    _check,
)
from .interconnect import _components, from_constraints
from .pairs import Block
from .engine import System

__all__ = [
    "LassoInstance",
    "FirSpec",
    "SvmInstance",
    "EqualizerInstance",
    "BuiltProblem",
    "build_lasso_huber",
    "build_lasso_augmented",
    "build_minimax_fir",
    "build_minimax_fir_split",
    "build_svm_decentralized",
    "build_sparse_equalizer",
    "make_regular_graph",
    "design_grid",
    "cosine_coefficients_to_taps",
    "Problem",
    "PROBLEMS",
    "PROBLEM_NAMES",
    "check_params",
    "default_instance",
    "build",
]


@dataclass
class BuiltProblem:
    """A ready-to-run system plus the bookkeeping to interpret its state."""

    name: str
    system: System
    instance: object
    layout: dict
    extras: dict
    objective: object  # callable on the primal mix vector

    def primal(self, d: np.ndarray) -> np.ndarray:
        return self.system.primal_mix(d)

    def solution(self, d: np.ndarray) -> dict:
        z = self.primal(d)
        return {key: z[sel] for key, sel in self.layout.items()}


class _Layout:
    """A system's coordinates, handed out in order, and the linear
    constraints among them, whose reflection is the interconnection."""

    def __init__(self):
        self.dim, self._rows = 0, []  # (coords, over, coef, offset) per `rows` call

    def take(self, *shape) -> np.ndarray:
        """The next coordinates, as an int array of the given shape."""
        self.dim += (size := math.prod(shape))
        return np.arange(self.dim - size, self.dim).reshape(shape)

    def rows(self, coords, over, coef=1.0, offset=0.0) -> None:
        """Constrain z[coords] = (coef * z[over]).sum(-1) - offset, with
        `over` and `coef` broadcast against coords[..., None] (a copy passes
        over[..., None]) and `offset` against coords."""
        named = np.concatenate([c.ravel() for c, *_ in self._rows] + [np.ravel(coords)])
        if np.bincount(named).max(initial=0) > 1:
            raise ValueError("a coordinate is constrained twice")
        self._rows.append((np.asarray(coords), over, coef, offset))

    def reflection(self):
        """`from_constraints` with every coordinate that no row names free,
        the free and the residual coordinates each in ascending order."""
        is_resid = np.zeros(self.dim, dtype=bool)
        for coords, *_ in self._rows:
            is_resid[coords] = True
        free, resid = np.flatnonzero(~is_resid), np.flatnonzero(is_resid)
        pos = np.empty(self.dim, dtype=int)  # a coordinate's column of A, or its row
        pos[free], pos[resid] = np.arange(free.size), np.arange(resid.size)
        A, v = np.zeros((resid.size, free.size)), np.zeros(resid.size)
        for coords, over, coef, offset in self._rows:
            if is_resid[over].any():
                raise ValueError("a constraint reads a constrained coordinate")
            A[pos[coords][..., None], pos[over]] = coef
            v[pos[coords]] = offset
        return from_constraints(A, free, resid, offset=v)


def _span(coords: np.ndarray) -> slice:
    """The slice of a run of consecutive coordinates."""
    return slice(int(coords[0]), int(coords[-1]) + 1)


# ---------------------------------------------------------------------------
# LASSO


@dataclass
class LassoInstance:
    """Sparse regression data: A x ~ y with an l1-type penalty on x."""

    A: np.ndarray
    y: np.ndarray
    l1_weight: float = 1.0
    residual_weight: float = 10.0
    huber_width: float = 0.01

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if self.y.shape != (self.A.shape[0],):
            raise ValueError(
                f"y length {self.y.shape} does not match A rows {self.A.shape[0]}"
            )
        if not (np.isfinite(self.A).all() and np.isfinite(self.y).all()):
            raise ValueError("A and y must be finite")
        _check(self.l1_weight, "l1_weight")
        _check(self.residual_weight, "residual_weight")
        _check(self.huber_width, "huber_width", strict=True)

    @classmethod
    def random(
        cls,
        m: int = 10,
        n: int = 20,
        seed: int = 0,
        sparsity: int = 3,
        noise: float = 0.01,
        **weights,
    ) -> "LassoInstance":
        if min(m, n) < 1 or not 0 <= sparsity <= n:
            raise ValueError(f"need m, n >= 1 and 0 <= sparsity <= n, got {m=}, {n=}, {sparsity=}")
        if not math.isfinite(noise):
            raise ValueError(f"noise must be finite, got {noise}")
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n)) / np.sqrt(m)
        x_true = np.zeros(n)
        support = rng.choice(n, size=sparsity, replace=False)
        x_true[support] = rng.normal(scale=3.0, size=sparsity)
        y = A @ x_true + noise * rng.normal(size=m)
        return cls(A=A, y=y, **weights)


def _build_lasso(name: str, inst: LassoInstance, sparsity_relation) -> BuiltProblem:
    m, n = inst.A.shape
    N = n + m
    ic = from_constraints(
        inst.A, np.arange(n), np.arange(n, N), offset=inst.y
    )
    elements = (
        Element(sparsity_relation, Block(0, n)),
        Element(Quadratic(inst.residual_weight, 0.0), Block(n, m)),
    )
    layout = {"coefficients": slice(0, n), "residual": slice(n, N)}
    system = System(ic, elements)
    return BuiltProblem(
        name=name,
        system=system,
        instance=inst,
        layout=layout,
        extras={},
        objective=system.cost,
    )


def build_lasso_huber(inst: LassoInstance) -> BuiltProblem:
    """Smoothed-l1 regression: Huber penalty on the coefficients, quadratic
    enforcement of the linear measurement equations."""
    return _build_lasso("lasso_huber", inst, HuberL1(inst.l1_weight, inst.huber_width))


def build_lasso_augmented(inst: LassoInstance) -> BuiltProblem:
    """Exact-l1 regression with a quadratic augmentation weight on the
    measurement residual."""
    return _build_lasso("lasso_augmented", inst, SoftThreshold(inst.l1_weight))


# ---------------------------------------------------------------------------
# Minimax FIR design


@dataclass
class FirSpec:
    """Lowpass design spec for a linear-phase filter with an odd tap count.

    The filter is parametrized by the cosine-expansion coefficients of its
    zero-phase amplitude; `num_taps` odd and symmetric taps are implied.
    """

    num_taps: int = 15
    passband_edge: float = 0.4 * np.pi
    stopband_edge: float = 0.6 * np.pi
    grid_size: int = 128
    passband_weight: float = 1.0
    stopband_weight: float = 1.0

    def __post_init__(self):
        if self.num_taps % 2 != 1 or self.num_taps < 1:
            raise ValueError(f"num_taps must be odd and positive, got {self.num_taps}")
        if not 0.0 < self.passband_edge < self.stopband_edge < np.pi:
            raise ValueError(
                f"need 0 < passband_edge < stopband_edge < pi, got "
                f"{self.passband_edge:g}, {self.stopband_edge:g}"
            )
        if self.grid_size < 2:
            raise ValueError(f"grid_size must be at least 2, got {self.grid_size}")
        _check(self.passband_weight, "passband_weight")
        _check(self.stopband_weight, "stopband_weight")

    @property
    def half_taps(self) -> int:
        return (self.num_taps + 1) // 2

    @classmethod
    def lowpass(cls, seed: int = 0, **params) -> "FirSpec":
        return cls(**params)  # deterministic: `seed` is accepted for uniformity


def design_grid(spec: FirSpec):
    """Frequency grid over both bands with desired response and weights."""
    wp, ws = spec.passband_edge, spec.stopband_edge
    span = wp + (np.pi - ws)
    n_pass = max(2, int(round(spec.grid_size * wp / span)))
    n_stop = max(2, spec.grid_size - n_pass)
    omega = np.concatenate([np.linspace(0.0, wp, n_pass), np.linspace(ws, np.pi, n_stop)])
    desired = np.concatenate([np.ones(n_pass), np.zeros(n_stop)])
    weights = np.concatenate(
        [np.full(n_pass, spec.passband_weight), np.full(n_stop, spec.stopband_weight)]
    )
    return omega, desired, weights, n_pass


def _cosine_matrix(omega: np.ndarray, half_taps: int) -> np.ndarray:
    return np.cos(np.outer(omega, np.arange(half_taps)))


def cosine_coefficients_to_taps(coeffs: np.ndarray) -> np.ndarray:
    """Expand amplitude cosine coefficients into the symmetric tap vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    k = coeffs.size
    taps = np.zeros(2 * k - 1)
    taps[k - 1] = coeffs[0]
    taps[k:] = coeffs[1:] / 2.0
    taps[: k - 1] = coeffs[:0:-1] / 2.0
    return taps


def _build_minimax(spec: FirSpec, split: bool, coupling_weight=0.0) -> BuiltProblem:
    """Minimax design over the whole grid, or split per band: each band owns
    a copy of the coefficients and one max-abs epigraph over its grid errors
    and ripple bound; split, coupling pairs tie the copies and the bounds."""
    K = spec.half_taps
    omega, desired, weights, n_pass = design_grid(spec)
    bands = {"_pass": np.s_[:n_pass], "_stop": np.s_[n_pass:]} if split else {"": np.s_[:]}
    lay = _Layout()
    coeffs = lay.take(len(bands), K)
    free_rel, epigraph, pair = Quadratic(0.0), LinfEpigraph(), PairCoupling(coupling_weight)
    elements = [Element(free_rel, Block(h[0], K)) for h in coeffs]
    layout = {f"coefficients{x}": _span(h) for x, h in zip(bands, coeffs)}
    for h, (x, band) in zip(coeffs, bands.items()):
        C = _cosine_matrix(omega[band], K)
        errors, bound = lay.take(C.shape[0]), lay.take()
        lay.rows(errors, h, weights[band, None] * C, weights[band] * desired[band])  # W (C h - t)
        elements.append(Element(epigraph, Block(errors[0], errors.size + 1)))  # errors, bound
        layout[f"errors{x}"], layout[f"bound{x}"] = _span(errors), int(bound)
    bounds = np.array([layout[f"bound{x}"] for x in bands])
    extras = {"omega": omega, "desired": desired, "weights": weights, "n_pass": n_pass,
              **({"coupling_weight": coupling_weight} if split else {"cosines": C})}
    if split:
        pairs = lay.take(K + 1, len(bands))  # (pass copy, stop copy) of each coefficient and bound
        lay.rows(pairs, np.vstack([coeffs.T, bounds])[..., None])
        elements += [Element(pair, Block(p[0], 2)) for p in pairs]
    bound_cost = np.zeros(lay.dim)
    bound_cost[bounds] = 1.0  # minimize the ripple bounds
    return BuiltProblem(
        name="minimax_fir_split" if split else "minimax_fir",
        system=System(lay.reflection(), elements, linear_cost=bound_cost),
        instance=spec,
        layout=layout,
        extras=extras,
        # the mean bound; a sum from -0.0 keeps the sign of a zero bound
        objective=lambda z: float(z[bounds].sum(initial=-0.0)) / len(bounds),
    )


def build_minimax_fir(spec: FirSpec) -> BuiltProblem:
    """Single-interconnection minimax design: grid errors and the ripple
    bound share one max-abs epigraph element."""
    return _build_minimax(spec, split=False)


def build_minimax_fir_split(spec: FirSpec, coupling_weight: float = 100.0) -> BuiltProblem:
    """Two-interconnection variant: each band owns a copy of the
    coefficients and its own ripple bound, with the copies tied
    coordinatewise through coupling elements."""
    _check(coupling_weight, "coupling_weight")
    return _build_minimax(spec, split=True, coupling_weight=coupling_weight)


# ---------------------------------------------------------------------------
# Decentralized SVM


def make_regular_graph(n: int = 30, degree: int = 4) -> np.ndarray:
    """Connected degree-regular adjacency matrix (circulant, offsets
    1..degree/2).  Deterministic."""
    if degree % 2 != 0 or degree <= 0:
        raise ValueError(f"circulant construction needs a positive even degree, got {degree}")
    if n <= degree:
        raise ValueError(f"no simple {degree}-regular graph on {n} nodes")
    adj, i = np.zeros((n, n), dtype=int), np.arange(n)
    for off in range(1, degree // 2 + 1):
        adj[i, (i + off) % n] = adj[(i + off) % n, i] = 1
    return adj


def _connected(adj: np.ndarray) -> bool:
    # with the diagonal, row i and column i share a component
    return not _components((adj != 0) | np.eye(len(adj), dtype=bool))[0].any()


@dataclass
class SvmInstance:
    """One training vector per agent, a communication graph, and weights."""

    features: np.ndarray
    labels: np.ndarray
    adjacency: np.ndarray
    coupling_weight: float = 10.0
    hinge_weight: float = 1.0

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.labels = np.atleast_1d(np.asarray(self.labels, dtype=float))
        self.adjacency = np.asarray(self.adjacency, dtype=int)
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("one label per agent required")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        _check(self.coupling_weight, "coupling_weight")
        _check(self.hinge_weight, "hinge_weight")
        if self.adjacency.shape != (n, n) or (self.adjacency != self.adjacency.T).any():
            raise ValueError("adjacency must be square over the agents and symmetric")
        if not _connected(self.adjacency):
            raise ValueError("communication graph is not connected")

    @property
    def n_agents(self) -> int:
        return self.features.shape[0]

    @classmethod
    def separable_blobs(
        cls,
        n_agents: int = 30,
        separation: float = 4.0,
        seed: int = 0,
        degree: int = 4,
        **weights,
    ) -> "SvmInstance":
        if not math.isfinite(separation):
            raise ValueError(f"separation must be finite, got {separation}")
        adj = make_regular_graph(n_agents, degree)  # first, so that it, not numpy, rejects n_agents
        rng = np.random.default_rng(seed)
        half = n_agents // 2
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        labels = np.concatenate([np.ones(half), -np.ones(n_agents - half)])
        centers = np.outer(labels, direction) * (separation / 2.0)
        features = centers + rng.normal(size=(n_agents, 2))
        return cls(features=features, labels=labels, adjacency=adj, **weights)


def build_svm_decentralized(inst: SvmInstance) -> BuiltProblem:
    """Per-agent classifier copies with hinge losses on local margins and
    coupling of neighboring copies across every graph edge."""
    n, d_feat = inst.features.shape
    edges = np.argwhere(np.triu(inst.adjacency, 1))
    lay = _Layout()
    agents = lay.take(n, d_feat + 2)  # per agent: w, b, margin
    wb = agents[:, : d_feat + 1]
    # margin_i = y_i (x_i . w_i + b_i)
    lay.rows(agents[:, -1], wb, inst.labels[:, None] * np.c_[inst.features, np.ones(n)])
    # the pair (u, v) of edge (i, j) and coordinate k copies ((w, b)_ik, (w, b)_jk)
    pairs = lay.take(len(edges), d_feat + 1, 2)
    lay.rows(pairs, wb[edges].swapaxes(1, 2)[..., None])

    # one relation object per parameter set, bound to every block it governs
    ridge, free_rel = Quadratic(1.0 / n, 0.0), Quadratic(0.0)
    hinge, pair = Hinge(inst.hinge_weight), PairCoupling(inst.coupling_weight)
    elements = [Element(rel, Block(a[k], size)) for a in agents
                for rel, k, size in ((ridge, 0, d_feat), (free_rel, d_feat, 1), (hinge, -1, 1))]
    elements += [Element(pair, Block(p[0], 2)) for p in pairs.reshape(-1, 2)]
    layout = {"weights": agents[:, :d_feat], "biases": agents[:, d_feat], "margins": agents[:, -1]}
    system = System(lay.reflection(), elements)
    return BuiltProblem(
        name="svm_consensus",
        system=system,
        instance=inst,
        layout=layout,
        extras={"edges": edges},
        objective=system.cost,
    )


def consensus_classifier(problem: BuiltProblem, d: np.ndarray):
    """Agent-averaged hyperplane (w, b) from a converged state."""
    z = problem.primal(d)
    w = z[problem.layout["weights"]].mean(axis=0)
    b = float(z[problem.layout["biases"]].mean())
    return w, b


def consensus_gap(problem: BuiltProblem, d: np.ndarray) -> float:
    """Largest disagreement of neighboring (w, b) copies across edges."""
    z = problem.primal(d)
    w = z[problem.layout["weights"]]
    b = z[problem.layout["biases"]]
    gaps = [float(np.linalg.norm(np.r_[w[i] - w[j], b[i] - b[j]]))
            for (i, j) in problem.extras["edges"]]
    return float(np.max(gaps, initial=0.0))  # NaN if any edge's gap is NaN


# ---------------------------------------------------------------------------
# Sparse equalizer


@dataclass
class EqualizerInstance:
    """Design a sparse filter whose cascade with a channel stays inside a
    per-sample amplitude envelope around a delayed impulse."""

    channel: np.ndarray
    num_taps: int = 16
    target_delay: int = 0
    upper_env: np.ndarray | None = None
    lower_env: np.ndarray | None = None
    cap_height: float = 0.1
    notch_width: float = 0.05
    upper_weight: float = 0.1
    lower_weight: float = 10.0

    def __post_init__(self):
        self.channel = np.atleast_1d(np.asarray(self.channel, dtype=float))
        if self.channel.size == 0:
            raise ValueError("channel must have at least one tap")
        if self.num_taps < 1:
            raise ValueError(f"num_taps must be positive, got {self.num_taps}")
        m = self.channel.size + self.num_taps - 1
        if not 0 <= self.target_delay < m:
            raise ValueError(f"target_delay must lie in [0, {m}), got {self.target_delay}")
        target = np.zeros(m)
        target[self.target_delay] = 1.0
        if self.upper_env is None:
            self.upper_env = target + 0.1
        if self.lower_env is None:
            self.lower_env = target - 0.1
        self.upper_env = np.asarray(self.upper_env, dtype=float)
        self.lower_env = np.asarray(self.lower_env, dtype=float)
        if self.upper_env.shape != (m,) or self.lower_env.shape != (m,):
            raise ValueError(f"envelopes must have one entry per output sample ({m})")
        for name in ("upper_env", "lower_env"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.upper_env < self.lower_env):
            raise ValueError("upper envelope dips below lower envelope")
        if not self.lower_env[self.target_delay] <= 1 <= self.upper_env[self.target_delay]:
            raise ValueError("envelope infeasible at the target impulse")
        for name in ("cap_height", "notch_width", "upper_weight", "lower_weight"):
            _check(getattr(self, name), name, strict=name == "notch_width")

    @classmethod
    def synthetic(cls, length: int = 32, num_taps: int = 16, seed: int = 0, **kw):
        rng = np.random.default_rng(seed)
        decay = 0.7 ** np.arange(length)
        channel = decay * (1.0 + 0.3 * rng.normal(size=decay.size))
        channel[:1] = 1.0  # a slice, and decay.size above: an empty channel reaches the check
        return cls(channel=channel, num_taps=num_taps, **kw)


def _convolution_matrix(h: np.ndarray, n: int) -> np.ndarray:
    m = h.size + n - 1
    T = np.zeros((m, n))
    for j in range(n):
        T[j : j + h.size, j] = h
    return T


def build_sparse_equalizer(inst: EqualizerInstance) -> BuiltProblem:
    """Nonconvex sparse design: capped-l1 on the taps, soft one-sided
    envelope penalties on the cascade output (duplicated through the
    interconnection so each side owns its own block)."""
    n = inst.num_taps
    T = _convolution_matrix(inst.channel, n)
    m = T.shape[0]
    lay = _Layout()
    taps, outputs = lay.take(n), lay.take(2, m)
    lay.rows(outputs, taps, T)
    out, mirror = outputs  # the cascade output and its mirror
    system = System(lay.reflection(), (
        Element(CappedL1(inst.cap_height, inst.notch_width), Block(taps[0], n)),
        Element(OneSidedPenalty(inst.upper_weight, inst.upper_env, "upper"), Block(out[0], m)),
        Element(OneSidedPenalty(inst.lower_weight, inst.lower_env, "lower"), Block(mirror[0], m)),
    ))
    layout = {"taps": _span(taps), "output": _span(out), "output_mirror": _span(mirror)}
    return BuiltProblem(
        name="sparse_equalizer",
        system=system,
        instance=inst,
        layout=layout,
        extras={"convolution": T},
        objective=system.cost,
    )


# ---------------------------------------------------------------------------
# Reference comparisons of a fixed point d.  `oracles` imports this module,
# so it is imported on call, and its solvers are looked up there at call
# time.


def _compare_lasso_huber(built: BuiltProblem, d: np.ndarray) -> dict:
    from . import oracles

    ref = oracles.oracle_lasso_huber(built.instance)
    z = built.primal(d)
    x = z[built.layout["coefficients"]]
    return {
        "max_coefficient_error": float(np.abs(x - ref.x).max()),
        "objective_gap": built.objective(z) - ref.value,
    }


def _compare_lasso_augmented(built: BuiltProblem, d: np.ndarray) -> dict:
    from . import oracles

    ref = oracles.oracle_lasso(built.instance)
    x = built.primal(d)[built.layout["coefficients"]]
    thr = 1e-6
    return {
        "max_coefficient_error": float(np.abs(x - ref.x).max()),
        "support_match": bool(np.array_equal(np.abs(x) > thr, np.abs(ref.x) > thr)),
    }


def _compare_minimax(built: BuiltProblem, d: np.ndarray) -> dict:
    from . import oracles

    ref = oracles.oracle_minimax_lp(built.instance)
    z, ex = built.primal(d), built.extras
    # the mean of the layout's coefficient copies: one unsplit, pass and stop split
    h = np.mean([z[s] for k, s in built.layout.items() if k.startswith("coefficients")], axis=0)
    C = _cosine_matrix(ex["omega"], built.instance.half_taps)
    err = float(np.abs(ex["weights"] * (C @ h - ex["desired"])).max())
    return {"max_grid_error": err, "oracle_optimum": ref.value, "error_ratio": err / ref.value}


def _compare_svm(built: BuiltProblem, d: np.ndarray) -> dict:
    from . import oracles

    ref = oracles.oracle_svm_qp(built.instance)
    w, b = consensus_classifier(built, d)
    X = built.instance.features
    agree = np.sign(X @ w + b) == np.sign(X @ ref.x + ref.extras["bias"])
    return {"classification_agreement": float(np.mean(agree)),
            "consensus_gap": consensus_gap(built, d)}


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Problem:
    """A shipped problem: its default instance, builder, comparison, cost scale alpha (1 for
    the lassos, which criterion 09 limits, and the nonconvex equalizer) and averaging gamma
    (the builders' 0.5 for minimax_fir, which larger gammas slow, and for the equalizer)."""

    instance: Callable  # a classmethod of the instance type: (seed=..., **parameters) -> instance
    builder: Callable  # (instance, **builder parameters) -> BuiltProblem
    compare: Callable | None = None  # (built, d) -> metrics; None: no reference
    alpha: float = 1.0
    gamma: float = 0.5

    @functools.cached_property
    def schema(self) -> tuple[dict, dict]:
        """The annotations of the instance parameters (the factory's keywords but `seed`, then the
        instance type's fields that have a default) and of the builder's after the instance."""
        factory = inspect.signature(self.instance).parameters.values()
        instance = {p.name: p.annotation for p in factory
                    if p.kind is p.POSITIONAL_OR_KEYWORD and p.name != "seed"}
        instance |= {f.name: f.type for f in fields(self.instance.__self__)
                     if f.default is not MISSING}
        builder = list(inspect.signature(self.builder).parameters.values())[1:]
        return instance, {p.name: p.annotation for p in builder}


PROBLEMS = {
    "lasso_huber": Problem(LassoInstance.random, build_lasso_huber,
                           compare=_compare_lasso_huber, gamma=0.8),
    "lasso_augmented": Problem(LassoInstance.random, build_lasso_augmented,
                               compare=_compare_lasso_augmented, gamma=0.8),
    "minimax_fir": Problem(FirSpec.lowpass, build_minimax_fir, _compare_minimax, alpha=0.1),
    "minimax_fir_split": Problem(FirSpec.lowpass, build_minimax_fir_split,
                                 _compare_minimax, alpha=0.03, gamma=0.7),
    "svm_consensus": Problem(SvmInstance.separable_blobs, build_svm_decentralized,
                             compare=_compare_svm, alpha=3.0, gamma=0.8),
    # nonconvex: no independent solver finds its global optimum
    "sparse_equalizer": Problem(EqualizerInstance.synthetic, build_sparse_equalizer),
}

PROBLEM_NAMES = tuple(PROBLEMS)


def _problem(name: str) -> Problem:
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}")
    return PROBLEMS[name]


# per annotation, the types a value may have and their JSON name; `bool` is an `int`
# to Python but never a number in a config, and a list's entries are numbers
_KINDS = {"int": (Integral, "an integer"), "float": (Real, "a number"),
          "str": (str, "a string"), "dict": (dict, "an object"),
          "np.ndarray | None": ((list, type(None)), "a list of numbers or null")}


def check_params(params: dict, schema: dict, owner: str, error=ValueError) -> None:
    """Raise `error` on the first key of `params` that `schema` (name to annotation)
    lacks or whose value is not of its kind; NaN and infinities pass to the value checks."""
    for key, value in params.items():
        if key not in schema:
            raise error(f"{owner} takes no {key!r}; choose from {', '.join(schema)}")
        kind, json_name = _KINDS[schema[key]]
        entries = value if isinstance(value, list) else []
        if any(isinstance(v, bool) for v in [value, *entries]) or not (
                isinstance(value, kind) and all(isinstance(v, Real) for v in entries)):
            raise error(f"{key} must be {json_name}, got {value!r}")


def default_instance(name: str, seed: int = 0, params: dict | None = None):
    """The default desk-scale instance of a problem; ValueError if `params` fail `check_params`."""
    problem = _problem(name)
    instance, builder = problem.schema
    params = params or {}
    check_params(params, instance | builder, name)
    return problem.instance(seed=seed, **{k: v for k, v in params.items() if k in instance})


def build(name: str, instance, params: dict | None = None) -> BuiltProblem:
    """Build a named problem at its alpha and gamma, passing on the `params` its builder takes."""
    problem = _problem(name)
    kwargs = {k: v for k, v in (params or {}).items() if k in problem.schema[1]}
    built = problem.builder(instance, **kwargs)
    built.system = built.system.scaled(problem.alpha)
    built.system.gamma = problem.gamma
    return built
