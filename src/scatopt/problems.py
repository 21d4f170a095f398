"""Builders assembling the example systems from elements and an
orthonormal interconnection, plus their instance data types.

Each builder encodes a problem's linear structure as constraints
z[resid] = A z[free] - data, takes as interconnection the reflection
across that affine set (`from_constraints`), and attaches one constitutive
relation per coordinate block.  Variables that appear in
several cost terms (consensus copies, two-sided envelopes) are duplicated
through the interconnection so element blocks stay disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
)
from .interconnect import AffineInterconnection, from_constraints
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


def _element_cost_objective(elements):
    def objective(z):
        return float(sum(el.relation.cost(z[el.block.slice]) for el in elements))

    return objective


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
        if self.l1_weight < 0 or self.residual_weight < 0:
            raise ValueError("weights must be nonnegative")
        if self.huber_width <= 0:
            raise ValueError("huber_width must be positive")

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
    return BuiltProblem(
        name=name,
        system=System(ic, elements),
        instance=inst,
        layout=layout,
        extras={},
        objective=_element_cost_objective(elements),
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
            raise ValueError("grid must have at least two points")

    @property
    def half_taps(self) -> int:
        return (self.num_taps + 1) // 2


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


def _shift_linear_cost(ic: AffineInterconnection, cost_idx) -> AffineInterconnection:
    """Fold a unit linear cost on the given coordinates into the offset.

    Running the pure-projection element on the shifted coordinates is
    equivalent to the element carrying the linear term; the primal mix
    (c + d)/2 is unaffected by the shift.
    """
    g = np.zeros(ic.dim)
    g[np.asarray(cost_idx)] = 1.0
    return replace(ic, s=ic.s - ic.linear(g) - g)


def build_minimax_fir(spec: FirSpec) -> BuiltProblem:
    """Single-interconnection minimax design: grid errors and the ripple
    bound share one max-abs epigraph element."""
    K = spec.half_taps
    omega, desired, weights, n_pass = design_grid(spec)
    ng = omega.size
    C = _cosine_matrix(omega, K)
    N = K + ng + 1
    delta_idx = K + ng
    # e = W (C h - desired); h and the bound are free coordinates
    A = np.column_stack([weights[:, None] * C, np.zeros(ng)])
    free = np.concatenate([np.arange(K), [delta_idx]])
    resid = np.arange(K, K + ng)
    ic = from_constraints(A, free, resid, offset=weights * desired)
    ic = _shift_linear_cost(ic, [delta_idx])
    elements = (
        Element(Quadratic(0.0), Block(0, K)),
        Element(LinfEpigraph(), Block(K, ng + 1)),
    )
    layout = {
        "coefficients": slice(0, K),
        "errors": slice(K, K + ng),
        "bound": delta_idx,
    }
    extras = {"omega": omega, "desired": desired, "weights": weights, "cosines": C,
              "n_pass": n_pass}
    return BuiltProblem(
        name="minimax_fir",
        system=System(ic, elements),
        instance=spec,
        layout=layout,
        extras=extras,
        objective=lambda z: float(z[delta_idx]),
    )


def build_minimax_fir_split(spec: FirSpec, coupling_weight: float = 100.0) -> BuiltProblem:
    """Two-interconnection variant: each band owns a copy of the
    coefficients and its own ripple bound, with the copies tied
    coordinatewise through coupling elements."""
    if coupling_weight < 0:
        raise ValueError("coupling_weight must be nonnegative")
    K = spec.half_taps
    omega, desired, weights, n_pass = design_grid(spec)
    n_stop = omega.size - n_pass
    Cp = _cosine_matrix(omega[:n_pass], K)
    Cs = _cosine_matrix(omega[n_pass:], K)
    wp, ws_ = weights[:n_pass], weights[n_pass:]
    tp, ts = desired[:n_pass], desired[n_pass:]

    # coordinate map
    hp = np.arange(0, K)
    hs = np.arange(K, 2 * K)
    ep = np.arange(2 * K, 2 * K + n_pass)
    dp = 2 * K + n_pass
    es = np.arange(dp + 1, dp + 1 + n_stop)
    ds = dp + 1 + n_stop
    pair_base = ds + 1
    n_pairs = K + 1
    N = pair_base + 2 * n_pairs

    free = np.concatenate([hp, hs, [dp], [ds]])
    resid = np.concatenate([ep, es, np.arange(pair_base, N)])
    nf = len(free)
    A = np.zeros((len(resid), nf))
    # free column order: hp (0..K), hs (K..2K), dp (2K), ds (2K+1)
    A[:n_pass, :K] = wp[:, None] * Cp
    A[n_pass : n_pass + n_stop, K : 2 * K] = ws_[:, None] * Cs
    row = n_pass + n_stop
    for k in range(K):
        A[row, k] = 1.0  # copy of the passband coefficient
        A[row + 1, K + k] = 1.0  # copy of the stopband coefficient
        row += 2
    A[row, 2 * K] = 1.0
    A[row + 1, 2 * K + 1] = 1.0
    offset = np.concatenate([wp * tp, ws_ * ts, np.zeros(2 * n_pairs)])

    ic = from_constraints(A, free, resid, offset=offset)
    ic = _shift_linear_cost(ic, [dp, ds])
    elements = [
        Element(Quadratic(0.0), Block(0, K)),
        Element(Quadratic(0.0), Block(K, K)),
        Element(LinfEpigraph(), Block(2 * K, n_pass + 1)),
        Element(LinfEpigraph(), Block(dp + 1, n_stop + 1)),
    ]
    for i in range(n_pairs):
        elements.append(Element(PairCoupling(coupling_weight), Block(pair_base + 2 * i, 2)))
    layout = {
        "coefficients_pass": slice(0, K),
        "coefficients_stop": slice(K, 2 * K),
        "errors_pass": slice(2 * K, 2 * K + n_pass),
        "bound_pass": dp,
        "errors_stop": slice(dp + 1, dp + 1 + n_stop),
        "bound_stop": ds,
    }
    extras = {"omega": omega, "desired": desired, "weights": weights, "n_pass": n_pass,
              "coupling_weight": coupling_weight}
    return BuiltProblem(
        name="minimax_fir_split",
        system=System(ic, tuple(elements)),
        instance=spec,
        layout=layout,
        extras=extras,
        objective=lambda z: float(z[dp] + z[ds]) / 2.0,
    )


# ---------------------------------------------------------------------------
# Decentralized SVM


def make_regular_graph(n: int = 30, degree: int = 4, seed: int = 0) -> np.ndarray:
    """Connected degree-regular adjacency matrix (circulant, offsets
    1..degree/2).  Deterministic; `seed` is accepted for interface
    uniformity."""
    if degree % 2 != 0 or degree <= 0:
        raise ValueError(f"circulant construction needs a positive even degree, got {degree}")
    if (n * degree) % 2 != 0 or n <= degree:
        raise ValueError(f"no simple {degree}-regular graph on {n} nodes")
    adj = np.zeros((n, n), dtype=int)
    for off in range(1, degree // 2 + 1):
        for i in range(n):
            j = (i + off) % n
            adj[i, j] = adj[j, i] = 1
    if not np.all(adj.sum(axis=1) == degree):
        raise ValueError(f"offsets collide: cannot build a {degree}-regular graph on {n} nodes")
    return adj


def _connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())


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
        if self.adjacency.shape != (n, n):
            raise ValueError("adjacency must be square over the agents")
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
        rng = np.random.default_rng(seed)
        half = n_agents // 2
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        labels = np.concatenate([np.ones(half), -np.ones(n_agents - half)])
        centers = np.outer(labels, direction) * (separation / 2.0)
        features = centers + rng.normal(size=(n_agents, 2))
        adj = make_regular_graph(n_agents, degree)
        return cls(features=features, labels=labels, adjacency=adj, **weights)


def build_svm_decentralized(inst: SvmInstance) -> BuiltProblem:
    """Per-agent classifier copies with hinge losses on local margins and
    coupling of neighboring copies across every graph edge."""
    n = inst.n_agents
    d_feat = inst.features.shape[1]
    per_agent = d_feat + 2  # w, b, margin
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if inst.adjacency[i, j]]
    n_edge = len(edges)
    coords_per_edge = 2 * (d_feat + 1)
    agent_base = np.arange(n) * per_agent
    pair_base = n * per_agent
    N = pair_base + n_edge * coords_per_edge

    free, resid = [], []
    for i in range(n):
        free.extend(range(agent_base[i], agent_base[i] + d_feat + 1))
        resid.append(agent_base[i] + d_feat + 1)
    resid.extend(range(pair_base, N))
    free = np.asarray(free)
    resid = np.asarray(resid)
    free_col = {idx: col for col, idx in enumerate(free)}

    A = np.zeros((len(resid), len(free)))
    for i in range(n):
        row = i
        for k in range(d_feat):
            A[row, free_col[agent_base[i] + k]] = inst.labels[i] * inst.features[i, k]
        A[row, free_col[agent_base[i] + d_feat]] = inst.labels[i]
    row = n
    for (i, j) in edges:
        for k in range(d_feat + 1):
            A[row, free_col[agent_base[i] + k]] = 1.0
            A[row + 1, free_col[agent_base[j] + k]] = 1.0
            row += 2
    ic = from_constraints(A, free, resid, offset=None)

    elements = []
    for i in range(n):
        elements.append(Element(Quadratic(1.0 / n, 0.0), Block(agent_base[i], d_feat)))
        elements.append(Element(Quadratic(0.0), Block(agent_base[i] + d_feat, 1)))
        elements.append(Element(Hinge(inst.hinge_weight), Block(agent_base[i] + d_feat + 1, 1)))
    for e in range(n_edge):
        for k in range(d_feat + 1):
            elements.append(
                Element(
                    PairCoupling(inst.coupling_weight),
                    Block(pair_base + e * coords_per_edge + 2 * k, 2),
                )
            )
    elements = tuple(elements)
    w_idx = np.stack([agent_base + k for k in range(d_feat)], axis=1)
    layout = {
        "weights": w_idx,
        "biases": agent_base + d_feat,
        "margins": agent_base + d_feat + 1,
    }
    extras = {"edges": edges}
    return BuiltProblem(
        name="svm_consensus",
        system=System(ic, elements),
        instance=inst,
        layout=layout,
        extras=extras,
        objective=_element_cost_objective(elements),
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
    gap = 0.0
    for (i, j) in problem.extras["edges"]:
        gap = max(gap, float(np.linalg.norm(np.r_[w[i] - w[j], b[i] - b[j]])))
    return gap


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
        m = self.channel.size + self.num_taps - 1
        if not 0 <= self.target_delay < m:
            raise ValueError(f"target delay {self.target_delay} outside output range")
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
        if np.any(self.upper_env < self.lower_env):
            raise ValueError("upper envelope dips below lower envelope")
        if target.max() > self.upper_env[self.target_delay] or (
            target[self.target_delay] < self.lower_env[self.target_delay]
        ):
            raise ValueError("envelope infeasible at the target impulse")
        if self.notch_width <= 0:
            raise ValueError("notch_width must be positive")

    @property
    def target(self) -> np.ndarray:
        m = self.channel.size + self.num_taps - 1
        t = np.zeros(m)
        t[self.target_delay] = 1.0
        return t

    @classmethod
    def synthetic(cls, length: int = 32, num_taps: int = 16, seed: int = 0, **kw):
        rng = np.random.default_rng(seed)
        decay = 0.7 ** np.arange(length)
        channel = decay * (1.0 + 0.3 * rng.normal(size=length))
        channel[0] = 1.0
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
    N = n + 2 * m
    A = np.vstack([T, T])
    free = np.arange(n)
    resid = np.arange(n, N)
    ic = from_constraints(A, free, resid, offset=None)
    elements = (
        Element(CappedL1(inst.cap_height, inst.notch_width), Block(0, n)),
        Element(OneSidedPenalty(inst.upper_weight, inst.upper_env, "upper"), Block(n, m)),
        Element(OneSidedPenalty(inst.lower_weight, inst.lower_env, "lower"), Block(n + m, m)),
    )
    layout = {
        "taps": slice(0, n),
        "output": slice(n, n + m),
        "output_mirror": slice(n + m, N),
    }
    return BuiltProblem(
        name="sparse_equalizer",
        system=System(ic, elements),
        instance=inst,
        layout=layout,
        extras={"convolution": T},
        objective=_element_cost_objective(elements),
    )


# ---------------------------------------------------------------------------
# Reference comparisons of a fixed point d.  `oracles` imports this module,
# so it is imported on call (at module level it would also make importing
# this module load scipy), and its solvers are looked up there at call time.


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


def _fir_metrics(built: BuiltProblem, h: np.ndarray) -> dict:
    from . import oracles

    ref = oracles.oracle_minimax_lp(built.instance)
    ex = built.extras
    C = _cosine_matrix(ex["omega"], built.instance.half_taps)
    err = float(np.abs(ex["weights"] * (C @ h - ex["desired"])).max())
    return {"max_grid_error": err, "oracle_optimum": ref.value, "error_ratio": err / ref.value}


def _compare_minimax_fir(built: BuiltProblem, d: np.ndarray) -> dict:
    return _fir_metrics(built, built.primal(d)[built.layout["coefficients"]])


def _compare_minimax_fir_split(built: BuiltProblem, d: np.ndarray) -> dict:
    z = built.primal(d)
    h = (z[built.layout["coefficients_pass"]] + z[built.layout["coefficients_stop"]]) / 2.0
    return _fir_metrics(built, h)


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
    """A shipped problem: its default instance, builder and reference comparison."""

    instance: Callable  # (seed=..., **instance parameters) -> instance
    builder: Callable  # (instance, **builder parameters) -> BuiltProblem
    builder_params: tuple[str, ...] = ()
    compare: Callable | None = None  # (built, d) -> metrics; None: no reference


def _fir_spec(seed: int = 0, **params) -> FirSpec:
    return FirSpec(**params)  # deterministic: `seed` is accepted for uniformity


PROBLEMS = {
    "lasso_huber": Problem(LassoInstance.random, build_lasso_huber,
                           compare=_compare_lasso_huber),
    "lasso_augmented": Problem(LassoInstance.random, build_lasso_augmented,
                               compare=_compare_lasso_augmented),
    "minimax_fir": Problem(_fir_spec, build_minimax_fir, compare=_compare_minimax_fir),
    "minimax_fir_split": Problem(_fir_spec, build_minimax_fir_split, ("coupling_weight",),
                                 _compare_minimax_fir_split),
    "svm_consensus": Problem(SvmInstance.separable_blobs, build_svm_decentralized,
                             compare=_compare_svm),
    # nonconvex: no independent solver finds its global optimum
    "sparse_equalizer": Problem(EqualizerInstance.synthetic, build_sparse_equalizer),
}

PROBLEM_NAMES = tuple(PROBLEMS)


def _problem(name: str) -> Problem:
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}")
    return PROBLEMS[name]


def default_instance(name: str, seed: int = 0, params: dict | None = None):
    """The default desk-scale instance for each named problem.  Keys of
    `params` that the builder takes are left to `build`; any other key the
    instance factory does not take raises TypeError."""
    problem = _problem(name)
    params = {k: v for k, v in (params or {}).items() if k not in problem.builder_params}
    return problem.instance(seed=seed, **params)


def build(name: str, instance, params: dict | None = None) -> BuiltProblem:
    """Build a named problem, passing on the keys of `params` its builder takes."""
    problem = _problem(name)
    params = params or {}
    kwargs = {k: params[k] for k in problem.builder_params if k in params}
    return problem.builder(instance, **kwargs)
