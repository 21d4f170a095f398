"""Execution of interconnected systems to a fixed point.

A `System` couples a bank of constitutive relations to an orthonormal
interconnection.  Iteration replaces d with an averaged update
    d <- (1 - gamma) d + gamma (G m(d) + s),
either synchronously or through per-coordinate Bernoulli sample-and-hold
registers, until the self-residual vanishes.  At a fixed point the
primal/dual decision pairs are read out by inverting the pair transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .elements import LinfEpigraph, PairCoupling
from .interconnect import AffineInterconnection
from .pairs import PairTransform, canonical_transform

__all__ = [
    "System",
    "DelayBank",
    "SystemState",
    "RunTrace",
    "RunResult",
    "DivergedError",
    "run",
    "run_ensemble",
    "run_error_system",
    "readout",
    "fixed_point_residual",
]


class DivergedError(RuntimeError):
    """Raised when the iteration produces non-finite values."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class _Bank:
    """Vectorized evaluation of all element prox maps, grouped by kind."""

    def __init__(self, elements):
        scalar_groups = {}
        self.pair_idx_u = []
        self.pair_idx_v = []
        self.pair_weight = []
        self.epigraphs = []
        for el in elements:
            rel = el.relation
            idx = np.arange(el.block.offset, el.block.stop)
            if isinstance(rel, PairCoupling):
                self.pair_idx_u.append(el.block.offset)
                self.pair_idx_v.append(el.block.offset + 1)
                self.pair_weight.append(rel.weight)
            elif isinstance(rel, LinfEpigraph):
                self.epigraphs.append((el.block.slice, rel))
            else:
                key = self._key(rel)
                grp = scalar_groups.setdefault(key, ([], []))
                grp[0].append(idx)
                grp[1].append(rel)
        self.scalar_groups = []
        for key, (idx_lists, rels) in scalar_groups.items():
            idx = np.concatenate(idx_lists)
            params = {
                name: np.concatenate(
                    [np.broadcast_to(np.asarray(getattr(r, name), dtype=float), (len(il),))
                     for r, il in zip(rels, idx_lists)]
                )
                for name in key[1]
            }
            proto = replace(rels[0], **params) if params else rels[0]
            self.scalar_groups.append((idx, proto))
        if self.pair_idx_u:
            self.pair_idx_u = np.asarray(self.pair_idx_u)
            self.pair_idx_v = np.asarray(self.pair_idx_v)
            w = np.asarray(self.pair_weight, dtype=float)
            self.pair_shrink = w / (1.0 + 2.0 * w)
        else:
            self.pair_idx_u = None

    @staticmethod
    def _key(rel):
        numeric = tuple(
            name for name in getattr(rel, "__dataclass_fields__", {})
            if not isinstance(getattr(rel, name), str)
        )
        side = getattr(rel, "side", "")
        return (type(rel).__name__, numeric, side)

    def prox(self, d: np.ndarray) -> np.ndarray:
        out = np.empty_like(d)
        for idx, rel in self.scalar_groups:
            out[..., idx] = rel.prox(d[..., idx])
        if self.pair_idx_u is not None:
            du = d[..., self.pair_idx_u]
            dv = d[..., self.pair_idx_v]
            diff = self.pair_shrink * (du - dv)
            out[..., self.pair_idx_u] = du - diff
            out[..., self.pair_idx_v] = dv + diff
        for sl, rel in self.epigraphs:
            if d.ndim == 1:
                out[sl] = rel.prox(d[sl])
            else:
                for i in range(d.shape[0]):
                    out[i, sl] = rel.prox(d[i, sl])
        return out


class System:
    """An interconnection, its elements, the pair transform, and averaging."""

    def __init__(
        self,
        interconnection: AffineInterconnection,
        elements,
        transform: PairTransform | None = None,
        gamma: float = 0.5,
    ):
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
        self.interconnection = interconnection
        self.elements = tuple(elements)
        self.transform = transform if transform is not None else canonical_transform()
        self.gamma = gamma
        self._validate_blocks()
        self._bank = _Bank(self.elements)

    def _validate_blocks(self):
        n = self.interconnection.dim
        covered = np.zeros(n, dtype=bool)
        for el in self.elements:
            if el.block.stop > n:
                raise ValueError(
                    f"element block [{el.block.offset}, {el.block.stop}) exceeds "
                    f"system dimension {n}"
                )
            seg = covered[el.block.slice]
            if seg.any():
                raise ValueError(
                    f"element blocks overlap at coordinates near {el.block.offset}"
                )
            covered[el.block.slice] = True
        if not covered.all():
            missing = int(np.nonzero(~covered)[0][0])
            raise ValueError(f"coordinate {missing} is not owned by any element")

    @property
    def dim(self) -> int:
        return self.interconnection.dim

    def prox(self, d: np.ndarray) -> np.ndarray:
        """Blockwise prox of every element at d."""
        return self._bank.prox(np.asarray(d, dtype=float))

    def apply_elements(self, d: np.ndarray) -> np.ndarray:
        """Blockwise reflected map, c = m(d) = 2 prox(d) - d."""
        d = np.asarray(d, dtype=float)
        return 2.0 * self._bank.prox(d) - d

    def candidate(self, d: np.ndarray) -> np.ndarray:
        """One full (gamma-averaged) synchronous update from d."""
        full = self.interconnection.apply(self.apply_elements(d))
        return (1.0 - self.gamma) * d + self.gamma * full

    def primal_mix(self, d: np.ndarray) -> np.ndarray:
        """The decision-variable content (c + d)/2 at the current state."""
        return (self.apply_elements(d) + d) / 2.0


@dataclass
class DelayBank:
    """Sample-and-hold registers between the elements and interconnection.

    In asynchronous mode each coordinate register adopts its input with
    probability p per iteration (independent Bernoulli triggers); with
    per_block=True a single trigger is drawn per element block instead.
    """

    mode: str = "synchronous"
    p: float = 1.0
    seed: int = 0
    per_block: bool = False

    def __post_init__(self):
        if self.mode not in ("synchronous", "asynchronous"):
            raise ValueError(f"unknown delay mode {self.mode!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"sampling probability must lie in (0, 1], got {self.p}")
        self._rng = None

    @property
    def effective_p(self) -> float:
        return self.p if self.mode == "asynchronous" else 1.0

    def reset(self):
        self._rng = np.random.default_rng(self.seed)

    def triggers(self, system: System) -> np.ndarray:
        if self.mode == "synchronous":
            return np.ones(system.dim, dtype=bool)
        if self._rng is None:
            self.reset()
        if self.per_block:
            mask = np.empty(system.dim, dtype=bool)
            for el in system.elements:
                mask[el.block.slice] = self._rng.random() < self.p
            return mask
        return self._rng.random(system.dim) < self.p


@dataclass
class SystemState:
    d: np.ndarray
    iter: int = 0
    normalized_iter: float = 0.0


@dataclass
class RunTrace:
    """Per-iteration instrumentation of a run."""

    iters: np.ndarray
    normalized_iters: np.ndarray
    self_residual: np.ndarray
    oracle_residual: np.ndarray | None = None
    objective: np.ndarray | None = None
    states: np.ndarray | None = None

    def __len__(self):
        return len(self.iters)


@dataclass
class RunResult:
    converged: bool
    state: SystemState
    a: np.ndarray
    b: np.ndarray
    z: np.ndarray
    trace: RunTrace


def readout(system: System, d: np.ndarray):
    """Recover the primal/dual pairs (a_i, b_i) from the iteration state."""
    c = system.apply_elements(d)
    return system.transform.invert_many(c, d)


def fixed_point_residual(system: System, d: np.ndarray) -> float:
    """Distance of one full synchronous update from d (gamma-independent)."""
    full = system.interconnection.apply(system.apply_elements(d))
    return float(np.linalg.norm(full - d))


def _norm(x: np.ndarray) -> float:
    """||x||, rescaled by max|x| where the plain norm overflows on finite x."""
    n = float(np.linalg.norm(x))
    if math.isfinite(n) or not np.isfinite(x).all():
        return n
    scale = float(np.abs(x).max())
    return scale * float(np.linalg.norm(x / scale))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """`_norm` of every row of a stack of replica states."""
    n = np.linalg.norm(X, axis=1)
    return n if np.isfinite(n).all() else np.array([_norm(x) for x in X])


def _iterate(step, d, tol, max_iters, resids, draw=None, observe=None):
    """The one iteration loop: the registers drawn by `draw()` (all of
    them without a draw) adopt step(d), until ||step(d) - d|| <= tol (1 +
    ||d||) holds for the state d (N,) or for every row of a stack (R, N).

    Residuals are appended to `resids`; `observe(d)` sees each iterate.
    `tol=None` makes exactly `max_iters` updates.  Returns (d, updates,
    converged); raises `DivergedError` once the state is non-finite.
    """
    if d.ndim == 1:
        norm, isfinite, every = _norm, math.isfinite, bool
    else:
        norm, isfinite, every = _row_norms, np.isfinite, np.ndarray.all
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters):
            cand = step(d)
            resid = norm(cand - d)
            resids.append(resid)
            if observe is not None:
                observe(d)
            if not every(isfinite(resid)) and not np.isfinite(d).all():
                raise DivergedError(f"non-finite state at iteration {k}")
            if tol is not None and every(resid <= tol * (1.0 + norm(d))):
                return d, k, True
            d = cand if draw is None else np.where(draw(), cand, d)
    return d, max_iters, False


def run(
    system: System,
    bank: DelayBank | None = None,
    tol: float = 1e-8,
    max_iters: int = 100000,
    d0: np.ndarray | None = None,
    d_star: np.ndarray | None = None,
    objective=None,
    record_states: bool = False,
) -> RunResult:
    """Iterate until the self-residual ||d_next - d|| <= tol (1 + ||d||).

    `d_star` adds oracle residuals ||d - d_star||^2 to the trace;
    `objective` (a callable on the primal mix (c + d)/2) adds objective
    values.  Runs are deterministic functions of (system, bank.seed).
    Raises `DivergedError`, carrying the trace so far, when the state
    becomes non-finite.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if bank is None:
        bank = DelayBank()
    bank.reset()
    p_eff = bank.effective_p
    d = np.zeros(system.dim) if d0 is None else np.array(d0, dtype=float)
    draw = None if bank.mode == "synchronous" else partial(bank.triggers, system)
    resids, oresids, objs, states = [], [], [], []

    def observe(d):
        if d_star is not None:
            oresids.append(float(np.sum((d - d_star) ** 2)))
        if objective is not None:
            objs.append(float(objective(system.primal_mix(d))))
        if record_states:
            states.append(d.copy())

    def trace():
        iters = np.arange(len(resids))
        return RunTrace(
            iters, iters * p_eff, np.asarray(resids, dtype=float),
            oracle_residual=np.asarray(oresids, dtype=float) if oresids else None,
            objective=np.asarray(objs, dtype=float) if objs else None,
            states=np.asarray(states) if states else None,
        )

    try:
        d, k, converged = _iterate(system.candidate, d, tol, max_iters, resids, draw, observe)
    except DivergedError as exc:
        exc.trace = trace()
        raise
    a, b = readout(system, d)
    return RunResult(converged=converged, state=SystemState(d, k, k * p_eff), a=a, b=b,
                     z=system.primal_mix(d), trace=trace())


def run_ensemble(
    system: System,
    seeds,
    p: float = 0.1,
    tol: float = 1e-6,
    max_iters: int = 100000,
    d0: np.ndarray | None = None,
):
    """Run many asynchronous replicas in lockstep, one per seed.

    Replica i draws its triggers from `DelayBank("asynchronous", p,
    seeds[i])`, so row i reproduces that bank's `run` exactly.  Returns
    (residuals, final_states): residuals has one row per seed and one
    column per iteration (gamma-scaled full-update residual).  Raises
    `DivergedError` when any replica's state becomes non-finite.
    """
    banks = [DelayBank("asynchronous", p, s) for s in seeds]
    d0 = np.zeros(system.dim) if d0 is None else np.asarray(d0, float)
    resids = []
    D, _, _ = _iterate(system.candidate, np.tile(d0, (len(banks), 1)), tol, max_iters, resids,
                       lambda: np.stack([bank.triggers(system) for bank in banks]))
    return np.asarray(resids).T, D


def run_error_system(
    system: System,
    d_star: np.ndarray,
    e0: np.ndarray,
    iters: int,
    bank: DelayBank | None = None,
) -> np.ndarray:
    """Iterate the error system obtained by shifting all inputs by the
    fixed-point operating values; returns the error trajectory e[n].

    The error map is e -> (1 - gamma) e + gamma G (m(d_star + e) - m(d_star)).
    With matched triggers, d_star + e[n] reproduces the original system's
    trajectory started from d_star + e0 (superposition of the fixed-point
    and error systems).  Raises `DivergedError` when the error becomes
    non-finite.
    """
    if bank is None:
        bank = DelayBank()
    bank.reset()
    draw = None if bank.mode == "synchronous" else partial(bank.triggers, system)
    d_star = np.asarray(d_star, dtype=float)
    c_star = system.apply_elements(d_star)

    def step(e):
        c_err = system.apply_elements(d_star + e) - c_star
        return (1.0 - system.gamma) * e + system.gamma * (c_err @ system.interconnection.G.T)

    out = []
    e, _, _ = _iterate(step, np.array(e0, dtype=float), None, iters, [], draw, out.append)
    out.append(e)
    return np.asarray(out)
