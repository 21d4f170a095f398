"""Execution of interconnected systems to a fixed point.

A `System` couples a bank of constitutive relations to an orthonormal
interconnection.  Iteration replaces d with an averaged update
    d <- (1 - gamma) d + gamma (G m(d) + s - G g - g), g a linear cost,
either synchronously or through per-coordinate Bernoulli sample-and-hold
registers, until the self-residual vanishes.  At a fixed point the
primal/dual decision pairs are read out by inverting the pair transform.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .elements import Element, group_elements
from .interconnect import AffineInterconnection
from .pairs import PairTransform

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
    "oracle_residual",
]


class DivergedError(RuntimeError):
    """Raised when the iteration produces non-finite values."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class System:
    """An interconnection, its elements, averaging and a linear cost g (N,)
    or None.  The loop applies `loop_map`, c -> G c + s - G g - g, which runs
    the elements as if they carried the cost g . z of the primal mix z;
    `interconnection` stays the reflection across the constraint set;
    `alpha` is the cost scale (`scaled`), 1 as built."""

    def __init__(
        self,
        interconnection: AffineInterconnection,
        elements,
        gamma: float = 0.5,
        linear_cost=None,
    ):
        self.gamma, self.alpha = gamma, 1.0
        self.interconnection = ic = interconnection
        self.dim = n = ic.dim
        self.linear_cost, self.loop_map = None, ic
        if linear_cost is not None:
            g = _vector(self, "linear_cost", linear_cost)
            if not np.isfinite(g).all():
                raise ValueError("linear_cost contains non-finite entries")
            self._set_linear_cost(g)
        self.elements = tuple(elements)
        self._bank = group_elements(self.elements)
        # the blocks must partition 0..N-1: count each coordinate's owners
        # from the bank's index sets, where np.add.at (unlike `+=`) adds up
        # a coordinate that one gathered group lists twice
        owners = np.zeros(n, dtype=int)
        for idx, _, _ in self._bank:
            top = idx.stop if isinstance(idx, slice) else int(idx.max()) + 1
            if top > n:
                raise ValueError(f"element coordinate {top - 1} exceeds system dimension {n}")
            np.add.at(owners, idx, 1)
        if (owners > 1).any():
            raise ValueError(f"element blocks overlap at coordinate {int(np.argmax(owners > 1))}")
        if not owners.all():
            raise ValueError(f"coordinate {int(np.argmin(owners))} is not owned by any element")

    def _set_linear_cost(self, g: np.ndarray) -> None:
        ic = self.interconnection
        self.linear_cost, self.loop_map = g, replace(ic, s=ic.s - ic.linear(g) - g)

    def scaled(self, alpha: float) -> "System":
        """This system with every cost term times alpha (each relation's
        `scale_field`, once per distinct relation, and the linear cost):
        the same primal solution, G and bank groups, and the dual half of d
        times alpha.  ValueError unless alpha is positive and finite."""
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        # each distinct relation object once, by id: array-valued ones do not hash
        rels = {id(el.relation): el.relation for el in self.elements}
        rels.update((id(rel), rel) for _, _, rel in self._bank)
        for key, rel in list(rels.items()):
            if rel.scale_field is not None:
                rels[key] = replace(rel, **{rel.scale_field: alpha * getattr(rel, rel.scale_field)})
        out = copy.copy(self)
        out.alpha = alpha * self.alpha
        out.elements = tuple(Element(rels[id(el.relation)], el.block) for el in self.elements)
        out._bank = [(idx, shape, rels[id(rel)]) for idx, shape, rel in self._bank]
        if self.linear_cost is not None:
            out._set_linear_cost(alpha * self.linear_cost)
        return out

    @property
    def gamma(self) -> float:
        return self._gamma

    @gamma.setter
    def gamma(self, gamma: float):
        _check_gamma(gamma)
        self._gamma = gamma

    def apply_elements(self, d: np.ndarray) -> np.ndarray:
        """Blockwise reflected map, c = m(d) = 2 prox(d) - d, of a state
        (N,) or of every row of a stack (R, N)."""
        d = np.asarray(d, dtype=float)
        out, lead = np.empty_like(d), d.shape[:-1]
        for idx, shape, rel in self._bank:
            at = (..., idx) if lead else idx  # d[idx] is 3x faster than d[..., idx]
            x = d[at]
            out[at] = rel.prox(x) if len(shape) == 1 else rel.prox(
                x.reshape(lead + shape)).reshape(x.shape)
        out += out  # doubles exactly, as *= 2.0 does, minus the Python float's cost
        out -= d
        return out

    def cost(self, z: np.ndarray) -> float:
        """Total cost of the elements at the primal mix z, in the unscaled problem's units."""
        z = np.asarray(z, dtype=float)
        total = float(sum(rel.cost(z[idx].reshape(shape)) for idx, shape, rel in self._bank))
        return total / self.alpha

    def primal_mix(self, d: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
        """The decision-variable content (c + d)/2 at the current state;
        pass c = m(d) when it is already computed."""
        if c is None:
            c = self.apply_elements(d)
        return (c + d) / 2.0


@dataclass
class DelayBank:
    """Sample-and-hold registers between the elements and interconnection.

    In asynchronous mode each coordinate register adopts its input with probability p per
    iteration, the masks `rng.random(N) < p` call by call: `masks(n)` draws the next 64 as one
    (64, n) array, reading p then, and `triggers` serves them a row at a time.  A bank serves one
    dimension between resets, and `triggers` or `masks`, not both.  A sync bank draws nothing.
    """

    mode: str = "synchronous"
    p: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("synchronous", "asynchronous"):
            raise ValueError(f"unknown delay mode {self.mode!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        self.reset()

    @property
    def effective_p(self) -> float:
        return self.p if self.mode == "asynchronous" else 1.0

    def reset(self):
        self._rng = np.random.default_rng(self.seed) if self.mode == "asynchronous" else None
        self._rows = iter(())

    def masks(self, n: int) -> np.ndarray:
        """The masks of the next 64 calls at dimension n, one row per call: a (64, n) array."""
        if self._rng is None:
            raise ValueError("a synchronous delay bank draws no masks; use mode='asynchronous'")
        return self._rng.random((64, n)) < self.p

    def triggers(self, system: System) -> np.ndarray:
        if self.mode == "synchronous":
            return np.ones(system.dim, dtype=bool)
        if (mask := next(self._rows, None)) is None:
            self._rows = iter(self.masks(system.dim))
            mask = next(self._rows)
        return mask


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
    """Recover the primal/dual pairs (a_i, b_i) from the iteration state;
    every relation reflects as 2 prox - d, which is the canonical pairing;
    b is divided by alpha, so it is the unscaled problem's dual."""
    a, b = PairTransform().invert_many(system.apply_elements(d), d)
    return a, b / system.alpha


def fixed_point_residual(system: System, d: np.ndarray) -> float:
    """Distance of one full synchronous update from d (gamma-independent)."""
    full = system.loop_map.apply(system.apply_elements(d))
    return float(np.linalg.norm(full - d))


def oracle_residual(d: np.ndarray, d_star: np.ndarray) -> float:
    """Squared distance ||d - d_star||_2^2 of the state from the reference."""
    d = np.asarray(d, dtype=float)
    d_star = np.asarray(d_star, dtype=float)
    if d.shape != d_star.shape:
        raise ValueError(f"shape mismatch: {d.shape} vs {d_star.shape}")
    return float(np.sum((d - d_star) ** 2))


def _check_gamma(gamma: float) -> None:
    """ValueError unless the averaging parameter gamma lies in (0, 1]."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")


def _check_limits(tol: float | None, max_iters: int) -> None:
    """ValueError unless tol is None or positive and finite, and max_iters nonnegative."""
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")


def _vector(system: System, name: str, v) -> np.ndarray:
    """A float copy of the state-shaped argument `name`; ValueError unless (N,)."""
    v = np.array(v, dtype=float)
    if v.shape != (system.dim,):
        raise ValueError(f"{name} must have shape ({system.dim},), got {v.shape}")
    return v


def _norm(x: np.ndarray) -> float:
    """||x||, rescaled by max|x| where the plain norm overflows on finite x."""
    n = math.sqrt(x.dot(x))  # np.linalg.norm's formula for contiguous x, minus its dispatch
    if math.isfinite(n) or not np.isfinite(x).all():
        return n
    scale = float(np.abs(x).max())
    return scale * _norm(x / scale)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """`_norm` of every row of a stack of replica states."""
    n = np.sqrt(np.add.reduce(X * X, axis=1))
    return n if np.isfinite(n).all() else np.array([_norm(x) for x in X])


def _stepper(system: System):
    """step(d, c) = (1 - gamma) d + gamma loop_map(c), c = m(d) unless given, with
    the bank map, `apply` and 0-d gamma, 1 - gamma (`elements._cached_operands`) bound once."""
    bank_map, apply = system.apply_elements, system.loop_map.apply
    gamma, keep = np.array(system.gamma), np.array(1.0 - system.gamma)
    def step(d, c=None):
        full = apply(bank_map(d) if c is None else c)
        full *= gamma
        full += keep * d
        return full
    return step


def _rows_pass(resid: np.ndarray, D: np.ndarray, tol: float) -> bool:
    """resid <= tol (1 + ||d||) for every row d of D, the row of the largest residual tested
    alone first: every row norm is formed only once it passes, the same decision."""
    j = resid.argmax()
    alone = resid[j] <= tol * (1.0 + _row_norms(D[j : j + 1])[0])
    return alone and (resid <= tol * (1.0 + _row_norms(D))).all()


def _iterate(step, d, tol, max_iters, resids, draw=None):
    """The one iteration loop: the registers drawn by `draw()` (all of
    them without a draw) adopt step(d), until ||step(d) - d|| <= tol (1 +
    ||d||) holds for the state d (N,) or for every row of a stack (R, N).

    Residuals are appended to `resids`; `step` is the only hook, and a run
    that records its iterates does so inside it.  A single state adopts in
    place, so `d` must be the loop's own array and `step` must copy what it
    keeps.  `tol=None` makes exactly `max_iters` updates.  Returns (d,
    updates, converged); raises `DivergedError` once the state is non-finite.
    """
    single = d.ndim == 1
    norm, isfinite, every = ((_norm, math.isfinite, bool) if single
                             else (_row_norms, np.isfinite, np.ndarray.all))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters):
            cand = step(d)
            resid = norm(cand - d)
            resids.append(resid)
            if not every(isfinite(resid)) and not np.isfinite(d).all():
                raise DivergedError(f"non-finite state at iteration {k}")
            if tol is not None and (resid <= tol * (1.0 + _norm(d)) if single
                                    else _rows_pass(resid, d, tol)):
                return d, k, True
            if draw is None:
                d = cand
            elif single:
                np.copyto(d, cand, where=draw())
            else:
                d = np.where(draw(), cand, d)  # faster than copyto on the (R, N) stacks
    return d, max_iters, False


def run(
    system: System,
    bank: DelayBank | None = None,
    tol: float | None = 1e-8,
    max_iters: int = 100000,
    d0: np.ndarray | None = None,
    d_star: np.ndarray | None = None,
    objective=None,
    record_states: bool = False,
) -> RunResult:
    """Iterate until the self-residual ||d_next - d|| <= tol (1 + ||d||).

    tol bounds the last step, not the distance to the solution, which can
    be far larger on a slowly contracting system; `tol=None` makes exactly
    `max_iters` updates and reports `converged` false.  `d_star` adds oracle
    residuals ||d - d_star||^2 to the trace; `objective` (a callable on
    the primal mix (c + d)/2) adds objective values.  Runs are
    deterministic functions of (system, bank.seed), given the same numpy
    and BLAS build and the same BLAS thread count (README lists what moves
    between one and two threads).
    Raises `DivergedError`, carrying the trace so far, when the state
    becomes non-finite; ValueError for a tol that is neither None nor
    positive and finite, a negative max_iters, or a d0 or d_star not of
    shape (N,).
    """
    _check_limits(tol, max_iters)
    d = np.zeros(system.dim) if d0 is None else _vector(system, "d0", d0)
    if d_star is not None:
        d_star = _vector(system, "d_star", d_star)
    bank = DelayBank() if bank is None else bank
    bank.reset()
    p_eff = bank.effective_p
    draw = None if bank.mode == "synchronous" else partial(bank.triggers, system)
    resids, oresids, objs, states = [], [], [], []
    bank_map, update = system.apply_elements, _stepper(system)

    def recording_step(d):  # records at d, before the registers adopt
        c = bank_map(d)
        if d_star is not None:
            oresids.append(oracle_residual(d, d_star))
        if objective is not None:
            objs.append(float(objective(system.primal_mix(d, c))))
        if record_states:
            states.append(d.copy())
        return update(d, c)

    def trace():
        iters = np.arange(len(resids))
        return RunTrace(
            iters, iters * p_eff, np.asarray(resids, dtype=float),
            oracle_residual=np.asarray(oresids, dtype=float) if oresids else None,
            objective=np.asarray(objs, dtype=float) if objs else None,
            states=np.asarray(states) if states else None,
        )

    recording = d_star is not None or objective is not None or record_states
    try:
        d, k, converged = _iterate(recording_step if recording else update, d, tol,
                                   max_iters, resids, draw)
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
    tol: float | None = 1e-6,
    max_iters: int = 100000,
    d0: np.ndarray | None = None,
):
    """Run many asynchronous replicas in lockstep, one per seed.

    Replica i draws its triggers from `DelayBank("asynchronous", p,
    seeds[i])`: the same trigger draws as that bank's `run`, and iterates
    that agree with its up to rounding.  Returns
    (residuals, final_states): residuals has one row per seed and one
    column per iteration (gamma-scaled full-update residual).  Raises
    ValueError for no seeds and as `run` does for tol, max_iters and d0,
    `DivergedError` on a non-finite state.
    """
    banks = [DelayBank("asynchronous", p, s) for s in seeds]
    if not banks:
        raise ValueError("need at least one seed")
    _check_limits(tol, max_iters)
    d0 = np.zeros(system.dim) if d0 is None else _vector(system, "d0", d0)

    def stacked():  # 64 iterations' (R, N) masks at a time, row i from bank i's stream
        while True:
            yield from np.stack([b.masks(system.dim) for b in banks], 1)

    resids = []
    D, _, _ = _iterate(_stepper(system), np.tile(d0, (len(banks), 1)), tol, max_iters, resids,
                       stacked().__next__)
    return np.reshape(resids, (-1, len(banks))).T, D


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
    non-finite; ValueError for negative iters or a d_star or e0 not of
    shape (N,).
    """
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    d_star = _vector(system, "d_star", d_star)
    e0 = _vector(system, "e0", e0)
    bank = DelayBank() if bank is None else bank
    bank.reset()
    draw = None if bank.mode == "synchronous" else partial(bank.triggers, system)
    c_star, out = system.apply_elements(d_star), []

    def step(e):
        out.append(e.copy())
        c_err = system.apply_elements(d_star + e) - c_star
        return (1.0 - system.gamma) * e + system.gamma * system.interconnection.linear(c_err)

    e, _, _ = _iterate(step, e0, None, iters, [], draw)
    out.append(e)
    return np.asarray(out)
