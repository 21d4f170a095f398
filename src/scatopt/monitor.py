"""Convergence instrumentation: residuals against a reference fixed point,
empirical norm-reduction certificates, and trace statistics.

The certificates sample perturbations e about a fixed point d* and check
the two stages of the contraction argument separately: the interconnection
preserves the norm of the element output deviation exactly (neutrality),
and dissipative elements do not amplify the input deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import _deviations
from .engine import DelayBank, RunTrace, System, fixed_point_residual, run, run_error_system

__all__ = [
    "oracle_residual",
    "reference_fixed_point",
    "Eq1Report",
    "certify_eq1",
    "NormReductionCertificate",
    "certify_eq2",
    "TraceStats",
    "trace_stats",
    "superposition_gap",
]


def oracle_residual(d: np.ndarray, d_star: np.ndarray) -> float:
    """Squared distance ||d - d_star||_2^2 of the state from the reference."""
    d = np.asarray(d, dtype=float)
    d_star = np.asarray(d_star, dtype=float)
    if d.shape != d_star.shape:
        raise ValueError(f"shape mismatch: {d.shape} vs {d_star.shape}")
    return float(np.sum((d - d_star) ** 2))


def reference_fixed_point(
    system: System, tol: float = 1e-12, max_iters: int = 2000000
) -> np.ndarray:
    """A reference d* from a long synchronous run at tight tolerance."""
    result = run(system, DelayBank(), tol=tol, max_iters=max_iters)
    if not result.converged:
        raise RuntimeError(
            f"reference run did not reach tolerance {tol} in {max_iters} iterations "
            f"(final residual {result.trace.self_residual[-1]:.3e})"
        )
    return result.state.d


def _check_fixed_point(system: System, d_star: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """d_star as a float array, once it is checked to be a fixed point."""
    resid = fixed_point_residual(system, d_star)
    if resid > tol:
        raise ValueError(f"d_star is not a fixed point (residual {resid:.3e} > {tol:g})")
    return np.asarray(d_star, dtype=float)


@dataclass(frozen=True)
class Eq1Report:
    samples: int
    max_deviation: float
    passed: bool


def certify_eq1(
    system: System,
    d_star: np.ndarray,
    n: int = 1000,
    radius: float = 1.0,
    seed: int = 0,
    tol: float = 1e-10,
) -> Eq1Report:
    """Check that the interconnection is neutral on element-output deviations:
    ||G (m(d) - m(d*))|| equals ||m(d) - m(d*)|| for sampled d about d*.
    """
    d_star = _check_fixed_point(system, d_star)
    ic = system.interconnection
    worst = 0.0
    for _, c_dev in _deviations(system.apply_elements, d_star, n, radius, seed):
        lhs = np.linalg.norm(ic.linear(c_dev))
        rhs = np.linalg.norm(c_dev)
        worst = max(worst, float(abs(lhs - rhs) / (1.0 + rhs)))
    return Eq1Report(samples=n, max_deviation=worst, passed=worst <= tol)


@dataclass(frozen=True)
class NormReductionCertificate:
    samples: int
    max_ratio: float
    strict_reductions: int
    passed: bool


def certify_eq2(
    system: System,
    d_star: np.ndarray,
    n: int = 1000,
    radius: float = 1.0,
    seed: int = 0,
    slack: float = 1e-12,
) -> NormReductionCertificate:
    """Check that the element bank does not amplify deviations about d*:
    ||m(d* + e) - m(d*)|| <= ||e|| for sampled e != 0.

    `strict_reductions` counts samples where the inequality is strict; a
    bank that is merely nonexpansive (flat prox regions) passes the weak
    check while reporting fewer strict reductions than samples.
    """
    d_star = _check_fixed_point(system, d_star)
    worst = 0.0
    strict = 0
    for e, c_dev in _deviations(system.apply_elements, d_star, n, radius, seed):
        ratio = np.linalg.norm(c_dev) / np.linalg.norm(e)
        worst = max(worst, float(ratio))
        if ratio < 1.0 - slack:
            strict += 1
    return NormReductionCertificate(
        samples=n, max_ratio=worst, strict_reductions=strict, passed=worst <= 1.0 + slack
    )


@dataclass(frozen=True)
class TraceStats:
    monotone: bool
    iters_to_tol: dict
    final_residual: float


def trace_stats(trace: RunTrace, slack: float = 1e-12) -> TraceStats:
    """Summarize a run trace: residual monotonicity and first-passage
    iteration counts at thresholds 1e-3, 1e-6, 1e-9.

    Uses the oracle residual when recorded, the self-residual otherwise.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    series = (
        trace.oracle_residual if trace.oracle_residual is not None else trace.self_residual
    )
    monotone = bool(np.all(np.diff(series) <= slack))
    iters_to = {}
    for thr in (1e-3, 1e-6, 1e-9):
        hit = np.nonzero(series <= thr)[0]
        iters_to[thr] = int(trace.iters[hit[0]]) if hit.size else None
    return TraceStats(
        monotone=monotone, iters_to_tol=iters_to, final_residual=float(series[-1])
    )


def superposition_gap(
    system: System,
    d_star: np.ndarray,
    e0: np.ndarray,
    iters: int,
    bank: DelayBank | None = None,
) -> float:
    """Max deviation between the original trajectory started at d* + e0 and
    the superposition d* + e[n] of the fixed point with the error system.
    """
    d_star = np.asarray(d_star, dtype=float)
    if bank is None:
        bank = DelayBank()
    res = run(
        system,
        DelayBank(bank.mode, bank.p, bank.seed, bank.per_block),
        tol=1e-300,
        max_iters=iters + 1,
        d0=d_star + e0,
        record_states=True,
    )
    traj = res.trace.states
    err = run_error_system(
        system, d_star, e0, iters=len(traj) - 1,
        bank=DelayBank(bank.mode, bank.p, bank.seed, bank.per_block),
    )
    return float(np.abs((traj - d_star) - err[: len(traj)]).max())
