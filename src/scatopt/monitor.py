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

from .elements import _deviation_ratios, _deviations
from .engine import (DelayBank, RunTrace, System, fixed_point_residual, oracle_residual, run,
                     run_error_system)

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


def reference_fixed_point(
    system: System, tol: float = 1e-12, max_iters: int = 2000000
) -> np.ndarray:
    """A reference d* from a long synchronous run at tight tolerance."""
    result = run(system, DelayBank(), tol=tol, max_iters=max_iters)
    if not result.converged:
        resid = result.trace.self_residual
        last = f"final residual {resid[-1]:.3e}" if len(resid) else "no iterations made"
        raise RuntimeError(
            f"reference run did not reach tolerance {tol} in {max_iters} iterations ({last})"
        )
    return result.state.d


_FIXED_POINT_TOL = 1e-8  # the largest residual of a d_star that the certificates accept


def _check_fixed_point(system: System, d_star: np.ndarray) -> np.ndarray:
    """d_star as a float array, once it is checked to be a fixed point to
    _FIXED_POINT_TOL (a NaN residual is not one)."""
    resid = fixed_point_residual(system, d_star)
    if not resid <= _FIXED_POINT_TOL:
        raise ValueError(
            f"d_star is not a fixed point (residual {resid:.3e} > {_FIXED_POINT_TOL:g})"
        )
    return np.asarray(d_star, dtype=float)


_EQ1_TOL = 1e-10  # the largest relative norm change that passes as neutral


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
) -> Eq1Report:
    """Check that the interconnection is neutral on element-output deviations:
    ||G (m(d) - m(d*))|| equals ||m(d) - m(d*)|| for sampled d about d*.

    `max_deviation` is the largest | ||G c'|| - ||c'|| | / (1 + ||c'||);
    the report passes when it is at most _EQ1_TOL.
    """
    d_star = _check_fixed_point(system, d_star)
    _, c_dev = _deviations(system.apply_elements, d_star, n, radius, seed)
    lhs = np.linalg.norm(system.interconnection.linear(c_dev), axis=1)
    rhs = np.linalg.norm(c_dev, axis=1)
    worst = float((np.abs(lhs - rhs) / (1.0 + rhs)).max())
    return Eq1Report(samples=n, max_deviation=worst, passed=worst <= _EQ1_TOL)


_EQ2_SLACK = 1e-12  # rounding allowance on the ratio, both for passing and for strictness


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
) -> NormReductionCertificate:
    """Check that the element bank does not amplify deviations about d*:
    ||m(d* + e) - m(d*)|| <= ||e|| for sampled e != 0.

    The report passes when `max_ratio` is at most 1 + _EQ2_SLACK.
    `strict_reductions` counts samples whose ratio is below 1 - _EQ2_SLACK;
    a bank that is merely nonexpansive (flat prox regions) passes the weak
    check while reporting fewer strict reductions than samples.
    """
    d_star = _check_fixed_point(system, d_star)
    ratios = _deviation_ratios(system.apply_elements, d_star, n, radius, seed)
    worst = float(ratios.max())
    strict = int(np.count_nonzero(ratios < 1.0 - _EQ2_SLACK))
    return NormReductionCertificate(
        samples=n, max_ratio=worst, strict_reductions=strict, passed=worst <= 1.0 + _EQ2_SLACK
    )


@dataclass(frozen=True)
class TraceStats:
    monotone: bool
    iters_to_tol: dict
    final_residual: float


_TRACE_SLACK = 1e-12  # the largest residual rise that still counts as monotone


def trace_stats(trace: RunTrace) -> TraceStats:
    """Summarize a run trace: residual monotonicity (no rise above
    _TRACE_SLACK) and first-passage iteration counts at thresholds 1e-3,
    1e-6, 1e-9.

    Uses the oracle residual when recorded, the self-residual otherwise.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    series = (
        trace.oracle_residual if trace.oracle_residual is not None else trace.self_residual
    )
    monotone = bool(np.all(np.diff(series) <= _TRACE_SLACK))
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
    # iters + 1 updates record the states d[0] .. d[iters]
    traj = run(system, bank, tol=None, max_iters=iters + 1, d0=d_star + e0,
               record_states=True).trace.states
    err = run_error_system(system, d_star, e0, iters=iters, bank=bank)
    return float(np.abs((traj - d_star) - err).max())
