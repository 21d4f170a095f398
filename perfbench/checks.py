"""Correctness checks computed apart from scatopt.

Every check takes instance data and a read-out answer as plain numpy
arrays and recomputes what the answer must satisfy with numpy and scipy
alone: optimality conditions, a linear program or a centralized QP that
this file solves itself, or a constraint residual.  None of them imports
scatopt or compares against stored output.  `selftest.py` shows that each
check rejects a deliberately perturbed answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linprog, minimize


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    limit: float

    def __str__(self):
        mark = "ok" if self.ok else "FAILED"
        return f"{self.name}: {self.value:.3e} (limit {self.limit:.3e}) {mark}"


def _within(name, value, limit) -> Check:
    value = float(value)
    return Check(name, bool(np.isfinite(value) and value <= limit), value, float(limit))


# --- lasso -----------------------------------------------------------------


def lasso_huber_kkt(A, y, l1_weight, residual_weight, huber_width, x, limit=1e-6) -> Check:
    """Gradient of the smooth cost h(x) + (rho/2)||A x - y||^2 vanishes.

    h is the Huber-smoothed 1-norm: weight x / width inside the notch,
    weight sign(x) outside.  Reported relative to the gradient's scale at
    x = 0.
    """
    inside = np.abs(x) <= huber_width
    grad_h = np.where(inside, l1_weight * x / huber_width, l1_weight * np.sign(x))
    grad = grad_h + residual_weight * A.T @ (A @ x - y)
    scale = 1.0 + residual_weight * np.abs(A.T @ y).max()
    return _within("lasso_huber gradient", np.abs(grad).max() / scale, limit)


def lasso_l1_kkt(A, y, l1_weight, residual_weight, x, limit=1e-6) -> Check:
    """Subgradient conditions of l1 ||x||_1 + (rho/2)||A x - y||^2.

    With g = rho A^T (y - A x): g_j = l1 sign(x_j) where x_j != 0, and
    |g_j| <= l1 where x_j = 0.  Reported relative to 1 + l1.
    """
    g = residual_weight * A.T @ (y - A @ x)
    on = x != 0.0
    dev_on = np.abs(g[on] - l1_weight * np.sign(x[on]))
    dev_off = np.maximum(np.abs(g[~on]) - l1_weight, 0.0)
    worst = max(dev_on.max(initial=0.0), dev_off.max(initial=0.0))
    return _within("lasso_l1 subgradient", worst / (1.0 + l1_weight), limit)


# --- minimax FIR -------------------------------------------------------------


def fir_grid(num_taps, passband_edge, stopband_edge, grid_size,
             passband_weight, stopband_weight):
    """Design grid of the lowpass spec: both bands split in proportion to
    their widths, unit desired response in the passband."""
    span = passband_edge + (np.pi - stopband_edge)
    n_pass = max(2, int(round(grid_size * passband_edge / span)))
    n_stop = max(2, grid_size - n_pass)
    omega = np.concatenate([np.linspace(0.0, passband_edge, n_pass),
                            np.linspace(stopband_edge, np.pi, n_stop)])
    desired = np.r_[np.ones(n_pass), np.zeros(n_stop)]
    weights = np.r_[np.full(n_pass, passband_weight), np.full(n_stop, stopband_weight)]
    cosines = np.cos(np.outer(omega, np.arange((num_taps + 1) // 2)))
    return cosines, desired, weights


def fir_lp_optimum(cosines, desired, weights) -> float:
    """Minimax weighted error by linear programming: min t subject to
    -t <= w (C h - desired) <= t on the grid."""
    ng, k = cosines.shape
    wc = weights[:, None] * cosines
    wd = weights * desired
    A_ub = np.block([[wc, -np.ones((ng, 1))], [-wc, -np.ones((ng, 1))]])
    b_ub = np.r_[wd, -wd]
    cost = np.r_[np.zeros(k), 1.0]
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.x[-1])


def fir_minimax(cosines, desired, weights, lp_optimum, coeffs, slack, label) -> Check:
    """The design's weighted grid error is within `slack` of the LP optimum
    (and, as a sanity bound, not below it)."""
    err = np.abs(weights * (cosines @ coeffs - desired)).max()
    ratio = err / lp_optimum
    check = _within(f"{label} error / LP optimum", ratio, 1.0 + slack)
    if ratio < 1.0 - 1e-6:
        return Check(check.name, False, check.value, check.limit)
    return check


# --- decentralized SVM ---------------------------------------------------------


def svm_centralized(features, labels, hinge_weight):
    """Soft-margin SVM, min (1/2)||w||^2 + C sum xi subject to
    y_i (w.x_i + b) >= 1 - xi_i, xi >= 0, solved as a QP by SLSQP."""
    n, d = features.shape
    yx = labels[:, None] * features

    def cost(v):
        w, xi = v[:d], v[d + 1:]
        return 0.5 * w @ w + hinge_weight * xi.sum()

    def grad(v):
        return np.r_[v[:d], 0.0, np.full(n, hinge_weight)]

    def margins(v):
        return yx @ v[:d] + labels * v[d] - 1.0 + v[d + 1:]

    jac = np.hstack([yx, labels[:, None], np.eye(n)])
    res = minimize(
        cost, np.zeros(d + 1 + n), jac=grad, method="SLSQP",
        constraints=[{"type": "ineq", "fun": margins, "jac": lambda v: jac}],
        bounds=[(None, None)] * (d + 1) + [(0.0, None)] * n,
        options={"maxiter": 1000, "ftol": 1e-12},
    )
    if not res.success:
        raise RuntimeError(f"reference SVM failed: {res.message}")
    return res.x[:d], float(res.x[d])


def svm_decentralized(features, labels, adjacency, w_ref, b_ref, agent_w, agent_b,
                      agent_margin, band=0.05, gap_limit=0.15, margin_limit=1e-6):
    """Three checks on the agents' read-out copies (w_i, b_i, margin_i).

    The agent-averaged classifier labels every training vector as the
    centralized SVM does, except vectors within `band` of the centralized
    decision boundary: the copies are tied by a finite quadratic coupling,
    not exact consensus, so the averaged boundary sits slightly apart from
    the exact one.  Neighbouring copies agree within `gap_limit`, and every
    margin coordinate equals y_i (w_i.x_i + b_i).
    """
    w_bar, b_bar = agent_w.mean(axis=0), agent_b.mean()
    ref_value = features @ w_ref + b_ref
    clear = np.abs(ref_value) >= band
    disagree = np.mean(np.sign(features @ w_bar + b_bar)[clear] != np.sign(ref_value[clear]))
    i, j = np.nonzero(np.triu(adjacency))
    copies = np.column_stack([agent_w, agent_b])
    gap = np.linalg.norm(copies[i] - copies[j], axis=1).max()
    margin_err = np.abs(agent_margin - labels * (np.sum(agent_w * features, axis=1) + agent_b))
    scale = 1.0 + np.abs(agent_margin).max()
    return [
        _within("svm disagreement with centralized SVM", disagree, 0.0),
        _within("svm consensus gap", gap, gap_limit),
        _within("svm margin constraint", margin_err.max() / scale, margin_limit),
    ]


# --- sparse equalizer ------------------------------------------------------------


def equalizer_constraint(channel, taps, output, mirror, limit=1e-6) -> Check:
    """Both output copies equal the channel convolved with the taps."""
    want = np.convolve(channel, taps)
    dev = max(np.abs(output - want).max(), np.abs(mirror - want).max())
    return _within("equalizer output = channel * taps", dev / (1.0 + np.abs(want).max()), limit)


# --- ensembles ----------------------------------------------------------------------


def replicas_match_sync(replica_primals, sync_primal, limit, label) -> Check:
    """Every replica's primal read-out matches the synchronous solution.

    Fixed points do not depend on the trigger pattern, so every replica
    must end at the solution the synchronous run finds.  The comparison is
    on the primal read-out (c + d)/2, which is unique for the ensemble
    problems; the state d need not be (the minimax epigraph's multipliers
    are not), and async replicas do settle at other states with the same
    primal part.  The check reads only the final states, never a reported
    residual or convergence flag.
    """
    dev = np.abs(np.asarray(replica_primals) - sync_primal).max()
    return _within(f"{label} replicas vs sync solution", dev / (1.0 + np.abs(sync_primal).max()),
                   limit)


# --- command line ----------------------------------------------------------------

# Thresholds of the acceptance suite (criteria 04-08) on compare.json.
COMPARE_LIMITS = {
    "lasso_huber": {"max_coefficient_error": 1e-4},
    "lasso_augmented": {"max_coefficient_error": 1e-3},
    "minimax_fir": {"error_ratio": 1.01},
    "minimax_fir_split": {"error_ratio": 1.02},
    "svm_consensus": {},
}


def cli_outputs(command, problem, returncode, out_dir: Path) -> list[Check]:
    """Exit code 0, parseable JSON, and the command's own pass criteria:
    `converged` for run and compare, `passed` for verify, and the
    acceptance thresholds on compare.json metrics."""
    checks = [_within(f"{command} {problem} exit code", abs(returncode), 0)]
    name = {"run": "summary.json", "verify": "verify.json", "compare": "compare.json"}[command]
    try:
        report = json.loads((out_dir / name).read_text())
    except (OSError, json.JSONDecodeError):
        return checks + [Check(f"{command} {problem} {name} parses", False, 1.0, 0.0)]
    if command == "verify":
        checks.append(_within(f"verify {problem} passed", float(report["passed"] is not True), 0))
        return checks
    checks.append(_within(f"{command} {problem} converged",
                          float(report["converged"] is not True), 0))
    if command == "compare":
        metrics = report["metrics"]
        for key, limit in COMPARE_LIMITS[problem].items():
            checks.append(_within(f"compare {problem} {key}", metrics[key], limit))
        if problem == "lasso_augmented":
            checks.append(_within("compare lasso_augmented support mismatch",
                                  float(metrics["support_match"] is not True), 0))
        if problem == "svm_consensus":
            checks.append(_within("compare svm_consensus disagreement",
                                  1.0 - metrics["classification_agreement"], 0.0))
    return checks


def identical_bytes(first: dict, second: dict, label) -> Check:
    """Two runs of one seeded command wrote the same files, byte for byte."""
    same = first.keys() == second.keys() and all(first[k] == second[k] for k in first)
    return Check(f"{label} byte-identical rerun", bool(same and first), float(not same), 0.0)
