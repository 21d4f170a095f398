"""Independent reference solvers used to check the fixed-point systems.

These deliberately share no machinery with the engine: smooth first-order
descent for the Huber variant, coordinate descent for the exact-l1
variant, a linear program for the discretized minimax design, and the box
dual for the support vector machine.  Only the first and the third load
scipy.optimize, on call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import FirSpec, LassoInstance, SvmInstance, design_grid

__all__ = [
    "OracleSolution",
    "oracle_lasso_huber",
    "oracle_lasso",
    "oracle_minimax_lp",
    "oracle_svm_qp",
]


class OracleFailure(RuntimeError):
    """An oracle did not converge; a test-infrastructure error."""


@dataclass(frozen=True)
class OracleSolution:
    x: np.ndarray
    value: float
    extras: dict


def _huber_grad(x, weight, width):
    return np.where(np.abs(x) <= width, weight * x / width, weight * np.sign(x))


def _huber_val(x, weight, width):
    ax = np.abs(x)
    return float(
        np.sum(np.where(ax <= width, weight * ax**2 / (2 * width), weight * (ax - width / 2)))
    )


def oracle_lasso_huber(
    inst: LassoInstance, tol: float = 1e-6, max_iters: int = 100000
) -> OracleSolution:
    """Quasi-Newton descent with line search on the smooth total cost,
    finished by Newton steps where it stops above `tol`.

    Plain gradient descent stalls on the badly conditioned curvature of a
    narrow Huber notch, so this leans on scipy's limited-memory BFGS.  The
    cost is piecewise quadratic, with Hessian rho A^T A plus lam/eps on the
    coordinates inside the notch |x| <= eps; a Newton step on the current
    pieces must lower the gradient norm, else the oracle fails.
    """
    from scipy.optimize import minimize

    A, y = inst.A, inst.y
    lam, rho, eps = inst.l1_weight, inst.residual_weight, inst.huber_width

    def value(x):
        r = A @ x - y
        return _huber_val(x, lam, eps) + 0.5 * rho * float(r @ r)

    def grad(x):
        return _huber_grad(x, lam, eps) + rho * A.T @ (A @ x - y)

    res = minimize(
        value,
        np.zeros(A.shape[1]),
        jac=grad,
        method="L-BFGS-B",
        options={"maxiter": max_iters, "ftol": 1e-18, "gtol": 1e-12},
    )
    x = res.x
    gnorm = float(np.linalg.norm(grad(x)))
    for _ in range(20):  # each step solves the current pieces exactly; a few suffice
        if gnorm <= tol:
            break
        hessian = rho * (A.T @ A) + np.diag(np.where(np.abs(x) <= eps, lam / eps, 0.0))
        try:
            x_new = x - np.linalg.solve(hessian, grad(x))
        except np.linalg.LinAlgError as exc:
            raise OracleFailure(f"huber-lasso Newton step failed: {exc}") from exc
        gnorm, last = float(np.linalg.norm(grad(x_new))), gnorm
        if not gnorm < last:
            raise OracleFailure(f"huber-lasso Newton step raised the gradient norm to {gnorm:.3e}")
        x = x_new
    if gnorm > tol:
        raise OracleFailure(f"huber-lasso oracle stalled at gradient norm {gnorm:.3e}")
    return OracleSolution(x=x, value=value(x), extras={"grad_norm": gnorm})


def oracle_lasso(inst: LassoInstance, tol: float = 1e-12, max_iters: int = 200000) -> OracleSolution:
    """Cyclic coordinate descent on lam ||x||_1 + (rho/2) ||A x - y||^2."""
    A, y = inst.A, inst.y
    lam, rho = inst.l1_weight, inst.residual_weight
    n = A.shape[1]
    col_sq = np.einsum("ij,ij->j", A, A)
    x = np.zeros(n)
    r = y - A @ x
    for _ in range(max_iters):
        delta = 0.0
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            old = x[j]
            r += A[:, j] * old
            corr = rho * A[:, j] @ r
            x[j] = np.sign(corr) * max(abs(corr) - lam, 0.0) / (rho * col_sq[j])
            r -= A[:, j] * x[j]
            delta = max(delta, abs(x[j] - old))
        if delta <= tol:
            break
    else:
        raise OracleFailure(f"coordinate descent stalled with step {delta:.3e}")
    value = lam * float(np.abs(x).sum()) + 0.5 * rho * float((A @ x - y) @ (A @ x - y))
    return OracleSolution(x=x, value=value, extras={})


def oracle_minimax_lp(spec: FirSpec) -> OracleSolution:
    """Linear program for the discretized weighted minimax design.

    Variables (h, delta); minimize delta subject to
    |W (C h - desired)| <= delta on the grid.
    """
    from scipy.optimize import linprog

    omega, desired, weights, _ = design_grid(spec)
    K = spec.half_taps
    C = np.cos(np.outer(omega, np.arange(K)))
    WC = weights[:, None] * C
    wd = weights * desired
    ng = omega.size
    ones = np.ones((ng, 1))
    A_ub = np.vstack([np.hstack([WC, -ones]), np.hstack([-WC, -ones])])
    b_ub = np.concatenate([wd, -wd])
    cost = np.zeros(K + 1)
    cost[-1] = 1.0
    res = linprog(
        cost, A_ub=A_ub, b_ub=b_ub,
        bounds=[(None, None)] * K + [(0, None)], method="highs",
    )
    if not res.success:
        raise OracleFailure(f"minimax LP failed: {res.message}")
    h = res.x[:K]
    return OracleSolution(x=h, value=float(res.x[-1]), extras={"omega": omega})


def oracle_svm_qp(
    inst: SvmInstance, tol: float = 1e-10, max_iters: int = 200000
) -> OracleSolution:
    """Projected gradient on the box-constrained dual of the centralized
    max-margin problem; the offset comes from a breakpoint search."""
    X, y, Cw = inst.features, inst.labels, inst.hinge_weight
    n = X.shape[0]
    Q = (y[:, None] * X) @ (y[:, None] * X).T
    step = 1.0 / (np.linalg.norm(Q, 2) + 1e-12)
    alpha = np.zeros(n)
    for _ in range(max_iters):
        g = Q @ alpha - 1.0
        alpha_new = np.clip(alpha - step * g, 0.0, Cw)
        move = np.linalg.norm(alpha_new - alpha)
        alpha = alpha_new
        if move <= tol:
            break
    else:
        raise OracleFailure(f"dual projected gradient stalled with step {move:.3e}")
    w = (alpha * y) @ X

    def primal_hinge(b):
        return Cw * float(np.sum(np.maximum(0.0, 1.0 - y * (X @ w + b))))

    breaks = y - X @ w  # hinge breakpoints of the piecewise-linear bias cost
    b = min(breaks, key=primal_hinge)
    value = 0.5 * float(w @ w) + primal_hinge(b)
    return OracleSolution(x=w, value=value, extras={"bias": float(b), "alpha": alpha})
