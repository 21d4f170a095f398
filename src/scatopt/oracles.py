"""Independent reference solvers used to check the fixed-point systems.

These deliberately share no machinery with the engine: one cyclic
coordinate descent, with its own closed-form one-dimensional steps, for
both lasso variants, a primal-dual interior point linear program for the
discretized minimax design, and the box dual for the support vector
machine.  All are plain numpy.
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


def _coordinate_descent(A, y, rho, step, tol, max_iters):
    """Cyclic exact coordinate minimization of (rho/2) ||A x - y||^2 plus
    a separable convex penalty, from x = 0 (convergent: Tseng, JOTA 2001).

    `step(corr, c)` minimizes (c/2) t^2 - corr t + phi(t), with
    c = rho ||a_j||^2 and corr = rho a_j^T r, r the residual without
    coordinate j; coordinates with c = 0 stay at zero.  Returns x after the
    first sweep whose largest step is at most `tol`; OracleFailure if none
    does or a sweep leaves the residual non-finite (`max` skips a NaN step).
    """
    curv = rho * np.einsum("ij,ij->j", A, A)
    x = np.zeros(A.shape[1])
    r = y - A @ x
    delta = np.inf
    for _ in range(max_iters):
        delta = 0.0
        for j in np.flatnonzero(curv):
            old = x[j]
            r += A[:, j] * old
            x[j] = step(rho * A[:, j] @ r, curv[j])
            r -= A[:, j] * x[j]
            delta = max(delta, abs(x[j] - old))
        if not np.isfinite(r).all():
            raise OracleFailure("coordinate descent took a non-finite step")
        if delta <= tol:
            return x
    raise OracleFailure(f"coordinate descent stalled with step {delta:.3e}")


def oracle_lasso_huber(
    inst: LassoInstance, tol: float = 1e-6, max_iters: int = 100000
) -> OracleSolution:
    """Coordinate descent on the smooth total cost to steps of 1e-12;
    `max_iters` counts sweeps.  Each step is exact: the Huber term is
    lam t^2 / (2 eps) inside the notch |t| <= eps, lam (|t| - eps/2)
    outside.  The oracle fails unless its gradient norm is at most `tol`.
    """
    A, y = inst.A, inst.y
    lam, rho, eps = inst.l1_weight, inst.residual_weight, inst.huber_width

    def step(corr, c):
        if abs(corr) <= lam + c * eps:
            return corr / (c + lam / eps)
        return np.sign(corr) * (abs(corr) - lam) / c

    x = _coordinate_descent(A, y, rho, step, 1e-12, max_iters)
    r, inside = A @ x - y, np.abs(x) <= eps
    grad = np.where(inside, lam * x / eps, lam * np.sign(x)) + rho * A.T @ r
    with np.errstate(over="ignore"):  # a huge instance's norm overflows: it fails below
        gnorm = float(np.linalg.norm(grad))
    if not gnorm <= tol:
        raise OracleFailure(f"huber-lasso oracle stalled at gradient norm {gnorm:.3e}")
    huber = np.where(inside, lam * x**2 / (2 * eps), lam * (np.abs(x) - eps / 2))
    value = float(huber.sum()) + 0.5 * rho * float(r @ r)
    return OracleSolution(x=x, value=value, extras={"grad_norm": gnorm})


def oracle_lasso(inst: LassoInstance, tol: float = 1e-12, max_iters: int = 200000) -> OracleSolution:
    """Coordinate descent on lam ||x||_1 + (rho/2) ||A x - y||^2, each
    step a soft threshold; `max_iters` counts sweeps."""
    A, y = inst.A, inst.y
    lam, rho = inst.l1_weight, inst.residual_weight

    def step(corr, c):
        return np.sign(corr) * max(abs(corr) - lam, 0.0) / c

    x = _coordinate_descent(A, y, rho, step, tol, max_iters)
    value = lam * float(np.abs(x).sum()) + 0.5 * rho * float((A @ x - y) @ (A @ x - y))
    return OracleSolution(x=x, value=value, extras={})


_LP_TOL = 1e-10  # relative primal, dual and gap residuals of the minimax LP
_LP_MAX_ITERS = 100  # interior point steps; 8 to 15 suffice on the specs tested


def oracle_minimax_lp(spec: FirSpec) -> OracleSolution:
    """Linear program for the discretized weighted minimax design.

    Variables (h, delta); minimize delta subject to
    |W (C h - desired)| <= delta on the grid, by a primal-dual interior
    point method, then polished to a vertex where one checks out.
    """
    omega, desired, weights, _ = design_grid(spec)
    K = spec.half_taps
    WC = weights[:, None] * np.cos(np.outer(omega, np.arange(K)))
    wd = weights * desired
    ones = np.ones((omega.size, 1))
    A = np.vstack([np.hstack([WC, -ones]), np.hstack([-WC, -ones])])
    b = np.concatenate([wd, -wd])
    cost = np.zeros(K + 1)
    cost[-1] = 1.0
    x = _lp_vertex(A, b, cost, *_lp_interior_point(A, b, cost))
    return OracleSolution(x=x[:K], value=float(x[-1]), extras={"omega": omega})


def _lp_interior_point(A, b, c):
    """Mehrotra's predictor-corrector (SIAM J. Optim., 1992) on
    min c.x s.t. A x <= b, with slacks s = b - A x and multipliers z.

    The last variable must enter every row with coefficient -1, as the
    minimax bound delta does: setting it above max |b| is then a strictly
    feasible start, s > 0.  Each step forms the normal matrix
    A^T diag(z/s) A once and solves it for the predictor and the
    corrector.  Returns (x, z) once the relative primal, dual and gap
    residuals are all at most _LP_TOL.
    """
    m = b.size
    x = np.zeros(c.size)
    x[-1] = np.abs(b).max() + 1.0  # the bound variable: a strictly feasible start
    s = b - A @ x
    z = np.ones(m)
    b_scale, c_scale = 1.0 + np.linalg.norm(b), 1.0 + np.linalg.norm(c)

    def step_to_boundary(v, dv):
        neg = dv < 0
        return min(1.0, float((-v[neg] / dv[neg]).min())) if neg.any() else 1.0

    for _ in range(_LP_MAX_ITERS):
        r_d = A.T @ z + c
        r_p = A @ x + s - b
        mu = float(s @ z) / m
        primal_obj = float(c @ x)
        if (np.linalg.norm(r_p) <= _LP_TOL * b_scale and np.linalg.norm(r_d) <= _LP_TOL * c_scale
                and abs(primal_obj + float(b @ z)) <= _LP_TOL * (1.0 + abs(primal_obj))):
            return x, z
        ratio = z / s
        normal = A.T @ (ratio[:, None] * A)

        def direction(r_c):
            try:
                dx = np.linalg.solve(normal, -r_d - A.T @ (ratio * r_p - r_c / s))
            except np.linalg.LinAlgError as exc:
                raise OracleFailure(f"minimax LP normal equations failed: {exc}") from exc
            ds = -r_p - A @ dx
            return dx, ds, -(r_c + z * ds) / s

        dx, ds, dz = direction(s * z)
        a_p, a_d = step_to_boundary(s, ds), step_to_boundary(z, dz)
        mu_aff = float((s + a_p * ds) @ (z + a_d * dz)) / m
        sigma = (mu_aff / mu) ** 3
        dx, ds, dz = direction(s * z + ds * dz - sigma * mu)
        a_p = 0.99 * step_to_boundary(s, ds)
        a_d = 0.99 * step_to_boundary(z, dz)
        x, s, z = x + a_p * dx, s + a_p * ds, z + a_d * dz
    raise OracleFailure(
        f"minimax LP interior point did not reach tolerance {_LP_TOL:g}"
        f" in {_LP_MAX_ITERS} iterations"
    )


def _lp_vertex(A, b, c, x, z):
    """The vertex on the len(x) constraints with the largest multipliers,
    when it is primal feasible with nonnegative multipliers (then it is
    optimal); else the interior point x."""
    active = np.argsort(z)[-x.size:]
    try:
        vertex = np.linalg.solve(A[active], b[active])
        z_active = np.linalg.solve(A[active].T, -c)
    except np.linalg.LinAlgError:
        return x  # degenerate, e.g. repeated constraint rows
    feasible = (A @ vertex - b).max() <= _LP_TOL * (1.0 + np.abs(b).max())
    return vertex if feasible and z_active.min() >= -_LP_TOL else x


def oracle_svm_qp(
    inst: SvmInstance, tol: float = 1e-10, max_iters: int = 200000
) -> OracleSolution:
    """Projected gradient on the box-constrained dual of the centralized
    max-margin problem; the offset comes from a breakpoint search."""
    X, y, Cw = inst.features, inst.labels, inst.hinge_weight
    n = X.shape[0]
    Q = (y[:, None] * X) @ (y[:, None] * X).T
    step = 1.0 / (np.linalg.norm(Q, 2) + 1e-12)
    alpha, move = np.zeros(n), np.inf
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
