"""The numpy oracles against scipy's solvers and optimality conditions.

scatopt itself needs numpy alone; these tests import scipy.optimize to
check the interior-point LP against HiGHS and the coordinate-descent Huber
oracle against L-BFGS-B.  The exact-l1 oracle is checked by its
subgradient conditions, and a scan of its source keeps `scatopt.oracles`
from importing the engine code that the oracles check.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from scatopt import oracles
from scatopt.problems import FirSpec, LassoInstance, SvmInstance, design_grid

SPECS = {
    "default": FirSpec(),
    "taps_9": FirSpec(num_taps=9),
    "taps_25": FirSpec(num_taps=25),
    "grid_256": FirSpec(grid_size=256),
    "stopband_weight_10": FirSpec(stopband_weight=10.0),
    "edges_0.3_0.5": FirSpec(passband_edge=0.3 * np.pi, stopband_edge=0.5 * np.pi),
    "one_tap": FirSpec(num_taps=1, grid_size=4),
}


def highs_minimax(spec):
    """(h, delta) of the minimax LP solved by HiGHS."""
    omega, desired, weights, _ = design_grid(spec)
    K = spec.half_taps
    WC = weights[:, None] * np.cos(np.outer(omega, np.arange(K)))
    wd = weights * desired
    ones = np.ones((omega.size, 1))
    A_ub = np.vstack([np.hstack([WC, -ones]), np.hstack([-WC, -ones])])
    cost = np.zeros(K + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=A_ub, b_ub=np.concatenate([wd, -wd]),
                  bounds=[(None, None)] * K + [(0, None)], method="highs")
    assert res.success, res.message
    return res.x[:K], res.x[-1]


class TestMinimaxLp:
    @pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
    def test_matches_highs(self, spec, monkeypatch):
        h, delta = highs_minimax(spec)
        # the corrector steps reach tolerance in 8 to 15 iterations on these
        # specs; the predictor alone takes 20 on the default
        monkeypatch.setattr(oracles, "_LP_MAX_ITERS", 16)
        sol = oracles.oracle_minimax_lp(spec)
        assert sol.value == pytest.approx(delta, rel=1e-9, abs=0.0)
        np.testing.assert_allclose(sol.x, h, rtol=0, atol=1e-8)

    def test_vertex_kept_only_when_optimal(self):
        # min x s.t. x >= 0.2, x >= 0, x <= 1: the optimum is the vertex x = 0.2
        A, b, c = np.array([[-1.0], [-1.0], [1.0]]), np.array([-0.2, 0.0, 1.0]), np.array([1.0])
        interior = np.array([0.3])
        vertex = oracles._lp_vertex(A, b, c, interior, np.array([1.0, 0.1, 0.1]))
        np.testing.assert_allclose(vertex, [0.2], rtol=0, atol=1e-15)
        # x = 0 has a nonnegative multiplier but breaks x >= 0.2
        assert oracles._lp_vertex(A, b, c, interior, np.array([0.1, 1.0, 0.1])) is interior
        # x = 1 is feasible but its multiplier is negative
        assert oracles._lp_vertex(A, b, c, interior, np.array([0.1, 0.1, 1.0])) is interior

    def test_singular_vertex_keeps_interior_point(self):
        # one tap: the largest multipliers sit on repeated grid rows
        A = np.array([[1.0, -1.0], [1.0, -1.0], [-1.0, -1.0]])
        b, c, interior = np.array([1.0, 1.0, -1.0]), np.array([0.0, 1.0]), np.array([1.0, 1e-12])
        assert oracles._lp_vertex(A, b, c, interior, np.array([1.0, 1.0, 0.5])) is interior

    def test_small_budget_raises(self, monkeypatch):
        monkeypatch.setattr(oracles, "_LP_MAX_ITERS", 2)
        with pytest.raises(oracles.OracleFailure, match="did not reach tolerance"):
            oracles.oracle_minimax_lp(FirSpec())


def huber_cost(inst):
    """The smooth total cost and its gradient, written apart from the oracle."""
    A, y = inst.A, inst.y
    lam, rho, eps = inst.l1_weight, inst.residual_weight, inst.huber_width

    def value(x):
        r = A @ x - y
        ax = np.abs(x)
        return float(np.sum(np.where(ax <= eps, lam * ax**2 / (2 * eps), lam * (ax - eps / 2)))
                     + 0.5 * rho * r @ r)

    def grad(x):
        return (np.where(np.abs(x) <= eps, lam * x / eps, lam * np.sign(x))
                + rho * A.T @ (A @ x - y))

    return value, grad


def assert_matches_lbfgsb(inst, sol):
    """sol certifies its gradient norm and agrees with L-BFGS-B to 1e-6."""
    value, grad = huber_cost(inst)
    ref = minimize(value, np.zeros(inst.A.shape[1]), jac=grad, method="L-BFGS-B",
                   options={"maxiter": 100000, "ftol": 1e-18, "gtol": 1e-12})
    assert sol.extras["grad_norm"] <= 1e-6
    assert np.linalg.norm(grad(sol.x)) == pytest.approx(sol.extras["grad_norm"], rel=1e-9)
    np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-6)


class TestLassoHuber:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lbfgsb(self, seed):
        inst = LassoInstance.random(seed=seed)
        sol = oracles.oracle_lasso_huber(inst)
        assert_matches_lbfgsb(inst, sol)
        assert sol.extras["grad_norm"] <= 1e-10

    def test_certificate_raises_above_tol(self):
        # steps of 1e-12 leave a gradient norm near 1e-11, far above this tol
        with pytest.raises(oracles.OracleFailure, match="stalled at gradient norm"):
            oracles.oracle_lasso_huber(LassoInstance.random(seed=0), tol=1e-300)


class TestLasso:
    @pytest.mark.parametrize("seed", range(5))
    def test_subgradient_conditions(self, seed):
        # 0 is in lam sign(x_j) + g_j, with g = rho A^T (A x - y):
        # g_j = -lam sign(x_j) off zero and |g_j| <= lam at zero
        inst = LassoInstance.random(seed=seed)
        lam = inst.l1_weight
        x = oracles.oracle_lasso(inst).x
        g = inst.residual_weight * inst.A.T @ (inst.A @ x - inst.y)
        zero = x == 0.0
        assert zero.any() and not zero.all()
        np.testing.assert_allclose(g[~zero], -lam * np.sign(x[~zero]), rtol=0, atol=1e-9)
        assert np.all(np.abs(g[zero]) <= lam + 1e-9)

    def test_zero_residual_weight_keeps_zero(self):
        # rho = 0 leaves lam ||x||_1 alone, minimized at x = 0; every c = 0
        sol = oracles.oracle_lasso(LassoInstance.random(seed=0, residual_weight=0.0))
        assert not sol.x.any() and sol.value == 0.0

    def test_nan_step_raises(self):
        # the instance checks its weights when built, not when set later;
        # a NaN threshold makes every step NaN, which `max` would pass over
        inst = LassoInstance.random(seed=0)
        inst.l1_weight = float("nan")
        with pytest.raises(oracles.OracleFailure, match="non-finite step"):
            oracles.oracle_lasso(inst)


@pytest.mark.parametrize("max_iters", [0, 10])
@pytest.mark.parametrize("oracle, make", [
    (oracles.oracle_lasso_huber, LassoInstance.random),
    (oracles.oracle_lasso, LassoInstance.random),
    (oracles.oracle_svm_qp, SvmInstance.separable_blobs),
], ids=["lasso_huber", "lasso", "svm"])
def test_small_budget_raises(oracle, make, max_iters):
    with pytest.raises(oracles.OracleFailure, match="stalled with step"):
        oracle(make(seed=0), max_iters=max_iters)


def test_oracles_import_no_engine_code():
    # `scatopt compare` is an independent check only while the oracles
    # share no code with the engine, its elements and its certificates
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert "problems" in names
    assert not names & {"engine", "elements", "interconnect", "monitor"}
