from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scatopt import oracles, problems
from scatopt.elements import (
    CappedL1,
    Element,
    Hinge,
    HuberL1,
    LinfEpigraph,
    OneSidedPenalty,
    PairCoupling,
    Quadratic,
    SoftThreshold,
    group_elements,
)
from scatopt.engine import DelayBank, System, run
from scatopt.interconnect import (
    AffineInterconnection,
    BlockReflection,
    FactoredReflection,
    check_orthonormal,
    from_constraints,
)
from scatopt.pairs import Block
from scatopt.problems import (
    EqualizerInstance,
    FirSpec,
    LassoInstance,
    SvmInstance,
    cosine_coefficients_to_taps,
    make_regular_graph,
)

from test_elements import PROPERTY, weights
from test_oracles import assert_matches_lbfgsb

# a lasso of N = 600 coordinates, above interconnect.DENSE_MAX_DIM
LARGE_LASSO = {"m": 100, "n": 500, "sparsity": 5}
# more constraints than coefficients: the parametrization form above the cut
TALL_LASSO = {"m": 500, "n": 100, "sparsity": 5}


def solve(built, tol=1e-10, max_iters=500000):
    result = run(built.system, DelayBank(), tol=tol, max_iters=max_iters)
    assert result.converged, f"{built.name} did not converge"
    return result


def mixed_bank_system():
    """Interleaved elements of every kind whose parameters differ within a
    group, so that every parameter is stacked, per coordinate and per block
    (no shipped problem stacks a pair weight)."""
    relations = [
        Quadratic(2.0, 0.5), PairCoupling(1.0), LinfEpigraph(), Hinge(0.5),
        Quadratic(0.0), PairCoupling(3.0), LinfEpigraph(), Hinge(2.0),
        HuberL1(1.0, 0.1), SoftThreshold(0.3), HuberL1(2.0, 0.5), SoftThreshold(1.5),
        OneSidedPenalty(1.0, np.array([0.0, 1.0]), "upper"), LinfEpigraph(),
        OneSidedPenalty(2.0, -1.0, "lower"), OneSidedPenalty(4.0, 0.5, "upper"),
        CappedL1(1.0, 0.5), CappedL1(0.5, np.array([0.2, 0.4])),
    ]
    lengths = [3, 2, 3, 1, 2, 2, 3, 2, 2, 3, 1, 2, 2, 4, 3, 1, 1, 2]
    offsets = np.cumsum([0] + lengths[:-1])
    elements = [Element(r, Block(int(o), k)) for r, o, k in zip(relations, offsets, lengths)]
    n = sum(lengths)
    return System(AffineInterconnection(np.eye(n), np.zeros(n)), elements)


def constraint_point(built, rng):
    """A random point on the builder's constraint set, written from the
    instance data."""
    inst, lay, ex = built.instance, built.layout, built.extras
    z = np.zeros(built.system.dim)
    if built.name in ("lasso_huber", "lasso_augmented"):
        x = rng.normal(size=inst.A.shape[1])
        z[lay["coefficients"]] = x
        z[lay["residual"]] = inst.A @ x - inst.y
    elif built.name == "minimax_fir":
        h = rng.normal(size=inst.half_taps)
        z[lay["coefficients"]] = h
        z[lay["errors"]] = ex["weights"] * (ex["cosines"] @ h - ex["desired"])
        z[lay["bound"]] = rng.normal()
    elif built.name == "minimax_fir_split":
        n_pass = ex["n_pass"]
        C = np.cos(np.outer(ex["omega"], np.arange(inst.half_taps)))
        werr = lambda h, band: ex["weights"][band] * (C[band] @ h - ex["desired"][band])
        hp, hs = rng.normal(size=(2, inst.half_taps))
        bp, bs = rng.normal(size=2)
        z[lay["coefficients_pass"]], z[lay["coefficients_stop"]] = hp, hs
        z[lay["errors_pass"]] = werr(hp, slice(0, n_pass))
        z[lay["errors_stop"]] = werr(hs, slice(n_pass, None))
        z[lay["bound_pass"]], z[lay["bound_stop"]] = bp, bs
        # coupling pairs (pass copy, stop copy) of each coefficient, then the bounds
        z[lay["bound_stop"] + 1 :] = np.column_stack([np.r_[hp, bp], np.r_[hs, bs]]).ravel()
    elif built.name == "svm_consensus":
        w = rng.normal(size=lay["weights"].shape)
        b = rng.normal(size=inst.n_agents)
        z[lay["weights"]], z[lay["biases"]] = w, b
        z[lay["margins"]] = inst.labels * (np.sum(w * inst.features, axis=1) + b)
        wb = np.column_stack([w, b])
        # per edge, the pairs (agent i copy, agent j copy) of each of w and b
        z[lay["margins"].max() + 1 :] = np.concatenate(
            [np.column_stack([wb[i], wb[j]]).ravel() for i, j in ex["edges"]]
        )
    elif built.name == "sparse_equalizer":
        taps = rng.normal(size=inst.num_taps)
        z[lay["taps"]] = taps
        z[lay["output"]] = z[lay["output_mirror"]] = np.convolve(inst.channel, taps)
    else:
        raise AssertionError(f"no constraint point for {built.name}")
    return z


def _lasso_params(m, n, sparsity):
    return {"m": m, "n": n, "sparsity": min(sparsity, n)}


def _fir_params(half_taps, grid_size, passband_weight, stopband_weight):
    return {"num_taps": 2 * half_taps - 1, "grid_size": grid_size,
            "passband_weight": passband_weight, "stopband_weight": stopband_weight}


def _svm_params(n_agents, half_degree):
    return {"n_agents": n_agents + 2 * half_degree, "degree": 2 * half_degree}


_lasso = st.builds(_lasso_params, st.integers(1, 40), st.integers(1, 60), st.integers(0, 5))
_fir = st.builds(_fir_params, st.integers(1, 16), st.integers(2, 200), weights, weights)
# the instance parameters drawn for each builder, beside a drawn seed
INSTANCE_PARAMS = {
    "lasso_huber": _lasso,
    "lasso_augmented": _lasso,
    "minimax_fir": _fir,
    "minimax_fir_split": st.builds(dict, _fir, coupling_weight=st.floats(0.0, 1000.0)),
    "svm_consensus": st.builds(_svm_params, st.integers(1, 40), st.integers(1, 3)),
    "sparse_equalizer": st.fixed_dictionaries({"length": st.integers(1, 40),
                                               "num_taps": st.integers(1, 24)}),
}
# draws that land in the factored form (N > DENSE_MAX_DIM) and the block form
FORM_EXAMPLES = {"lasso_augmented": LARGE_LASSO, "svm_consensus": {"n_agents": 40}}


class TestBuilderInvariants:
    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_reflection_involution_fixes_constraint_set(self, name):
        @settings(PROPERTY, max_examples=25)
        @given(st.integers(0, 2**32 - 1), INSTANCE_PARAMS[name])
        def check(seed, params):
            built = problems.build(name, problems.default_instance(name, seed, params), params)
            ic = built.system.interconnection
            G = ic.G
            np.testing.assert_allclose(G, G.T, atol=1e-10)
            np.testing.assert_allclose(G @ G, np.eye(ic.dim), atol=1e-10)
            np.testing.assert_allclose(G @ ic.s, -ic.s, atol=1e-10)
            rng = np.random.default_rng(seed)
            z = constraint_point(built, rng)
            np.testing.assert_allclose(ic.apply(z), z, rtol=0, atol=1e-10)
            c = rng.normal(size=(3, ic.dim))
            np.testing.assert_allclose(ic.apply(c), c @ G.T + ic.s, rtol=0, atol=1e-12)

        if name in FORM_EXAMPLES:
            check = example(0, FORM_EXAMPLES[name])(check)
        check()

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: problems.build_lasso_huber(
                LassoInstance(A=[[1.0, np.nan], [0.0, 1.0]], y=[1.0, 2.0])),
             "A and y must be finite"),
            (lambda: problems.build_lasso_huber(
                LassoInstance(A=np.eye(2), y=[1.0, np.inf])),
             "A and y must be finite"),
            (lambda: problems.build_svm_decentralized(SvmInstance(
                features=[[1.0, 0.0], [np.nan, 1.0], [0.0, -1.0]], labels=[1.0, -1.0, 1.0],
                adjacency=np.ones((3, 3)) - np.eye(3))),
             "features must be finite"),
            (lambda: AffineInterconnection(np.array([[0.0, np.nan], [1.0, 0.0]]), np.zeros(2)),
             "G contains non-finite"),
            (lambda: from_constraints(np.array([[1.0, np.nan]]), [0, 1], [2]),
             "constraint matrix A contains non-finite"),
            (lambda: from_constraints(np.eye(1), [0], [1], offset=[np.inf]),
             "constraint offset contains non-finite"),
        ],
        ids=["lasso_A", "lasso_y", "svm_features", "hand_built_G", "constraints_A",
             "constraints_offset"],
    )
    def test_non_finite_data_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    @pytest.mark.parametrize(
        "name, sparse", [(name, name == "svm_consensus") for name in problems.PROBLEM_NAMES])
    def test_apply_form_follows_density(self, name, sparse):
        # the svm's constraint graph splits into one 16-coordinate component
        # per agent, whose blocks hold 1/30 of G; the other defaults' G is stored
        built = problems.build(name, problems.default_instance(name, seed=0))
        ic = built.system.interconnection
        if sparse:
            assert type(ic) is BlockReflection
            assert [B.shape for B in ic.blocks] == [(30, 16, 16)]
        else:
            assert type(ic) is AffineInterconnection
        c = np.random.default_rng(5).normal(size=(3, ic.dim))
        np.testing.assert_allclose(ic.apply(c), c @ ic.G.T + ic.s, rtol=0, atol=1e-14)

    def test_large_map_keeps_factors(self):
        # above DENSE_MAX_DIM the map keeps A and the inverse Gram matrix
        built = problems.build(
            "lasso_augmented", problems.default_instance("lasso_augmented", seed=0, params=LARGE_LASSO))
        ic = built.system.interconnection
        assert isinstance(ic, FactoredReflection)
        c = np.random.default_rng(5).normal(size=(3, ic.dim))
        np.testing.assert_allclose(ic.apply(c), c @ ic.G.T + ic.s, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "name, params, form",
        [("lasso_augmented", LARGE_LASSO, FactoredReflection),
         ("svm_consensus", {"n_agents": 40}, BlockReflection),
         ("lasso_augmented", TALL_LASSO, FactoredReflection)],
        ids=["lasso_N600", "svm_40_agents", "tall_lasso_N600"],
    )
    def test_factored_run_matches_dense(self, name, params, form):
        # above the cut the factored map, and at any size the block map,
        # take the dense map's iterations
        built = problems.build(name, problems.default_instance(name, seed=0, params=params))
        ic = built.system.interconnection
        assert type(ic) is form
        dense = System(AffineInterconnection(ic.G, ic.s), built.system.elements,
                       gamma=built.system.gamma)
        got = run(built.system, DelayBank(), tol=1e-6)
        ref = run(dense, DelayBank(), tol=1e-6)
        assert got.converged and ref.converged
        assert got.state.iter == ref.state.iter
        np.testing.assert_allclose(got.state.d, ref.state.d, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES + ("mixed",))
    def test_bank_matches_each_element(self, name):
        # the grouped bank computes every element's own reflected map and cost
        if name == "mixed":
            system = mixed_bank_system()
        else:
            system = problems.build(name, problems.default_instance(name, seed=0)).system
        rng = np.random.default_rng(6)
        for D in (rng.normal(scale=2.0, size=system.dim),
                  rng.normal(scale=2.0, size=(3, system.dim))):
            got = system.apply_elements(D)
            for el in system.elements:
                sel = el.block.slice
                assert np.array_equal(got[..., sel], el.reflect(D[..., sel])), el
        # a stack in any memory layout gives the C-ordered stack's bits
        wide = np.zeros((3, 2 * system.dim))
        wide[:, ::2] = D
        for other in (np.asfortranarray(D), wide[:, ::2]):
            assert np.array_equal(system.apply_elements(other), got)
        z = system.primal_mix(D[0])  # the prox, so inside every indicator's set
        # the elements carry alpha times the cost; `cost` reports it unscaled
        want = sum(el.relation.cost(z[el.block.slice]) for el in system.elements) / system.alpha
        assert system.cost(z) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "name, params", [(name, {}) for name in problems.PROBLEM_NAMES]
        + [("svm_consensus", {"n_agents": 100})],
        ids=list(problems.PROBLEM_NAMES) + ["svm_100_agents"],
    )
    def test_bank_matches_one_relation_copy_per_block(self, name, params):
        # builders share one relation object among the blocks it governs;
        # the bank is the one a fresh copy per block would give
        inst = problems.default_instance(name, seed=0, params=params)
        elements = problems.build(name, inst).system.elements
        copies = [Element(replace(el.relation), el.block) for el in elements]
        assert len({id(el.relation) for el in copies}) == len(copies)
        for (idx, shape, rel), (ref_idx, ref_shape, ref_rel) in zip(
                group_elements(elements), group_elements(copies), strict=True):
            if isinstance(ref_idx, slice):
                assert idx == ref_idx
            else:
                assert np.array_equal(idx, ref_idx)
            assert shape == ref_shape and type(rel) is type(ref_rel)
            for key, value in vars(ref_rel).items():
                assert np.array_equal(vars(rel)[key], value), (name, key)

    def test_builders_share_relation_objects(self):
        def relations(name):
            built = problems.build(name, problems.default_instance(name, seed=0))
            return [el.relation for el in built.system.elements]

        svm = relations("svm_consensus")
        assert len(svm) == 270 and len({id(rel) for rel in svm}) == 4
        pairs = [rel for rel in relations("minimax_fir_split") if isinstance(rel, PairCoupling)]
        assert len(pairs) == 9 and len({id(rel) for rel in pairs}) == 1

    def test_contiguous_groups_are_views(self):
        # groups whose coordinates form one run are read through a slice
        def bank(name):
            built = problems.build(name, problems.default_instance(name, seed=0))
            return group_elements(built.system.elements)

        assert [isinstance(idx, slice) for idx, _, _ in bank("minimax_fir_split")] == [True] * 3
        assert [(type(rel), shape, isinstance(idx, slice)) for idx, shape, rel in bank(
            "svm_consensus")] == [(Quadratic, (90,), False), (Hinge, (30,), False),
                                  (PairCoupling, (180, 2), True)]

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_orthonormal_and_partitioned(self, name):
        inst = problems.default_instance(name, seed=0)
        built = problems.build(name, inst)
        assert check_orthonormal(built.system.interconnection.G).passed
        # block partition is enforced at System construction; reaching here
        # means it held

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_builder_determinism(self, name):
        inst = problems.default_instance(name, seed=0)
        a = problems.build(name, inst)
        b = problems.build(name, inst)
        np.testing.assert_array_equal(
            a.system.interconnection.G, b.system.interconnection.G
        )
        np.testing.assert_array_equal(
            a.system.interconnection.s, b.system.interconnection.s
        )


class TestLassoHuber:
    def test_identity_zero_data(self):
        inst = LassoInstance(A=np.eye(3), y=np.zeros(3))
        built = problems.build_lasso_huber(inst)
        result = solve(built)
        x = built.primal(result.state.d)[built.layout["coefficients"]]
        np.testing.assert_allclose(x, 0.0, atol=1e-8)

    def test_one_dimensional_against_grid(self):
        inst = LassoInstance(
            A=np.array([[1.0]]), y=np.array([10.0]),
            l1_weight=1.0, residual_weight=10.0, huber_width=0.1,
        )
        built = problems.build_lasso_huber(inst)
        result = solve(built)
        x = float(built.primal(result.state.d)[built.layout["coefficients"]][0])
        grid = np.arange(-2.0, 12.0, 1e-5)
        hub = np.where(
            np.abs(grid) <= 0.1,
            grid**2 / 0.2,
            np.abs(grid) - 0.05,
        )
        costs = hub + 5.0 * (grid - 10.0) ** 2
        assert x == pytest.approx(grid[np.argmin(costs)], abs=1e-4)

    def test_random_instance_matches_smooth_oracle(self, lasso_huber_built):
        result = solve(lasso_huber_built)
        x = lasso_huber_built.primal(result.state.d)[
            lasso_huber_built.layout["coefficients"]
        ]
        ref = oracles.oracle_lasso_huber(lasso_huber_built.instance)
        np.testing.assert_allclose(x, ref.x, atol=1e-4)

    def test_instance_validation(self):
        with pytest.raises(ValueError, match="y length"):
            LassoInstance(A=np.eye(3), y=np.zeros(2))
        with pytest.raises(ValueError, match="nonnegative"):
            LassoInstance(A=np.eye(2), y=np.zeros(2), l1_weight=-1.0)

    @pytest.mark.parametrize("field, value, match", [
        ("l1_weight", np.nan, "l1_weight must be nonnegative and finite, got nan"),
        ("residual_weight", np.inf, "residual_weight must be nonnegative and finite, got inf"),
        ("huber_width", 0.0, "huber_width must be positive and finite, got 0.0"),
        ("huber_width", np.inf, "huber_width must be positive and finite, got inf"),
    ])
    def test_non_finite_weights_rejected(self, field, value, match):
        # with a NaN l1_weight the oracle's max(0, nan) would end its sweep as converged
        with pytest.raises(ValueError, match=match):
            LassoInstance.random(seed=0, **{field: value})


class TestLassoAugmented:
    def test_huge_weight_forces_zero(self):
        inst = LassoInstance.random(seed=1, l1_weight=1e4)
        built = problems.build_lasso_augmented(inst)
        result = solve(built)
        x = built.primal(result.state.d)[built.layout["coefficients"]]
        ref = oracles.oracle_lasso(inst)
        np.testing.assert_allclose(ref.x, 0.0, atol=1e-12)
        np.testing.assert_allclose(x, 0.0, atol=1e-8)

    def test_zero_weight_reduces_to_least_squares(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(8, 4))
        y = rng.normal(size=8)
        inst = LassoInstance(A=A, y=y, l1_weight=0.0)
        built = problems.build_lasso_augmented(inst)
        result = solve(built, tol=1e-12)
        x = built.primal(result.state.d)[built.layout["coefficients"]]
        x_ref = np.linalg.solve(A.T @ A, A.T @ y)
        np.testing.assert_allclose(x, x_ref, atol=1e-8)

    def test_support_and_values_match_coordinate_descent(self, lasso_augmented_built):
        result = solve(lasso_augmented_built)
        x = lasso_augmented_built.primal(result.state.d)[
            lasso_augmented_built.layout["coefficients"]
        ]
        ref = oracles.oracle_lasso(lasso_augmented_built.instance)
        np.testing.assert_allclose(x, ref.x, atol=1e-3)
        np.testing.assert_array_equal(np.abs(x) > 1e-6, np.abs(ref.x) > 1e-6)


class TestMinimaxFir:
    def test_single_tap_exact_optimum(self):
        # one constant coefficient, desired 1 on the passband and 0 on the
        # stopband with unit weights: the best constant is 1/2, ripple 1/2
        spec = FirSpec(num_taps=1, grid_size=4)
        sol = oracles.oracle_minimax_lp(spec)
        assert sol.value == pytest.approx(0.5, abs=1e-9)
        assert sol.x[0] == pytest.approx(0.5, abs=1e-9)
        built = problems.build_minimax_fir(spec)
        result = solve(built)
        z = built.primal(result.state.d)
        assert z[built.layout["coefficients"]][0] == pytest.approx(0.5, abs=1e-6)
        assert z[built.layout["bound"]] == pytest.approx(0.5, abs=1e-6)

    def test_grid_error_close_to_lp(self, fir_built, fir_spec):
        result = solve(fir_built)
        z = fir_built.primal(result.state.d)
        h = z[fir_built.layout["coefficients"]]
        ref = oracles.oracle_minimax_lp(fir_spec)
        C = fir_built.extras["cosines"]
        err = np.abs(
            fir_built.extras["weights"] * (C @ h - fir_built.extras["desired"])
        ).max()
        assert err <= 1.01 * ref.value

    def test_bound_coordinate_matches_error(self, fir_built):
        result = solve(fir_built)
        z = fir_built.primal(result.state.d)
        h = z[fir_built.layout["coefficients"]]
        C = fir_built.extras["cosines"]
        err = np.abs(
            fir_built.extras["weights"] * (C @ h - fir_built.extras["desired"])
        ).max()
        assert z[fir_built.layout["bound"]] == pytest.approx(err, rel=1e-4)

    def test_taps_expansion(self):
        coeffs = np.array([1.0, 0.5, 0.25])
        taps = cosine_coefficients_to_taps(coeffs)
        assert taps.size == 5
        np.testing.assert_allclose(taps, [0.125, 0.25, 1.0, 0.25, 0.125])
        # amplitude at omega: taps act as h0 + sum 2 h_k cos(k w)
        w = 0.7
        amp = coeffs @ np.cos(np.arange(3) * w)
        assert amp == pytest.approx(
            taps[2] + 2 * taps[3] * np.cos(w) + 2 * taps[4] * np.cos(2 * w)
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="odd"):
            FirSpec(num_taps=8)
        with pytest.raises(ValueError, match="edge"):
            FirSpec(passband_edge=2.0, stopband_edge=1.0)

    @pytest.mark.parametrize("value", [-1.0, np.inf, np.nan])
    @pytest.mark.parametrize("band", ["passband_weight", "stopband_weight"])
    def test_band_weight_validation(self, band, value):
        with pytest.raises(ValueError, match=f"{band} must be nonnegative and finite"):
            FirSpec(**{band: value})


class TestMinimaxFirSplit:
    def test_objective_is_the_mean_bound(self, fir_spec, fir_built):
        # the objective feeds trace.csv, so it must keep a zero bound's sign
        split = problems.build_minimax_fir_split(fir_spec)
        for built, bounds in ((fir_built, ["bound"]), (split, ["bound_pass", "bound_stop"])):
            z = np.random.default_rng(3).normal(size=built.system.dim)
            at = [z[built.layout[key]] for key in bounds]
            assert built.objective(z) == sum(at[1:], at[0]) / len(at)
            assert str(built.objective(np.full(built.system.dim, -0.0))) == "-0.0"

    def test_close_to_unsplit(self, fir_spec, fir_built):
        unsplit = solve(fir_built)
        z = fir_built.primal(unsplit.state.d)
        h = z[fir_built.layout["coefficients"]]
        C = fir_built.extras["cosines"]
        weights, desired = fir_built.extras["weights"], fir_built.extras["desired"]
        err_unsplit = np.abs(weights * (C @ h - desired)).max()

        split = problems.build_minimax_fir_split(fir_spec)
        result = solve(split)
        zs = split.primal(result.state.d)
        hs = (
            zs[split.layout["coefficients_pass"]] + zs[split.layout["coefficients_stop"]]
        ) / 2.0
        err_split = np.abs(weights * (C @ hs - desired)).max()
        assert err_split <= 1.02 * err_unsplit

    def test_copy_gap_shrinks_as_coupling_tightens(self, fir_spec):
        gaps = []
        for w in (10.0, 30.0, 100.0):
            built = problems.build_minimax_fir_split(fir_spec, coupling_weight=w)
            result = solve(built)
            z = built.primal(result.state.d)
            gaps.append(
                np.abs(
                    z[built.layout["coefficients_pass"]]
                    - z[built.layout["coefficients_stop"]]
                ).max()
            )
        assert gaps[0] > gaps[1] > gaps[2]

    def test_negative_coupling_rejected(self, fir_spec):
        with pytest.raises(ValueError, match="coupling"):
            problems.build_minimax_fir_split(fir_spec, coupling_weight=-1.0)


class TestRegularGraph:
    def test_default_30_agents(self):
        adj = make_regular_graph(30, 4)
        assert adj.sum() // 2 == 60
        assert np.all(adj.sum(axis=1) == 4)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)

    def test_k5(self):
        adj = make_regular_graph(5, 4)
        np.testing.assert_array_equal(adj, np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))

    def test_connected(self):
        from scatopt.problems import _connected

        assert _connected(make_regular_graph(30, 4))
        assert _connected(np.zeros((1, 1), dtype=int))
        # two 5-cycles, apart and with their nodes interleaved
        two = np.kron(np.eye(2, dtype=int), make_regular_graph(5, 2))
        order = np.random.default_rng(0).permutation(10)
        assert not _connected(two)
        assert not _connected(two[order][:, order])

    @pytest.mark.parametrize("degree", [2, 4, 6, 8])
    def test_matches_the_double_loop(self, degree):
        for n in range(degree + 1, 41):
            ref = np.zeros((n, n), dtype=int)
            for off in range(1, degree // 2 + 1):
                for i in range(n):
                    j = (i + off) % n
                    ref[i, j] = ref[j, i] = 1
            adj = make_regular_graph(n, degree)
            assert np.array_equal(adj, ref)
            assert np.all(adj.sum(axis=1) == degree)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="degree"):
            make_regular_graph(10, 3)
        with pytest.raises(ValueError, match="regular graph"):
            make_regular_graph(4, 4)


class TestLayout:
    """`problems._Layout` hands out coordinates in order and writes its rows
    into the dense A and offset that `from_constraints` receives."""

    @staticmethod
    def assembled(lay, monkeypatch):
        seen = {}
        monkeypatch.setattr(problems, "from_constraints",
                            lambda A, free, resid, offset: seen.update(
                                A=A, free=free, resid=resid, offset=offset))
        lay.reflection()
        return seen

    def test_free_coordinates_are_the_complement(self, monkeypatch):
        lay = problems._Layout()
        a, b = lay.take(4), lay.take(2, 3)
        assert a.tolist() == [0, 1, 2, 3] and b.tolist() == [[4, 5, 6], [7, 8, 9]]
        assert lay.take().shape == () and lay.dim == 11
        coef = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        lay.rows(np.array([8, 1, 5]), np.array([0, 10]), coef)
        got = self.assembled(lay, monkeypatch)
        np.testing.assert_array_equal(got["free"], [0, 2, 3, 4, 6, 7, 9, 10])
        np.testing.assert_array_equal(got["resid"], [1, 5, 8])
        # rows in ascending residual order, terms in the columns of 0 and 10
        expected = np.zeros((3, 8))
        expected[:, [0, 7]] = coef[[1, 2, 0]]
        np.testing.assert_array_equal(got["A"], expected)

    def test_matrix_rows_and_copies_broadcast(self, monkeypatch):
        lay = problems._Layout()
        h, e, m, pairs = lay.take(3), lay.take(2), lay.take(2), lay.take(3, 2)
        # shared terms: z[e] = M z[h] - t
        lay.rows(e, h, np.arange(6.0).reshape(2, 3), offset=np.array([0.5, -1.0]))
        # rows with terms of their own: z[m_0] = z[h_0] - z[h_1] - 7
        # and z[m_1] = 2 z[h_1] + 3 z[h_2] - 7
        lay.rows(m, np.array([[0, 1], [1, 2]]), np.array([[1.0, -1.0], [2.0, 3.0]]), offset=7.0)
        # copies: both coordinates of pair k hold 2 z[h_k]
        lay.rows(pairs, np.column_stack([h, h])[..., None], coef=2.0)
        got = self.assembled(lay, monkeypatch)
        np.testing.assert_array_equal(got["free"], h)
        np.testing.assert_array_equal(got["resid"], np.r_[e, m, pairs.ravel()])
        copies = np.repeat(2.0 * np.eye(3), 2, axis=0)
        np.testing.assert_array_equal(got["A"], np.vstack([
            np.arange(6.0).reshape(2, 3), [[1.0, -1.0, 0.0], [0.0, 2.0, 3.0]], copies]))
        np.testing.assert_array_equal(got["offset"], np.r_[0.5, -1.0, 7.0, 7.0, np.zeros(6)])

    def test_coordinate_constrained_twice(self, monkeypatch):
        lay = problems._Layout()
        h, e = lay.take(2), lay.take(3)
        lay.rows(e[:2], h, np.ones((2, 2)))
        with pytest.raises(ValueError, match="constrained twice"):
            lay.rows(e[1:], h, np.full((2, 2), 5.0))
        with pytest.raises(ValueError, match="constrained twice"):
            lay.rows(e[[2, 2]], h, np.full((2, 2), 5.0))
        # the refused rows left no trace
        got = self.assembled(lay, monkeypatch)
        np.testing.assert_array_equal(got["resid"], e[:2])
        np.testing.assert_array_equal(got["A"], np.ones((2, 3)) * [1.0, 1.0, 0.0])
        # a row may read only free coordinates
        lay.rows(e[2:], e[:1, None])
        with pytest.raises(ValueError, match="reads a constrained coordinate"):
            lay.reflection()


class TestSvmConsensus:
    def test_structure(self, svm_built):
        inst = svm_built.instance
        assert inst.n_agents == 30
        assert np.all(inst.adjacency.sum(axis=1) == 4)
        assert len(svm_built.extras["edges"]) == 60
        adj = inst.adjacency
        assert [tuple(e) for e in svm_built.extras["edges"]] == [
            (i, j) for i in range(30) for j in range(i + 1, 30) if adj[i, j]]

    def test_identical_agents_reach_symmetric_consensus(self):
        # every agent holds the same training vector, so by symmetry all
        # copies coincide at the fixed point even with finite coupling
        x = np.array([1.0, 1.0])
        features = np.tile(x, (6, 1))
        labels = np.ones(6)
        adj = make_regular_graph(6, 2)
        inst = SvmInstance(features=features, labels=labels, adjacency=adj)
        built = problems.build_svm_decentralized(inst)
        result = solve(built, tol=1e-10)
        z = built.primal(result.state.d)
        w = z[built.layout["weights"]]
        assert problems.consensus_gap(built, result.state.d) < 1e-6
        assert np.abs(w - w.mean(axis=0)).max() < 1e-6

    def test_classifier_agrees_with_qp_oracle(self, svm_built):
        result = solve(svm_built, tol=1e-9)
        w, b = problems.consensus_classifier(svm_built, result.state.d)
        ref = oracles.oracle_svm_qp(svm_built.instance)
        X = svm_built.instance.features
        pred = np.sign(X @ w + b)
        pred_ref = np.sign(X @ ref.x + ref.extras["bias"])
        assert np.array_equal(pred, pred_ref)

    def test_consensus_gap_monotone_in_coupling(self):
        gaps = []
        for w in (0.1, 1.0, 10.0):
            inst = SvmInstance.separable_blobs(seed=0, coupling_weight=w)
            built = problems.build_svm_decentralized(inst)
            result = solve(built, tol=1e-8)
            gaps.append(problems.consensus_gap(built, result.state.d))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_consensus_gap_propagates_nan(self):
        built = problems.build("svm_consensus", problems.default_instance("svm_consensus", seed=0))
        assert np.isnan(problems.consensus_gap(built, np.full(built.system.dim, np.nan)))
        # on a converged state it is the largest edge norm, as a running max gives it
        d = solve(built, tol=1e-8).state.d
        z = built.primal(d)
        w, b = z[built.layout["weights"]], z[built.layout["biases"]]
        want = 0.0
        for (i, j) in built.extras["edges"]:
            want = max(want, float(np.linalg.norm(np.r_[w[i] - w[j], b[i] - b[j]])))
        assert want > 0.0 and problems.consensus_gap(built, d) == want

    @pytest.mark.parametrize("field, value", [
        ("hinge_weight", np.inf), ("hinge_weight", -1.0), ("coupling_weight", np.nan)])
    def test_non_finite_weights_rejected(self, field, value):
        # an infinite hinge_weight would run the oracle for seconds before it failed
        with pytest.raises(ValueError, match=f"{field} must be nonnegative and finite"):
            SvmInstance.separable_blobs(seed=0, **{field: value})

    @pytest.mark.parametrize("k", [1, -1], ids=["upper", "lower"])
    def test_asymmetric_graph_rejected(self, k):
        # a path stored on one side of the diagonal only: the edge list
        # reads the upper triangle, so a lower one would couple no agents
        with pytest.raises(ValueError, match="symmetric"):
            SvmInstance(features=np.zeros((4, 2)), labels=np.array([1.0, -1.0, 1.0, -1.0]),
                        adjacency=np.eye(4, k=k, dtype=int))

    @pytest.mark.parametrize("labels, message", [
        ([1.0, -1.0, 1.0], "one label per agent required"),
        ([1.0, -1.0, 0.0, 1.0], r"labels must be -1 or \+1"),
    ], ids=["one_short", "zero_label"])
    def test_labels_checked(self, labels, message):
        with pytest.raises(ValueError, match=message):
            SvmInstance(features=np.zeros((4, 2)), labels=np.array(labels),
                        adjacency=make_regular_graph(4, 2))

    def test_disconnected_graph_rejected(self):
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1] = adj[1, 0] = 1
        adj[2, 3] = adj[3, 2] = 1
        with pytest.raises(ValueError, match="not connected"):
            SvmInstance(
                features=np.zeros((4, 2)),
                labels=np.array([1.0, -1.0, 1.0, -1.0]),
                adjacency=adj,
            )


class TestSparseEqualizer:
    def test_unit_impulse_channel_recovers_one_sparse(self):
        imp = np.zeros(8)
        imp[0] = 1.0
        inst = EqualizerInstance(channel=imp, num_taps=4)
        built = problems.build_sparse_equalizer(inst)
        result = solve(built)
        taps = built.primal(result.state.d)[built.layout["taps"]]
        assert np.abs(taps[1:]).max() < 1e-8
        assert inst.lower_env[0] - 1e-8 <= taps[0] <= inst.upper_env[0] + 1e-8

    def test_default_instance_reaches_fixed_point(self, equalizer_built):
        result = solve(equalizer_built, tol=1e-8)
        assert result.converged

    def test_output_blocks_duplicate_cascade(self, equalizer_built):
        result = solve(equalizer_built, tol=1e-10)
        z = equalizer_built.primal(result.state.d)
        taps = z[equalizer_built.layout["taps"]]
        T = equalizer_built.extras["convolution"]
        np.testing.assert_allclose(
            z[equalizer_built.layout["output"]], T @ taps, atol=1e-7
        )
        np.testing.assert_allclose(
            z[equalizer_built.layout["output_mirror"]], T @ taps, atol=1e-7
        )

    def test_envelope_validation(self):
        with pytest.raises(ValueError, match="entry per output sample"):
            EqualizerInstance(channel=np.ones(4), num_taps=2, upper_env=np.ones(3))
        with pytest.raises(ValueError, match="dips below"):
            EqualizerInstance(
                channel=np.ones(2), num_taps=2,
                upper_env=-np.ones(3), lower_env=np.ones(3),
            )
        for upper, lower in ((np.full(3, 0.9), np.zeros(3)), (np.full(3, 2.0), np.full(3, 1.1))):
            with pytest.raises(ValueError, match="infeasible at the target"):
                EqualizerInstance(channel=np.ones(2), num_taps=2, upper_env=upper, lower_env=lower)

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError, match="at least one tap"):
            EqualizerInstance(channel=[])
        with pytest.raises(ValueError, match="at least one tap"):
            problems.default_instance("sparse_equalizer", params={"length": 0})


class TestOracles:
    def test_lasso_zero_weight_is_normal_equations(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(10, 4))
        y = rng.normal(size=10)
        inst = LassoInstance(A=A, y=y, l1_weight=0.0)
        sol = oracles.oracle_lasso(inst)
        np.testing.assert_allclose(sol.x, np.linalg.solve(A.T @ A, A.T @ y), atol=1e-8)

    def test_svm_two_points_max_margin(self):
        # two opposite points on a complete graph of 2 is not 4-regular;
        # use the centralized oracle directly on a 2-point instance
        features = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([1.0, -1.0])
        adj = np.array([[0, 1], [1, 0]])
        inst = SvmInstance(features=features, labels=labels, adjacency=adj)
        sol = oracles.oracle_svm_qp(inst)
        # maximum-margin hyperplane: w = (1, 0), b = 0, margin 1
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-6)
        assert sol.extras["bias"] == pytest.approx(0.0, abs=1e-6)

    def test_huber_oracle_reports_gradient_norm(self, lasso_huber_built):
        sol = oracles.oracle_lasso_huber(lasso_huber_built.instance)
        assert sol.extras["grad_norm"] <= 1e-6

    def test_huber_oracle_newton_finish(self):
        # the coordinate descent certifies its gradient norm on a large,
        # narrow-notch instance and agrees there with scipy's L-BFGS-B
        inst = LassoInstance.random(m=300, n=1500, seed=0, sparsity=10)
        sol = oracles.oracle_lasso_huber(inst)
        assert sol.extras["grad_norm"] <= 1e-6
        assert_matches_lbfgsb(inst, sol)


class TestCostScale:
    """The cost scale alpha moves iterations, not fixed points."""

    @pytest.mark.parametrize("name", [n for n in problems.PROBLEM_NAMES if n != "sparse_equalizer"])
    def test_fixed_point_does_not_move(self, name):
        system = problems.PROBLEMS[name].builder(problems.default_instance(name, seed=0)).system
        ref = run(system, DelayBank(), tol=1e-10, max_iters=500000)
        for alpha in (0.3, 3.0):
            scaled = system.scaled(alpha)
            got = run(scaled, DelayBank(), tol=1e-10, max_iters=500000)
            assert got.converged and np.abs(got.z - ref.z).max() <= 1e-6, alpha
            # the read-out dual is the unscaled problem's; minimax_fir's
            # epigraph multipliers are not unique, so only its primal is
            if name != "minimax_fir":
                assert np.abs(got.b - ref.b).max() <= 1e-6, alpha
            assert scaled.cost(ref.z) == pytest.approx(system.cost(ref.z), rel=1e-12)

    def test_build_applies_the_problem_alpha(self):
        alphas = {"svm_consensus": 3.0, "minimax_fir": 0.1, "minimax_fir_split": 0.03}
        for name in problems.PROBLEM_NAMES:
            inst = problems.default_instance(name, seed=0)
            assert problems.build(name, inst).system.alpha == alphas.get(name, 1.0)
            assert problems.PROBLEMS[name].builder(inst).system.alpha == 1.0


class TestOverRelaxation:
    """The averaging gamma moves iterations, not fixed points: `build` applies
    the row's gamma, every builder keeps its own 0.5."""

    RETUNED = [n for n in problems.PROBLEM_NAMES if problems.PROBLEMS[n].gamma != 0.5]

    def test_row_and_builder_gammas(self):
        for name in problems.PROBLEM_NAMES:
            row = problems.PROBLEMS[name]
            inst = problems.default_instance(name, seed=0)
            assert 0.0 < row.gamma < 1.0
            assert problems.build(name, inst).system.gamma == row.gamma
            assert row.builder(inst).system.gamma == 0.5
        # the nonconvex equalizer's fixed point moves with gamma
        assert "sparse_equalizer" not in self.RETUNED

    @pytest.mark.parametrize("name", RETUNED)
    def test_fixed_point_does_not_move(self, name):
        system = problems.build(name, problems.default_instance(name, seed=0)).system
        got = run(system, DelayBank(), tol=1e-12, max_iters=500000)
        system.gamma = 0.5
        ref = run(system, DelayBank(), tol=1e-12, max_iters=500000)
        assert got.converged and ref.converged
        gap = np.linalg.norm(got.state.d - ref.state.d)
        assert gap <= 1e-9 * (1.0 + np.linalg.norm(ref.state.d)), gap


class TestRegistry:
    def test_problem_names_cover_builders(self):
        for name in problems.PROBLEM_NAMES:
            inst = problems.default_instance(name, seed=0)
            built = problems.build(name, inst)
            assert built.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            problems.default_instance("nope")
        with pytest.raises(ValueError, match="unknown problem"):
            problems.build("nope", None)

    def test_split_coupling_param_forwarded(self):
        spec = problems.default_instance("minimax_fir_split")
        built = problems.build("minimax_fir_split", spec, params={"coupling_weight": 7.0})
        assert built.extras["coupling_weight"] == 7.0


def test_readme_quick_example(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["result"].converged
    assert namespace["coefficients"].shape == (20,)
    assert capsys.readouterr().out.startswith("True ")
