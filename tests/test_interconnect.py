import ast
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scatopt import interconnect, problems
from scatopt.interconnect import (
    AffineInterconnection,
    BlockReflection,
    FactoredReflection,
    GramOverflowError,
    SourceRelation,
    absorb_sources,
    cayley,
    check_orthonormal,
    from_constraints,
)
from scatopt.pairs import Block


def random_skew(n, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    return M - M.T


class TestCayley:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(cayley(np.zeros((3, 3))), np.eye(3))

    def test_2x2_rotation(self):
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(cayley(S), S, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_orthonormal_for_random_skew(self, n):
        G = cayley(random_skew(n, seed=n))
        assert check_orthonormal(G, tol=1e-10).passed

    def test_non_skew_rejected_with_entry(self):
        M = np.eye(2)
        with pytest.raises(ValueError, match=r"not skew-symmetric.*\[0, 0\]"):
            cayley(M)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            cayley(np.zeros((2, 3)))


class TestCheckOrthonormal:
    def test_identity_passes(self):
        rep = check_orthonormal(np.eye(4))
        assert rep.passed and rep.max_deviation == 0.0

    def test_scaled_identity_fails(self):
        rep = check_orthonormal(2.0 * np.eye(4))
        assert not rep.passed
        assert rep.max_deviation == pytest.approx(3.0)

    def test_stack_reports_worst_matrix(self):
        stack = np.stack([np.eye(3), cayley(random_skew(3, seed=1)), 1.5 * np.eye(3)])
        rep = check_orthonormal(stack)
        assert not rep.passed and rep.max_deviation == pytest.approx(1.25)
        assert check_orthonormal(stack[:2]).passed
        with pytest.raises(ValueError, match="square"):
            check_orthonormal(np.zeros((2, 3, 4)))


class TestAffineInterconnection:
    def test_identity_apply(self):
        ic = AffineInterconnection(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(ic.apply([1.0, 2.0]), [1.0, 2.0])

    def test_rotation_apply(self):
        G = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ic = AffineInterconnection(G, np.zeros(2))
        np.testing.assert_allclose(ic.apply([1.0, 0.0]), [0.0, -1.0])

    def test_norm_preserved_for_zero_offset(self):
        G = cayley(random_skew(6, seed=5))
        ic = AffineInterconnection(G, np.zeros(6))
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = rng.normal(size=6)
            assert np.linalg.norm(ic.apply(c)) == pytest.approx(
                np.linalg.norm(c), rel=1e-12
            )

    def test_batch_apply(self):
        G = cayley(random_skew(4, seed=1))
        s = np.arange(4.0)
        ic = AffineInterconnection(G, s)
        C = np.random.default_rng(2).normal(size=(3, 4))
        out = ic.apply(C)
        for i in range(3):
            np.testing.assert_allclose(out[i], ic.apply(C[i]))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            AffineInterconnection(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="offset"):
            AffineInterconnection(np.eye(2), np.zeros(3))
        # `linear` checks the length for outside callers; the loop's `apply` does not
        with pytest.raises(ValueError, match="length"):
            AffineInterconnection(np.eye(2), np.zeros(2)).linear(np.zeros(3))

    @pytest.mark.parametrize(
        "n_blocks, rows, cols, form",
        [(1, 3, 5, AffineInterconnection), (10, 1, 2, BlockReflection),
         (1, 100, 500, FactoredReflection)],
        ids=["dense", "block", "factored"],
    )
    def test_apply_is_linear_plus_offset(self, n_blocks, rows, cols, form):
        # `apply` skips `linear`'s checks but not its bits, on one state and on a stack
        rng = np.random.default_rng(8)
        A = block_constraints(n_blocks, rows, cols, seed=9)
        m, nf = A.shape
        ic = from_constraints(A, np.arange(nf), np.arange(nf, nf + m), offset=rng.normal(size=m))
        assert type(ic) is form
        for c in (rng.normal(size=m + nf), rng.normal(size=(4, m + nf))):
            assert np.array_equal(ic.apply(c), ic.linear(c) + ic.s)


def block_constraints(n_blocks, rows, cols, seed):
    """A block-diagonal constraint matrix of n_blocks dense (rows, cols)
    blocks: its constraint graph has one component per block."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n_blocks * rows, n_blocks * cols))
    for k in range(n_blocks):
        A[k * rows:(k + 1) * rows, k * cols:(k + 1) * cols] = rng.normal(size=(rows, cols))
    return A


class TestSparseApply:
    """`from_constraints` keeps G as per-component blocks when they hold at
    most 1/8 of its entries, else stores it; either way `linear` and
    `apply` are the products of the dense closed form."""

    @pytest.mark.parametrize(
        "n_blocks, sparse", [(10, True), (8, True), (7, False), (1, False)],
        ids=["density_0.1", "density_0.125", "density_0.143", "dense"],
    )
    def test_matches_dense_product(self, n_blocks, sparse):
        # n_blocks components of 3 coordinates: the blocks hold 1 / n_blocks of G
        A = block_constraints(n_blocks, 1, 2, seed=40)
        rng = np.random.default_rng(41)
        perm = rng.permutation(3 * n_blocks)
        free, resid = perm[:2 * n_blocks], perm[2 * n_blocks:]
        offset = rng.normal(size=n_blocks)
        ic = from_constraints(A, free, resid, offset=offset)
        assert type(ic) is (BlockReflection if sparse else AffineInterconnection)
        G, s = TestFromConstraints.reflection_oracle(A, free, resid, offset)
        for c in (rng.normal(size=G.shape[0]), rng.normal(size=(5, G.shape[0]))):
            np.testing.assert_allclose(ic.linear(c), c @ G.T, rtol=0, atol=1e-14)
            np.testing.assert_allclose(ic.apply(c), c @ G.T + s, rtol=0, atol=1e-14)
            assert ic.apply(c).shape == c.shape

    def test_import_leaves_scipy_sparse_unloaded(self, tmp_path):
        # no form of the interconnection and no oracle loads scipy: building
        # the factored lasso and the block svm at 30 and 100 agents, an svm
        # run, a lasso_huber verify and a comparison on every problem that
        # has an oracle leave no scipy module loaded
        code = (
            "import sys, scatopt.problems as p, scatopt.cli as cli\n"
            "def form(name, params):\n"
            "    built = p.build(name, p.default_instance(name, params=params))\n"
            "    return type(built.system.interconnection).__name__\n"
            "print(form('lasso_augmented', {'m': 100, 'n': 500}),"
            " form('svm_consensus', {'n_agents': 30}), form('svm_consensus', {'n_agents': 100}))\n"
            f"out = {str(tmp_path)!r}\n"
            "assert cli.main(['run', '--problem', 'svm_consensus', '--out', out]) == 0\n"
            "assert cli.main(['verify', '--problem', 'lasso_huber', '--out', out]) == 0\n"
            "compared = [n for n, row in p.PROBLEMS.items() if row.compare is not None]\n"
            "for name in compared:\n"
            "    assert cli.main(['compare', '--problem', name, '--out', out]) == 0, name\n"
            "print(len(compared), *sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.split() == [
            "FactoredReflection", "BlockReflection", "BlockReflection", "5"]


class TestAbsorbSources:
    def test_empty_list_unchanged(self):
        ic = AffineInterconnection(np.eye(2), np.zeros(2))
        assert absorb_sources(ic, []) is ic

    def test_constant_source_two_coordinates(self):
        # Relations c0 = m(d0) (kept) and c1 = g (constant source) feeding
        # d = G c.  After absorption the reduced 1x1 map must reproduce the
        # hand solution of the 2x2 fixed-point system restricted to d0.
        G = cayley(np.array([[0.0, 0.3], [-0.3, 0.0]]))
        ic = AffineInterconnection(G, np.zeros(2))
        g = 1.7
        red = absorb_sources(
            ic, [SourceRelation(Block(1, 1), F=np.zeros((1, 1)), g=np.array([g]))]
        )
        # direct elimination: d0 = G00 c0 + G01 g
        assert red.dim == 1
        assert red.G[0, 0] == pytest.approx(G[0, 0])
        assert red.s[0] == pytest.approx(G[0, 1] * g)

    def test_affine_source_fixed_points_match_dense_solve(self):
        # All relations affine: kept blocks use c = d (identity relation),
        # the source block uses c = F d + g.  Fixed points of the full
        # linear system and of the reduced system must agree.
        rng = np.random.default_rng(11)
        G = cayley(random_skew(4, seed=12))
        s = rng.normal(size=4)
        ic = AffineInterconnection(G, s)
        F = rng.normal(size=(2, 2))
        g = rng.normal(size=2)
        src = SourceRelation(Block(2, 2), F=F, g=g)
        red = absorb_sources(ic, [src])

        # full system: d = G c + s with c = [d0, d1, F d_src + g]
        C = np.zeros((4, 4))
        C[0, 0] = C[1, 1] = 1.0
        C[2:, 2:] = F
        cvec = np.zeros(4)
        cvec[2:] = g
        d_full = np.linalg.solve(np.eye(4) - G @ C, G @ cvec + s)

        d_red = np.linalg.solve(np.eye(2) - red.G, red.s)
        np.testing.assert_allclose(d_red, d_full[:2], atol=1e-10)

    def test_lossless_source_stays_neutral(self):
        G = cayley(random_skew(4, seed=3))
        ic = AffineInterconnection(G, np.zeros(4))
        src = SourceRelation(Block(2, 2), F=-np.eye(2), g=np.array([1.0, -2.0]))
        red = absorb_sources(ic, [src])
        assert check_orthonormal(red.G).passed

    def test_singular_loop_names_block(self):
        # F = G_kk^-1 makes I - F G_kk singular
        G = cayley(random_skew(3, seed=4))
        ic = AffineInterconnection(G, np.zeros(3))
        F = np.linalg.inv(G[2:, 2:])
        with pytest.raises(ValueError, match=r"singular algebraic loop.*\[2, 3\)"):
            absorb_sources(ic, [SourceRelation(Block(2, 1), F=F, g=np.zeros(1))])

    def test_overlapping_sources_rejected(self):
        ic = AffineInterconnection(np.eye(3), np.zeros(3))
        srcs = [
            SourceRelation(Block(0, 2), F=np.zeros((2, 2)), g=np.zeros(2)),
            SourceRelation(Block(1, 1), F=np.zeros((1, 1)), g=np.zeros(1)),
        ]
        with pytest.raises(ValueError, match="overlap"):
            absorb_sources(ic, srcs)

    def test_malformed_sources_rejected(self):
        with pytest.raises(ValueError, match=r"F shape \(2, 2\) does not match block length 3"):
            SourceRelation(Block(0, 3), F=np.zeros((2, 2)), g=np.zeros(3))
        with pytest.raises(ValueError, match=r"g shape \(2,\) does not match block length 3"):
            SourceRelation(Block(0, 3), F=np.zeros((3, 3)), g=np.zeros(2))
        ic = AffineInterconnection(np.eye(3), np.zeros(3))
        src = SourceRelation(Block(2, 2), F=np.zeros((2, 2)), g=np.zeros(2))
        with pytest.raises(ValueError, match="source block exceeds interconnection dimension"):
            absorb_sources(ic, [src])


def paper_construction(A, free, resid, offset=None):
    """The paper's interconnection for z[resid] = A z[free] - offset: the
    Cayley transform of the skew core holding A, residual columns negated;
    a nonzero offset enters as m source coordinates pinned to the data
    (c = -d + 2 offset) and absorbed."""
    m, nf = A.shape
    n = nf + m
    if offset is None:
        S = np.zeros((n, n))
        S[np.ix_(resid, free)] = A
        S[np.ix_(free, resid)] = -A.T
        G = cayley(S)
        G[:, resid] *= -1.0
        return AffineInterconnection(G, np.zeros(n))
    ext = paper_construction(
        np.column_stack([A, -np.eye(m)]), np.concatenate([free, np.arange(n, n + m)]), resid
    )
    return absorb_sources(ext, [SourceRelation(Block(n, m), F=-np.eye(m), g=2.0 * offset)])


class TestFromConstraints:
    """The construction must equal the reflection across the affine
    constraint set {z : A z_free - z_resid = offset}, computed here
    independently from the projector onto the constraint normals, and the
    paper's Cayley-plus-source-absorption construction."""

    @pytest.mark.parametrize("with_offset", [False, True], ids=["no_offset", "offset"])
    @pytest.mark.parametrize(
        "free, resid",
        [
            (np.arange(5), np.arange(5, 8)),
            (np.array([0, 2, 4, 5, 7]), np.array([1, 3, 6])),
            (np.arange(3), np.arange(3, 8)),
            (np.array([1, 3, 6]), np.array([0, 2, 4, 5, 7])),
        ],
        # "more_constraints" shapes have m > nf and take the I + A^T A form
        ids=["blocked", "interleaved", "more_constraints_blocked", "more_constraints_interleaved"],
    )
    def test_matches_paper_construction(self, free, resid, with_offset):
        rng = np.random.default_rng(25)
        A = rng.normal(size=(len(resid), len(free)))
        offset = rng.normal(size=len(resid)) if with_offset else None
        ic = from_constraints(A, free, resid, offset=offset)
        ref = paper_construction(A, free, resid, offset)
        np.testing.assert_allclose(ic.G, ref.G, atol=1e-12)
        np.testing.assert_allclose(ic.s, ref.s, atol=1e-12)

    @staticmethod
    def reflection_oracle(A, free, resid, offset):
        m, nf = A.shape
        n = nf + m
        B = np.zeros((m, n))
        B[:, free] = A
        B[:, resid] = -np.eye(m)
        P = B.T @ np.linalg.solve(B @ B.T, B)
        G = np.eye(n) - 2.0 * P
        s = np.zeros(n) if offset is None else 2.0 * B.T @ np.linalg.solve(B @ B.T, offset)
        return G, s

    def test_matches_reflection_no_offset(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 5))
        free, resid = np.arange(5), np.arange(5, 8)
        ic = from_constraints(A, free, resid)
        G_exp, _ = self.reflection_oracle(A, free, resid, None)
        np.testing.assert_allclose(ic.G, G_exp, atol=1e-12)
        np.testing.assert_array_equal(ic.s, np.zeros(8))

    def test_matches_reflection_with_offset(self):
        rng = np.random.default_rng(22)
        A = rng.normal(size=(4, 7))
        offset = rng.normal(size=4)
        free, resid = np.arange(7), np.arange(7, 11)
        ic = from_constraints(A, free, resid, offset=offset)
        G_exp, s_exp = self.reflection_oracle(A, free, resid, offset)
        np.testing.assert_allclose(ic.G, G_exp, atol=1e-12)
        np.testing.assert_allclose(ic.s, s_exp, atol=1e-12)

    @pytest.mark.parametrize("with_offset", [False, True], ids=["no_offset", "offset"])
    @pytest.mark.parametrize("m, nf", [(5, 3), (9, 2), (4, 4)])
    def test_matches_reflection_either_gram_form(self, m, nf, with_offset):
        rng = np.random.default_rng(26)
        A = rng.normal(size=(m, nf))
        offset = rng.normal(size=m) if with_offset else None
        free, resid = np.arange(nf), np.arange(nf, nf + m)
        ic = from_constraints(A, free, resid, offset=offset)
        G_exp, s_exp = self.reflection_oracle(A, free, resid, offset)
        np.testing.assert_allclose(ic.G, G_exp, atol=1e-12)
        np.testing.assert_allclose(ic.s, s_exp, atol=1e-12)

    def test_interleaved_indices(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(2, 3))
        offset = rng.normal(size=2)
        free = np.array([0, 2, 4])
        resid = np.array([1, 3])
        ic = from_constraints(A, free, resid, offset=offset)
        G_exp, s_exp = self.reflection_oracle(A, free, resid, offset)
        np.testing.assert_allclose(ic.G, G_exp, atol=1e-12)
        np.testing.assert_allclose(ic.s, s_exp, atol=1e-12)

    def test_constraint_points_are_fixed(self):
        rng = np.random.default_rng(24)
        A = rng.normal(size=(3, 6))
        offset = rng.normal(size=3)
        ic = from_constraints(A, np.arange(6), np.arange(6, 9), offset=offset)
        z = np.empty(9)
        z[:6] = rng.normal(size=6)
        z[6:] = A @ z[:6] - offset
        np.testing.assert_allclose(ic.apply(z), z, atol=1e-10)

    def test_index_validation(self):
        A = np.ones((2, 2))
        with pytest.raises(ValueError, match="partition"):
            from_constraints(A, np.array([0, 1]), np.array([1, 2]))
        with pytest.raises(ValueError, match="index arrays"):
            from_constraints(A, np.array([0]), np.array([1, 2]))
        with pytest.raises(ValueError, match="offset shape"):
            from_constraints(A, np.array([0, 1]), np.array([2, 3]), offset=np.zeros(3))

    @pytest.mark.parametrize("A, form, scale", [
        (np.random.default_rng(26).normal(size=(20, 30)), AffineInterconnection, 1e200),
        (np.random.default_rng(27).normal(size=(40, 10)), AffineInterconnection, 1e200),
        (np.random.default_rng(28).normal(size=(300, 400)), FactoredReflection, 1e200),
        (np.kron(np.eye(40), np.ones((1, 2))), BlockReflection, 1e200),
        # rank-deficient: rounding drops the identity from I + A A^T at this
        # scale, which leaves it singular, never so in exact arithmetic
        (np.ones((2, 3)), AffineInterconnection, 1e8),
        (np.kron(np.eye(10), np.ones((2, 3))), BlockReflection, 1e8),
    ], ids=["dense", "dense_tall", "factored", "block", "singular", "singular_block"])
    def test_overflowing_gram_rejected(self, A, form, scale):
        # finite data whose I + A A^T (or I + A^T A) overflows or is singular
        # to working precision is an error naming A on every path, not an
        # identity map or numpy's LinAlgError; tier-1 turns any RuntimeWarning
        # that escapes into a failure too
        m, nf = A.shape
        args = np.arange(nf), np.arange(nf, nf + m), np.ones(m)
        assert type(from_constraints(A, *args)) is form
        with pytest.raises(GramOverflowError, match="constraint matrix A is too large: its Gram"):
            from_constraints(A * scale, *args)

    def test_only_from_constraints_builds_the_implicit_forms(self):
        # the block and factored forms check only their offset and stored
        # matrix, trusting from_constraints for the rest: no other code of
        # the package may call their constructors
        forms = {"BlockReflection", "FactoredReflection"}

        def calls(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name in forms:
                        yield inner, name
                yield from calls(child, inner)

        found = set()
        for path in Path(interconnect.__file__).parent.glob("*.py"):
            found.update(calls(ast.parse(path.read_text()), path.stem))
        assert found == {("interconnect._block_reflection", "BlockReflection"),
                         ("interconnect.from_constraints", "FactoredReflection")}


class TestFactoredReflection:
    """Above DENSE_MAX_DIM coordinates `from_constraints` keeps G = sign
    (I - 2 L K^-1 L^T) as A and the inverse Gram matrix, or per-component
    blocks when A is block-diagonal; either must be the same reflection."""

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "n_blocks, rows, cols", [(100, 1, 5), (150, 3, 1)],
        # m < nf takes the I + A A^T form, m > nf the I + A^T A form
        ids=["normals", "parametrization"],
    )
    def test_matches_dense_reflection(self, n_blocks, rows, cols, storage):
        rng = np.random.default_rng(60)
        if storage == "sparse":
            A = block_constraints(n_blocks, rows, cols, seed=61)
        else:
            # scaled as LassoInstance.random scales it, which keeps the
            # oracle's B B^T solve accurate to 1e-12
            A = rng.normal(size=(n_blocks * rows, n_blocks * cols)) / np.sqrt(n_blocks * rows)
        m, nf = A.shape
        assert m + nf > interconnect.DENSE_MAX_DIM
        perm = rng.permutation(m + nf)
        free, resid = perm[:nf], perm[nf:]
        offset = rng.normal(size=m)
        ic = from_constraints(A, free, resid, offset=offset)
        if storage == "sparse":
            assert type(ic) is BlockReflection
        else:
            assert type(ic) is FactoredReflection
            assert ic.sign == (1.0 if m <= nf else -1.0)
        G, s = TestFromConstraints.reflection_oracle(A, free, resid, offset)
        np.testing.assert_allclose(ic.s, s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ic.G, G, rtol=0, atol=1e-12)
        for c in (rng.normal(size=m + nf), rng.normal(size=(4, m + nf))):
            np.testing.assert_allclose(ic.linear(c), c @ G.T, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ic.apply(c), c @ G.T + s, rtol=0, atol=1e-12)
            assert ic.apply(c).shape == c.shape

    @pytest.mark.parametrize("shape", [(100, 500), (500, 100)], ids=["normals", "parametrization"])
    def test_symmetric_involution_formed_on_access(self, shape):
        A = np.random.default_rng(62).normal(size=shape)
        m, nf = shape
        ic = from_constraints(A, np.arange(nf), np.arange(nf, nf + m))
        G = ic.G
        np.testing.assert_allclose(G, G.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(G @ G, np.eye(m + nf), rtol=0, atol=1e-12)
        assert "G" not in vars(ic) and ic.G is not G

    def test_dense_up_to_the_cut(self):
        rng = np.random.default_rng(63)
        for n, form in ((interconnect.DENSE_MAX_DIM, AffineInterconnection),
                        (interconnect.DENSE_MAX_DIM + 1, FactoredReflection)):
            A = rng.normal(size=(n // 4, n - n // 4))
            ic = from_constraints(A, np.arange(A.shape[1]), np.arange(A.shape[1], n))
            assert type(ic) is form

    @pytest.mark.parametrize("shape", [(60, 300), (300, 60)], ids=["normals", "parametrization"])
    def test_dense_form_is_the_factored_form(self, shape, monkeypatch):
        # one construction: below the cut, G and s are bitwise the ones a
        # factored form of the same constraints gives
        rng = np.random.default_rng(68)
        m, nf = shape
        A = rng.normal(size=shape) / np.sqrt(m)
        perm = rng.permutation(m + nf)
        args = A, perm[:nf], perm[nf:], rng.normal(size=m)
        dense = from_constraints(*args)
        monkeypatch.setattr(interconnect, "DENSE_MAX_DIM", 0)
        factored = from_constraints(*args)
        assert type(dense) is AffineInterconnection and type(factored) is FactoredReflection
        np.testing.assert_array_equal(dense.G, factored.G)
        np.testing.assert_array_equal(dense.s, factored.s)

    def test_wrong_length_rejected(self):
        A = np.random.default_rng(64).normal(size=(100, 500))
        ic = from_constraints(A, np.arange(500), np.arange(500, 600))
        for c in (np.zeros(599), np.zeros((2, 601))):
            with pytest.raises(ValueError, match=r"vector length \d+ != interconnection dim 600"):
                ic.linear(c)

    def test_constructor_validation(self):
        # m = 2 constraints on nf = 3 free coordinates: k = 2, N = 5
        A, free, resid, K = np.ones((2, 3)), np.arange(3), np.arange(3, 5), np.eye(2)
        assert FactoredReflection(np.zeros(5), A, free, resid, K).sign == 1.0
        assert FactoredReflection(np.zeros(5), A.T, resid - 3, free + 2, K).sign == -1.0
        with pytest.raises(ValueError, match="offset contains non-finite"):
            FactoredReflection(np.array([0.0, 0.0, 0.0, 0.0, np.nan]), A, free, resid, K)
        with pytest.raises(ValueError, match="gram_inv contains non-finite"):
            FactoredReflection(np.zeros(5), A, free, resid, K * np.nan)

    def test_replace_offset_keeps_factors(self):
        # a System with a linear cost replaces the offset of a built map for its loop
        built = problems.build_minimax_fir(problems.FirSpec(grid_size=600))
        system, ic = built.system, built.system.interconnection
        assert ic.dim > interconnect.DENSE_MAX_DIM and type(ic) is FactoredReflection
        loop, g = system.loop_map, system.linear_cost
        assert type(loop) is FactoredReflection
        assert loop.A is ic.A and loop.gram_inv is ic.gram_inv and loop.sign == ic.sign
        assert loop.free is ic.free and loop.resid is ic.resid
        np.testing.assert_array_equal(loop.s, ic.s - ic.linear(g) - g)
        c = np.random.default_rng(65).normal(size=ic.dim)
        np.testing.assert_array_equal(loop.apply(c), ic.linear(c) + loop.s)

    def test_holds_read_only_copies(self):
        # the map keeps its own A: editing the caller's afterwards changes nothing
        rng = np.random.default_rng(66)
        A, free, resid = rng.normal(size=(100, 500)), np.arange(500), np.arange(500, 600)
        ic = from_constraints(A, free, resid, offset=rng.normal(size=100))
        c = rng.normal(size=600)
        before = ic.apply(c)
        A[:] = 0.0
        free[:] = 0
        np.testing.assert_array_equal(ic.apply(c), before)
        for M in (ic.A, ic.free, ic.resid, ic.gram_inv):
            assert not M.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ic.A[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(100, 500), (500, 100)], ids=["normals", "parametrization"])
    def test_holds_no_n_by_k_array(self, shape):
        # only A (m x nf), the index sets, K^-1 (k x k) and s: never L or R (N x k)
        m, nf = shape
        A = np.random.default_rng(67).normal(size=shape)
        ic = from_constraints(A, np.arange(nf), np.arange(nf, nf + m))
        held = [v for v in vars(ic).values() if isinstance(v, np.ndarray)]
        assert len(held) == 5
        assert max(M.size for M in held) == m * nf < (m + nf) * min(m, nf)


# (constraints, free coordinates) of each component: singletons of one
# free coordinate (an all-zero column) and of one constraint (an all-zero
# row), both Gram forms, and unequal block sizes
COMPONENT_SHAPES = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (1, 4), (2, 2)] * 3


def component_constraints(shapes, seed, path=False):
    """A constraint system with one component of each (rows, cols) shape,
    rows, columns and coordinates shuffled: (A, free, resid, offset, the
    set of each component's coordinates).  A component's block is dense,
    or with `path` nonzero only on and next to its diagonal, a path
    through all its rows and columns."""
    rng = np.random.default_rng(seed)
    m, nf = (sum(dims) for dims in zip(*shapes))
    row_at, col_at, perm = rng.permutation(m), rng.permutation(nf), rng.permutation(m + nf)
    free, resid = perm[:nf], perm[nf:]
    A = np.zeros((m, nf))
    components, r, c = set(), 0, 0
    for mk, fk in shapes:
        rows, cols = row_at[r:r + mk], col_at[c:c + fk]
        block = rng.normal(size=(mk, fk))
        if path:
            block = np.triu(np.tril(block, 1), 0)
        A[np.ix_(rows, cols)] = block
        components.add(frozenset(resid[rows]) | frozenset(free[cols]))
        r, c = r + mk, c + fk
    return A, free, resid, rng.normal(size=m), components


def searched_components(A):
    """Each node's component (columns first, then rows) by depth-first
    search of the graph joining row i and column j when A[i, j] != 0,
    named by its first node."""
    m, nf = A.shape
    comp = np.full(m + nf, -1)
    for start in range(m + nf):
        if comp[start] >= 0:
            continue
        comp[start], todo = start, [start]
        while todo:
            node = todo.pop()
            near = np.flatnonzero(A[node - nf]) if node >= nf else nf + np.flatnonzero(A[:, node])
            for other in near[comp[near] < 0]:
                comp[other] = start
                todo.append(other)
    return comp


class TestBlockReflection:
    """When the constraint graph splits into components whose blocks hold
    at most 1/8 of G's entries, `from_constraints` keeps one block per
    component; it must be the same reflection as the dense closed form."""

    @pytest.fixture(scope="class")
    def system(self):
        A, free, resid, offset, components = component_constraints(COMPONENT_SHAPES, seed=70)
        return A, free, resid, offset, components, from_constraints(A, free, resid, offset)

    @pytest.mark.parametrize("path", [False, True], ids=["dense_blocks", "path_blocks"])
    def test_blocks_are_the_components(self, path):
        # path blocks of 8 x 8 take several labelling sweeps each
        shapes = [(8, 8)] * 12 if path else COMPONENT_SHAPES
        A, free, resid, offset, components = component_constraints(shapes, seed=71, path=path)
        ic = from_constraints(A, free, resid, offset)
        assert type(ic) is BlockReflection
        assert {frozenset(row) for i in ic.index for row in i} == components
        sizes = [i.shape[1] for i in ic.index]
        assert len(set(sizes)) == len(sizes)
        assert all(B.shape == i.shape + i.shape[-1:] for i, B in zip(ic.index, ic.blocks))

    def test_labels_match_a_search(self):
        # a path through 600 shuffled rows and columns, and random sparse
        # graphs, against a search of the same graph
        rng = np.random.default_rng(76)
        path = np.eye(300) + np.eye(300, k=1)
        graphs = [path[rng.permutation(300)][:, rng.permutation(300)]]
        graphs += [(rng.random((m, nf)) < 2.0 / max(m, nf)) * 1.0
                   for m, nf in rng.integers(1, 80, size=(20, 2))]
        for A in graphs:
            rows, cols = interconnect._components(A)
            labels, ref = np.concatenate([cols, rows]), searched_components(A)
            # the same partition, labelled 0, 1, ...
            assert len(set(zip(labels, ref))) == len(set(ref)) == labels.max() + 1

    def test_matches_dense_closed_form(self, system):
        A, free, resid, offset, _, ic = system
        G, s = TestFromConstraints.reflection_oracle(A, free, resid, offset)
        np.testing.assert_allclose(ic.s, s, rtol=0, atol=1e-14)
        rng = np.random.default_rng(72)
        for c in (rng.normal(size=ic.dim), rng.normal(size=(6, ic.dim))):
            np.testing.assert_allclose(ic.linear(c), c @ G.T, rtol=0, atol=1e-14)
            np.testing.assert_allclose(ic.apply(c), c @ G.T + s, rtol=0, atol=1e-14)
            assert ic.apply(c).shape == c.shape

    def test_stacked_product_bits(self, system):
        # the (R, N) product gathers c[:, i]; it must give the bits of the
        # plain gather c.T[i], on every block size here and on the svm's
        ic = system[-1]
        svm = problems.build("svm_consensus", problems.default_instance("svm_consensus")).system
        rng = np.random.default_rng(75)
        for form in (ic, svm.interconnection):
            assert type(form) is BlockReflection
            for R in (1, 3, 20):
                c = rng.normal(size=(R, form.dim)) * 10.0 ** rng.integers(-3, 4, size=(R, 1))
                want = np.empty_like(c)
                for i, B in zip(form.index, form.blocks):
                    want.T[i] = B @ c.T[i]
                assert np.array_equal(form.linear(c), want)

    def test_symmetric_involution_formed_on_access(self, system):
        ic = system[-1]
        G = ic.G
        np.testing.assert_allclose(G, G.T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(G @ G, np.eye(ic.dim), rtol=0, atol=1e-14)
        assert "G" not in vars(ic) and ic.G is not G
        assert all(check_orthonormal(B, tol=1e-14).passed for B in ic.blocks)

    def test_constraint_points_are_fixed(self, system):
        A, free, resid, offset, _, ic = system
        z = np.empty(ic.dim)
        z[free] = np.random.default_rng(73).normal(size=len(free))
        z[resid] = A @ z[free] - offset
        np.testing.assert_allclose(ic.apply(z), z, rtol=0, atol=1e-13)

    def test_replace_offset_keeps_blocks(self, system):
        ic = system[-1]
        s = np.random.default_rng(74).normal(size=ic.dim)
        moved = replace(ic, s=s)
        assert type(moved) is BlockReflection and moved.s is not ic.s
        assert all(a is b for a, b in zip(moved.index + moved.blocks, ic.index + ic.blocks))
        c = np.random.default_rng(75).normal(size=(2, ic.dim))
        np.testing.assert_array_equal(moved.apply(c), ic.linear(c) + s)
        with pytest.raises(ValueError, match=r"offset must be a vector, got shape \(2, "):
            replace(ic, s=np.zeros((2, ic.dim)))

    def test_constructor_validation(self):
        index, blocks = (np.array([[0, 2], [1, 3]]),), (np.stack([np.eye(2)] * 2),)
        assert np.array_equal(BlockReflection(np.zeros(4), index, blocks).G, np.eye(4))
        with pytest.raises(ValueError, match="blocks contain non-finite"):
            BlockReflection(np.zeros(4), index, (blocks[0] + np.inf,))
        with pytest.raises(ValueError, match="offset contains non-finite"):
            BlockReflection(np.array([0.0, np.nan, 0.0, 0.0]), index, blocks)
