import subprocess
import sys

import numpy as np
import pytest

from scatopt.interconnect import (
    AffineInterconnection,
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
        with pytest.raises(ValueError, match="length"):
            AffineInterconnection(np.eye(2), np.zeros(2)).apply(np.zeros(3))


def block_diagonal_rotation(n_blocks, size, seed):
    """An orthonormal G with n_blocks dense blocks, density 1 / n_blocks."""
    G = np.zeros((n_blocks * size, n_blocks * size))
    for k in range(n_blocks):
        sl = slice(k * size, (k + 1) * size)
        G[sl, sl] = cayley(random_skew(size, seed=seed + k))
    return G


class TestSparseApply:
    """G is applied through a CSR copy when at most 1/8 of it is nonzero;
    either way `linear` and `apply` are the dense products."""

    @pytest.mark.parametrize(
        "n_blocks, sparse", [(10, True), (8, True), (7, False), (1, False)],
        ids=["density_0.1", "density_0.125", "density_0.143", "dense"],
    )
    def test_matches_dense_product(self, n_blocks, sparse):
        G = block_diagonal_rotation(n_blocks, 3, seed=40)
        rng = np.random.default_rng(41)
        s = rng.normal(size=G.shape[0])
        ic = AffineInterconnection(G, s)
        assert (ic._sparse is not None) is sparse
        for c in (rng.normal(size=G.shape[0]), rng.normal(size=(5, G.shape[0]))):
            np.testing.assert_allclose(ic.linear(c), c @ G.T, rtol=0, atol=1e-14)
            np.testing.assert_allclose(ic.apply(c), c @ G.T + s, rtol=0, atol=1e-14)
            assert ic.apply(c).shape == c.shape

    def test_import_leaves_scipy_sparse_unloaded(self):
        # scatopt.problems imports the oracles, and with them
        # scipy.optimize, only when a comparison runs
        code = ("import sys, scatopt, scatopt.problems; "
                "print('scipy.sparse' in sys.modules, 'scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False False"


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
