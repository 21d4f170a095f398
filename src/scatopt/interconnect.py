"""Orthonormal linear interconnections with affine offsets.

The interconnection maps the elements' c-outputs to their d-inputs,
d = G c + s, where G is norm-preserving.  For a problem's linear
constraints z[resid] = A z[free] - v, the map c -> G c + s is the
reflection across that affine set, computed in closed form by
`from_constraints` with one solve of the smaller Gram matrix, I + A A^T
or I + A^T A.  A sparse G (the decentralized SVM's is block-diagonal)
is applied through a CSR copy.

`cayley` and `absorb_sources` (with `SourceRelation`) are the paper's
construction of the same map: a Cayley transform of a skew core, with
constant data as source relations eliminated into the offset.  Nothing
at run time calls them; they stay as the tests' reference for
`from_constraints` and as patch sites of the span tracer (`perfbench/tracing.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pairs import Block

__all__ = [
    "cayley",
    "check_orthonormal",
    "OrthonormalityReport",
    "AffineInterconnection",
    "SourceRelation",
    "absorb_sources",
    "from_constraints",
]


def cayley(S: np.ndarray) -> np.ndarray:
    """Map a skew-symmetric matrix to an orthonormal one, (I + S)(I - S)^-1.

    (I - S) is always invertible for skew S, and the two factors commute,
    so the result is independent of the order of composition.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    dev = S + S.T
    worst = np.unravel_index(np.abs(dev).argmax(), dev.shape)
    if abs(dev[worst]) >= 1e-12:
        raise ValueError(
            f"matrix is not skew-symmetric: (S + S.T)[{worst[0]}, {worst[1]}] "
            f"= {dev[worst]:g}"
        )
    I = np.eye(S.shape[0])
    return np.linalg.solve(I - S, I + S)


@dataclass(frozen=True)
class OrthonormalityReport:
    max_deviation: float
    passed: bool


def check_orthonormal(G: np.ndarray, tol: float = 1e-10) -> OrthonormalityReport:
    """Report the max-abs deviation of G^T G from the identity."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    dev = float(np.abs(G.T @ G - np.eye(G.shape[0])).max())
    return OrthonormalityReport(max_deviation=dev, passed=dev <= tol)


# G is applied through a CSR copy when at most this fraction of its entries
# is nonzero.  On one core a CSR product costs about 1 ns per stored nonzero
# against about 0.12 ns per entry of a dense OpenBLAS product, so CSR pays
# below a density near 1/8.  The shipped builders lie far on either side:
# svm_consensus at 0.033 (30 agents) and 0.010 (100), all others 0.48 or more.
SPARSE_DENSITY = 1 / 8


@dataclass(frozen=True)
class AffineInterconnection:
    """The map c -> G c + s; `check_orthonormal` says whether G is neutral."""

    G: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"G must be square, got shape {G.shape}")
        if s.shape != (G.shape[0],):
            raise ValueError(f"offset shape {s.shape} does not match G {G.shape}")
        if not np.all(np.isfinite(G)):
            raise ValueError("G contains non-finite entries")
        if not np.all(np.isfinite(s)):
            raise ValueError("offset contains non-finite entries")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "s", s)
        sparse = None
        if np.count_nonzero(G) <= SPARSE_DENSITY * G.size:
            # Imported here: at module level scipy.sparse would more than
            # double the time `import scatopt` takes.
            from scipy.sparse import csr_array

            sparse = csr_array(G)
        object.__setattr__(self, "_sparse", sparse)

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    def linear(self, c: np.ndarray) -> np.ndarray:
        """G c for one vector (N,) or for each row of a batch (R, N)."""
        c = np.asarray(c, dtype=float)
        if c.shape[-1] != self.dim:
            raise ValueError(f"vector length {c.shape[-1]} != interconnection dim {self.dim}")
        if self._sparse is None:
            return c @ self.G.T
        return (self._sparse @ c.T).T

    def apply(self, c: np.ndarray) -> np.ndarray:
        return self.linear(c) + self.s


@dataclass(frozen=True)
class SourceRelation:
    """Affine constitutive relation c_block = F d_block + g on a block."""

    block: Block
    F: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        g = np.atleast_1d(np.asarray(self.g, dtype=float))
        k = self.block.length
        if F.shape != (k, k):
            raise ValueError(f"F shape {F.shape} does not match block length {k}")
        if g.shape != (k,):
            raise ValueError(f"g shape {g.shape} does not match block length {k}")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)


def absorb_sources(
    ic: AffineInterconnection, sources: list[SourceRelation]
) -> AffineInterconnection:
    """Eliminate source blocks algebraically, returning the reduced map.

    The reduced interconnection acts on the non-source coordinates (original
    order preserved) and has the same fixed points there.  It is orthonormal
    when G is and every eliminated relation is lossless (F orthonormal).
    """
    if not sources:
        return ic
    n = ic.dim
    src_idx = np.concatenate([np.arange(s.block.offset, s.block.stop) for s in sources])
    if len(np.unique(src_idx)) != len(src_idx):
        raise ValueError("source blocks overlap")
    if src_idx.max() >= n:
        raise ValueError("source block exceeds interconnection dimension")
    keep = np.setdiff1d(np.arange(n), src_idx)

    k = len(src_idx)
    F = np.zeros((k, k))
    g = np.zeros(k)
    pos = 0
    for s in sources:
        F[pos : pos + s.block.length, pos : pos + s.block.length] = s.F
        g[pos : pos + s.block.length] = s.g
        pos += s.block.length

    G_tt = ic.G[np.ix_(keep, keep)]
    G_tk = ic.G[np.ix_(keep, src_idx)]
    G_kt = ic.G[np.ix_(src_idx, keep)]
    G_kk = ic.G[np.ix_(src_idx, src_idx)]

    loop = np.eye(k) - F @ G_kk
    if np.linalg.cond(loop) > 1e12:
        blocks = ", ".join(f"[{s.block.offset}, {s.block.stop})" for s in sources)
        raise ValueError(f"singular algebraic loop while absorbing source blocks {blocks}")
    coupler = np.linalg.solve(loop, np.column_stack([F @ G_kt, (F @ ic.s[src_idx] + g)]))
    G_red = G_tt + G_tk @ coupler[:, :-1]
    s_red = ic.s[keep] + G_tk @ coupler[:, -1]
    return AffineInterconnection(G=G_red, s=s_red)


def from_constraints(
    A: np.ndarray,
    free_idx: np.ndarray,
    resid_idx: np.ndarray,
    offset: np.ndarray | None = None,
) -> AffineInterconnection:
    """Build the interconnection enforcing z[resid] = A z[free] - offset.

    G c + s is the reflection of c across the affine set {z : C z = v},
    where C = [A | -I] in (free, resid) column order and v the offset.
    It is computed with one solve of the smaller of the two Gram matrices:
    with no more constraints than free coordinates, from the constraint
    normals,
        G = I - 2 C^T K^-1 C,   s = 2 C^T K^-1 v,   K = C C^T = I + A A^T;
    with more, from the set's parametrization z = B x + z0, where
    B = [I; A] in (free, resid) row order and z0 = (0, -v),
        G = 2 B X - I,   s = 2 (z0 - B X z0),   X = (I + A^T A)^-1 B^T,
    B X being the projector onto the range of B.  Both give the same map.
    G is symmetric, orthonormal and an involution, and every point of the
    constraint set is fixed.  This equals the paper's construction, the
    Cayley transform of the skew core holding A with the residual columns
    sign-flipped and the offset absorbed as a bank of constant sources.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    free_idx = np.asarray(free_idx, dtype=int)
    resid_idx = np.asarray(resid_idx, dtype=int)
    m, nf = A.shape
    if len(free_idx) != nf or len(resid_idx) != m:
        raise ValueError("index arrays do not match constraint matrix shape")
    n = nf + m
    all_idx = np.sort(np.concatenate([free_idx, resid_idx]))
    if not np.array_equal(all_idx, np.arange(n)):
        raise ValueError("free and residual indices must partition 0..n-1")
    if not np.all(np.isfinite(A)):
        raise ValueError("constraint matrix A contains non-finite entries")
    v = np.zeros(m) if offset is None else np.asarray(offset, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"constraint offset shape {v.shape} does not match {m} constraints")
    if not np.all(np.isfinite(v)):
        raise ValueError("constraint offset contains non-finite entries")

    if nf < m:
        B = np.zeros((n, nf))
        B[free_idx] = np.eye(nf)
        B[resid_idx] = A
        z0 = np.zeros(n)
        z0[resid_idx] = -v
        X = np.linalg.solve(np.eye(nf) + A.T @ A, np.column_stack([B.T, B.T @ z0]))
        G = 2.0 * B @ X[:, :n]
        G[np.diag_indices(n)] -= 1.0
        return AffineInterconnection(G=G, s=2.0 * (z0 - B @ X[:, n]))
    C = np.zeros((m, n))
    C[:, free_idx] = A
    C[:, resid_idx] = -np.eye(m)
    X = np.linalg.solve(np.eye(m) + A @ A.T, np.column_stack([C, v]))
    G = -2.0 * C.T @ X[:, :n]
    G[np.diag_indices(n)] += 1.0
    return AffineInterconnection(G=G, s=2.0 * C.T @ X[:, n])
