"""Orthonormal linear interconnections with affine offsets.

The interconnection maps the elements' c-outputs to their d-inputs,
d = G c + s, where G is norm-preserving.  For a problem's linear
constraints z[resid] = A z[free] - v, the map c -> G c + s is the
reflection across that affine set, computed in closed form by
`from_constraints` with one solve of the smaller Gram matrix, I + A A^T
or I + A^T A.  Up to `DENSE_MAX_DIM` coordinates (every shipped default
problem) G is formed and stored; a sparse G (the decentralized SVM's is
block-diagonal) is applied through a CSR copy.  Above it the build stops
at the Gram solve and keeps G = sign (I - 2 L R) as a `FactoredReflection`:
the two thin factors take O(N k) memory and time per apply, k the smaller
Gram size, where a dense G takes O(N^2).

`cayley` and `absorb_sources` (with `SourceRelation`) are the paper's
construction of the same map: a Cayley transform of a skew core, with
constant data as source relations eliminated into the offset.  Nothing
at run time calls them; they stay as the tests' reference for
`from_constraints` and as patch sites of the span tracer (`perfbench/tracing.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pairs import Block

__all__ = [
    "cayley",
    "check_orthonormal",
    "OrthonormalityReport",
    "AffineInterconnection",
    "FactoredReflection",
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


# G, or a factor L or R of a `FactoredReflection`, is applied through a CSR
# copy when at most this fraction of its entries is nonzero.  On one core a
# CSR product costs about 1 ns per stored nonzero against about 0.12 ns per
# entry of a dense OpenBLAS product, so CSR pays below a density near 1/8.
# The shipped builders lie far on either side: svm_consensus's G at 0.033
# (30 agents) and 0.010 (100), its factors 0.004 and 0.010 at 100 agents; all
# other G and the lasso's factors at 0.48 or more.
SPARSE_DENSITY = 1 / 8

# `from_constraints` stores G densely up to this many coordinates (2^18
# entries, 2 MB) and as a `FactoredReflection` above.  The cut keeps every
# default problem (N <= 480) on the stored G and its results unchanged; it
# is not the speed crossover, which moves with the Gram size k.  On one
# BLAS thread a factored apply costs 1.4-2.7x a dense one on the default
# problems of N <= 137 and overtakes it near N = 200 for a lasso with
# k = N/6, and desk-workload runs of every default problem took 7 % longer
# factored.  At the scale lasso's N = 2400 the factored apply streams 15 MB
# per call against the dense G's 46 MB, in a third of the time.
DENSE_MAX_DIM = 512


def _reflection(L, R, sign: float) -> np.ndarray:
    """The dense N x N matrix sign (I - 2 L R), L and R dense or CSR."""
    G = L @ R
    if not isinstance(G, np.ndarray):
        G = G.toarray()
    G *= -2.0 * sign
    G[np.diag_indices(G.shape[0])] += sign
    return G


def _csr_if_sparse(M: np.ndarray):
    """M as a CSR array when at most `SPARSE_DENSITY` of it is nonzero, else None."""
    if np.count_nonzero(M) > SPARSE_DENSITY * M.size:
        return None
    # Imported here: at module level scipy.sparse would more than double
    # the time `import scatopt` takes.
    from scipy.sparse import csr_array

    return csr_array(M)


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
        object.__setattr__(self, "_sparse", _csr_if_sparse(G))

    @property
    def dim(self) -> int:
        return self.s.shape[0]

    def linear(self, c: np.ndarray) -> np.ndarray:
        """G c for one vector (N,) or for each row of a batch (R, N)."""
        c = np.asarray(c, dtype=float)
        if c.shape[-1] != self.dim:
            raise ValueError(f"vector length {c.shape[-1]} != interconnection dim {self.dim}")
        return self._product(c)

    def _product(self, c: np.ndarray) -> np.ndarray:
        if self._sparse is None:
            return c @ self.G.T
        return (self._sparse @ c.T).T

    def apply(self, c: np.ndarray) -> np.ndarray:
        """G c + s, into a fresh array the caller may overwrite."""
        out = self.linear(c)
        out += self.s
        return out


@dataclass(frozen=True)
class FactoredReflection(AffineInterconnection):
    """The map c -> G c + s with G = sign (I - 2 L R) kept as its factors.

    L is (N, k) and R is (k, N), each a dense array or, when at most
    `SPARSE_DENSITY` of it is nonzero, a CSR copy; sign is +1 or -1.
    `apply` is the inherited one.  Reading `G` forms the dense N x N
    array anew each time and keeps nothing, so use it for checks only.
    """

    s: np.ndarray
    L: np.ndarray
    R: np.ndarray
    sign: float

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.shape != self.L.shape[:1] or self.R.shape != self.L.shape[::-1]:
            raise ValueError(
                f"factor shapes {self.L.shape} and {self.R.shape} do not match "
                f"offset shape {s.shape}"
            )
        if self.sign not in (1.0, -1.0):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not np.all(np.isfinite(s)):
            raise ValueError("offset contains non-finite entries")
        object.__setattr__(self, "s", s)
        for name in ("L", "R"):
            M = getattr(self, name)
            if isinstance(M, np.ndarray):
                if not np.all(np.isfinite(M)):
                    raise ValueError(f"factor {name} contains non-finite entries")
                sparse = _csr_if_sparse(M)
                if sparse is not None:
                    object.__setattr__(self, name, sparse)

    # An accessor, not a stored field: every read of G forms the N x N
    # array anew and keeps nothing.  This relies on `@dataclass` leaving
    # an init=False field's default, here the property, as the class
    # attribute, and on no method of this class assigning G.
    G: np.ndarray = field(init=False, repr=False, compare=False,
                          default=property(lambda self: _reflection(self.L, self.R, self.sign)))

    def _product(self, c: np.ndarray) -> np.ndarray:
        return self.sign * (c - 2.0 * (self.L @ (self.R @ c.T)).T)


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

    G = ic.G
    G_tt = G[np.ix_(keep, keep)]
    G_tk = G[np.ix_(keep, src_idx)]
    G_kt = G[np.ix_(src_idx, keep)]
    G_kk = G[np.ix_(src_idx, src_idx)]

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
    Above `DENSE_MAX_DIM` coordinates the build stops after the Gram solve
    and returns the `FactoredReflection` G = sign (I - 2 L R), with
    (L, R, sign) = (C^T, K^-1 C, +1) or (B, X, -1), and s = z0 - G z0.
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

    z0 = np.zeros(n)
    z0[resid_idx] = -v
    if nf < m:
        L = np.zeros((n, nf))  # B
        L[free_idx] = np.eye(nf)
        L[resid_idx] = A
        gram, sign = np.eye(nf) + A.T @ A, -1.0
    else:
        C = np.zeros((m, n))
        C[:, free_idx] = A
        C[:, resid_idx] = -np.eye(m)
        L, gram, sign = C.T, np.eye(m) + A @ A.T, 1.0
    # G = sign (I - 2 L R) and s = z0 - G z0, z0 being a point of the set
    X = np.linalg.solve(gram, np.column_stack([L.T, L.T @ z0]))
    R, x = X[:, :n], X[:, n]
    u = L @ x
    s = 2.0 * u if sign > 0 else 2.0 * (z0 - u)
    if n > DENSE_MAX_DIM:
        return FactoredReflection(s=s, L=L, R=R, sign=sign)
    return AffineInterconnection(G=_reflection(L, R, sign), s=s)
