"""Orthonormal linear interconnections with affine offsets.

The interconnection maps the elements' c-outputs to their d-inputs,
d = G c + s, where G is norm-preserving.  `from_constraints` builds it as
the reflection across a problem's affine constraint set, stored as a dense
`AffineInterconnection`, a `BlockReflection` or a `FactoredReflection`;
its docstring states the formula and the choice of form.
`check_orthonormal` measures how far a G is from orthonormal.

`cayley` and `absorb_sources` (with `SourceRelation`) are the paper's
construction of the same map: a Cayley transform of a skew core, with
constant data as source relations eliminated into the offset.  Nothing
at run time calls them, and they are not exported; they stay as the
tests' reference for `from_constraints` and as patch sites of the span
tracer (`perfbench/tracing.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pairs import Block

__all__ = [
    "check_orthonormal",
    "OrthonormalityReport",
    "AffineInterconnection",
    "from_constraints",
    "GramOverflowError",
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


_ORTHONORMAL_TOL = 1e-10  # the largest deviation that passes as orthonormal


def check_orthonormal(G: np.ndarray) -> OrthonormalityReport:
    """Report the max-abs deviation of G^T G from the identity, for one
    square matrix or the worst of a stack (nb, k, k) of them; it passes
    when that is at most _ORTHONORMAL_TOL."""
    G = np.asarray(G, dtype=float)
    if G.ndim not in (2, 3) or G.shape[-1] != G.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {G.shape}")
    dev = float(np.abs(np.swapaxes(G, -1, -2) @ G - np.eye(G.shape[-1])).max())
    return OrthonormalityReport(max_deviation=dev, passed=dev <= _ORTHONORMAL_TOL)


# `from_constraints` keeps G as per-component blocks when the blocks hold
# at most this share of its N^2 entries.  The shipped builders lie far on
# either side: svm_consensus's blocks hold 1/30 (30 agents) and 1/100 (100
# agents) of G; every other problem has one component, or minimax_fir's
# 136 + 1 and minimax_fir_split's 80 + 80 + 2 + 2, at 0.48 or more.
BLOCK_SHARE = 1 / 8

# `from_constraints` stores G densely up to this many coordinates (2^18
# entries, 2 MB) and as a `FactoredReflection` above.  The cut keeps every
# default problem (N <= 480) on the stored G; it is not the speed
# crossover, which moves with the Gram size k.  On one BLAS thread of a
# 2-vCPU x86 box a factored apply costs 16-18 us, 2.8-5.5x a dense one, on
# the default problems of N <= 164, and overtakes it between N = 300 and
# 480 for a lasso with k = N/6.  At the scale lasso's N = 2400 (k = 400)
# it reads A twice and K^-1 once, 14 MB per call against the dense G's
# 46 MB, in 0.60 ms against 1.88 ms.  Both forms start from the same K^-1;
# the builds take 0.12-0.44 ms for the dense defaults (N = 30 to 164),
# 0.70 ms for the 30-agent svm's blocks and 21-24 ms for the scale lasso.
DENSE_MAX_DIM = 512


def _sign(A: np.ndarray) -> float:
    """+1 for the constraint-normal form (m <= nf), -1 for the parametrization."""
    m, nf = A.shape[-2:]
    return 1.0 if m <= nf else -1.0


class GramOverflowError(ValueError):
    """The constraint data are finite but too large: the Gram matrix K = I + A A^T
    overflows, or is singular to working precision.  K is never singular in exact
    arithmetic; rounding makes it so when A is rank-deficient and so large that
    the identity is lost."""


def _gram_inverse(A: np.ndarray) -> np.ndarray:
    """K^-1 for the smaller Gram matrix, K = I + A A^T (sign +1) or
    I + A^T A (sign -1), of A (m, nf) or of each A of a stack (nb, m, nf)."""
    m, nf = A.shape[-2:]
    At = np.swapaxes(A, -1, -2)
    K = np.eye(m) + A @ At if m <= nf else np.eye(nf) + At @ A
    if not np.all(np.isfinite(K)):
        raise GramOverflowError("constraint matrix A is too large: its Gram matrix overflows")
    try:
        return np.linalg.inv(K)
    except np.linalg.LinAlgError as exc:
        raise GramOverflowError("constraint matrix A is too large: its Gram matrix is "
                                "singular to working precision") from exc


# The helpers below apply L, given by A and the index sets as in
# `from_constraints`.  With a stack of A (nb, m, nf), vectors carry a row
# axis: c is (nb, R, N).


def _gram_side(A, free, resid, c: np.ndarray) -> np.ndarray:
    """L^T c, (..., N) -> (..., k)."""
    cf, cr = c[..., free], c[..., resid]
    return cf @ np.swapaxes(A, -1, -2) - cr if _sign(A) > 0 else cf + cr @ A


def _lift(A, free, resid, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """L w, (..., k) -> (..., N), into `out` or a fresh array."""
    if out is None:
        out = np.empty(w.shape[:-1] + (sum(A.shape[-2:]),))
    if _sign(A) > 0:
        out[..., free] = w @ A
        out[..., resid] = -w
    else:
        out[..., free] = w
        out[..., resid] = w @ np.swapaxes(A, -1, -2)
    return out


def _dense_reflection(A, free, resid, gram_inv: np.ndarray) -> np.ndarray:
    """The dense G = sign (I - 2 L M), M = K^-1 L^T, or a stack of them."""
    # M (k, N) is the one temporary beside G: G is symmetric, so its rows
    # are L applied to M's columns, lifted a few at a time
    M = _lift(A, free, resid, gram_inv)
    n = M.shape[-1]
    G = np.empty(M.shape[:-2] + (n, n))
    for r in range(0, n, 64):
        _lift(A, free, resid, np.swapaxes(M[..., r : r + 64], -1, -2), out=G[..., r : r + 64, :])
    sign = _sign(A)
    G *= -2.0 * sign
    diag = np.arange(n)
    G[..., diag, diag] += sign
    return G


def _offset(A, free, resid, gram_inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """s = z0 - G z0 for the set's point z0 = (0, -v): twice the projection
    u = L K^-1 L^T z0 when sign = +1, twice z0 - u when sign = -1.  With a
    stack of A, v is (nb, m) and s (nb, N)."""
    z0 = np.zeros(v.shape[:-1] + (1, sum(A.shape[-2:])))
    z0[..., resid] = -v[..., None, :]
    u = _lift(A, free, resid, _gram_side(A, free, resid, z0) @ np.swapaxes(gram_inv, -1, -2))
    return (2.0 * u if _sign(A) > 0 else 2.0 * (z0 - u))[..., 0, :]


def _checked_offset(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"offset must be a vector, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("offset contains non-finite entries")
    return s


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
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "_GT", G.T)  # kept: each product would make this view anew
        object.__setattr__(self, "s", _checked_offset(s))

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
        return c @ self._GT

    def apply(self, c: np.ndarray) -> np.ndarray:
        """G c + s, into a fresh array the caller may overwrite; the loop's step, so it takes
        a float (N,) or (R, N) array and skips `linear`'s conversion and length check."""
        out = self._product(c)
        out += self.s
        return out


class _FormedOnRead(AffineInterconnection):
    """Base of the forms that keep G implicit.  Each subclass declares `G`
    as a field outside `__init__` with no default, so the dataclass keeps
    no class attribute of that name and `G` reads this property: the dense
    N x N array, formed anew by `_dense` and kept nowhere.  Use it for
    checks only."""

    @property
    def G(self) -> np.ndarray:
        return self._dense()


@dataclass(frozen=True)
class BlockReflection(_FormedOnRead):
    """The map c -> G c + s with G block-diagonal up to a permutation of
    the coordinates, kept as its blocks.

    For each block size k, `index` holds an (nb, k) array of coordinates
    and `blocks` the (nb, k, k) stack with G[i[:, None], i] = B for each
    row i of the index and block B; the index arrays together partition
    0..N-1.  A product gathers each stack's coordinates, multiplies in one
    batched matmul and scatters the result.  `from_constraints`, its only
    constructor, guarantees the shapes and the partition; this checks only
    that s and the blocks are finite.
    """

    G: np.ndarray = field(init=False, repr=False, compare=False)
    index: tuple
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "s", _checked_offset(self.s))
        if not all(np.all(np.isfinite(B)) for B in self.blocks):
            raise ValueError("blocks contain non-finite entries")

    def _dense(self) -> np.ndarray:
        G = np.zeros((self.dim, self.dim))
        for i, B in zip(self.index, self.blocks):
            G[i[:, :, None], i[:, None, :]] = B
        return G

    def _product(self, c: np.ndarray) -> np.ndarray:
        out = np.empty_like(c)
        for i, B in zip(self.index, self.blocks):
            if c.ndim == 1:
                out[i] = (B @ c[i][..., None])[..., 0]
            else:
                # (nb, k, k) @ (nb, k, R), gathered as c[:, i]: c.T[i]'s layout, faster
                out.T[i] = B @ c[:, i].transpose(1, 2, 0)
        return out


@dataclass(frozen=True)
class FactoredReflection(_FormedOnRead):
    """The map c -> G c + s with G = sign (I - 2 L K^-1 L^T) the reflection
    across {z : z[resid] = A z[free] - v}, kept as A, the index sets and
    `gram_inv` = K^-1 (k x k, k = min(m, nf)), with L, K and sign = +1 for
    m <= nf, else -1, as in `from_constraints`: O(m nf + k^2) memory and
    time per product, where a dense G takes O(N^2).  `from_constraints`, its
    only constructor, passes read-only copies of a finite A and of index
    sets partitioning 0..N-1, which `dataclasses.replace` shares; this
    checks only that s and K^-1 are finite.
    """

    G: np.ndarray = field(init=False, repr=False, compare=False)
    A: np.ndarray
    free: np.ndarray
    resid: np.ndarray
    gram_inv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", _checked_offset(self.s))
        if not np.all(np.isfinite(self.gram_inv)):
            raise ValueError("gram_inv contains non-finite entries")

    @property
    def sign(self) -> float:
        return _sign(self.A)

    def _dense(self) -> np.ndarray:
        return _dense_reflection(self.A, self.free, self.resid, self.gram_inv)

    def _product(self, c: np.ndarray) -> np.ndarray:
        # G c = sign c + L w with w = -2 sign K^-1 L^T c
        w = _gram_side(self.A, self.free, self.resid, c) @ self.gram_inv.T
        w *= -2.0 * self.sign
        return _lift(self.A, self.free, self.resid, w) + self.sign * c


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


def _components(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected-component labels 0, 1, ... of the rows and of the columns
    of A, where row i and column j are joined when A[i, j] != 0.

    Nodes are numbered columns first, then rows, and each carries the root
    of its tree, a node of its component.  Each round finds every node's
    least label among itself and its neighbours, by minimum reductions
    (`minimum.at`) from either end of A's nonzeros; hooks every root onto
    the least of these over its tree (a sorted `minimum.reduceat`); then
    jumps each label to its root.  Trees merge with their neighbours every
    round, so even a shuffled path of 4000 nodes settles in 10 rounds.
    """
    m, nf = A.shape
    rows, cols = np.nonzero(A)
    rows += nf  # as node numbers: columns first, then rows
    top = nf + m
    label = np.arange(top)
    while True:
        least = label.copy()
        np.minimum.at(least, rows, label[cols])
        np.minimum.at(least, cols, label[rows])
        if np.array_equal(least, label):
            break
        order = np.argsort(label, kind="stable")
        starts = np.flatnonzero(np.diff(label[order], prepend=-1))
        root = np.arange(top)
        root[label[order[starts]]] = np.minimum.reduceat(least[order], starts)
        label = root[label]
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    comp = np.unique(label, return_inverse=True)[1]
    return comp[nf:], comp[:nf]


def _block_reflection(A, free_idx, resid_idx, v, row_comp, col_comp) -> BlockReflection:
    """The reflection built per component, equal-shaped ones as one stack."""
    n_comp = int(np.concatenate([row_comp, col_comp]).max()) + 1
    m_c, nf_c = (np.bincount(c, minlength=n_comp) for c in (row_comp, col_comp))
    rows_by_comp = np.argsort(row_comp, kind="stable")
    cols_by_comp = np.argsort(col_comp, kind="stable")
    s = np.empty(len(free_idx) + len(resid_idx))
    stacks: dict[int, list] = {}
    for mk, fk in np.unique(np.column_stack([m_c, nf_c]), axis=0):
        shaped = (m_c == mk) & (nf_c == fk)
        nb = int(shaped.sum())
        rows = rows_by_comp[shaped[row_comp[rows_by_comp]]].reshape(nb, mk)
        cols = cols_by_comp[shaped[col_comp[cols_by_comp]]].reshape(nb, fk)
        A_b = A[rows[:, :, None], cols[:, None, :]]
        own = np.arange(fk), np.arange(fk, fk + mk)  # each block's free, then residual
        gram_inv = _gram_inverse(A_b)
        index = np.concatenate([free_idx[cols], resid_idx[rows]], axis=1)
        s[index] = _offset(A_b, *own, gram_inv, v[rows])
        stacks.setdefault(fk + mk, []).append((index, _dense_reflection(A_b, *own, gram_inv)))
    return BlockReflection(
        s=s,
        index=tuple(np.concatenate([i for i, _ in group]) for group in stacks.values()),
        blocks=tuple(np.concatenate([B for _, B in group]) for group in stacks.values()),
    )


# finite data can still overflow: `_gram_inverse` and the forms reject it
@np.errstate(over="ignore", invalid="ignore")
def from_constraints(
    A: np.ndarray,
    free_idx: np.ndarray,
    resid_idx: np.ndarray,
    offset: np.ndarray | None = None,
) -> AffineInterconnection:
    """Build the interconnection enforcing z[resid] = A z[free] - offset.

    G c + s is the reflection of c across the affine set {z : C z = v},
    where C = [A | -I] in (free, resid) column order and v the offset:
        G = sign (I - 2 L K^-1 L^T),   s = z0 - G z0,   z0 = (0, -v),
    with (L, sign) = (C^T, +1) and K = C C^T = I + A A^T when there are
    no more constraints than free coordinates (the constraint normals),
    else (L, sign) = (B, -1) and K = B^T B = I + A^T A with B = [I; A] in
    (free, resid) row order (the set's parametrization z = B x + z0).
    Every form is built from A, the index sets and one K^-1 and never
    forms L; s comes from the projection L K^-1 L^T z0.

    The set is the product of the sets of the connected components of the
    graph joining row i and column j when A[i, j] != 0, and its reflection
    the product of theirs.  When the components' blocks hold at most
    `BLOCK_SHARE` of the N^2 entries, each stack of equal-shaped
    components is built at once and the map is a `BlockReflection`.
    Otherwise G is formed and stored up to `DENSE_MAX_DIM` coordinates;
    above, the map is the `FactoredReflection` holding read-only copies
    of A, the index sets and K^-1.
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

    # each row's and column's component holds it and its neighbours, so the
    # blocks hold at least n + 2 nnz(A) entries: past the cut, skip labelling
    if n + 2 * np.count_nonzero(A) <= BLOCK_SHARE * n * n:
        row_comp, col_comp = _components(A)
        sizes = np.bincount(np.concatenate([row_comp, col_comp]))
        if (sizes**2).sum() <= BLOCK_SHARE * n * n:
            return _block_reflection(A, free_idx, resid_idx, v, row_comp, col_comp)
    gram_inv = _gram_inverse(A)
    s = _offset(A, free_idx, resid_idx, gram_inv, v)
    if n <= DENSE_MAX_DIM:
        return AffineInterconnection(G=_dense_reflection(A, free_idx, resid_idx, gram_inv), s=s)
    held = [A.copy(), free_idx.copy(), resid_idx.copy(), gram_inv]
    for M in held:
        M.flags.writeable = False
    return FactoredReflection(s, *held)
