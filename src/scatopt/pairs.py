"""Variable-pair bookkeeping: 2x2 transforms between decision pairs and
iteration pairs, plus block indexing into stacked system vectors.

Every system coordinate carries a pair (a, b) of primal/dual decision
variables, iterated on as a transformed pair (c, d).  The canonical
transform is the orthonormal, self-inverse mixing matrix
(1/sqrt(2)) [[1, 1], [1, -1]].
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DecisionPair",
    "TransformedPair",
    "PairTransform",
    "canonical_transform",
    "Block",
]


class DecisionPair(NamedTuple):
    """Primal/dual decision variable pair."""

    a: float
    b: float


class TransformedPair(NamedTuple):
    """Mixed pair the iteration actually operates on."""

    c: float
    d: float


@dataclass(frozen=True)
class PairTransform:
    """Invertible 2x2 matrix mapping (a, b) -> (c, d)."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __post_init__(self):
        if not np.isfinite(self.det) or abs(self.det) < 1e-15:
            raise ValueError(f"pair transform is singular (det={self.det})")

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    def is_orthonormal(self, tol: float = 1e-12) -> bool:
        M = self.as_matrix()
        return bool(np.abs(M.T @ M - np.eye(2)).max() <= tol)

    def apply(self, pair: DecisionPair) -> TransformedPair:
        return TransformedPair(*self.apply_many(pair.a, pair.b))

    def invert(self, tp: TransformedPair) -> DecisionPair:
        return DecisionPair(*self.invert_many(tp.c, tp.d))

    def apply_many(self, a, b):
        """Vectorized forward transform on stacked coordinates."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return self.m11 * a + self.m12 * b, self.m21 * a + self.m22 * b

    def invert_many(self, c, d):
        """Vectorized inverse transform on stacked coordinates."""
        c = np.asarray(c, dtype=float)
        d = np.asarray(d, dtype=float)
        return (self.m22 * c - self.m12 * d) / self.det, (-self.m21 * c + self.m11 * d) / self.det


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def canonical_transform() -> PairTransform:
    """The default pair mixing matrix: orthonormal and its own inverse."""
    return PairTransform(_INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)


@dataclass(frozen=True)
class Block:
    """Contiguous index range [offset, offset + length) in a system vector."""

    offset: int
    length: int

    def __post_init__(self):
        # plain ints, so that reports holding them serialize as JSON
        object.__setattr__(self, "offset", operator.index(self.offset))
        object.__setattr__(self, "length", operator.index(self.length))
        if self.offset < 0:
            raise ValueError(f"block offset must be nonnegative, got {self.offset}")
        if self.length <= 0:
            raise ValueError(f"block length must be positive, got {self.length}")

    @property
    def stop(self) -> int:
        return self.offset + self.length

    @property
    def slice(self) -> slice:
        return slice(self.offset, self.stop)
