"""Variable-pair readout and block indexing into stacked system vectors.

Every system coordinate carries a pair (a, b) of primal/dual decision
variables, iterated on as a transformed pair (c, d).  The canonical
transform is the orthonormal, self-inverse mixing matrix
(1/sqrt(2)) [[1, 1], [1, -1]]; the readout applies its inverse.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["PairTransform", "canonical_transform", "Block"]


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
