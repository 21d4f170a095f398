"""Variable-pair readout and block indexing into stacked system vectors.

Every system coordinate carries a pair (a, b) of primal/dual decision
variables, iterated on as a transformed pair (c, d).  The transform is
the canonical mix (1/sqrt(2)) [[1, 1], [1, -1]], orthonormal and its own
inverse; the readout applies its inverse.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["PairTransform", "Block"]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class PairTransform:
    """The canonical pair mix (a, b) -> (c, d).  A class, so that the span
    tracer (`perfbench/tracing.py`) can wrap `invert_many` where
    `engine.readout` looks it up."""

    def invert_many(self, c, d):
        """Vectorized inverse transform on stacked coordinates."""
        c = np.asarray(c, dtype=float)
        d = np.asarray(d, dtype=float)
        # the 2x2 inverse (m22 c - m12 d, -m21 c + m11 d) / det, which
        # rounds unlike (c +- d) / sqrt(2); the readout's bits depend on it
        s = _INV_SQRT2
        det = -2.0 * s * s
        return ((-s) * c - s * d) / det, ((-s) * c + s * d) / det


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
