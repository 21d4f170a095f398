"""scatopt: optimization by fixed-point iteration on conservative
signal-flow systems.

Convex and nonconvex problems are posed as separable costs coupled by
linear constraints, realized as reflected proximal elements connected
through an orthonormal interconnection, and solved by synchronous or
asynchronous (Bernoulli sample-and-hold) iteration.
"""

from .elements import (
    CappedL1,
    DissipativityReport,
    Element,
    Hinge,
    HuberL1,
    LinfEpigraph,
    OneSidedPenalty,
    PairCoupling,
    Quadratic,
    SoftThreshold,
    dissipativity_probe,
)
from .engine import (
    DelayBank,
    DivergedError,
    RunResult,
    RunTrace,
    System,
    SystemState,
    run,
    run_ensemble,
    run_error_system,
)
from .interconnect import (
    AffineInterconnection,
    SourceRelation,
    absorb_sources,
    cayley,
    check_orthonormal,
    from_constraints,
)
from .pairs import Block, PairTransform, canonical_transform

__version__ = "0.1.0"
