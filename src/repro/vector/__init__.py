"""The vector engine: NumPy lockstep batch simulation of B replications.

Layout mirrors the scalar stack: :mod:`~repro.vector.engine` is the
radio layer (batched CSR reception), :mod:`~repro.vector.decay` the
batched Decay primitive, :mod:`~repro.vector.collection` the pipelined
§4 protocol, and :mod:`~repro.vector.check` the scalar-equivalence
harness (exact invariants + KS test).  :mod:`~repro.vector.backend`
holds the NumPy array kernels (the CSR scatter and the Decay step).
There is one lockstep loop and one kernel set: its per-slot work scales
with the awake population, not B·n.
"""

from repro.vector.backend import resolve_backend
from repro.vector.collection import (
    BatchCollection,
    BatchCollectionResult,
    run_collection_batch,
)
from repro.vector.decay import BatchDecay
from repro.vector.engine import (
    ENGINES,
    BatchTrace,
    LockstepRadio,
    SlotRecord,
    validate_engine,
)

__all__ = [
    "BatchCollection",
    "BatchCollectionResult",
    "BatchDecay",
    "BatchTrace",
    "ENGINES",
    "LockstepRadio",
    "SlotRecord",
    "resolve_backend",
    "run_collection_batch",
    "validate_engine",
]
