"""The vector engine: NumPy lockstep batch simulation of B replications.

Layout mirrors the scalar stack: :mod:`~repro.vector.engine` is the
radio layer (batched reception), :mod:`~repro.vector.decay` the batched
Decay primitive, :mod:`~repro.vector.collection` the pipelined §4
protocol, and :mod:`~repro.vector.check` the scalar-equivalence harness
(exact invariants + KS test).  :mod:`~repro.vector.backend` supplies the
pluggable array kernels (numpy default, optional numba JIT)
behind the ``backend=`` knob, and the ``mask=`` knob selects the
active-set lockstep loop whose per-slot work scales with the awake
population instead of B·n.
"""

from repro.vector.backend import (
    BACKENDS,
    KernelBackend,
    available_backends,
    numba_available,
    resolve_backend,
    validate_backend,
)
from repro.vector.collection import (
    BatchCollection,
    BatchCollectionResult,
    run_collection_batch,
)
from repro.vector.decay import BatchDecay
from repro.vector.engine import (
    ENGINES,
    MASK_MODES,
    RECEPTION_MODES,
    BatchTrace,
    LockstepRadio,
    SlotRecord,
    validate_engine,
    validate_mask,
    validate_reception,
)

__all__ = [
    "BACKENDS",
    "BatchCollection",
    "BatchCollectionResult",
    "BatchDecay",
    "BatchTrace",
    "ENGINES",
    "KernelBackend",
    "LockstepRadio",
    "MASK_MODES",
    "RECEPTION_MODES",
    "SlotRecord",
    "available_backends",
    "numba_available",
    "resolve_backend",
    "run_collection_batch",
    "validate_backend",
    "validate_engine",
    "validate_mask",
    "validate_reception",
]
