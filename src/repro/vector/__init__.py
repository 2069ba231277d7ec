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

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "backend": ("resolve_backend",),
    "collection": (
        "BatchCollection",
        "BatchCollectionResult",
        "run_collection_batch",
    ),
    "decay": ("BatchDecay",),
    "engine": ("BatchTrace", "LockstepRadio", "SlotRecord"),
    # The engine names live with the task model, which loads no NumPy.
    ".runner.task": ("ENGINES", "validate_engine"),
})
