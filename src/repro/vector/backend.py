"""The vector engine's array kernels.

The lockstep engine has exactly two inner loops whose cost dominates a
large-n slot: the CSR reception scatter (§1.1's exactly-one-transmitter
rule: enumerate every transmitter's neighbor run, accumulate
per-receiver hit counts and sender-index sums) and the Decay session
step (§1.4's transmit-then-flip over the active pairs).  Both are pure
NumPy kernels, called directly by
:class:`~repro.vector.engine.LockstepRadio`,
:class:`~repro.vector.collection.BatchCollection` and
:class:`~repro.vector.decay.BatchDecay`.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Tuple

import numpy as np


def _neighbor_runs(
    b_idx: np.ndarray,
    u_idx: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every transmitter's neighbor run, flattened: ``(flat, senders)``.

    Transmitter r is station ``u_idx[r]`` of replication ``b_idx[r]``;
    its run is ``indices[indptr[u] : indptr[u + 1]]``.  Each receiver in
    a run appears as the flat ``b·n + receiver`` index, next to the
    index of the transmitter it hears.
    """
    starts = indptr[u_idx]
    lengths = indptr[u_idx + 1] - starts
    ends = np.cumsum(lengths)
    within = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(
        ends - lengths, lengths
    )
    receivers = indices[np.repeat(starts, lengths) + within]
    flat = np.repeat(b_idx, lengths) * n + receivers
    return flat, np.repeat(u_idx, lengths)


def csr_counts(
    b_idx: np.ndarray,
    u_idx: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    B: int,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Full-width CSR scatter: dense float32 ``(counts, senders)``.

    Bincounts hits and sender-index sums of every transmitter's neighbor
    run over the whole (B, n) plane.  Integer values stay far below
    2²⁴, so the float32 casts are exact.
    """
    flat, senders = _neighbor_runs(b_idx, u_idx, indptr, indices, n)
    hit = np.bincount(flat, minlength=B * n)
    sender_sum = np.bincount(
        flat, weights=senders.astype(np.float64), minlength=B * n
    )
    return (
        hit.reshape(B, n).astype(np.float32),
        sender_sum.reshape(B, n).astype(np.float32),
    )


def scatter_into(
    b_idx: np.ndarray,
    u_idx: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    hits: np.ndarray,
    senders: np.ndarray,
    n: int,
) -> np.ndarray:
    """Pair-list scatter into persistent *flat* buffers; returns touched.

    Accumulates each transmitter's neighbor run into ``hits`` (int32,
    B·n flat) and ``senders`` (int64, B·n flat) at only the receiver
    entries adjacent to a transmitter — O(transmitters · degree) work,
    never O(B·n).  The returned flat index array (with duplicates) is
    what the caller must zero to restore the buffers.
    """
    flat, sender_ids = _neighbor_runs(b_idx, u_idx, indptr, indices, n)
    # The increment is a scalar of the buffer's own dtype: a Python int
    # against the int32 buffer sends ``ufunc.at`` down its casting slow
    # path, an order of magnitude slower.
    np.add.at(hits, flat, hits.dtype.type(1))
    np.add.at(senders, flat, sender_ids)
    return flat


def decay_pairs(
    alive: np.ndarray,
    steps: np.ndarray,
    budget: int,
    rows: np.ndarray,
    cols: np.ndarray,
    coins: np.ndarray,
) -> np.ndarray:
    """One Decay opportunity over an active pair list.

    Paper order — transmit first, flip after — restricted to the given
    (replication, station) pairs.  Mutates ``alive``/``steps`` in place
    at the pair positions and returns the per-pair transmit mask.
    """
    session = alive[rows, cols]
    transmitting = session & (steps[rows, cols] < budget)
    steps[rows, cols] += transmitting
    died = transmitting & (coins < 0.5)
    if died.any():
        alive[rows[died], cols[died]] = False
    return transmitting


#: The one kernel set, by name.  Nothing in ``src/`` calls or branches
#: on it: it and :func:`resolve_backend` stay only because
#: ``perfbench/run.py`` reports ``resolve_backend("auto").name`` and
#: ``perfbench/vector_batch.py`` reads ``LockstepRadio.backend.name``.
KERNELS = SimpleNamespace(name="numpy")


def resolve_backend(_requested: str = "auto") -> SimpleNamespace:
    """:data:`KERNELS`, whatever is asked for (read by ``perfbench/``)."""
    return KERNELS
