"""Array-kernel backends for the vector engine.

The lockstep engine has exactly two inner loops whose cost dominates a
large-n slot: the CSR reception scatter (enumerate every transmitter's
neighbor run, accumulate per-receiver hit counts and sender-index sums)
and the Decay session step (transmit-then-flip over the active pairs).
Both are pure array kernels, so they live behind one small interface:

* ``numpy`` — the default, pure-NumPy formulations (``np.bincount`` /
  ``np.add.at`` scatters, boolean masking).  Always available.
* ``numba`` — the same kernels as JIT-compiled explicit loops.  Numba is
  strictly optional: when the wheel is not importable the backend falls
  back to numpy *silently at resolve time* — the kernels are
  bit-identical, so the fallback changes wall-clock only, never a
  result.  (The resolved name stays observable via
  ``KernelBackend.name`` so benchmarks can report what actually ran.)
* ``auto`` — numba when importable, else numpy.

The *requested* backend is part of every task's cache identity (see
:class:`~repro.runner.task.TaskSpec`), exactly like ``reception=``:
backends are bit-identical in outcome, but a cached record must state
how it was produced, and ``auto``'s resolution may change with the
environment.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: The array backends a task may select.  ``auto`` resolves per
#: environment (numba when importable, else numpy).
BACKENDS: Tuple[str, ...] = ("numpy", "numba", "auto")


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown array backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


_NUMBA_AVAILABLE: Optional[bool] = None


def numba_available() -> bool:
    """Whether the optional numba wheel is importable (probed once)."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:
            import numba  # noqa: F401
        except ImportError:
            _NUMBA_AVAILABLE = False
        else:
            _NUMBA_AVAILABLE = True
    return _NUMBA_AVAILABLE


def available_backends() -> Tuple[str, ...]:
    """The backends that will actually run in this environment."""
    return ("numpy", "numba") if numba_available() else ("numpy",)


# ----------------------------------------------------------------------
# numpy kernels (the reference implementations)
# ----------------------------------------------------------------------


def _np_csr_counts(
    b_idx: np.ndarray,
    u_idx: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    B: int,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Full-width CSR scatter: dense float32 ``(counts, senders)``.

    Gathers every transmitter's neighbor run (run r spans
    ``indices[starts[r] : starts[r] + lengths[r]]``) and bincounts hits
    and sender-index sums over the whole (B, n) plane.  Integer values
    stay far below 2²⁴, so the float32 casts are exact.
    """
    counts = np.zeros((B, n), dtype=np.float32)
    senders = np.zeros((B, n), dtype=np.float32)
    starts = indptr[u_idx]
    lengths = indptr[u_idx + 1] - starts
    total = int(lengths.sum())
    if total:
        ends = np.cumsum(lengths)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            ends - lengths, lengths
        )
        receivers = indices[np.repeat(starts, lengths) + within]
        flat = np.repeat(b_idx, lengths) * n + receivers
        hit = np.bincount(flat, minlength=B * n)
        sender_sum = np.bincount(
            flat,
            weights=np.repeat(u_idx, lengths).astype(np.float64),
            minlength=B * n,
        )
        counts = hit.reshape(B, n).astype(np.float32)
        senders = sender_sum.reshape(B, n).astype(np.float32)
    return counts, senders


def _np_scatter_into(
    b_idx: np.ndarray,
    u_idx: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    hits: np.ndarray,
    senders: np.ndarray,
    n: int,
) -> np.ndarray:
    """Masked scatter into persistent *flat* buffers; returns touched.

    Accumulates each transmitter's neighbor run into ``hits`` (int32,
    B·n flat) and ``senders`` (int64, B·n flat) at only the receiver
    entries adjacent to a transmitter — O(transmitters · degree) work,
    never O(B·n).  The returned flat index array (with duplicates) is
    what the caller must zero to restore the buffers.
    """
    starts = indptr[u_idx]
    lengths = indptr[u_idx + 1] - starts
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        ends - lengths, lengths
    )
    receivers = indices[np.repeat(starts, lengths) + within]
    flat = np.repeat(b_idx, lengths) * n + receivers
    np.add.at(hits, flat, 1)
    np.add.at(senders, flat, np.repeat(u_idx, lengths))
    return flat


def _np_decay_pairs(
    alive: np.ndarray,
    steps: np.ndarray,
    budget: int,
    rows: np.ndarray,
    cols: np.ndarray,
    coins: np.ndarray,
) -> np.ndarray:
    """One masked Decay opportunity over an active pair list.

    Pair semantics match :meth:`~repro.vector.decay.BatchDecay.transmit`
    exactly — transmit first, flip after — restricted to the given
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


# ----------------------------------------------------------------------
# numba kernels (compiled lazily; bit-identical to the numpy ones)
# ----------------------------------------------------------------------

_NUMBA_KERNELS: Optional[dict] = None


def _build_numba_kernels() -> dict:
    global _NUMBA_KERNELS
    if _NUMBA_KERNELS is not None:
        return _NUMBA_KERNELS
    import numba

    @numba.njit(cache=True)
    def csr_counts(b_idx, u_idx, indptr, indices, B, n):
        counts = np.zeros((B, n), dtype=np.float32)
        senders = np.zeros((B, n), dtype=np.float32)
        for r in range(b_idx.size):
            b = b_idx[r]
            u = u_idx[r]
            for j in range(indptr[u], indptr[u + 1]):
                v = indices[j]
                counts[b, v] += np.float32(1.0)
                senders[b, v] += np.float32(u)
        return counts, senders

    @numba.njit(cache=True)
    def scatter_into(b_idx, u_idx, indptr, indices, hits, senders, n):
        total = 0
        for r in range(u_idx.size):
            u = u_idx[r]
            total += indptr[u + 1] - indptr[u]
        touched = np.empty(total, dtype=np.int64)
        t = 0
        for r in range(b_idx.size):
            base = b_idx[r] * n
            u = u_idx[r]
            for j in range(indptr[u], indptr[u + 1]):
                f = base + indices[j]
                hits[f] += 1
                senders[f] += u
                touched[t] = f
                t += 1
        return touched

    @numba.njit(cache=True)
    def decay_pairs(alive, steps, budget, rows, cols, coins):
        out = np.empty(rows.size, dtype=np.bool_)
        for r in range(rows.size):
            b = rows[r]
            v = cols[r]
            transmitting = alive[b, v] and steps[b, v] < budget
            if transmitting:
                steps[b, v] += 1
                if coins[r] < 0.5:
                    alive[b, v] = False
            out[r] = transmitting
        return out

    _NUMBA_KERNELS = {
        "csr_counts": csr_counts,
        "scatter_into": scatter_into,
        "decay_pairs": decay_pairs,
    }
    return _NUMBA_KERNELS


# ----------------------------------------------------------------------
# the backend object
# ----------------------------------------------------------------------


class KernelBackend:
    """A resolved set of array kernels (one per inner loop).

    ``requested`` is the knob value (part of task identity); ``name`` is
    what actually runs after environment resolution.  ``decay_pairs``
    may be ``None`` — :class:`~repro.vector.decay.BatchDecay` then uses
    its own NumPy formulation, which keeps the Decay step overridable by
    harness subclasses regardless of backend.
    """

    def __init__(
        self,
        requested: str,
        name: str,
        csr_counts: Callable,
        scatter_into: Callable,
        decay_pairs: Optional[Callable],
    ):
        self.requested = requested
        self.name = name
        self.csr_counts = csr_counts
        self.scatter_into = scatter_into
        self.decay_pairs = decay_pairs


def resolve_backend(backend: str = "auto") -> KernelBackend:
    """Resolve a backend knob to runnable kernels for this environment.

    ``numba`` (explicit or via ``auto``) falls back to numpy when the
    wheel is missing — results are bit-identical either way, so the
    fallback is silent and only the resolved :attr:`KernelBackend.name`
    records it.
    """
    validate_backend(backend)
    use_numba = backend in ("numba", "auto") and numba_available()
    if use_numba:
        kernels = _build_numba_kernels()
        return KernelBackend(
            requested=backend,
            name="numba",
            csr_counts=kernels["csr_counts"],
            scatter_into=kernels["scatter_into"],
            decay_pairs=kernels["decay_pairs"],
        )
    return KernelBackend(
        requested=backend,
        name="numpy",
        csr_counts=_np_csr_counts,
        scatter_into=_np_scatter_into,
        decay_pairs=None,
    )
