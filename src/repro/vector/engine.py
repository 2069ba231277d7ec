"""The lockstep batch radio: B replications resolved by one CSR scatter.

The scalar engine (:mod:`repro.radio.network`) resolves each slot by
iterating neighbors in Python.  For a *batch* of B independent
replications running the same protocol on one topology, the paper's
reception rule — a station receives iff **exactly one** neighbor
transmits (§1.1) — becomes a scatter over the adjacency in CSR form
(compressed sparse rows: ``indptr``/``indices`` arrays, one run of
neighbor indices per node, read from :meth:`Graph.csr
<repro.graphs.graph.Graph.csr>`).  Per slot, the transmitting
(replication, station) pairs are enumerated, each transmitter's neighbor
run is gathered from ``indices``, and per-receiver hit counts are
accumulated; a receiver hears a message exactly where its count is 1
and it was itself silent.  Work is O(transmitters · degree) per slot and
memory is O(edges), never O(n²), which is what makes n ≥ 10⁴ runs
feasible.

:class:`LockstepRadio` packages the topology-side state (CSR arrays,
node indexing, per-node BFS parents/levels) and the per-slot
resolution; protocol dynamics live in :mod:`repro.vector.collection`.

Engine selection
----------------
The runner exposes both engines behind one interface: every
:class:`~repro.runner.task.TaskSpec` carries ``engine="scalar"`` (the
pure-Python slot loop, the reference implementation) or
``engine="vector"`` (this subsystem), the result-cache key covers the
choice, and experiments opt in by registering a batch task function.
The names of the engines (:data:`~repro.runner.task.ENGINES`) live with
the task model, which loads no NumPy.
Vector runs are *distributionally* equivalent to scalar runs — same
protocol, same exact invariants, statistically identical outcomes —
but never coin-flip-identical, because NumPy streams cannot be
bit-matched to ``random.Random``.  The equivalence harness
(:mod:`repro.vector.check`) makes that contract testable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.vector.backend import KERNELS, csr_counts


class LockstepRadio:
    """Topology-side state for B lockstep replications on one graph.

    Nodes are re-indexed ``0..n-1`` in the sorted order of
    ``graph.nodes`` (the same order every scalar component iterates in);
    all batch state elsewhere is indexed by these positions.  The dense
    (n, n) :attr:`adjacency` is built lazily, on first access only: the
    trace-driven invariant checks read it, and they only ever run on
    small cells.
    """

    #: The only reception kernel and kernel set;
    #: ``perfbench/vector_batch.py`` reads both.
    reception = "sparse"
    backend = KERNELS

    def __init__(self, graph: Graph, tree: BFSTree, replications: int):
        if replications < 1:
            raise ConfigurationError(
                f"need at least one replication, got {replications}"
            )
        self.graph = graph
        self.tree = tree
        self.num_replications = replications
        self.nodes: Tuple[NodeId, ...] = graph.nodes
        self.n = len(self.nodes)
        self.index: Dict[NodeId, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        # CSR adjacency: indices[indptr[v]:indptr[v+1]] are v's neighbor
        # positions.
        self.indptr, self.indices = graph.csr()
        self._adjacency: Optional[np.ndarray] = None
        self.root_index = self.index[tree.root]
        self.levels = np.array(
            [tree.level[node] for node in self.nodes], dtype=np.int64
        )
        # parent[root] = root (the root never transmits upward, so the
        # self-reference is never consulted as a real hop).
        self.parents = np.array(
            [
                self.index[tree.parent[node]]
                if tree.parent.get(node) is not None
                else self.index[node]
                for node in self.nodes
            ],
            dtype=np.int64,
        )

    @property
    def adjacency(self) -> np.ndarray:
        """The dense (n, n) boolean adjacency (built on first access)."""
        if self._adjacency is None:
            adjacency = np.zeros((self.n, self.n), dtype=bool)
            for v in range(self.n):
                adjacency[
                    v, self.indices[self.indptr[v]:self.indptr[v + 1]]
                ] = True
            self._adjacency = adjacency
        return self._adjacency

    def resolve(
        self, tx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve one full-width slot: ``(counts, senders, unique)``.

        ``counts[b, v]`` — transmitting neighbors of v; ``senders[b, v]``
        — sum of their indices (the transmitter's index exactly where
        ``counts == 1``); ``unique[b, v]`` — v hears a message: exactly
        one neighbor transmitted and v itself was listening.  Counts and
        sums are float32 (exact: they stay far below 2²⁴).  The slot
        loop scatters over its live pairs directly; this dense form
        serves traces and tests.
        """
        B, n = tx.shape
        b_idx, u_idx = np.nonzero(tx)
        counts, senders = csr_counts(
            b_idx, u_idx, self.indptr, self.indices, B, n
        )
        unique = (counts == 1.0) & ~tx
        return counts, senders, unique


class SlotRecord:
    """One traced slot of a batch run (small cells only — dense copies)."""

    __slots__ = (
        "slot", "kind", "level_class", "decay_step",
        "tx", "counts", "started",
    )

    def __init__(
        self,
        slot: int,
        kind: str,
        level_class: int,
        decay_step: int,
        tx: np.ndarray,
        counts: Optional[np.ndarray],
        started: Optional[np.ndarray],
    ):
        self.slot = slot
        self.kind = kind  # "data" | "ack"
        self.level_class = level_class
        self.decay_step = decay_step
        self.tx = tx
        self.counts = counts
        self.started = started  # session-start mask (data step 0 only)


class BatchTrace:
    """Per-slot event capture for the equivalence harness.

    Dense (B, n) copies per slot: meant for the short traced sub-runs the
    invariant checks operate on, not for production sweeps.
    """

    def __init__(self) -> None:
        self.slots: List[SlotRecord] = []

    def record(self, record: SlotRecord) -> None:
        self.slots.append(record)

    def data_slots(self) -> List[SlotRecord]:
        return [r for r in self.slots if r.kind == "data"]

    def ack_slots(self) -> List[SlotRecord]:
        return [r for r in self.slots if r.kind == "ack"]
