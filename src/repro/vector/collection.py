"""Batched collection (§4): B lockstep replications as array updates.

This is the vector-engine implementation of the protocol in
:mod:`repro.core.collection`: every station runs Decay toward its BFS
parent on the multiplexed slot schedule (level classes mod 3, each data
slot followed by its deterministic ack slot), and the root's accepted
messages are the output.  One :class:`BatchCollection` advances B
replications of that protocol *simultaneously*:

* per-node buffers are ``(B, n)`` **counters** — ``backlog`` (queued
  messages) and ``eligible`` (messages buffered since before the current
  phase, the §4.1 "buffer non-empty at the beginning of a phase" rule);
  because buffers are FIFO and eligibility is monotone in queue position,
  counters capture the full sending dynamics;
* message *identity* rides in a bounded **payload ring** ``(B, n, k)``
  of global message ids with per-node head pointers, so conservation —
  every collected message originates exactly once — stays checkable;
* reception is the adjacency product of
  :class:`~repro.vector.engine.LockstepRadio`; acknowledgements are
  resolved physically on the paired ack slot and Theorem 3.1 (the ack
  always arrives, failure-free) is *asserted*, making ack determinism a
  built-in runtime invariant of the engine.

Active-set mask (``mask="on"``): the full-width loop touches all B·n
entries every slot even when almost every station is asleep.  The masked
loop instead derives, at each class's first opportunity of a phase, the
provably-awake (replication, station) pairs — exactly the stations the
scalar engine's idle min-heap would wake via
``SlotStructure.next_data_slot_for`` / ``TransportLane.next_active_slot``:
those with an eligible buffer head in the slot's level class — and
restricts the Decay coin draws, the reception scatter and the backlog
updates to that compact pair list.  Per-slot work then scales with the
awake population, not B·n, and a slot in which nobody is awake costs
O(B).

Randomness: replication ``b`` draws its Decay coins from the NumPy
stream ``np_rng(seeds[b], "vector", "decay")``.  The *full* loop
consumes exactly one ``(n,)`` coin row per data slot; the *masked* loop
consumes exactly one draw per awake pair of that replication.  In both
modes the stream position is a pure function of the replication's own
trajectory — never of batch size or batch position — which is what lets
the runner cache vector results per task and split one cell's
replications into per-worker sub-batches that stay bit-identical to the
unsharded batch.  The two mask modes are therefore *distributionally*
(not coin-flip) equivalent, and ``mask`` joins the task cache identity
exactly like ``engine``.

Validity: lockstep batching assumes the paper's failure-free model on a
fixed topology (no failure injection, no repair).  Fault experiments
stay on the scalar engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.collection import expected_collection_slots
from repro.core.slots import SlotKind, SlotStructure, decay_budget
from repro.errors import ConfigurationError, ProtocolError, SimulationTimeout
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.rng import np_rngs
from repro.vector.decay import BatchDecay
from repro.vector.engine import (
    MASK_MIN_NODES,
    BatchTrace,
    LockstepRadio,
    SlotRecord,
    validate_mask,
)

#: Coin rows generated per refill of the per-replication streams; bounds
#: the resident coin block to ``COIN_BLOCK × B × n`` float32.
COIN_BLOCK = 256

DecayFactory = Callable[[int, tuple], BatchDecay]

_EMPTY_PAIRS = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)


class BatchCollection:
    """B lockstep replications of collection on one topology.

    Parameters
    ----------
    graph, tree:
        The shared topology and its BFS tree (all replications identical).
    sources:
        ``station -> [payload, ...]`` — the workload, injected at slot 0
        in every replication (grid cells share their workload; only the
        coins differ across replications).
    seeds:
        One root seed per replication; each seeds an independent
        NumPy coin stream.
    level_classes, budget:
        As in the scalar protocol: §2.2 multiplexing (3 in the paper)
        and the Decay budget (default ``2·ceil(log2 Δ)``).
    decay_factory:
        Constructor for the batched Decay implementation — the
        equivalence harness swaps in a deliberately broken variant to
        prove its own checks can fail.
    trace:
        Capture a :class:`~repro.vector.engine.BatchTrace` of every slot
        (dense copies: traced sub-runs only).
    reception:
        Reception kernel of the *full-width* loop: ``"dense"``
        (adjacency product), ``"sparse"`` (CSR scatter) or ``"auto"``
        (density heuristic).  The kernels are bit-identical in outcome;
        the knob trades memory/work profiles and is part of the runner's
        task identity.  The masked loop always scatters over the CSR
        arrays (there is no dense formulation of O(awake) work).
    backend:
        Array-kernel backend (``"numpy"``/``"numba"``/``"auto"``) for
        the CSR scatter and the masked Decay step; see
        :mod:`repro.vector.backend`.  Backends are bit-identical.
    mask:
        Active-set mask mode: ``"on"`` (O(awake) masked loop), ``"off"``
        (full-width loop) or ``"auto"`` (on at n ≥ 1024).  The modes are
        distributionally, not coin-flip, equivalent.
    """

    def __init__(
        self,
        graph: Graph,
        tree: BFSTree,
        sources: Dict[NodeId, List[Any]],
        seeds: Sequence[int],
        level_classes: int = 3,
        budget: Optional[int] = None,
        decay_factory: DecayFactory = BatchDecay,
        trace: bool = False,
        reception: str = "auto",
        backend: str = "auto",
        mask: str = "auto",
    ):
        unknown = set(sources) - set(graph.nodes)
        if unknown:
            raise ConfigurationError(
                f"unknown source stations {sorted(unknown)!r}"
            )
        if not seeds:
            raise ConfigurationError("need at least one replication seed")
        self.radio = LockstepRadio(
            graph, tree, len(seeds), reception=reception, backend=backend
        )
        self.seeds = tuple(int(s) for s in seeds)
        validate_mask(mask)
        self.mask_requested = mask
        self.masked = (
            mask == "on"
            or (mask == "auto" and self.radio.n >= MASK_MIN_NODES)
        )
        self.slots = SlotStructure(
            decay_budget=(
                budget if budget is not None
                else decay_budget(graph.max_degree())
            ),
            level_classes=level_classes,
            with_acks=True,
        )
        B, n = len(self.seeds), self.radio.n
        self.shape = (B, n)

        # Global message ids 0..k-1 in (station, serial) order.
        self.message_origins: List[NodeId] = []
        self.message_payloads: List[Any] = []
        per_node: Dict[int, List[int]] = {}
        for node in sorted(sources, key=self.radio.index.__getitem__):
            for payload in sources[node]:
                gid = len(self.message_payloads)
                self.message_origins.append(node)
                self.message_payloads.append(payload)
                per_node.setdefault(self.radio.index[node], []).append(gid)
        self.total_messages = len(self.message_payloads)
        self.capacity = max(1, self.total_messages)

        # Buffer counters + payload ring.
        self.backlog = np.zeros(self.shape, dtype=np.int32)
        self.eligible = np.zeros(self.shape, dtype=np.int32)
        self.ring = np.full(
            (B, n, self.capacity), -1, dtype=np.int32
        )
        self.head = np.zeros(self.shape, dtype=np.int32)
        self.delivered_count = np.zeros(B, dtype=np.int64)
        self._delivered_log: List[Tuple[int, np.ndarray, np.ndarray]] = []
        root = self.radio.root_index
        for node_idx, gids in per_node.items():
            if node_idx == root:
                # §4: submission at the root delivers immediately.
                self.delivered_count += len(gids)
                self._delivered_log.append((
                    0,
                    np.arange(B, dtype=np.int64),
                    np.array(gids, dtype=np.int32),
                ))
                continue
            self.ring[:, node_idx, : len(gids)] = np.array(
                gids, dtype=np.int32
            )
            self.backlog[:, node_idx] = len(gids)

        # Ack bookkeeping: which child each station must ack this slot.
        self.pending_child = np.full(self.shape, -1, dtype=np.int64)
        self.pending_msg = np.full(self.shape, -1, dtype=np.int32)
        self._expect_ack: Optional[np.ndarray] = None

        self.decay = decay_factory(self.slots.decay_budget, self.shape)
        # Which stations may transmit data in a class-c slot (root never).
        classes = self.slots.level_classes
        not_root = np.ones(n, dtype=bool)
        not_root[root] = False
        self._class_mask = [
            (self.radio.levels % classes == c) & not_root
            for c in range(classes)
        ]
        # Per-phase schedule decoded once via the *scalar* SlotStructure,
        # so both engines share one source of schedule truth.
        self._schedule = [
            self.slots.decode(s) for s in range(self.slots.phase_length)
        ]

        # Per-replication coin streams (block-generated, row per data slot).
        self._coin_gens = np_rngs(self.seeds, "vector", "decay")
        self._coin_block: Optional[np.ndarray] = None
        self._coin_pos = 0

        # Active-set state: compact awake pair lists per level class,
        # rebuilt at each class's first opportunity of a phase; flat
        # persistent scatter buffers touched (and re-zeroed) only at the
        # receiver entries adjacent to a transmitter; an incrementally
        # maintained per-replication backlog total so the done check
        # never re-sums the (B, n) plane.
        self._active: List[Tuple[np.ndarray, np.ndarray]] = [
            _EMPTY_PAIRS for _ in range(classes)
        ]
        self._hits_flat = np.zeros(B * n, dtype=np.int32)
        self._senders_flat = np.zeros(B * n, dtype=np.int64)
        self._txflag_flat = np.zeros(B * n, dtype=bool)
        self._backlog_total = self.backlog.sum(axis=1, dtype=np.int64)
        self._expect_pairs: Tuple[np.ndarray, np.ndarray] = _EMPTY_PAIRS
        self._pending_parents: Tuple[np.ndarray, np.ndarray] = _EMPTY_PAIRS
        #: Awake-set occupancy counters (masked mode): cumulative awake
        #: pairs over data slots — ``active_pairs / (data_slots · B · n)``
        #: is the mean awake fraction the benchmarks report.
        self.mask_stats = {"active_pairs": 0, "data_slots": 0}

        self.slot = 0
        self.done = np.zeros(B, dtype=bool)
        self.completion_slots = np.full(B, -1, dtype=np.int64)
        self.trace: Optional[BatchTrace] = BatchTrace() if trace else None
        from repro import profiling

        self.profiler = profiling.current_profile()
        self._check_done()  # empty workloads complete at slot 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_replications(self) -> int:
        return len(self.seeds)

    @property
    def phase_length(self) -> int:
        return self.slots.phase_length

    @property
    def awake_occupancy(self) -> float:
        """Mean awake fraction over all data slots so far (masked mode)."""
        B, n = self.shape
        slots = self.mask_stats["data_slots"]
        if not slots:
            return float("nan")
        return self.mask_stats["active_pairs"] / (slots * B * n)

    def backlog_at(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Summed backlog over ``nodes`` per replication, shape ``(B,)``."""
        idx = [self.radio.index[node] for node in nodes]
        return self.backlog[:, idx].sum(axis=1)

    def delivered_ids(self) -> List[List[int]]:
        """Per replication: global message ids in root-arrival order."""
        out: List[List[int]] = [[] for _ in self.seeds]
        for _slot, b_idx, msgs in self._delivered_log:
            if msgs.ndim == 0 or b_idx.size != msgs.size:
                # Initial root submissions: same ids for every replication.
                for b in b_idx:
                    out[int(b)].extend(int(m) for m in np.atleast_1d(msgs))
                continue
            for b, m in zip(b_idx, msgs):
                out[int(b)].append(int(m))
        return out

    def delivered_slots(self) -> List[List[Tuple[int, int]]]:
        """Per replication: ``(slot, gid)`` pairs in root-arrival order."""
        out: List[List[Tuple[int, int]]] = [[] for _ in self.seeds]
        for slot, b_idx, msgs in self._delivered_log:
            if msgs.ndim == 0 or b_idx.size != msgs.size:
                for b in b_idx:
                    out[int(b)].extend(
                        (int(slot), int(m)) for m in np.atleast_1d(msgs)
                    )
                continue
            for b, m in zip(b_idx, msgs):
                out[int(b)].append((int(slot), int(m)))
        return out

    def buffered_ids(self, replication: int) -> List[int]:
        """All message ids currently buffered anywhere in ``replication``."""
        ids: List[int] = []
        for v in range(self.radio.n):
            count = int(self.backlog[replication, v])
            start = int(self.head[replication, v])
            for offset in range(count):
                ids.append(
                    int(self.ring[replication, v,
                                  (start + offset) % self.capacity])
                )
        return ids

    # ------------------------------------------------------------------
    # The slot loop
    # ------------------------------------------------------------------

    def _next_coins(self) -> np.ndarray:
        if (
            self._coin_block is None
            or self._coin_pos >= self._coin_block.shape[1]
        ):
            # Refill in place, one contiguous (COIN_BLOCK, n) plane per
            # replication stream — same values in the same order as the
            # old stack-of-draws formulation, without the O(block·B·n)
            # copy (which dominated refills at n = 10⁴).
            if self._coin_block is None:
                self._coin_block = np.empty(
                    (len(self._coin_gens), COIN_BLOCK, self.radio.n),
                    dtype=np.float32,
                )
            for b, gen in enumerate(self._coin_gens):
                gen.random(out=self._coin_block[b], dtype=np.float32)
            self._coin_pos = 0
        row = self._coin_block[:, self._coin_pos, :]
        self._coin_pos += 1
        return row

    def _pair_coins(self, rows: np.ndarray) -> np.ndarray:
        """One uniform draw per awake pair, per-replication streams.

        ``rows`` is b-major (``np.nonzero`` row order), so each
        replication's draws form one contiguous run; replication ``b``
        consumes exactly ``count_b`` values — a pure function of its own
        trajectory, independent of which other replications share the
        batch (the sharding bit-identity contract).
        """
        counts = np.bincount(rows, minlength=len(self.seeds))
        out = np.empty(rows.size, dtype=np.float32)
        pos = 0
        for b in np.nonzero(counts)[0]:
            count = int(counts[b])
            out[pos:pos + count] = self._coin_gens[b].random(
                count, dtype=np.float32
            )
            pos += count
        return out

    def _begin_phase(self) -> None:
        # §4.1: a message may start a Decay invocation only in a phase it
        # was already buffered at the start of.  At a phase boundary every
        # buffered message qualifies.
        np.copyto(self.eligible, self.backlog)
        self.decay.reset()

    def step(self) -> None:
        """Advance all replications by one slot."""
        profiler = self.profiler
        within = self.slot % self.slots.phase_length
        if within == 0:
            self._begin_phase()
        info = self._schedule[within]
        if info.kind is SlotKind.DATA:
            if self.masked:
                self._data_slot_masked(info.level_class, info.decay_step)
            else:
                self._data_slot(info.level_class, info.decay_step)
            self.slot += 1
        else:
            if self.masked:
                self._ack_slot_masked(info.level_class, info.decay_step)
            else:
                self._ack_slot(info.level_class, info.decay_step)
            self.slot += 1
            self._check_done()
        if profiler is not None:
            profiler.bump("vector_slots")

    # -------------------------- full-width loop -----------------------

    def _data_slot(self, level_class: int, decay_step: int) -> None:
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        mask = self._class_mask[level_class]
        started: Optional[np.ndarray] = None
        if decay_step == 0:
            # First opportunity of the phase for this class: stations with
            # an eligible buffer head invoke Decay (§4.1).
            started = (self.eligible > 0) & mask[None, :]
            self.decay.start(started)
        coins = self._next_coins()
        tx = self.decay.transmit(coins, opportunity=mask)
        if profiler is not None:
            t1 = profiler.clock()
            profiler.add("vector/decay", t1 - t0)
        counts: Optional[np.ndarray] = None
        deliv = None
        if tx.any():
            counts, senders, unique = self.radio.resolve(tx)
            if profiler is not None:
                t2 = profiler.clock()
                profiler.add("vector/reception", t2 - t1)
                t1 = t2
            par = self.radio.parents
            # Transmitter u's head is delivered iff its parent hears
            # uniquely and the unique transmitter is u itself.
            deliv = (
                tx
                & unique[:, par]
                & (senders[:, par] == self.radio.ids[None, :])
            )
            b_idx, u_idx = np.nonzero(deliv)
            if b_idx.size:
                msgs = self.ring[b_idx, u_idx, self.head[b_idx, u_idx]]
                p_idx = par[u_idx]
                # At most one delivery per (replication, receiver):
                # uniqueness of reception makes these index sets disjoint.
                self.pending_child[b_idx, p_idx] = u_idx
                self.pending_msg[b_idx, p_idx] = msgs
                at_root = p_idx == self.radio.root_index
                root_b = b_idx[at_root]
                if root_b.size:
                    self.delivered_count[root_b] += 1
                    self._delivered_log.append(
                        (self.slot, root_b.copy(), msgs[at_root].copy())
                    )
                fb = b_idx[~at_root]
                if fb.size:
                    fp = p_idx[~at_root]
                    pos = (
                        self.head[fb, fp] + self.backlog[fb, fp]
                    ) % self.capacity
                    self.ring[fb, fp, pos] = msgs[~at_root]
                    self.backlog[fb, fp] += 1
        self._expect_ack = deliv
        if profiler is not None:
            profiler.add("vector/collection", profiler.clock() - t1)
        if self.trace is not None:
            self.trace.record(SlotRecord(
                self.slot, "data", level_class, decay_step,
                tx.copy(),
                None if counts is None else counts.copy(),
                None if started is None else started.copy(),
            ))

    def _ack_slot(self, level_class: int, decay_step: int) -> None:
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        expect = self._expect_ack
        self._expect_ack = None
        ack_tx = self.pending_child >= 0
        any_ack = ack_tx.any()
        if any_ack:
            _counts, senders, unique = self.radio.resolve(ack_tx)
            if profiler is not None:
                t1 = profiler.clock()
                profiler.add("vector/reception", t1 - t0)
                t0 = t1
            par = self.radio.parents
            # Child u hears its ack iff it receives uniquely, the unique
            # transmitter is its parent, and the parent's pending ack
            # designates u.
            acked = (
                unique
                & (senders == par.astype(np.float32)[None, :])
                & (
                    self.pending_child[:, par]
                    == np.arange(self.radio.n, dtype=np.int64)[None, :]
                )
            )
        else:
            acked = np.zeros(self.shape, dtype=bool)
        expected = (
            expect if expect is not None
            else np.zeros(self.shape, dtype=bool)
        )
        if not np.array_equal(acked, expected):
            # Theorem 3.1: in the failure-free model every designated
            # delivery is acknowledged in the paired ack slot.
            raise ProtocolError(
                "ack determinism violated in batch engine at slot "
                f"{self.slot}: a designated delivery went unacknowledged"
            )
        if any_ack:
            b_idx, u_idx = np.nonzero(acked)
            if b_idx.size:
                self.head[b_idx, u_idx] = (
                    self.head[b_idx, u_idx] + 1
                ) % self.capacity
                self.backlog[b_idx, u_idx] -= 1
                self.eligible[b_idx, u_idx] -= 1
                self.decay.kill(b_idx, u_idx)
            # Every pending ack fires exactly at its due slot.
            self.pending_child[:] = -1
            self.pending_msg[:] = -1
        if profiler is not None:
            profiler.add("vector/collection", profiler.clock() - t0)
        if self.trace is not None:
            self.trace.record(SlotRecord(
                self.slot, "ack", level_class, decay_step,
                ack_tx.copy(), None, None,
            ))

    # -------------------------- active-set loop -----------------------

    def _data_slot_masked(self, level_class: int, decay_step: int) -> None:
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        radio = self.radio
        n = radio.n
        started_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if decay_step == 0:
            # Rebuild this class's awake set: the stations the scalar
            # min-heap would wake at this data slot — eligible buffer
            # head, level class owns the slot.
            mask = self._class_mask[level_class]
            rows, cols = np.nonzero((self.eligible > 0) & mask[None, :])
            self._active[level_class] = (rows, cols)
            self.decay.start_pairs(rows, cols)
            started_pairs = (rows, cols)
        rows, cols = self._active[level_class]
        self.mask_stats["active_pairs"] += int(rows.size)
        self.mask_stats["data_slots"] += 1
        tb = tv = db = dv = _EMPTY_PAIRS[0]
        if rows.size:
            coins = self._pair_coins(rows)
            tx_pair = self.decay.transmit_pairs(
                rows, cols, coins, kernel=radio.backend.decay_pairs
            )
            tb, tv = rows[tx_pair], cols[tx_pair]
        if profiler is not None:
            t1 = profiler.clock()
            profiler.add("vector/decay", t1 - t0)
            profiler.bump("vector_awake_pairs", int(rows.size))
        else:
            t1 = 0.0
        if tb.size:
            touched = radio.backend.scatter_into(
                tb, tv, radio.indptr, radio.indices,
                self._hits_flat, self._senders_flat, n,
            )
            pair_flat = tb * n + tv
            self._txflag_flat[pair_flat] = True
            parent = radio.parents[tv]
            pf = tb * n + parent
            # Transmitter u's head is delivered iff its parent hears
            # uniquely (one transmitting neighbor, itself silent) and
            # that neighbor is u.
            deliv = (
                (self._hits_flat[pf] == 1)
                & (self._senders_flat[pf] == tv)
                & ~self._txflag_flat[pf]
            )
            if profiler is not None:
                t2 = profiler.clock()
                profiler.add("vector/reception", t2 - t1)
                t1 = t2
            db, dv = tb[deliv], tv[deliv]
            if db.size:
                msgs = self.ring[db, dv, self.head[db, dv]]
                dp = parent[deliv]
                self.pending_child[db, dp] = dv
                self.pending_msg[db, dp] = msgs
                at_root = dp == radio.root_index
                root_b = db[at_root]
                if root_b.size:
                    self.delivered_count[root_b] += 1
                    self._delivered_log.append(
                        (self.slot, root_b.copy(), msgs[at_root].copy())
                    )
                fb = db[~at_root]
                if fb.size:
                    fp = dp[~at_root]
                    pos = (
                        self.head[fb, fp] + self.backlog[fb, fp]
                    ) % self.capacity
                    self.ring[fb, fp, pos] = msgs[~at_root]
                    self.backlog[fb, fp] += 1
                    np.add.at(self._backlog_total, fb, 1)
                self._pending_parents = (db, dp)
            else:
                self._pending_parents = _EMPTY_PAIRS
            # Restore the scatter buffers (touched entries only).
            self._hits_flat[touched] = 0
            self._senders_flat[touched] = 0
            self._txflag_flat[pair_flat] = False
        else:
            self._pending_parents = _EMPTY_PAIRS
        self._expect_pairs = (db, dv)
        if profiler is not None:
            profiler.add("vector/collection", profiler.clock() - t1)
        if self.trace is not None:
            tx_dense = np.zeros(self.shape, dtype=bool)
            tx_dense[tb, tv] = True
            counts = (
                self.radio.resolve(tx_dense)[0].copy() if tb.size else None
            )
            started_dense: Optional[np.ndarray] = None
            if started_pairs is not None:
                started_dense = np.zeros(self.shape, dtype=bool)
                started_dense[started_pairs] = True
            self.trace.record(SlotRecord(
                self.slot, "data", level_class, decay_step,
                tx_dense, counts, started_dense,
            ))

    def _ack_slot_masked(self, level_class: int, decay_step: int) -> None:
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        radio = self.radio
        n = radio.n
        eb, ev = self._expect_pairs
        pb, pp = self._pending_parents
        self._expect_pairs = _EMPTY_PAIRS
        self._pending_parents = _EMPTY_PAIRS
        if pb.size:
            touched = radio.backend.scatter_into(
                pb, pp, radio.indptr, radio.indices,
                self._hits_flat, self._senders_flat, n,
            )
            pair_flat = pb * n + pp
            self._txflag_flat[pair_flat] = True
            cf = eb * n + ev
            # Child u hears its ack iff it receives uniquely, the unique
            # transmitter is its parent, and the parent's pending ack
            # designates u (expected children never transmit here:
            # a delivering child's parent was silent in the data slot).
            acked = (
                (self._hits_flat[cf] == 1)
                & (self._senders_flat[cf] == radio.parents[ev])
                & ~self._txflag_flat[cf]
                & (self.pending_child[eb, radio.parents[ev]] == ev)
            )
            if not acked.all():
                # Theorem 3.1: in the failure-free model every designated
                # delivery is acknowledged in the paired ack slot.  (No
                # station outside the expected set can be acked: acks are
                # designated to the child the parent just heard.)
                raise ProtocolError(
                    "ack determinism violated in batch engine at slot "
                    f"{self.slot}: a designated delivery went "
                    "unacknowledged"
                )
            self.head[eb, ev] = (self.head[eb, ev] + 1) % self.capacity
            self.backlog[eb, ev] -= 1
            self.eligible[eb, ev] -= 1
            self.decay.kill(eb, ev)
            np.add.at(self._backlog_total, eb, -1)
            # Every pending ack fires exactly at its due slot.
            self.pending_child[pb, pp] = -1
            self.pending_msg[pb, pp] = -1
            self._hits_flat[touched] = 0
            self._senders_flat[touched] = 0
            self._txflag_flat[pair_flat] = False
        if profiler is not None:
            profiler.add("vector/collection", profiler.clock() - t0)
        if self.trace is not None:
            ack_dense = np.zeros(self.shape, dtype=bool)
            ack_dense[pb, pp] = True
            self.trace.record(SlotRecord(
                self.slot, "ack", level_class, decay_step,
                ack_dense, None, None,
            ))

    # ------------------------------------------------------------------

    def _check_done(self) -> None:
        undone = ~self.done
        if not undone.any():
            return
        backlog_total = (
            self._backlog_total
            if self.masked
            else self.backlog.sum(axis=1, dtype=np.int64)
        )
        newly = (
            undone
            & (self.delivered_count >= self.total_messages)
            & (backlog_total == 0)
        )
        if newly.any():
            self.done |= newly
            self.completion_slots[newly] = self.slot

    def run_until_done(self, max_slots: Optional[int] = None) -> np.ndarray:
        """Run until every replication drains; returns completion slots.

        ``max_slots`` defaults to the same generous multiple of the
        Theorem 4.4 bound the scalar :func:`~repro.core.collection.
        run_collection` uses; stragglers past it raise
        :class:`~repro.errors.SimulationTimeout`.
        """
        if max_slots is None:
            bound = expected_collection_slots(
                self.total_messages,
                self.radio.tree.depth,
                self.radio.graph.max_degree(),
            )
            max_slots = max(10_000, int(20 * bound))
        while not self.done.all() and self.slot < max_slots:
            self.step()
        if not self.done.all():
            stragglers = int((~self.done).sum())
            raise SimulationTimeout(
                f"{stragglers}/{self.num_replications} replications not "
                f"drained within {max_slots} slots",
                slots_elapsed=self.slot,
            )
        return self.completion_slots.copy()


@dataclass
class BatchCollectionResult:
    """Outcome of one batched collection run."""

    completion_slots: np.ndarray  # (B,) slots until each replication drained
    phases: np.ndarray  # (B,) completed Decay phases (ceil)
    simulation: BatchCollection

    @property
    def num_replications(self) -> int:
        return int(self.completion_slots.shape[0])


def run_collection_batch(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
    seeds: Sequence[int],
    level_classes: int = 3,
    budget: Optional[int] = None,
    max_slots: Optional[int] = None,
    decay_factory: DecayFactory = BatchDecay,
    trace: bool = False,
    reception: str = "auto",
    backend: str = "auto",
    mask: str = "auto",
) -> BatchCollectionResult:
    """Run B replications of collection to completion in one batch.

    The vector-engine counterpart of the scalar
    :func:`~repro.core.collection.run_collection`, for all seeds of a
    grid cell at once.
    """
    simulation = BatchCollection(
        graph,
        tree,
        sources,
        seeds,
        level_classes=level_classes,
        budget=budget,
        decay_factory=decay_factory,
        trace=trace,
        reception=reception,
        backend=backend,
        mask=mask,
    )
    completion = simulation.run_until_done(max_slots)
    phase_length = simulation.slots.phase_length
    phases = -(-completion // phase_length)
    return BatchCollectionResult(
        completion_slots=completion,
        phases=phases,
        simulation=simulation,
    )
