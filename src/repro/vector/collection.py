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
* reception is the CSR scatter of
  :class:`~repro.vector.engine.LockstepRadio`; acknowledgements are
  resolved physically on the paired ack slot and Theorem 3.1 (the ack
  always arrives, failure-free) is *asserted*, making ack determinism a
  built-in runtime invariant of the engine.

The lockstep loop touches only the active set.  Once per phase it lists
the provably-awake (replication, station) pairs of each level class —
exactly the stations the scalar engine's idle min-heap would wake via
``SlotStructure.next_data_slot_for`` / ``TransportLane.next_active_slot``:
those with an eligible buffer head (§4.1 fixes eligibility at the phase
boundary, and a class's entries change only through its own acks, which
come after its first data slot).  At each class's ack slot the list is
compacted to the pairs whose Decay session is still alive, so the Decay
kernel, the coin gather, the reception scatter and the backlog updates
see live pairs only.  Decay sessions are short (geometric, and most end
at their first transmission, acked or killed by the coin), so most of a
phase is silent: once no class has a live pair, :meth:`BatchCollection.
run_until_done` sleeps to the next phase boundary in one jump, with the
coin streams, ``mask_stats`` and profiler counters advanced exactly as
stepping would have.  Per-slot work then scales with the live
population, not B·n, and a silent tail costs O(B) per phase.  (There is
no sleep while tracing, and :meth:`~BatchCollection.step` always
advances exactly one slot.)

Randomness: replication ``b`` draws its Decay coins from the NumPy
stream ``np_rng(seeds[b], "vector", "decay")`` and consumes exactly one
draw per *listed* pair of that replication per data slot of its class:
a pair whose session has died still owns its coin, which is skipped
over, not drawn for someone else.  The coins are read through a
per-replication cursor over a ``(B, n)`` float32 buffer refilled from
each stream, so dropping dead pairs and sleeping through silent tails
leave every draw where it was.  The stream position is a pure function
of the replication's own trajectory — never of batch size or batch
position — which is what lets the runner cache vector results per task
and split one cell's replications into per-worker sub-batches that stay
bit-identical to the unsharded batch.

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
from repro.vector.backend import scatter_into
from repro.vector.decay import BatchDecay
from repro.vector.engine import BatchTrace, LockstepRadio, SlotRecord

#: Minimum coins buffered per replication by the coin cursor;
#: the buffer is ``max(PAIR_COIN_BLOCK, n)`` wide, so one data slot's
#: listed pairs (at most n) always fit after a refill.
PAIR_COIN_BLOCK = 4096

DecayFactory = Callable[[int, tuple], BatchDecay]

_EMPTY_PAIRS = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)


@dataclass
class _ClassPairs:
    """One level class's awake pairs for the current phase.

    ``counts`` (listed pairs per replication) is fixed at the phase
    start and decides coin consumption; ``rows``/``cols``/``offsets``
    hold only the pairs whose session is still alive, b-major, with each
    pair's offset within its replication's listed run.
    """

    counts: np.ndarray
    listed: int
    rows: np.ndarray
    cols: np.ndarray
    offsets: np.ndarray


class _CoinCursor:
    """Per-replication coin streams read through a cursor.

    Row ``b`` of :attr:`buffer` holds the next coins of replication
    ``b``'s stream from :attr:`cursor` on.  A data slot reads the coins
    of its live pairs at ``cursor + offset`` and then advances the cursor
    by the slot's *listed* count, so stream positions match drawing one
    coin per listed pair.  Consecutive float32 fills of one generator
    concatenate to the same stream, so refills never move a coin.
    """

    def __init__(self, gens: Sequence[np.random.Generator], n: int):
        width = max(PAIR_COIN_BLOCK, n)
        self.gens = gens
        self.buffer = np.empty((len(gens), width), dtype=np.float32)
        self.cursor = np.full(len(gens), width, dtype=np.int64)

    def take(self, pairs: _ClassPairs) -> np.ndarray:
        """Coins of the live pairs; consumes every listed pair's coin."""
        width = self.buffer.shape[1]
        for b in np.flatnonzero(self.cursor + pairs.counts > width):
            # Slide the unread tail to the front, fill in behind it.
            start = int(self.cursor[b])
            tail = width - start
            row = self.buffer[b]
            row[:tail] = row[start:].copy()
            self.gens[b].random(out=row[tail:], dtype=np.float32)
            self.cursor[b] = 0
        coins = self.buffer[
            pairs.rows, self.cursor[pairs.rows] + pairs.offsets
        ]
        self.cursor += pairs.counts
        return coins

    def skip(self, amounts: np.ndarray) -> None:
        """Advance each cursor by ``amounts`` coins, drawing past the end."""
        width = self.buffer.shape[1]
        self.cursor += amounts
        for b in np.flatnonzero(self.cursor > width):
            position = int(self.cursor[b])
            while position > width:
                self.gens[b].random(out=self.buffer[b], dtype=np.float32)
                position -= width
            self.cursor[b] = position


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
    """

    #: Always the active-set loop; ``perfbench/vector_batch.py`` reads it.
    masked = True

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
    ):
        unknown = set(sources) - set(graph.nodes)
        if unknown:
            raise ConfigurationError(
                f"unknown source stations {sorted(unknown)!r}"
            )
        if not seeds:
            raise ConfigurationError("need at least one replication seed")
        self.radio = LockstepRadio(graph, tree, len(seeds))
        self.seeds = tuple(int(s) for s in seeds)
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
                # §4: submission at the root delivers immediately, one
                # (replication, gid) entry per replication.
                self.delivered_count += len(gids)
                self._delivered_log.append((
                    0,
                    np.repeat(np.arange(B, dtype=np.int64), len(gids)),
                    np.tile(np.array(gids, dtype=np.int32), B),
                ))
                continue
            self.ring[:, node_idx, : len(gids)] = np.array(
                gids, dtype=np.int32
            )
            self.backlog[:, node_idx] = len(gids)

        # Ack bookkeeping: which child each station must ack this slot.
        self.pending_child = np.full(self.shape, -1, dtype=np.int64)

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
        # _data_before[c, w]: class-c data slots among the first w slots
        # of a phase (what a sleep from w0 to w1 skips over).
        self._data_before = np.zeros(
            (classes, self.slots.phase_length + 1), dtype=np.int64
        )
        for w, info in enumerate(self._schedule):
            self._data_before[:, w + 1] = self._data_before[:, w]
            if info.kind is SlotKind.DATA:
                self._data_before[info.level_class, w + 1] += 1

        # Per-replication coin streams, read through a pair cursor.
        self._coin_cursor = _CoinCursor(
            np_rngs(self.seeds, "vector", "decay"), n
        )

        # Active-set state: per level class, the pairs listed at the
        # phase start, compacted to live sessions at each ack slot; flat
        # persistent scatter buffers touched (and re-zeroed) only at the
        # receiver entries adjacent to a transmitter; an incrementally
        # maintained per-replication backlog total so the done check
        # never re-sums the (B, n) plane.
        self._pairs: List[_ClassPairs] = []
        self._hits_flat = np.zeros(B * n, dtype=np.int32)
        self._senders_flat = np.zeros(B * n, dtype=np.int64)
        self._txflag_flat = np.zeros(B * n, dtype=bool)
        self._backlog_total = self.backlog.sum(axis=1, dtype=np.int64)
        self._expect_pairs: Tuple[np.ndarray, np.ndarray] = _EMPTY_PAIRS
        self._pending_parents: Tuple[np.ndarray, np.ndarray] = _EMPTY_PAIRS
        #: Occupancy counters, cumulative over data slots:
        #: ``active_pairs`` counts listed (awake) pairs, ``live_pairs``
        #: the ones whose Decay session was still running — divided by
        #: ``data_slots · B · n`` they are the mean awake and live
        #: fractions the benchmarks report.
        self.mask_stats = {
            "active_pairs": 0, "live_pairs": 0, "data_slots": 0,
        }

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

    def _occupancy(self, key: str) -> float:
        B, n = self.shape
        slots = self.mask_stats["data_slots"]
        if not slots:
            return float("nan")
        return self.mask_stats[key] / (slots * B * n)

    @property
    def awake_occupancy(self) -> float:
        """Mean awake fraction over all data slots so far."""
        return self._occupancy("active_pairs")

    @property
    def live_occupancy(self) -> float:
        """Mean fraction of pairs with a live Decay session per data slot
        — the pairs the loop actually steps."""
        return self._occupancy("live_pairs")

    def backlog_at(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Summed backlog over ``nodes`` per replication, shape ``(B,)``."""
        idx = [self.radio.index[node] for node in nodes]
        return self.backlog[:, idx].sum(axis=1)

    def delivered_ids(self) -> List[List[int]]:
        """Per replication: global message ids in root-arrival order."""
        return [
            [gid for _slot, gid in arrivals]
            for arrivals in self.delivered_slots()
        ]

    def delivered_slots(self) -> List[List[Tuple[int, int]]]:
        """Per replication: ``(slot, gid)`` pairs in root-arrival order."""
        out: List[List[Tuple[int, int]]] = [[] for _ in self.seeds]
        for slot, b_idx, msgs in self._delivered_log:
            for b, m in zip(b_idx.tolist(), msgs.tolist()):
                out[b].append((slot, m))
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

    def _begin_phase(self) -> None:
        # §4.1: a message may start a Decay invocation only in a phase it
        # was already buffered at the start of.  At a phase boundary every
        # buffered message qualifies.
        np.copyto(self.eligible, self.backlog)
        self.decay.reset()
        self._list_pairs()

    def _list_pairs(self) -> None:
        """List each class's awake pairs for the phase just begun.

        These are the stations the scalar min-heap would wake at the
        class's data slots: an eligible buffer head, not the root.  A
        class's entries of ``eligible`` change only through its own acks,
        after its first data slot, so one listing serves the whole phase.
        The order is b-major (row-major over ``(B, n)``), so each
        replication's pairs form one run and its coins one contiguous
        block of its stream.
        """
        B, n = self.shape
        flat = np.flatnonzero(self.eligible.reshape(-1) > 0)
        rows, cols = np.divmod(flat, n)
        self._pairs = []
        for mask in self._class_mask:
            mine = mask[cols]
            r, v = rows[mine], cols[mine]
            counts = np.bincount(r, minlength=B)
            run_start = np.cumsum(counts) - counts
            self._pairs.append(_ClassPairs(
                counts=counts,
                listed=int(r.size),
                rows=r,
                cols=v,
                offsets=np.arange(r.size, dtype=np.int64) - run_start[r],
            ))

    def step(self) -> None:
        """Advance all replications by one slot."""
        profiler = self.profiler
        within = self.slot % self.slots.phase_length
        if within == 0:
            self._begin_phase()
        info = self._schedule[within]
        if info.kind is SlotKind.DATA:
            self._data_slot(info.level_class, info.decay_step)
            self.slot += 1
        else:
            self._ack_slot(info.level_class, info.decay_step)
            self.slot += 1
            self._check_done()
        if profiler is not None:
            profiler.bump("vector_slots")

    def _data_slot(self, level_class: int, decay_step: int) -> None:
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        radio = self.radio
        B, n = self.shape
        pairs = self._pairs[level_class]
        rows, cols = pairs.rows, pairs.cols
        started_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if decay_step == 0:
            # The class's first opportunity of the phase: every listed
            # pair starts a Decay session (nothing has died yet).
            self.decay.start_pairs(rows, cols)
            started_pairs = (rows, cols)
        self.mask_stats["active_pairs"] += pairs.listed
        self.mask_stats["live_pairs"] += int(rows.size)
        self.mask_stats["data_slots"] += 1
        tb = tv = db = dv = _EMPTY_PAIRS[0]
        if pairs.listed:
            # Dead pairs own their coins too: the cursor advances by the
            # listed count even when no listed session is alive.
            coins = self._coin_cursor.take(pairs)
            if rows.size:
                tx_pair = self.decay.transmit_pairs(rows, cols, coins)
                tb, tv = rows[tx_pair], cols[tx_pair]
        if profiler is not None:
            t1 = profiler.clock()
            profiler.add("vector/decay", t1 - t0)
            profiler.bump("vector_awake_pairs", pairs.listed)
            profiler.bump("vector_live_pairs", int(rows.size))
        else:
            t1 = 0.0
        if tb.size:
            touched = scatter_into(
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
                    self._backlog_total += np.bincount(fb, minlength=B)
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

    def _ack_slot(self, level_class: int, decay_step: int) -> None:
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        radio = self.radio
        B, n = self.shape
        eb, ev = self._expect_pairs
        pb, pp = self._pending_parents
        self._expect_pairs = _EMPTY_PAIRS
        self._pending_parents = _EMPTY_PAIRS
        if pb.size:
            touched = scatter_into(
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
            self._backlog_total -= np.bincount(eb, minlength=B)
            # Every pending ack fires exactly at its due slot.
            self.pending_child[pb, pp] = -1
            self._hits_flat[touched] = 0
            self._senders_flat[touched] = 0
            self._txflag_flat[pair_flat] = False
        # Compaction: the class's data slot and this ack are the only
        # places its sessions die, so from here on its list holds live
        # pairs only.
        pairs = self._pairs[level_class]
        if pairs.rows.size:
            live = self.decay.alive[pairs.rows, pairs.cols]
            if not live.all():
                pairs.rows = pairs.rows[live]
                pairs.cols = pairs.cols[live]
                pairs.offsets = pairs.offsets[live]
        if profiler is not None:
            profiler.add("vector/collection", profiler.clock() - t0)
        if self.trace is not None:
            ack_dense = np.zeros(self.shape, dtype=bool)
            ack_dense[pb, pp] = True
            self.trace.record(SlotRecord(
                self.slot, "ack", level_class, decay_step,
                ack_dense, None, None,
            ))

    def _sleep(self, until: int) -> None:
        """Jump over the silent slots of this phase up to ``until``.

        Only valid after an ack slot that left no class a live pair:
        until the phase boundary no station transmits, so nothing moves
        but the clock, the coin streams (each skipped data slot still
        consumes one coin per listed pair) and the occupancy counters —
        all advanced here exactly as stepping would have.
        """
        start = self.slot % self.slots.phase_length
        end = start + (until - self.slot)
        skipped = self._data_before[:, end] - self._data_before[:, start]
        self._coin_cursor.skip(
            skipped @ np.stack([pairs.counts for pairs in self._pairs])
        )
        listed = int(skipped @ [pairs.listed for pairs in self._pairs])
        self.mask_stats["active_pairs"] += listed
        self.mask_stats["data_slots"] += int(skipped.sum())
        if self.profiler is not None:
            self.profiler.bump("vector_slots", until - self.slot)
            self.profiler.bump("vector_awake_pairs", listed)
        self.slot = int(until)

    # ------------------------------------------------------------------

    def _check_done(self) -> None:
        undone = ~self.done
        if not undone.any():
            return
        newly = (
            undone
            & (self.delivered_count >= self.total_messages)
            & (self._backlog_total == 0)
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
        # A trace records every slot, so a traced run never sleeps.
        sleeps = self.trace is None
        phase_length = self.slots.phase_length
        while not self.done.all() and self.slot < max_slots:
            self.step()
            within = self.slot % phase_length
            if (
                sleeps
                and within
                and self._schedule[within - 1].kind is SlotKind.ACK
                and not any(pairs.rows.size for pairs in self._pairs)
                and not self.done.all()
            ):
                self._sleep(min(self.slot - within + phase_length, max_slots))
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
    )
    completion = simulation.run_until_done(max_slots)
    phase_length = simulation.slots.phase_length
    phases = -(-completion // phase_length)
    return BatchCollectionResult(
        completion_slots=completion,
        phases=phases,
        simulation=simulation,
    )
