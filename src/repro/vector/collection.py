"""Batched collection (§4): B lockstep replications as array updates.

This is the vector-engine implementation of the protocol in
:mod:`repro.core.collection`: every station runs Decay toward its BFS
parent on the multiplexed slot schedule (level classes mod C, each data
slot followed by its deterministic ack slot), and the root's accepted
messages are the output.  One :class:`BatchCollection` advances B
replications of that protocol *simultaneously*:

* per-node buffers are ``(B, n)`` ``backlog`` **counters**; because
  buffers are FIFO and a station sends only its head, a counter captures
  the full sending dynamics;
* message *identity* rides in **linked FIFOs** over the k global
  message ids: ``(B, n)`` ``head`` and ``tail`` planes and a ``(B, k)``
  ``next_gid`` array.  A message is queued at one station at a time, so
  one successor per message and replication holds every queue's order
  in O(B·(n + k)) memory, and conservation — every collected message
  originates exactly once — stays checkable after every slot;
* reception is the CSR scatter of
  :class:`~repro.vector.engine.LockstepRadio`.  A delivered message
  moves at the data slot that delivers it: popped from the child's
  FIFO, appended to the parent's (or logged at the root).  The paired
  ack slot then resolves the acknowledgement physically and *asserts*
  Theorem 3.1 (the ack always arrives, failure-free), making ack
  determinism a built-in runtime invariant of the engine.

The lockstep loop touches only the active set.  Once per phase it lists
the provably-awake (replication, station) pairs of every level class —
exactly the stations the scalar engine's idle min-heap would wake via
``SlotStructure.next_data_slot_for`` / ``TransportLane.next_active_slot``:
those with a non-empty buffer at the phase boundary (§4.1: a message
may start a Decay invocation only in a phase it was already buffered at
the start of, and a listed station's backlog drops only through its own
deliveries, which come after its class's first data slot).  At each
ack slot the list is compacted to the pairs whose Decay session is
still alive, so the Decay kernel, the coin gather, the reception
scatter and the backlog updates see live pairs only.  Decay sessions
are short (geometric, and most end at their first transmission, acked
or killed by the coin), so most of a phase is silent: once no class
has a live pair, :meth:`BatchCollection.advance` sleeps to the next
phase boundary in one jump, with the coin streams, ``mask_stats`` and
profiler counters advanced exactly as stepping would have.  Per-slot
work then scales with the live population, not B·n, and a silent tail
costs O(B) per phase.

The loop advances by **rounds**.  A round is one Decay step of every
level class: its 2·C slots, class c's data slot at offset 2c and its ack
slot right after.  §2.2's multiplexing gives no two classes a common
slot, and §4.1 fixes every class's listed pairs, and so its coin block,
at the phase boundary; so one pass gathers the coins of every class's
live pairs, steps Decay once, scatters reception once, moves every
delivered head, and resolves every ack, asserting Theorem 3.1, once.
:meth:`~BatchCollection.step` (exactly one slot), a traced run (one slot
per pass, each recorded; no sleep) and :meth:`~BatchCollection.advance`
near its ``until`` run the same pass over part of a round, and a class
whose data slot ends a pass keeps its deliveries' acks for the pass that
holds its ack slot.  A round gives exactly the trajectory of its slots
run one by one, for four reasons:

* **Hits are counted per class.**  A station's same-level neighbours
  transmit in another slot of the round, so one shared count would
  invent collisions.  Each transmitter's neighbour run is scattered only
  onto the stations whose reception its slot decides — class c−1 for
  class c's data, class c for its acks — through two class-cut CSR
  copies of the adjacency, into the one flat ``(B·n)`` hit buffer.
  With one class a round is one slot, and a transmitting station counts
  as a hit on itself, so it never hears "exactly one".
* **Coins.**  Class c's coins start after the listed counts of the
  classes before it in the round, so every pair reads the coin it reads
  when each slot draws in turn.
* **Queues.**  Every pop reads ``next_gid`` before any push of the round
  writes it.  A station pops at most its phase-start head, once per
  phase, and receives at most one message per round, so popping before
  pushing leaves every queue as slot order does.
* **Completion.**  Only root deliveries move ``delivered_count`` and the
  backlog totals, so a replication completes one slot after its root
  class's ack slot.  When the last replication may complete there, the
  pass ends there, and the later classes' data slots of that round are
  not counted in the coin cursors, ``mask_stats`` or ``vector_slots``.

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
#: the buffer is ``max(PAIR_COIN_BLOCK, n)`` wide, so one round's
#: listed pairs (at most n: a station is in one class) always fit after
#: a refill.
PAIR_COIN_BLOCK = 4096

DecayFactory = Callable[[int, tuple], BatchDecay]

_EMPTY = np.empty(0, dtype=np.int64)
#: Deliveries travel as ``(replication, child, parent, child flat index,
#: parent flat index)`` arrays; flat indices are ``b·n + station``.
_NO_DELIVERIES = (_EMPTY,) * 5


@dataclass
class _Listing:
    """The phase's awake pairs, every level class in one list.

    ``counts[c, b]`` (listed pairs of class c in replication b) is fixed
    at the phase start and decides coin consumption; ``before[c, b]``
    sums them over the classes before c, so class c's coins start
    ``before[c, b]`` into replication b's block of a round.  ``rows``,
    ``cols`` and ``classes`` hold only the pairs whose session is still
    alive, class-major and b-major within a class, each with its
    ``offset`` in its replication's round block; class c's pairs are
    ``bounds[c]:bounds[c + 1]``.
    """

    counts: np.ndarray
    before: np.ndarray
    listed: List[int]
    rows: np.ndarray
    cols: np.ndarray
    classes: np.ndarray
    offsets: np.ndarray
    bounds: List[int]


class _CoinCursor:
    """Per-replication coin streams read through a cursor.

    Row ``b`` of :attr:`buffer` holds the next coins of replication
    ``b``'s stream from :attr:`cursor` on.  A pass reads the coins of its
    live pairs at ``cursor + offset`` and then advances the cursor by
    the pass's *listed* count, so stream positions match drawing one
    coin per listed pair.  Consecutive float32 fills of one generator
    concatenate to the same stream, so refills never move a coin.
    """

    def __init__(self, gens: Sequence[np.random.Generator], n: int):
        width = max(PAIR_COIN_BLOCK, n)
        self.gens = gens
        self.buffer = np.empty((len(gens), width), dtype=np.float32)
        self.cursor = np.full(len(gens), width, dtype=np.int64)

    def take(
        self, rows: np.ndarray, offsets: np.ndarray, amounts: np.ndarray
    ) -> np.ndarray:
        """Coins of the live pairs; each cursor then moves by ``amounts``."""
        width = self.buffer.shape[1]
        for b in np.flatnonzero(self.cursor + amounts > width):
            # Slide the unread tail to the front, fill in behind it.
            start = int(self.cursor[b])
            tail = width - start
            row = self.buffer[b]
            row[:tail] = row[start:].copy()
            self.gens[b].random(out=row[tail:], dtype=np.float32)
            self.cursor[b] = 0
        coins = self.buffer[rows, self.cursor[rows] + offsets]
        self.cursor += amounts
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


def _class_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    station_class: np.ndarray,
    shift: int,
    classes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR runs cut to the neighbours in class ``own + shift (mod C)``.

    With one class every neighbour stays, and each station also heads its
    own run: a station that transmits in a slot counts one hit on itself,
    so it can never hear "exactly one" while it transmits.
    """
    if classes == 1:
        n = indptr.size - 1
        return (
            indptr + np.arange(n + 1),
            np.insert(indices, indptr[:-1], np.arange(n)),
        )
    wanted = (station_class + shift) % classes
    keep = station_class[indices] == np.repeat(wanted, np.diff(indptr))
    kept = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[indptr], indices[keep]


class BatchCollection:
    """B lockstep replications of collection on one topology.

    Buffers are FIFO queues of global message ids: ``head[b, v]`` and
    ``tail[b, v]`` are the first and last id queued at station ``v`` in
    replication ``b`` (``head`` is -1 at an empty station),
    ``next_gid[b, m]`` is the id queued behind ``m`` (-1 at a tail) and
    ``backlog[b, v]`` is the queue's length.

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
    level_classes:
        As in the scalar protocol: §2.2 multiplexing (3 in the paper).
        The Decay budget is the scalar protocol's ``2·ceil(log2 Δ)``.
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
            decay_budget=decay_budget(graph.max_degree()),
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

        # Buffer counters + linked FIFOs of message ids.  The root's
        # buffer stays empty: its own messages and everything it hears
        # are delivered, never queued, so the root is never listed.
        self.backlog = np.zeros(self.shape, dtype=np.int32)
        self.head = np.full(self.shape, -1, dtype=np.int32)
        self.tail = np.full(self.shape, -1, dtype=np.int32)
        self.next_gid = np.full((B, self.total_messages), -1, dtype=np.int32)
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
            self.head[:, node_idx] = gids[0]
            self.tail[:, node_idx] = gids[-1]
            self.next_gid[:, gids[:-1]] = np.array(gids[1:], dtype=np.int32)
            self.backlog[:, node_idx] = len(gids)

        # Ack bookkeeping: which child each station must ack.
        self.pending_child = np.full(self.shape, -1, dtype=np.int64)
        # Flat views of the planes the loop indexes per pair: one index
        # per (replication, station) pair costs less than two.
        self._head_flat = self.head.reshape(-1)
        self._tail_flat = self.tail.reshape(-1)
        self._backlog_flat = self.backlog.reshape(-1)
        self._next_flat = self.next_gid.reshape(-1)
        self._pending_flat = self.pending_child.reshape(-1)

        self.decay = decay_factory(self.slots.decay_budget, self.shape)
        classes = self.slots.level_classes
        self._station_class = self.radio.levels % classes
        self._class_ids = np.arange(classes + 1)
        # Carriers, the stations a message can ever be queued at: the
        # non-root sources and their tree ancestors (messages only move
        # up the tree).  Row c of the grid lists class c's carriers in
        # ascending order, padded with the root, whose buffer stays
        # empty; _carrier_at[c, b] holds row c's flat indices b·n + v.
        carrier = np.zeros(n, dtype=bool)
        carrier[root] = True
        for node_idx in per_node:
            while not carrier[node_idx]:
                carrier[node_idx] = True
                node_idx = int(self.radio.parents[node_idx])
        carrier[root] = False
        by_class = [
            np.flatnonzero(carrier & (self._station_class == c))
            for c in range(classes)
        ]
        self._carrier_grid = np.full(
            (classes, max(len(row) for row in by_class)), root,
            dtype=np.int64,
        )
        for c, row in enumerate(by_class):
            self._carrier_grid[c, :len(row)] = row
        self._carrier_at = (
            np.arange(B, dtype=np.int64)[None, :, None] * n
            + self._carrier_grid[:, None, :]
        )
        # A class-c station's data is heard by its parent, in class c-1;
        # its acks go to its children, in class c+1.
        indptr, indices = self.radio.indptr, self.radio.indices
        self._data_csr = _class_csr(
            indptr, indices, self._station_class, -1, classes
        )
        self._ack_csr = _class_csr(
            indptr, indices, self._station_class, 1, classes
        )
        # The root's children's class (that of level 1): only its
        # deliveries reach the root.
        self._root_class = 1 % classes
        # _data_before[c, w]: class-c data slots among the first w slots
        # of a phase (what a sleep from w0 to w1 skips over), decoded via
        # the *scalar* SlotStructure, so both engines share one source
        # of schedule truth.
        self._data_before = np.zeros(
            (classes, self.slots.phase_length + 1), dtype=np.int64
        )
        for w in range(self.slots.phase_length):
            info = self.slots.decode(w)
            self._data_before[:, w + 1] = self._data_before[:, w]
            if info.kind is SlotKind.DATA:
                self._data_before[info.level_class, w + 1] += 1

        # Per-replication coin streams, read through a pair cursor.
        self._coin_cursor = _CoinCursor(
            np_rngs(self.seeds, "vector", "decay"), n
        )

        # Active-set state: the pairs listed at the phase start, compacted
        # to live sessions at each ack slot; a flat persistent hit-count
        # buffer touched (and re-zeroed) only at the entries a pass used;
        # the deliveries of a class whose data slot ended the last pass,
        # acked by the next; an incrementally maintained per-replication
        # backlog total so the done check never re-sums the (B, n) plane.
        self._pairs: Optional[_Listing] = None
        self._hits_flat = np.zeros(B * n, dtype=np.int32)
        self._unacked: Tuple[np.ndarray, ...] = _NO_DELIVERIES
        self._backlog_total = self.backlog.sum(axis=1, dtype=np.int64)
        # Set by a root delivery, cleared by the done check it calls for.
        self._root_heard = False
        # At most one message left in any replication: the next root
        # delivery may drain the batch (see :meth:`_run`).
        self._endgame = bool(self._backlog_total.max() <= 1)
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
        self._check_done(0)  # empty workloads complete at slot 0

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
        successor = self.next_gid[replication].tolist()
        for v in range(self.radio.n):
            gid = int(self.head[replication, v])
            for _ in range(int(self.backlog[replication, v])):
                ids.append(gid)
                gid = successor[gid]
        return ids

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------

    def _begin_phase(self) -> None:
        self._list_pairs()
        self.decay.reset()
        # Each listed pair starts its session at its class's first data
        # slot; nothing reads a class's sessions before that slot, so
        # every class starts here.
        self.decay.start_pairs(self._pairs.rows, self._pairs.cols)

    def _list_pairs(self) -> None:
        """List every class's awake pairs for the phase just begun.

        These are the stations the scalar min-heap would wake at their
        class's data slots: a non-empty buffer, which only carriers can
        hold.  §4.1: a message may start a Decay invocation only in a
        phase it was already buffered at the start of, so a message that
        arrives mid-phase waits for the next listing; a listed station's
        backlog drops only through its own deliveries, after its class's
        first data slot, so one listing serves the whole phase.  The
        order is class-major, b-major within a class and by station
        within a replication, so each class's pairs form one slice and
        each (class, replication)'s coins one contiguous block.
        """
        B = self.shape[0]
        C = self.slots.level_classes
        awake = self._backlog_flat[self._carrier_at] > 0  # (C, B, width)
        counts = awake.sum(axis=2)
        classes, rows, at = np.nonzero(awake)
        before = np.zeros((C + 1, B), dtype=np.int64)
        np.cumsum(counts, axis=0, out=before[1:])
        # A pair's offset in its replication's round block: its place in
        # its (class, replication) run plus the classes before it.
        per_run = counts.reshape(-1)
        run_shift = np.cumsum(per_run) - per_run - before[:-1].reshape(-1)
        self._pairs = _Listing(
            counts=counts,
            before=before,
            listed=counts.sum(axis=1).tolist(),
            rows=rows,
            cols=self._carrier_grid[classes, at],
            classes=classes,
            offsets=np.arange(rows.size) - run_shift[classes * B + rows],
            bounds=np.searchsorted(classes, self._class_ids).tolist(),
        )

    def step(self) -> None:
        """Advance all replications by exactly one slot."""
        self._run(self.slot + 1)

    def _run(self, end: int) -> None:
        """Advance all replications from :attr:`slot` to ``end`` in one
        pass; the slots in between lie in one round.

        Class c's data slot is round offset 2c and its ack slot 2c + 1,
        so the pass covers the data slots of classes ``c_lo..c_hi-1``
        and the ack slots of classes ``a_lo..a_hi-1``.  The pass ends
        early, after the root class's ack slot, when that slot may drain
        the batch.  A traced run's passes are single slots, each
        recorded.
        """
        profiler = self.profiler
        n = self.radio.n
        slot = self.slot
        within = slot % self.slots.phase_length
        if within == 0:
            self._begin_phase()
        t0 = profiler.clock() if profiler is not None else 0.0
        pairs = self._pairs
        decay_step, first = divmod(within, self.slots.round_width)
        last = first + end - slot
        round_start = slot - first
        r = self._root_class
        if (
            self._endgame
            and first <= 2 * r + 1 < last - 1
            and (self._root_heard or pairs.bounds[r] < pairs.bounds[r + 1])
        ):
            # One more root delivery may drain the batch: end the pass
            # with the root class's ack slot, so the loop stops there.
            last = 2 * r + 2
            end = round_start + last
        c_lo, c_hi = (first + 1) // 2, (last + 1) // 2
        a_lo, a_hi = first // 2, last // 2
        hits = self._hits_flat
        deliveries = _NO_DELIVERIES

        if c_lo < c_hi:
            lo, hi = pairs.bounds[c_lo], pairs.bounds[c_hi]
            rows, cols = pairs.rows[lo:hi], pairs.cols[lo:hi]
            listed = sum(pairs.listed[c_lo:c_hi])
            self.mask_stats["active_pairs"] += listed
            self.mask_stats["live_pairs"] += hi - lo
            self.mask_stats["data_slots"] += c_hi - c_lo
            tb = tv = _EMPTY
            if listed:
                # Dead pairs own their coins too: each cursor advances by
                # its listed count even where no session is alive.
                offsets = pairs.offsets[lo:hi]
                if c_lo:  # a pass from mid-round: class c_lo reads first
                    offsets = offsets - pairs.before[c_lo][rows]
                coins = self._coin_cursor.take(
                    rows, offsets, pairs.before[c_hi] - pairs.before[c_lo]
                )
                if rows.size:
                    tx = self.decay.transmit_pairs(rows, cols, coins)
                    tb, tv = rows[tx], cols[tx]
            if profiler is not None:
                t1 = profiler.clock()
                profiler.add("vector/decay", t1 - t0)
                profiler.bump("vector_awake_pairs", listed)
                profiler.bump("vector_live_pairs", hi - lo)
                t0 = t1
            if tb.size:
                touched = scatter_into(tb, tv, *self._data_csr, hits, n)
                parent = self.radio.parents[tv]
                base = tb * n
                at_parent = base + parent
                # Transmitter u's head is delivered iff its parent hears
                # uniquely: u neighbours its parent, so that one hit is u.
                deliv = hits[at_parent] == 1
                hits[touched] = 0
                if profiler is not None:
                    t1 = profiler.clock()
                    profiler.add("vector/reception", t1 - t0)
                    t0 = t1
                if deliv.any():
                    deliveries = (
                        tb[deliv], tv[deliv], parent[deliv],
                        (base + tv)[deliv], at_parent[deliv],
                    )
                    self._move_heads(deliveries, round_start)
            if self.trace is not None:
                self._record_data(c_lo, decay_step, rows, cols, tb, tv)

        if last % 2:
            # The pass ends on a data slot: its class's acks wait for
            # the next pass (class-major order puts them last).
            split = np.searchsorted(
                self._station_class[deliveries[1]], c_hi - 1
            )
            unacked = tuple(array[split:] for array in deliveries)
            deliveries = tuple(array[:split] for array in deliveries)
        else:
            unacked = _NO_DELIVERIES
        if first % 2 and self._unacked[0].size:
            # The pass opens on the ack slot of the last pass's deliveries.
            deliveries = tuple(
                np.concatenate(arrays)
                for arrays in zip(self._unacked, deliveries)
            )
        self._unacked = unacked

        if a_lo < a_hi:
            if deliveries[0].size:
                self._resolve_acks(deliveries, round_start)
            if pairs.rows.size:
                # A session dies only at its class's data and ack slots,
                # so from here on the list holds live pairs only.
                live = self.decay.alive[pairs.rows, pairs.cols]
                if not live.all():
                    pairs.rows = pairs.rows[live]
                    pairs.cols = pairs.cols[live]
                    pairs.classes = pairs.classes[live]
                    pairs.offsets = pairs.offsets[live]
                    pairs.bounds = np.searchsorted(
                        pairs.classes, self._class_ids
                    ).tolist()
            if self.trace is not None:
                ack_dense = np.zeros(self.shape, dtype=bool)
                ack_dense.reshape(-1)[deliveries[4]] = True
                self.trace.record(SlotRecord(
                    slot, "ack", a_lo, decay_step, ack_dense, None, None,
                ))
            if self._root_heard and a_lo <= r < a_hi:
                self._root_heard = False
                self._check_done(round_start + 2 * r + 2)
        self.slot = end
        if profiler is not None:
            profiler.add("vector/collection", profiler.clock() - t0)
            profiler.bump("vector_slots", end - slot)

    def _move_heads(
        self, deliveries: Tuple[np.ndarray, ...], round_start: int
    ) -> None:
        """Move each delivered head from its child's FIFO to its
        parent's, or log it at the root.

        A station delivers at most once per phase and receives at most
        once per round, so the (replication, child) pairs are distinct
        and so are the (replication, parent) pairs.  Every pop comes
        before any push: a child pops only its phase-start head, which
        pushes never move, and a parent's push reads its backlog after
        its own pop, so each queue ends as in slot order.
        """
        db, dv, dp, child, parent = deliveries
        k = self.total_messages
        head, tail = self._head_flat, self._tail_flat
        backlog, successor = self._backlog_flat, self._next_flat
        msgs = head[child]
        head[child] = successor[db * k + msgs]
        backlog[child] -= 1
        self._pending_flat[parent] = dv
        at_root = dp == self.radio.root_index
        root_b = db[at_root]
        if root_b.size:
            self.delivered_count[root_b] += 1
            self._delivered_log.append(
                (round_start + 2 * self._root_class, root_b, msgs[at_root])
            )
            self._backlog_total -= np.bincount(
                root_b, minlength=self.shape[0]
            )
            self._root_heard = True
            self._endgame = bool(self._backlog_total.max() <= 1)
        up = ~at_root
        fp = parent[up]
        if fp.size:
            fm = msgs[up]
            row = db[up] * k
            queued = backlog[fp] > 0
            successor[(row + tail[fp])[queued]] = fm[queued]
            fresh = ~queued
            head[fp[fresh]] = fm[fresh]
            tail[fp] = fm
            successor[row + fm] = -1
            backlog[fp] += 1

    def _resolve_acks(
        self, deliveries: Tuple[np.ndarray, ...], round_start: int
    ) -> None:
        """Each delivery's parent acks its child; asserts Theorem 3.1."""
        eb, ev, ep, child, parent = deliveries
        hits = self._hits_flat
        touched = scatter_into(eb, ep, *self._ack_csr, hits, self.radio.n)
        # Child u hears its ack iff it receives uniquely and the parent's
        # pending ack designates u.  Its parent is acking (every delivery
        # queued one), so a unique transmitter is the parent.
        acked = (hits[child] == 1) & (self._pending_flat[parent] == ev)
        hits[touched] = 0
        if not acked.all():
            # Theorem 3.1: in the failure-free model every designated
            # delivery is acknowledged in the paired ack slot.  (No
            # station outside the expected set can be acked: acks are
            # designated to the child the parent just heard.)
            station = ev[np.flatnonzero(~acked)[0]]
            ack_slot = round_start + 2 * int(self._station_class[station]) + 1
            raise ProtocolError(
                "ack determinism violated in batch engine at slot "
                f"{ack_slot}: a designated delivery went unacknowledged"
            )
        self.decay.kill(eb, ev)
        # Every pending ack fires exactly at its due slot.
        self._pending_flat[parent] = -1

    def _record_data(
        self,
        level_class: int,
        decay_step: int,
        rows: np.ndarray,
        cols: np.ndarray,
        tb: np.ndarray,
        tv: np.ndarray,
    ) -> None:
        """Trace one data slot: its transmitters, their dense reception
        counts and, at a phase's first step, the sessions it started."""
        tx_dense = np.zeros(self.shape, dtype=bool)
        tx_dense[tb, tv] = True
        counts = self.radio.resolve(tx_dense)[0].copy() if tb.size else None
        started: Optional[np.ndarray] = None
        if decay_step == 0:
            # Nothing of this class has died yet: every listed pair.
            started = np.zeros(self.shape, dtype=bool)
            started[rows, cols] = True
        self.trace.record(SlotRecord(
            self.slot, "data", level_class, decay_step,
            tx_dense, counts, started,
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
        pairs = self._pairs
        self._coin_cursor.skip(skipped @ pairs.counts)
        listed = int(skipped @ pairs.listed)
        self.mask_stats["active_pairs"] += listed
        self.mask_stats["data_slots"] += int(skipped.sum())
        if self.profiler is not None:
            self.profiler.bump("vector_slots", until - self.slot)
            self.profiler.bump("vector_awake_pairs", listed)
        self.slot = int(until)

    # ------------------------------------------------------------------

    def _check_done(self, slot: int) -> None:
        """Mark the replications drained by ``slot``.  Only a root
        delivery can drain one, so the loop calls this after the root
        class's ack slot of a round that delivered to the root."""
        newly = (
            ~self.done
            & (self.delivered_count >= self.total_messages)
            & (self._backlog_total == 0)
        )
        if newly.any():
            self.done |= newly
            self.completion_slots[newly] = slot

    def advance(self, until: int) -> None:
        """Step to slot ``until``, or until every replication drains.

        Each pass runs to the end of the round, never past ``until``,
        and stops at the root class's ack slot when one more root
        delivery may drain the batch.  After a pass that leaves no class
        a live pair, the rest of the phase is silent and is slept
        through in one jump, never past ``until``.  A trace records
        every slot, so a traced run passes one slot at a time and never
        sleeps.
        """
        traced = self.trace is not None
        round_width = self.slots.round_width
        phase_length = self.slots.phase_length
        while not self.done.all() and self.slot < until:
            if traced:
                self._run(self.slot + 1)
            else:
                self._run(min(
                    self.slot - self.slot % round_width + round_width, until
                ))
            within = self.slot % phase_length
            if (
                not traced
                and within
                and self.slot % 2 == 0  # the pass ended on an ack slot
                and not self._pairs.rows.size
                and not self.done.all()
            ):
                self._sleep(min(self.slot - within + phase_length, until))

    def run_until_done(self) -> np.ndarray:
        """Run until every replication drains; returns completion slots.

        The run is capped at the same generous multiple of the Theorem
        4.4 bound the scalar :func:`~repro.core.collection.run_collection`
        uses; stragglers past it raise
        :class:`~repro.errors.SimulationTimeout`.
        """
        bound = expected_collection_slots(
            self.total_messages,
            self.radio.tree.depth,
            self.radio.graph.max_degree(),
        )
        max_slots = max(10_000, int(20 * bound))
        self.advance(max_slots)
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
    decay_factory: DecayFactory = BatchDecay,
    trace: bool = False,
) -> BatchCollectionResult:
    """Run B replications of collection to completion in one batch.

    The vector-engine counterpart of the scalar
    :func:`~repro.core.collection.run_collection`, for all seeds of a
    grid cell at once, with the same budgets: the Decay budget of the
    graph's maximum degree and the same slot cap.
    """
    simulation = BatchCollection(
        graph,
        tree,
        sources,
        seeds,
        level_classes=level_classes,
        decay_factory=decay_factory,
        trace=trace,
    )
    completion = simulation.run_until_done()
    phase_length = simulation.slots.phase_length
    phases = -(-completion // phase_length)
    return BatchCollectionResult(
        completion_slots=completion,
        phases=phases,
        simulation=simulation,
    )
