"""The slot-synchronous radio-network simulation engine.

Implements the model of §1.1 exactly:

* time advances in synchronous slots;
* in each slot each station either transmits or receives on each channel
  (the paper's multi-channel protocols assume one transceiver per channel);
* a listening station receives a message in a slot iff **exactly one** of
  its neighbors transmits in that slot (on that channel);
* there is no collision detection — a collision is indistinguishable from
  silence at the receiver;
* a transmitting station hears nothing on the channel it transmits on.

The engine is deliberately simple and allocation-light: per slot it asks
every *awake* process for its transmission intents, resolves receptions
channel by channel by counting transmitting neighbors, and delivers
callbacks; ``on_slot_end`` goes only to processes that override it
(decided at :meth:`RadioNetwork.attach`).

Addressed delivery
------------------
The paper's stations drop, by the IDs in the payload, every message that
is not meant for them (§1.1), and most receptions are such drops.  A
transmission may name in ``to`` the only stations that can act on it
(:class:`~repro.radio.transmission.Transmission`).  Then the engine
counts each busy channel's hits in one pass, adds the deliveries and
collisions from those counts, and calls ``on_receive`` only for the
addressees that hear exactly one sender and are not transmitting there;
a ``to`` entry that is not a neighbour of its sender raises
:class:`~repro.errors.ProtocolError`.  A trace, a failure model or the
capture effect needs every receiver (an event, a loss draw or a capture
each), so with any of them attached every receiver is resolved and
called one by one, as the model describes; the outcomes are the same.

Idle-aware scheduling
---------------------
The paper's own slot structure guarantees long deterministic silences: a
station at BFS level i may transmit data only in its level class's slots
(2 of every 3 slots are someone else's, §2.2), a station whose Decay
coin has fallen is silent until its next invocation (§1.4), and a
station with an empty buffer transmits nothing at all.  Polling every
process every slot is therefore O(n) of wasted work per slot at scale.
A process may declare those silences via :meth:`~repro.radio.process.
Process.quiet_until`; the engine keeps a min-heap of wake slots and
skips sleeping processes entirely — a reception wakes a process
immediately, so reactive traffic is never delayed, unless the process's
``on_receive`` returns False to say the message left its declaration
valid (a station dropping what is not meant for it).  A driver that
injects traffic between slots may jump over slots in which no station
is due (:meth:`RadioNetwork.next_due_slot`, :meth:`RadioNetwork.skip_to`).
Processes that do not implement the hint are polled every slot, exactly
as before.
The fast path is bypassed whenever a failure model is attached (crash
schedules must be consulted per slot) or ``idle_scheduling`` is False.
"""

from __future__ import annotations

import heapq
import random
import weakref
from collections import _count_elements  # type: ignore[attr-defined]
from itertools import chain
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro import profiling
from repro.errors import ConfigurationError, ProtocolError, SimulationTimeout
from repro.graphs.graph import Graph, NodeId
from repro.radio.failures import FailureModel
from repro.radio.process import QUIET_FOREVER, Process, SlotAction
from repro.radio.trace import (
    ChannelStats,
    CollisionEvent,
    DeliverEvent,
    DropEvent,
    EventTrace,
    NetworkStats,
    TransmitEvent,
)
from repro.radio.transmission import Transmission

UntilPredicate = Callable[["RadioNetwork"], bool]


class RadioNetwork:
    """A synchronous multi-hop radio network over a fixed topology.

    Parameters
    ----------
    graph:
        The communication topology (stations = nodes, range = edges).
    num_channels:
        How many orthogonal channels exist.  Single-channel protocols use
        channel 0; the paper's concurrent collection/distribution stack
        uses 2 ("we … assume separate channels", §1.4).
    trace:
        Optional :class:`~repro.radio.trace.EventTrace` capturing every
        event.  Aggregate counters in :attr:`stats` are always collected.
    failures:
        Optional failure model (crashes / link loss) for robustness
        experiments; ``None`` is the paper's failure-free model.
    capture_effect:
        §8 remark (3)'s model variant: "in case of a conflict the
        receiver may get one of the messages."  When enabled, a collision
        delivers one of the colliding payloads chosen uniformly at random
        (seeded by ``capture_seed``) instead of nothing.  The paper notes
        its deterministic acknowledgement mechanism "is no longer valid"
        under this model — tests confirm exactly that.

    §8 remark (4)'s collision detection is not built: the paper's
    protocols never use it ("we do not know how to use it").

    The ``idle_scheduling`` attribute (default True) enables the
    quiet-declaration fast path described in the module docstring; set it
    to False to force the legacy poll-every-process loop (used by the
    throughput benchmark to measure the fast path's win, and available as
    an escape hatch).  Either setting produces identical protocol
    outcomes for processes honouring the ``quiet_until`` contract.
    """

    def __init__(
        self,
        graph: Graph,
        num_channels: int = 1,
        trace: Optional[EventTrace] = None,
        failures: Optional[FailureModel] = None,
        capture_effect: bool = False,
        capture_seed: int = 0,
    ):
        if num_channels < 1:
            raise ConfigurationError(
                f"need at least one channel, got {num_channels}"
            )
        self.num_channels = num_channels
        self.trace = trace
        self.failures = failures
        self.capture_effect = capture_effect
        self._capture_rng = (
            random.Random(capture_seed) if capture_effect else None
        )
        self.slot = 0
        self.stats = NetworkStats()
        self.profiler = profiling.current_profile()
        self.idle_scheduling = True
        # Wake bookkeeping for the idle fast path: ``_wake`` maps each
        # station to its authoritative next wake slot; ``_wake_heap``
        # holds (wake, node) entries, lazily invalidated (an entry whose
        # wake no longer matches ``_wake`` is stale and discarded on pop).
        self._wake: Dict[NodeId, int] = {}
        self._wake_heap: List[Tuple[int, NodeId]] = []
        self._wake_valid = False
        self._processes: Dict[NodeId, Process] = {}
        # Each station's on_slot_end if its process overrides the base
        # no-op, else None; keyed in the order of ``_processes``.
        self._slot_end: Dict[NodeId, Optional[Callable[[int], None]]] = {}
        self.graph = graph

    @property
    def graph(self) -> Graph:
        return self._graph

    @graph.setter
    def graph(self, graph: Graph) -> None:
        # Derived per-topology state is rebuilt exactly once per topology
        # change, never in the per-slot hot loop:
        # * the neighbor-tuple cache — the inner reception loop iterates
        #   these millions of times and must not re-derive them from the
        #   graph per slot — and the neighbor sets that addresses are
        #   checked against, each built when its station first sends an
        #   addressed transmission;
        # * the full-attachment check — an O(n) set difference, re-armed
        #   so a swapped topology is re-validated before the next step;
        # * the wake heap — a swapped topology may change who can hear
        #   whom, so every station is re-polled from the next slot.
        self._graph = graph
        self._attachment_validated = False
        self._wake_valid = False
        self._neighbors: Dict[NodeId, tuple] = {
            node: graph.neighbors(node) for node in graph.nodes
        }
        self._neighbor_sets = _NeighborSets(self._neighbors)

    # ------------------------------------------------------------------
    # Wiring processes to stations
    # ------------------------------------------------------------------

    def attach(self, process: Process) -> None:
        """Install ``process`` on its station (``process.node_id``)."""
        node = process.node_id
        if node not in self.graph:
            raise ConfigurationError(f"no station {node!r} in topology")
        self._processes[node] = process
        # Decided here, from the bound method, so an override on the
        # class or on the instance runs and the base no-op is never
        # called (Process.on_slot_end).
        end = process.on_slot_end
        self._slot_end[node] = (
            None if getattr(end, "__func__", None) is Process.on_slot_end
            else end
        )
        # The waker holds the network weakly: a strong reference would
        # make every network cyclic garbage (network -> process -> waker
        # -> network) that only the cycle collector frees.
        network = weakref.ref(self)

        def waker() -> None:
            live = network()
            if live is not None:
                live._wake_external(node)

        process._waker = waker
        self._attachment_validated = False
        self._wake_valid = False

    def attach_all(self, factory: Callable[[NodeId], Process]) -> None:
        """Install ``factory(node)`` on every station of the topology."""
        for node in self.graph.nodes:
            self.attach(factory(node))

    def process(self, node: NodeId) -> Process:
        return self._processes[node]

    @property
    def processes(self) -> Mapping[NodeId, Process]:
        """A read-only live view of the station -> process map.

        Returned as a :class:`types.MappingProxyType` — not a copy — so
        hot-path callers may iterate it per slot without allocating, and
        accidental mutation raises instead of silently desynchronizing
        the engine (attachment goes through :meth:`attach`).
        """
        return MappingProxyType(self._processes)

    def _require_fully_attached(self) -> None:
        missing = set(self.graph.nodes) - set(self._processes)
        if missing:
            raise ConfigurationError(
                f"stations without processes: {sorted(missing)[:5]!r}"
                + ("…" if len(missing) > 5 else "")
            )
        self._attachment_validated = True

    def _wake_external(self, node: NodeId) -> None:
        """Revoke ``node``'s quiet declaration (see ``Process.wake``)."""
        if not self._wake_valid:
            return  # heap will be rebuilt before the next step anyway
        slot = self.slot
        if self._wake.get(node, slot) > slot:
            self._wake[node] = slot
            heapq.heappush(self._wake_heap, (slot, node))

    def _rebuild_wake(self) -> None:
        """Re-arm the wake heap: every station polls at the current slot."""
        slot = self.slot
        self._wake = {node: slot for node in self._processes}
        self._wake_heap = [(slot, node) for node in self._processes]
        heapq.heapify(self._wake_heap)
        self._wake_valid = True

    # ------------------------------------------------------------------
    # The slot loop
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize_action(action: SlotAction) -> List[Transmission]:
        if action is None:
            return []
        if isinstance(action, Transmission):
            return [action]
        return list(action)

    def step(self) -> None:
        """Advance the network by one slot."""
        if not self._attachment_validated:
            self._require_fully_attached()
        slot = self.slot
        failures = self.failures
        trace = self.trace
        tracing = trace is not None
        processes = self._processes
        profiler = self.profiler
        mark = profiler.clock() if profiler is not None else 0.0

        # The fast path needs per-slot crash schedules out of the way
        # (a sleeping station must still crash on time for the stats and
        # the collision semantics), so any failure model disables it.
        use_idle = self.idle_scheduling and failures is None
        # Stations acting this slot, in deterministic wake order (polled
        # now, or woken later by a reception); None = everyone, legacy.
        awake: Optional[Dict[NodeId, None]] = None
        if use_idle:
            if not self._wake_valid:
                self._rebuild_wake()
            awake = {}
            heap = self._wake_heap
            wake = self._wake
            while heap and heap[0][0] <= slot:
                entry_wake, node = heapq.heappop(heap)
                if node in awake or wake.get(node) != entry_wake:
                    continue  # stale entry: rescheduled since it was pushed
                awake[node] = None
            if not awake:
                # Nobody is due: nothing can be sent, heard or ended.
                self._advance_silent(1)
                return
            poll = awake
        else:
            poll = processes

        # Phase 1: gather transmission intents.  A station's entry in a
        # channel's sender dict is also what catches a double
        # transmission on that channel.
        transmitters: List[Dict[NodeId, Transmission]] = [
            {} for _ in range(self.num_channels)
        ]
        neighbor_sets = self._neighbor_sets
        down_nodes = set()
        for node in poll:
            if failures is not None and failures.node_down(node, slot):
                down_nodes.add(node)
                self.stats.down_node_slots += 1
                continue
            action = processes[node].on_slot(slot)
            if action is None:
                continue
            if type(action) is Transmission:
                action = (action,)
            elif type(action) is not list:
                action = self._normalize_action(action)
            for tx in action:
                channel = tx.channel
                if channel >= self.num_channels:
                    raise ProtocolError(
                        f"node {node!r} transmitted on channel {channel} "
                        f"but the network has {self.num_channels} channel(s)"
                    )
                senders = transmitters[channel]
                if node in senders:
                    raise ProtocolError(
                        f"node {node!r} transmitted twice on channel "
                        f"{channel} in slot {slot}"
                    )
                to = tx.to
                if to is not None and not neighbor_sets[node].issuperset(to):
                    stranger = next(
                        r for r in to if r not in neighbor_sets[node]
                    )
                    raise ProtocolError(
                        f"node {node!r} addressed {stranger!r} on channel "
                        f"{channel} in slot {slot}, which is not its "
                        f"neighbour"
                    )
                senders[node] = tx
                if tracing:
                    trace.record(
                        TransmitEvent(slot, channel, node, tx.payload)
                    )
        if profiler is not None:
            now = profiler.clock()
            profiler.add("scalar/intents", now - mark)
            profiler.bump("polled", len(poll))
            profiler.bump("skipped", len(processes) - len(poll))
            mark = now

        # Phase 2: resolve receptions channel by channel.  A trace, a
        # failure model or the capture effect needs every receiver (an
        # event, a loss draw or a capture per receiver); otherwise only
        # the addressees of each transmission are called.
        each_receiver = (
            tracing or failures is not None or self.capture_effect
        )
        for channel in range(self.num_channels):
            senders = transmitters[channel]
            if not senders:
                continue
            channel_stats = self.stats.channel(channel)
            channel_stats.busy_slots += 1
            channel_stats.transmissions += len(senders)
            if each_receiver:
                self._resolve_each(
                    slot, channel, senders, channel_stats, down_nodes, awake
                )
            else:
                self._resolve_addressed(
                    slot, channel, senders, channel_stats, awake
                )
        if profiler is not None:
            now = profiler.clock()
            profiler.add("scalar/reception", now - mark)
            mark = now

        # Phase 3: end-of-slot bookkeeping, then reschedule the stations
        # that acted (their quiet declarations may have changed).  Only
        # processes that override on_slot_end are called for it.
        slot_end = self._slot_end
        if awake is not None:
            wake = self._wake
            heap = self._wake_heap
            next_slot = slot + 1
            for node in awake:
                end = slot_end[node]
                if end is not None:
                    end(slot)
                wake_at = processes[node].quiet_until(next_slot)
                if wake_at < next_slot:
                    wake_at = next_slot
                wake[node] = wake_at
                if wake_at < QUIET_FOREVER:
                    heapq.heappush(heap, (wake_at, node))
        else:
            for node, end in slot_end.items():
                if end is not None and node not in down_nodes:
                    end(slot)

        self.slot += 1
        self.stats.slots += 1
        if profiler is not None:
            profiler.add("scalar/slot_end", profiler.clock() - mark)
            profiler.bump("scalar_slots")

    def _resolve_addressed(
        self,
        slot: int,
        channel: int,
        senders: Dict[NodeId, Transmission],
        channel_stats: ChannelStats,
        awake: Optional[Dict[NodeId, None]],
    ) -> None:
        """Receptions on one busy channel, calling only the addressees.

        The delivery and collision counters come from one counting pass
        over the senders' neighbourhoods; ``on_receive`` runs only for the
        stations in a transmission's ``to`` (every neighbour when it is
        None) that hear exactly one sender and are not transmitting here,
        in sender order and then ``to`` order.  Every other receiver would
        have dropped the message with no change of state (see
        :class:`~repro.radio.transmission.Transmission`).
        """
        neighbors = self._neighbors
        processes = self._processes
        hits: Optional[Dict[NodeId, int]] = None
        if len(senders) == 1:
            # A lone sender reaches each of its neighbours alone.
            channel_stats.deliveries += len(neighbors[next(iter(senders))])
        else:
            # The counting loop behind collections.Counter, called without
            # the Python-level constructor that costs more than the count
            # itself at n = 48 (docs/performance.md, Addressed delivery).
            hits = {}
            _count_elements(
                hits, chain.from_iterable(map(neighbors.__getitem__, senders))
            )
            heard = list(hits.values()).count(1)
            collided = len(hits) - heard
            for sender in senders:  # a transmitter hears nothing here
                count = hits.get(sender)
                if count == 1:
                    heard -= 1
                elif count is not None:
                    collided -= 1
            channel_stats.deliveries += heard
            channel_stats.collisions += collided
        for sender, tx in senders.items():
            to = tx.to
            if to is None:
                to = neighbors[sender]
            payload = tx.payload
            for receiver in to:
                if hits is not None and (
                    hits[receiver] != 1 or receiver in senders
                ):
                    continue
                woke = processes[receiver].on_receive(slot, channel, payload)
                # False: the reception left the receiver's declaration
                # valid, so a sleeper stays asleep (Process.on_receive).
                if (
                    awake is not None
                    and woke is not False
                    and receiver not in awake
                ):
                    awake[receiver] = None

    def _resolve_each(
        self,
        slot: int,
        channel: int,
        senders: Dict[NodeId, Transmission],
        channel_stats: ChannelStats,
        down_nodes: Set[NodeId],
        awake: Optional[Dict[NodeId, None]],
    ) -> None:
        """Receptions on one busy channel, receiver by receiver.

        Every listening neighbour of a sender is resolved on its own:
        traced, consulted against the failure model, or handed a captured
        collision, and then called whether or not it is addressed.
        """
        neighbors = self._neighbors
        processes = self._processes
        failures = self.failures
        trace = self.trace
        tracing = trace is not None
        hit_count: Dict[NodeId, int] = {}
        last_sender: Dict[NodeId, NodeId] = {}
        for sender in senders:
            for receiver in neighbors[sender]:
                hit_count[receiver] = hit_count.get(receiver, 0) + 1
                last_sender[receiver] = sender
        for receiver, count in hit_count.items():
            if receiver in senders or receiver in down_nodes:
                continue  # busy transmitting / crashed: hears nothing
            if count >= 2:
                channel_stats.collisions += 1
                colliders = None
                if tracing or self.capture_effect:
                    colliders = tuple(
                        s for s in senders if receiver in neighbors[s]
                    )
                if tracing:
                    assert colliders is not None
                    trace.record(
                        CollisionEvent(slot, channel, receiver, colliders)
                    )
                if not self.capture_effect:
                    continue
                # §8 remark (3): the receiver captures one of the
                # colliding messages, uniformly at random.  The captured
                # delivery is still subject to link loss.
                assert colliders is not None
                assert self._capture_rng is not None
                sender = self._capture_rng.choice(colliders)
            else:
                sender = last_sender[receiver]
            payload = senders[sender].payload
            if failures is not None and failures.drop_delivery(
                sender, receiver, slot
            ):
                channel_stats.dropped += 1
                if tracing:
                    trace.record(
                        DropEvent(slot, channel, receiver, sender, payload)
                    )
                continue
            channel_stats.deliveries += 1
            if tracing:
                trace.record(
                    DeliverEvent(slot, channel, receiver, sender, payload)
                )
            woke = processes[receiver].on_receive(slot, channel, payload)
            if (
                awake is not None
                and woke is not False
                and receiver not in awake
            ):
                awake[receiver] = None

    def _advance_silent(self, count: int) -> None:
        """Advance ``count`` slots in which no station is due, counting
        them exactly as :meth:`step` counts such a slot."""
        self.slot += count
        self.stats.slots += count
        profiler = self.profiler
        if profiler is not None:
            profiler.bump("polled", 0)
            profiler.bump("skipped", count * len(self._processes))
            profiler.bump("scalar_slots", count)

    def next_due_slot(self) -> int:
        """The first slot >= :attr:`slot` at which some station is due.

        :data:`~repro.radio.process.QUIET_FOREVER` when every station
        sleeps until something is delivered to it.  Without the idle
        fast path (``idle_scheduling`` off, a failure model attached, or
        the wake heap not yet armed) every station is due at every
        slot, so this is :attr:`slot`.
        """
        if (
            not self.idle_scheduling
            or self.failures is not None
            or not self._wake_valid
        ):
            return self.slot
        heap = self._wake_heap
        wake = self._wake
        while heap:
            due, node = heap[0]
            if wake.get(node) == due:
                return due
            heapq.heappop(heap)  # stale: rescheduled since it was pushed
        return QUIET_FOREVER

    def skip_to(self, slot: int) -> None:
        """Advance to ``slot`` over slots in which no station is due.

        ``slot``, ``stats.slots`` and the profiler's counters end as
        stepping through those slots would leave them; a driver that
        injects external events (arrivals) calls this only up to the
        next one.  Raises :class:`ProtocolError` if a station is due
        before ``slot``.
        """
        if slot < self.slot:
            raise ConfigurationError(
                f"cannot skip back from slot {self.slot} to {slot}"
            )
        due = self.next_due_slot()
        if due < slot:
            raise ProtocolError(
                f"cannot skip to slot {slot}: a station is due at slot {due}"
            )
        self._advance_silent(slot - self.slot)

    def run(
        self,
        max_slots: int,
        until: Optional[UntilPredicate] = None,
        check_every: int = 1,
    ) -> int:
        """Run until ``until(self)`` holds or ``max_slots`` elapse.

        Returns the number of slots executed *in this call*.  Raises
        :class:`SimulationTimeout` if the predicate never held; if no
        predicate is given, simply runs ``max_slots`` slots.
        """
        if max_slots < 0:
            raise ConfigurationError(f"max_slots must be >= 0, got {max_slots}")
        if check_every < 1:
            raise ConfigurationError(
                f"check_every must be >= 1, got {check_every}"
            )
        start = self.slot
        if until is not None and until(self):
            return 0
        for executed in range(1, max_slots + 1):
            self.step()
            if (
                until is not None
                and executed % check_every == 0
                and until(self)
            ):
                return executed
        if until is None:
            return max_slots
        raise SimulationTimeout(
            f"goal not reached within {max_slots} slots "
            f"(started at slot {start})",
            slots_elapsed=max_slots,
        )

    def run_until_done(self, max_slots: int) -> int:
        """Run until every process reports :meth:`Process.is_done`."""
        return self.run(
            max_slots,
            until=lambda net: all(
                p.is_done() for p in net._processes.values()
            ),
        )


class _NeighborSets(dict):
    """Each station's neighbours as a frozenset, built on first lookup."""

    def __init__(self, neighbors: Dict[NodeId, tuple]):
        super().__init__()
        self._neighbors = neighbors

    def __missing__(self, node: NodeId) -> frozenset:
        reach = self[node] = frozenset(self._neighbors[node])
        return reach
