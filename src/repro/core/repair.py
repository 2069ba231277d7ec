"""Self-healing collection: watchdog, re-attachment, partition reporting.

The paper's collection protocol (§4) is *always successful* in the
failure-free model — but a single crashed BFS parent stalls its whole
subtree forever, because the transport resends the buffer head to the same
next hop until acknowledged.  This module adds the fault-tolerance layer:

* **Ack-timeout watchdog** — after :data:`SUSPECT_AFTER` consecutive
  unacknowledged Decay phases for the same message, the next hop is
  suspected dead.
* **Local re-attachment** — the station picks an alive neighbor at BFS
  level ≤ its own, adopts it as its new parent (renumbering its own level
  to the new parent's + 1), and re-addresses its whole buffer there.
  Candidate discovery goes through a :class:`NeighborRegistry`, the
  simulation stand-in for a low-rate HELLO/beacon sub-protocol.
* **Graceful partition handling** — a station that runs out of candidates
  declares itself partitioned and falls silent; its silence propagates the
  detection down its subtree (children stop getting acks and run the same
  watchdog).  The driver then terminates with a structured
  :class:`ResilientCollectionResult` instead of raising
  :class:`~repro.errors.SimulationTimeout`.

End-to-end safety rests on two transport properties that survive
failures: messages move buffer-to-buffer only on acknowledgement (so a
message is never *lost*, only possibly duplicated), and every lane
suppresses duplicates by message ID (so redelivery after a repair is
idempotent and the root still delivers exactly once).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.collection import (
    CollectionProcess,
    expected_collection_slots,
)
from repro.core.messages import DataMessage
from repro.core.slots import SlotStructure, decay_budget
from repro.core.tree import TreeInfo, tree_info_from_bfs_tree
from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.failures import FailureModel
from repro.radio.network import RadioNetwork
from repro.radio.trace import NetworkStats


#: The watchdog threshold: that many *completed* Decay phases attempting
#: the same head without an acknowledgement mark the next hop as suspect.
#: The lane retries with a short backoff (see
#: :data:`~repro.core.transport.BACKOFF_CAP`) so suspicion builds quickly,
#: and never gives a message up: the watchdog decides failover.
SUSPECT_AFTER = 3


@dataclass(frozen=True)
class RepairEvent:
    """One successful re-attachment."""

    slot: int
    node: NodeId
    old_parent: NodeId
    new_parent: NodeId
    old_level: int
    new_level: int


class NeighborRegistry:
    """Liveness and level lookups for *direct neighbors* only.

    This is the simulation's stand-in for a HELLO/beacon sub-protocol:
    each station could learn, at O(1) amortized slots, which neighbors are
    alive, their current (possibly renumbered) level, and whether they
    have given up — here we answer those queries from the simulator's
    global state instead of spending slots on beacons.  The cycle check
    walks current parent pointers; a distributed implementation would get
    the same guarantee from root-sequenced repair epochs (as in AODV).
    """

    def __init__(self, graph: Graph, failures: Optional[FailureModel]):
        self._graph = graph
        self._failures = failures
        self._procs: Dict[NodeId, "ResilientCollectionProcess"] = {}

    def register(self, process: "ResilientCollectionProcess") -> None:
        self._procs[process.node_id] = process

    def alive(self, node: NodeId, slot: int) -> bool:
        return self._failures is None or not self._failures.node_down(
            node, slot
        )

    def level_of(self, node: NodeId) -> int:
        return self._procs[node].current_level

    def _would_cycle(self, node: NodeId, candidate: NodeId) -> bool:
        """Whether attaching ``node`` under ``candidate`` closes a loop."""
        seen: Set[NodeId] = set()
        cursor = candidate
        while cursor not in seen:
            if cursor == node:
                return True
            seen.add(cursor)
            process = self._procs.get(cursor)
            if process is None or process.info.is_root:
                return False
            cursor = process.parent
        return True  # pre-existing loop above the candidate: stay away

    def best_candidate(
        self,
        node: NodeId,
        level: int,
        exclude: Set[NodeId],
        slot: int,
    ) -> Optional[NodeId]:
        """The most attractive re-attachment target, or None.

        Eligible: an alive, non-partitioned direct neighbor at current
        level ≤ ``level`` whose parent chain does not lead back to
        ``node``.  Preference: lowest level, then lowest ID (deterministic
        tie-break, mirroring the ID-ordered elections elsewhere).
        """
        best: Optional[Tuple[int, NodeId]] = None
        for neighbor in self._graph.neighbors(node):
            if neighbor in exclude:
                continue
            process = self._procs[neighbor]
            if process.partitioned:
                continue
            if process.current_level > level:
                continue
            if not self.alive(neighbor, slot):
                continue
            if self._would_cycle(node, neighbor):
                continue
            key = (process.current_level, neighbor)
            if best is None or key < best:
                best = key
        return None if best is None else best[1]


class ResilientCollectionProcess(CollectionProcess):
    """Collection hardened with the watchdog/re-attachment layer.

    Runs the unchanged §4 data path (Decay + deterministic acks) in
    non-strict mode, plus, per slot end, the repair state machine
    described in the module docstring.
    """

    def __init__(
        self,
        info: TreeInfo,
        slots: SlotStructure,
        rng: random.Random,
        registry: NeighborRegistry,
        initial_payloads: Iterable[Any] = (),
    ):
        self._registry = registry
        self._suspected: Set[NodeId] = set()
        self.partitioned = False
        self.partitioned_at: Optional[int] = None
        self.repairs: List[RepairEvent] = []
        super().__init__(
            info,
            slots,
            rng,
            initial_payloads=initial_payloads,
            strict=False,
            retry=True,
        )
        registry.register(self)

    @property
    def current_level(self) -> int:
        """This station's (possibly renumbered) BFS level."""
        return self.lane.level

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------

    def on_slot(self, slot: int):
        if self.partitioned:
            # A partitioned station falls completely silent: it stops
            # acking, so its children's watchdogs fire and the partition
            # verdict propagates down the subtree.
            return None
        return super().on_slot(slot)

    def on_receive(
        self, slot: int, channel: int, payload: Any
    ) -> Optional[bool]:
        if self.partitioned:
            return False
        backlog_before = self.lane.backlog
        woke = super().on_receive(slot, channel, payload)
        if self.lane.backlog < backlog_before:
            # Upward progress: the current parent is demonstrably alive,
            # so forgive past suspicions (they may have been collisions or
            # transient churn, and a revived neighbor is a candidate again).
            self._suspected.clear()
        return woke

    def on_slot_end(self, slot: int) -> None:
        if self.partitioned or self.info.is_root:
            return
        lane = self.lane
        if lane.buffer and lane.failed_attempts(slot) >= SUSPECT_AFTER:
            self._repair(slot)

    def quiet_until(self, slot: int) -> int:
        # The per-slot watchdog in on_slot_end must observe every slot;
        # opt back out of the inherited lane-based idle declaration.
        # (Resilient runs attach a failure model, which disables the idle
        # fast path anyway — this keeps the contract honest regardless.)
        return slot

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def _repair(self, slot: int) -> None:
        self._suspected.add(self.parent)
        candidate = self._registry.best_candidate(
            self.node_id,
            self.current_level,
            exclude=self._suspected | {self.node_id},
            slot=slot,
        )
        if candidate is None:
            self.partitioned = True
            self.partitioned_at = slot
            self.lane.muted = True
            return
        old_parent, old_level = self.parent, self.current_level
        new_level = self._registry.level_of(candidate) + 1
        self.parent = candidate
        self.lane.retarget(candidate, new_level)
        self.repairs.append(
            RepairEvent(
                slot, self.node_id, old_parent, candidate, old_level, new_level
            )
        )

    def terminal(self, slot: int) -> bool:
        """Whether this station can never contribute further deliveries."""
        return self.partitioned or self.lane.quiescent(slot)


@dataclass
class ResilientCollectionResult:
    """Structured outcome of a collection run under failures.

    Unlike :class:`~repro.core.collection.CollectionResult` this never
    presumes total success: it reports what was delivered, what remained
    stuck and where, which stations declared themselves partitioned, and
    the analytically-computed ground truth to score that detection
    against.
    """

    slots: int
    delivered: List[DataMessage]
    expected_by_origin: Dict[NodeId, int]
    stats: NetworkStats
    slot_structure: SlotStructure
    repairs: List[RepairEvent]
    declared_partitioned: Tuple[NodeId, ...]
    unreachable: Tuple[NodeId, ...]  # ground truth at the final slot
    down_at_end: Tuple[NodeId, ...]
    timed_out: bool = False
    undelivered: List[Tuple[NodeId, int]] = field(default_factory=list)

    @property
    def expected(self) -> int:
        return sum(self.expected_by_origin.values())

    @property
    def messages_delivered(self) -> int:
        return len(self.delivered)

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of *all* injected messages."""
        if self.expected == 0:
            return 1.0
        return len(self.delivered) / self.expected

    @property
    def reachable_delivery_ratio(self) -> float:
        """Delivered fraction of messages from the root's surviving
        component — the fraction the repaired protocol is accountable
        for (messages stranded behind a true partition are excluded)."""
        cut = set(self.unreachable)
        expected = sum(
            count
            for origin, count in self.expected_by_origin.items()
            if origin not in cut
        )
        if expected == 0:
            return 1.0
        delivered = sum(1 for m in self.delivered if m.origin not in cut)
        return delivered / expected

    @property
    def partition_detected(self) -> bool:
        return bool(self.declared_partitioned)

    @property
    def partition_precision(self) -> float:
        """Of the stations that declared partition, how many truly were."""
        declared = set(self.declared_partitioned)
        if not declared:
            return 1.0
        return len(declared & set(self.unreachable)) / len(declared)

    @property
    def partition_recall(self) -> float:
        """Of truly cut-off *alive* stations, how many declared it.

        Crashed stations cannot declare anything, so recall is scored
        over the alive unreachable ones only.
        """
        actual = set(self.unreachable) - set(self.down_at_end)
        if not actual:
            return 1.0
        return len(actual & set(self.declared_partitioned)) / len(actual)


def build_resilient_collection_network(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
    seed: int,
    failures: Optional[FailureModel] = None,
    level_classes: int = 3,
) -> Tuple[
    RadioNetwork,
    Dict[NodeId, ResilientCollectionProcess],
    SlotStructure,
    NeighborRegistry,
]:
    """Wire a radio network running self-healing collection everywhere."""
    from repro.rng import RngFactory

    unknown = set(sources) - set(graph.nodes)
    if unknown:
        raise ConfigurationError(f"unknown source stations {sorted(unknown)!r}")
    factory = RngFactory(seed)
    slot_structure = SlotStructure(
        decay_budget=decay_budget(graph.max_degree()),
        level_classes=level_classes,
        with_acks=True,
    )
    infos = tree_info_from_bfs_tree(tree)
    network = RadioNetwork(graph, num_channels=1, failures=failures)
    registry = NeighborRegistry(graph, failures)
    processes: Dict[NodeId, ResilientCollectionProcess] = {}
    for node in graph.nodes:
        process = ResilientCollectionProcess(
            info=infos[node],
            slots=slot_structure,
            rng=factory.for_node(node),
            registry=registry,
            initial_payloads=sources.get(node, ()),
        )
        processes[node] = process
        network.attach(process)
    return network, processes, slot_structure, registry


def run_resilient_collection(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
    seed: int,
    failures: Optional[FailureModel] = None,
    down_grace_slots: Optional[int] = None,
) -> ResilientCollectionResult:
    """Run collection under a failure model until nothing more can happen.

    The run uses mod-3 level classes and the Decay budget of the graph's
    maximum degree.  It terminates when every station is *terminal* —
    drained, or declared partitioned — or when ``max_slots`` elapse, which
    is ``max(20 000, 40×)`` the Theorem 4.4 bound; a timeout produces a
    structured result with ``timed_out=True`` (e.g. when a crashed-forever
    station froze undeliverable messages in its buffer) rather than
    raising :class:`~repro.errors.SimulationTimeout`.

    ``down_grace_slots`` trades completeness for termination: a station
    that has been continuously down for that many slots while holding
    undrained traffic is written off (its frozen messages are reported as
    undelivered) instead of blocking termination — it may still revive
    and deliver before every *other* station terminates.  ``None`` waits
    for revival up to ``max_slots``.
    """
    network, processes, slot_structure, _registry = (
        build_resilient_collection_network(
            graph, tree, sources, seed, failures
        )
    )
    total = sum(len(v) for v in sources.values())
    bound = expected_collection_slots(total, tree.depth, graph.max_degree())
    max_slots = max(20_000, int(40 * bound))
    blocked_since: Dict[NodeId, int] = {}

    def _finished(net: RadioNetwork) -> bool:
        slot = net.slot
        done = True
        for node, process in processes.items():
            if process.terminal(slot):
                blocked_since.pop(node, None)
                continue
            if failures is not None and failures.node_down(node, slot):
                first = blocked_since.setdefault(node, slot)
                if (
                    down_grace_slots is not None
                    and slot - first >= down_grace_slots
                ):
                    continue  # continuously dead past the grace: write off
            else:
                blocked_since.pop(node, None)
            done = False
        return done

    timed_out = False
    try:
        network.run(max_slots, until=_finished)
    except SimulationTimeout:
        timed_out = True
    root_process = processes[tree.root]
    final_slot = network.slot
    down_at_end = tuple(
        node
        for node in graph.nodes
        if failures is not None and failures.node_down(node, final_slot)
    )
    unreachable = _unreachable_from_root(graph, tree.root, set(down_at_end))
    expected_by_origin = {
        node: process._serial for node, process in processes.items()
    }
    delivered_ids = {m.msg_id for m in root_process.delivered}
    undelivered = [
        (node, serial)
        for node, count in expected_by_origin.items()
        for serial in range(count)
        if (node, serial) not in delivered_ids
    ]
    return ResilientCollectionResult(
        slots=final_slot,
        delivered=list(root_process.delivered),
        expected_by_origin=expected_by_origin,
        stats=network.stats,
        slot_structure=slot_structure,
        repairs=[
            event for p in processes.values() for event in p.repairs
        ],
        declared_partitioned=tuple(
            sorted(n for n, p in processes.items() if p.partitioned)
        ),
        unreachable=unreachable,
        down_at_end=down_at_end,
        timed_out=timed_out,
        undelivered=undelivered,
    )


def _unreachable_from_root(
    graph: Graph, root: NodeId, down: Set[NodeId]
) -> Tuple[NodeId, ...]:
    """Stations with no all-alive path to the root (ground truth)."""
    if root in down:
        return tuple(n for n in graph.nodes if n != root)
    reached = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for neighbor in graph.neighbors(node):
            if neighbor not in reached and neighbor not in down:
                reached.add(neighbor)
                frontier.append(neighbor)
    return tuple(n for n in graph.nodes if n not in reached)
