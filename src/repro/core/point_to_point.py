"""Point-to-point transmission (§5).

A message from u to v "travels first up the tree.  Once the message
reaches a common ancestor of u and v it continues downwards towards v."
After the preparation protocol (§5.1, :mod:`repro.core.dfs`) every station
holds its DFS number and its children's descendant intervals, so each hop
is a purely local decision:

* if the destination address is **not** in my interval → next hop is my
  BFS parent (the *upward subprotocol*, §5.2 — "essentially identical to
  the collection protocol");
* if it is in a child's interval → next hop is that child (the *downward
  subprotocol*, §5.3 — also Decay + deterministic acks, with the message
  prepended with its final destination);
* if it equals my own number → deliver.

Upward and downward traffic run concurrently on separate channels (§1.4),
each as its own :class:`~repro.core.transport.TransportLane`.  Like
collection, the protocol "is always successful on the graph spanned by the
BFS tree"; only its duration is random — expected ``O((k + D)·log Δ)``
slots for k transmissions, i.e. a new transmission every ``O(log Δ)``
slots in steady state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.messages import AckMessage, DataMessage
from repro.core.slots import (
    SlotStructure,
    decay_budget,
    expected_collection_slots,
)
from repro.core.transport import TransportLane
from repro.core.tree import TreeInfo, tree_info_from_bfs_tree
from repro.errors import ConfigurationError, ProtocolError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.radio.process import Process
from repro.radio.trace import NetworkStats
from repro.radio.transmission import DOWN_CHANNEL, UP_CHANNEL
from repro.rng import RngFactory


class PointToPointProcess(Process):
    """One station's point-to-point behaviour: an up lane on
    ``UP_CHANNEL`` and a down lane on ``DOWN_CHANNEL``."""

    def __init__(
        self,
        info: TreeInfo,
        slots: SlotStructure,
        rng: random.Random,
    ):
        if not info.has_addressing:
            raise ConfigurationError(
                f"station {info.node_id!r} lacks DFS addressing; run the "
                f"preparation protocol (repro.core.dfs) first"
            )
        super().__init__(info.node_id)
        self.info = info
        self.slots = slots
        self.up_lane = TransportLane(
            info.node_id, info.level, slots, rng, UP_CHANNEL
        )
        self.down_lane = TransportLane(
            info.node_id, info.level, slots, rng, DOWN_CHANNEL
        )
        self.delivered: List[DataMessage] = []
        self._serial = 0

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def submit(self, dest_address: int, payload: Any) -> Tuple[NodeId, int]:
        """Send ``payload`` to the station whose DFS address is given."""
        msg_id = (self.info.node_id, self._serial)
        self._serial += 1
        message = DataMessage(
            msg_id=msg_id,
            origin=self.info.node_id,
            hop_sender=self.info.node_id,
            hop_dest=self.info.node_id,  # placeholder; set by _route
            dest_address=dest_address,
            payload=payload,
        )
        self._route(message)
        self.wake()  # revoke any idle declaration: there is traffic now
        return msg_id

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(
        self, message: DataMessage, received_at_slot: Optional[int] = None
    ) -> None:
        """Deliver locally or enqueue on the correct lane, re-hop-addressed."""
        address = message.dest_address
        if address is None:
            raise ProtocolError("point-to-point messages must carry an address")
        next_hop = self.info.next_hop_for_address(address)
        if next_hop == self.info.node_id:
            self.delivered.append(message)
            return
        hopped = message.rehop(self.info.node_id, next_hop)
        if next_hop == self.info.parent and not self.info.owns_address(address):
            self.up_lane.enqueue(hopped, received_at_slot)
        else:
            self.down_lane.enqueue(hopped, received_at_slot)

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------

    def on_slot(self, slot: int):
        actions = []
        up = self.up_lane.on_slot(slot)
        if up is not None:
            actions.append(up)
        down = self.down_lane.on_slot(slot)
        if down is not None:
            actions.append(down)
        return actions or None

    def quiet_until(self, slot: int) -> int:
        # The two lanes are this process's only slot-driven state.
        return min(
            self.up_lane.next_active_slot(slot),
            self.down_lane.next_active_slot(slot),
        )

    def on_receive(
        self, slot: int, channel: int, payload: Any
    ) -> Optional[bool]:
        # False on a drop: neither lane is touched, so the declared wake
        # stands (see Process.on_receive).
        if channel == UP_CHANNEL:
            lane = self.up_lane
        elif channel == DOWN_CHANNEL:
            lane = self.down_lane
        else:
            return False
        if isinstance(payload, DataMessage):
            if payload.hop_dest != self.info.node_id:
                return False  # overheard someone else's hop
            if lane.accept_data(slot, payload):
                self._route(payload, received_at_slot=slot)
            return None
        if isinstance(payload, AckMessage) and (
            payload.hop_dest == self.info.node_id
        ):
            lane.accept_ack(payload)
            return None
        return False

    def is_done(self) -> bool:
        return self.up_lane.idle and self.down_lane.idle

    @property
    def backlog(self) -> int:
        return self.up_lane.backlog + self.down_lane.backlog


@dataclass
class PointToPointResult:
    """Outcome of a batch point-to-point run."""

    slots: int
    delivered: Dict[NodeId, List[DataMessage]]  # per destination station
    stats: NetworkStats
    slot_structure: SlotStructure

    @property
    def messages_delivered(self) -> int:
        return sum(len(v) for v in self.delivered.values())


def p2p_reference_slots(
    k: int, depth: int, max_degree: int, level_classes: int = 1
) -> float:
    """Reference scale for §5.4's ``O((k + D)·log Δ)``: both directions of
    the collection bound (Theorem 4.4 applied up and down)."""
    return 2 * expected_collection_slots(k, depth, max_degree, level_classes)


def build_p2p_network(
    graph: Graph,
    tree: BFSTree,
    seed: int,
    level_classes: int = 3,
) -> Tuple[RadioNetwork, Dict[NodeId, PointToPointProcess], SlotStructure]:
    """Wire a network of point-to-point stations over a prepared tree.

    ``tree`` must carry DFS intervals (from
    :meth:`~repro.graphs.bfs_tree.BFSTree.assign_dfs_intervals` or the
    distributed preparation protocol).
    """
    if not tree.has_dfs_intervals:
        raise ConfigurationError(
            "tree has no DFS intervals; run preparation first"
        )
    factory = RngFactory(seed)
    slot_structure = SlotStructure(
        decay_budget=decay_budget(graph.max_degree()),
        level_classes=level_classes,
        with_acks=True,
    )
    infos = tree_info_from_bfs_tree(tree)
    network = RadioNetwork(graph, num_channels=2)
    processes: Dict[NodeId, PointToPointProcess] = {}
    for node in graph.nodes:
        process = PointToPointProcess(
            info=infos[node],
            slots=slot_structure,
            rng=factory.for_node(node),
        )
        processes[node] = process
        network.attach(process)
    return network, processes, slot_structure


def run_point_to_point(
    graph: Graph,
    tree: BFSTree,
    transmissions: Iterable[Tuple[NodeId, NodeId, Any]],
    seed: int,
) -> PointToPointResult:
    """Run a batch of (source, destination, payload) transmissions.

    All messages are submitted at slot 0 (the protocol is reactive, so
    custom drivers may instead submit over time via
    :func:`build_p2p_network`); the run ends when every message has been
    delivered to its destination station.  The run uses mod-3 level
    classes and is capped at ``max(10 000, 20×)``
    :func:`p2p_reference_slots`; past it
    :class:`~repro.errors.SimulationTimeout` is raised.
    """
    network, processes, slot_structure = build_p2p_network(graph, tree, seed)
    batch = list(transmissions)
    expected_counts: Dict[NodeId, int] = {}
    for source, dest, payload in batch:
        if source not in processes or dest not in processes:
            raise ConfigurationError(
                f"unknown station in transmission {source!r}->{dest!r}"
            )
        processes[source].submit(tree.dfs_number[dest], payload)
        expected_counts[dest] = expected_counts.get(dest, 0) + 1
    bound = p2p_reference_slots(
        len(batch),
        tree.depth,
        graph.max_degree(),
        slot_structure.level_classes,
    )
    max_slots = max(10_000, int(20 * bound))

    def complete(net: RadioNetwork) -> bool:
        return all(
            len(processes[dest].delivered) >= count
            for dest, count in expected_counts.items()
        ) and all(p.is_done() for p in processes.values())

    network.run(max_slots, until=complete)
    return PointToPointResult(
        slots=network.slot,
        delivered={
            node: list(proc.delivered) for node, proc in processes.items()
        },
        stats=network.stats,
        slot_structure=slot_structure,
    )
