"""Sequential store-and-forward baselines (the pre-paper state of the art).

§1.3 credits Chlamtac & Kutten with tree routing using "implicit
acknowledgements … conducted in the absence of conflicts, which is
achieved at the cost of increasing the time of a single point-to-point
communication to O(D)."  The defining property is *no concurrency*: one
message is in flight at a time, moving one conflict-free hop per slot
along the tree path; the next message starts only when the previous one
arrived.

k point-to-point transmissions therefore cost ``Σ path_len ≈ k·O(D)``
slots, versus the paper's pipelined ``O((k + D)·log Δ)`` — the paper wins
by ~``D/log Δ`` once k exceeds the pipeline fill (experiment E10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import DataMessage
from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.radio.process import Process
from repro.radio.trace import NetworkStats
from repro.radio.transmission import Transmission


class SequentialForwardProcess(Process):
    """Forward a held message one tree hop per slot (sole transmitter)."""

    def __init__(self, node_id: NodeId, tree: BFSTree):
        super().__init__(node_id)
        self._tree = tree
        self._outgoing: Optional[DataMessage] = None
        self.delivered: List[DataMessage] = []

    def hold(self, message: DataMessage) -> None:
        """Give this station a message to forward (or deliver)."""
        if message.dest_address == self._tree.dfs_number[self.node_id]:
            self.delivered.append(message)
            return
        next_hop = self._tree.route_next_hop(
            self.node_id, message.dest_address
        )
        self._outgoing = message.rehop(self.node_id, next_hop)

    def on_slot(self, slot: int):
        if self._outgoing is None:
            return None
        message = self._outgoing
        self._outgoing = None
        return Transmission(message, 0)

    def on_receive(self, slot: int, channel: int, payload: Any) -> None:
        if not isinstance(payload, DataMessage):
            return
        if payload.hop_dest != self.node_id:
            return
        self.hold(payload)

    def is_done(self) -> bool:
        return self._outgoing is None


@dataclass
class SequentialResult:
    slots: int
    delivered: int
    stats: NetworkStats
    hop_total: int  # sum of path lengths (the analytic cost)


def run_sequential_p2p(
    graph: Graph,
    tree: BFSTree,
    transmissions: List[Tuple[NodeId, NodeId, Any]],
) -> SequentialResult:
    """Route the batch one message at a time over the tree.

    Each message traverses its tree path at one hop per slot with no
    possible conflict (a single transmitter exists network-wide); the next
    message is injected only after the previous one is delivered.  This is
    deliberately generous to the baseline: injection reacts instantly,
    with no coordination overhead charged.  A message not delivered
    within ``4n + 16`` slots raises
    :class:`~repro.errors.SimulationTimeout`.
    """
    if not tree.has_dfs_intervals:
        raise ConfigurationError("sequential baseline needs a prepared tree")
    network = RadioNetwork(graph, num_channels=1)
    processes: Dict[NodeId, SequentialForwardProcess] = {}
    for node in graph.nodes:
        process = SequentialForwardProcess(node, tree)
        processes[node] = process
        network.attach(process)
    budget = 4 * graph.num_nodes + 16
    hop_total = 0
    serial = 0
    for source, dest, payload in transmissions:
        hop_total += max(0, len(tree.tree_path(source, dest)) - 1)
        message = DataMessage(
            msg_id=(source, serial),
            origin=source,
            hop_sender=source,
            hop_dest=source,
            dest_address=tree.dfs_number[dest],
            payload=payload,
        )
        serial += 1
        destination_process = processes[dest]
        before = len(destination_process.delivered)
        processes[source].hold(message)
        if len(destination_process.delivered) == before:
            network.run(
                budget,
                until=lambda net: len(destination_process.delivered) > before,
            )
    return SequentialResult(
        slots=network.slot,
        delivered=sum(len(p.delivered) for p in processes.values()),
        stats=network.stats,
        hop_total=hop_total,
    )


def sequential_reference_slots(
    transmissions: List[Tuple[NodeId, NodeId, Any]], tree: BFSTree
) -> int:
    """Analytic cost of the baseline: the sum of tree-path lengths."""
    return sum(
        max(0, len(tree.tree_path(src, dst)) - 1)
        for src, dst, _payload in transmissions
    )
