"""Round-robin TDMA convergecast baseline.

The natural *deterministic* competitor to the paper's randomized
collection protocol: time is divided into frames of n slots; station with
ID-rank i owns slot i of every frame and transmits (to its BFS parent) iff
its buffer is non-empty.  One transmitter per slot network-wide, so every
transmission is received — no acknowledgements, no coin flips.

Cost: a frame costs n slots but moves up to n messages one level each, so
k messages need ``O((k + D))`` *frames* in the worst case when they share
a path — i.e. ``O((k + D)·n)`` slots, versus the paper's
``O((k + D)·log Δ)``.  Experiment E10 sweeps n to exhibit the crossover
(TDMA wins only on tiny, dense networks where ``n < c·log Δ``).

The schedule relies only on knowledge the paper's model already grants
(n, distinct IDs, and — for rank computation — the ID set; we use the
sorted node list, which a real deployment would get from the setup
phase's ranking application §7).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Tuple

from repro.core.messages import DataMessage
from repro.core.tree import TreeInfo, tree_info_from_bfs_tree
from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.radio.process import Process
from repro.radio.trace import NetworkStats
from repro.radio.transmission import Transmission


class TdmaCollectionProcess(Process):
    """One station's role in round-robin TDMA convergecast."""

    def __init__(
        self,
        info: TreeInfo,
        rank: int,
        frame_length: int,
        initial_payloads=(),
    ):
        super().__init__(info.node_id)
        self.info = info
        self.rank = rank
        self.frame_length = frame_length
        self.buffer: Deque[DataMessage] = deque()
        self.delivered: List[DataMessage] = []
        self._serial = 0
        for payload in initial_payloads:
            self.submit(payload)

    def submit(self, payload: Any) -> None:
        message = DataMessage(
            msg_id=(self.info.node_id, self._serial),
            origin=self.info.node_id,
            hop_sender=self.info.node_id,
            hop_dest=self.info.parent,
            payload=payload,
        )
        self._serial += 1
        if self.info.is_root:
            self.delivered.append(message)
        else:
            self.buffer.append(message)

    def on_slot(self, slot: int):
        if self.info.is_root or not self.buffer:
            return None
        if slot % self.frame_length != self.rank:
            return None
        # Reception is guaranteed (sole transmitter in the network), so
        # the message is handed over immediately — no retransmission state.
        message = self.buffer.popleft()
        return Transmission(message, 0)

    def on_receive(self, slot: int, channel: int, payload: Any) -> None:
        if not isinstance(payload, DataMessage):
            return
        if payload.hop_dest != self.info.node_id:
            return
        if self.info.is_root:
            self.delivered.append(payload)
        else:
            self.buffer.append(
                payload.rehop(self.info.node_id, self.info.parent)
            )

    def is_done(self) -> bool:
        return not self.buffer


@dataclass
class TdmaCollectionResult:
    slots: int
    frames: int
    delivered: List[DataMessage]
    stats: NetworkStats


def _run_schedule(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
    ranks: Dict[NodeId, int],
    frame_length: int,
) -> Tuple[RadioNetwork, TdmaCollectionProcess]:
    """Run TDMA convergecast until every message reaches the root.

    A station owns slot ``ranks[station]`` of every frame of
    ``frame_length`` slots.  The run is capped at
    ``max(10 000, 4·frame_length·(k + D + 2))`` slots; past it
    :class:`~repro.errors.SimulationTimeout` is raised.  Returns the
    network and the root's process.
    """
    unknown = set(sources) - set(graph.nodes)
    if unknown:
        raise ConfigurationError(f"unknown stations {sorted(unknown)!r}")
    infos = tree_info_from_bfs_tree(tree)
    network = RadioNetwork(graph, num_channels=1)
    processes: Dict[NodeId, TdmaCollectionProcess] = {}
    for node in graph.nodes:
        process = TdmaCollectionProcess(
            info=infos[node],
            rank=ranks[node],
            frame_length=frame_length,
            initial_payloads=sources.get(node, ()),
        )
        processes[node] = process
        network.attach(process)
    total = sum(len(v) for v in sources.values())
    root_process = processes[tree.root]
    network.run(
        max(10_000, 4 * frame_length * (total + tree.depth + 2)),
        until=lambda net: len(root_process.delivered) >= total,
    )
    return network, root_process


def run_tdma_collection(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
) -> TdmaCollectionResult:
    """Run the TDMA baseline until every message reaches the root.

    Station ranks follow the sorted node list, and a frame has n slots.
    """
    n = graph.num_nodes
    ranks = {node: index for index, node in enumerate(graph.nodes)}
    network, root_process = _run_schedule(graph, tree, sources, ranks, n)
    return TdmaCollectionResult(
        slots=network.slot,
        frames=-(-network.slot // n),
        delivered=list(root_process.delivered),
        stats=network.stats,
    )


def tdma_reference_slots(k: int, depth: int, n: int) -> float:
    """Worst-case reference: (k + D) frames of n slots."""
    return float((k + depth) * n)
