"""The collection protocol (§4): convergecast of messages to the root.

"The purpose of the collection protocol is to send messages from the
sources to the root of the BFS tree.  Since no source knows the number and
IDs of the other sources this is done concurrently and independently by
all of them.  Messages are sent, using Decay, via the BFS tree from
BFS-children to their parents."

Each station runs a :class:`CollectionProcess`: one upward
:class:`~repro.core.transport.TransportLane` whose next hop is always the
BFS parent.  The root accepts and acknowledges but never forwards; the
messages it accepts are the protocol's output.

The protocol is *always successful on the graph spanned by the BFS tree*;
only its running time is random (Thm 4.4: expected slots ≤
``32.27·(k + D)·log Δ``, :func:`~repro.core.slots.expected_collection_slots`).
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
from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.radio.process import Process
from repro.radio.transmission import UP_CHANNEL
from repro.radio.trace import NetworkStats
from repro.rng import RngFactory


class CollectionProcess(Process):
    """One station's collection behaviour.

    Parameters
    ----------
    info:
        This station's tree knowledge from the setup phase.
    slots:
        The shared multiplexed schedule (identical at every station).
    rng:
        This station's private coin-flip stream.
    initial_payloads:
        Application payloads this station wants delivered to the root;
        more can be injected later with :meth:`submit`.

    The upward traffic runs on ``UP_CHANNEL``.
    """

    def __init__(
        self,
        info: TreeInfo,
        slots: SlotStructure,
        rng: random.Random,
        initial_payloads: Iterable[Any] = (),
        strict: bool = True,
        retry: bool = False,
        dedup_window: Optional[int] = None,
    ):
        super().__init__(info.node_id)
        self.info = info
        self.slots = slots
        # The current next hop for upward traffic: the BFS parent, until a
        # repair layer (core/repair.py) re-attaches this station elsewhere.
        self.parent = info.parent
        self.lane = TransportLane(
            node_id=info.node_id,
            level=info.level,
            slots=slots,
            rng=rng,
            channel=UP_CHANNEL,
            strict=strict,
            retry=retry,
            dedup_window=dedup_window,
        )
        self.delivered: List[DataMessage] = []  # root only
        self._serial = 0
        for payload in initial_payloads:
            self.submit(payload)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def submit(self, payload: Any) -> Tuple[NodeId, int]:
        """Inject a new message bound for the root; returns its msg_id.

        The protocol is reactive (§1.4): submission is legal at any time,
        including mid-run.  At the root, submission delivers immediately.
        """
        msg_id = (self.info.node_id, self._serial)
        self._serial += 1
        message = DataMessage(
            msg_id=msg_id,
            origin=self.info.node_id,
            hop_sender=self.info.node_id,
            hop_dest=self.parent,
            dest_address=None,
            payload=payload,
        )
        if self.info.is_root:
            self.delivered.append(message)
        else:
            self.lane.enqueue(message)
            self.wake()  # revoke any idle declaration: there is traffic now
        return msg_id

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------

    def on_slot(self, slot: int):
        return self.lane.on_slot(slot)

    def quiet_until(self, slot: int) -> int:
        # The lane is this process's only slot-driven state, so its next
        # active slot is an exact idle declaration (see Process.quiet_until).
        return self.lane.next_active_slot(slot)

    def on_receive(
        self, slot: int, channel: int, payload: Any
    ) -> Optional[bool]:
        # False on a drop: the lane is untouched, so its declared wake
        # stands (see Process.on_receive).
        if channel != UP_CHANNEL:
            return False
        if isinstance(payload, DataMessage):
            if payload.hop_dest != self.info.node_id:
                return False  # overheard someone else's hop; not ours to ack
            is_new = self.lane.accept_data(slot, payload)
            if not is_new:
                return None
            if self.info.is_root:
                self.delivered.append(payload)
            else:
                self.lane.enqueue(
                    payload.rehop(self.info.node_id, self.parent),
                    received_at_slot=slot,
                )
            return None
        if isinstance(payload, AckMessage) and (
            payload.hop_dest == self.info.node_id
        ):
            self.lane.accept_ack(payload)
            return None
        return False

    def is_done(self) -> bool:
        """Locally drained: no buffered messages, no ack duty."""
        return self.lane.idle

    @property
    def backlog(self) -> int:
        return self.lane.backlog


@dataclass
class CollectionResult:
    """Outcome of a complete collection run."""

    slots: int  # slots until the last message reached the root
    phases: int  # completed Decay phases (ceil of slots / phase length)
    delivered: List[DataMessage]  # in root-arrival order
    stats: NetworkStats
    slot_structure: SlotStructure

    @property
    def messages_delivered(self) -> int:
        return len(self.delivered)


def build_collection_network(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
    seed: int,
    level_classes: int = 3,
    strict: bool = True,
    dedup_window: Optional[int] = None,
) -> Tuple[RadioNetwork, Dict[NodeId, CollectionProcess], SlotStructure]:
    """Wire a radio network running collection on every station.

    ``sources`` maps stations to the payload lists they inject at slot 0.
    Returns the network, the process map and the slot structure; callers
    that want custom run loops (benchmarks, reactive workloads) use this
    directly, everyone else uses :func:`run_collection`.

    ``dedup_window`` bounds each lane's duplicate-suppression memory
    (open-system service runs pass one; closed runs keep the default
    exact, unbounded set).
    """
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
    network = RadioNetwork(graph, num_channels=1)
    processes: Dict[NodeId, CollectionProcess] = {}
    for node in graph.nodes:
        process = CollectionProcess(
            info=infos[node],
            slots=slot_structure,
            rng=factory.for_node(node),
            initial_payloads=sources.get(node, ()),
            strict=strict,
            dedup_window=dedup_window,
        )
        processes[node] = process
        network.attach(process)
    return network, processes, slot_structure


def run_collection(
    graph: Graph,
    tree: BFSTree,
    sources: Dict[NodeId, List[Any]],
    seed: int,
    level_classes: int = 3,
) -> CollectionResult:
    """Run collection to completion: every injected message reaches the root.

    The lanes run strict: a Theorem 3.1 violation raises
    :class:`~repro.errors.ProtocolError`.  A run longer than a generous
    multiple of the Theorem 4.4 bound raises
    :class:`~repro.errors.SimulationTimeout` (which, in the failure-free
    model, indicates a bug rather than bad luck).
    """
    network, processes, slot_structure = build_collection_network(
        graph, tree, sources, seed, level_classes
    )
    total_messages = sum(len(v) for v in sources.values())
    root_process = processes[tree.root]
    bound = expected_collection_slots(
        total_messages, tree.depth, graph.max_degree()
    )
    max_slots = max(10_000, int(20 * bound))
    network.run(
        max_slots,
        until=lambda net: len(root_process.delivered) >= total_messages
        and all(p.is_done() for p in processes.values()),
    )
    return CollectionResult(
        slots=network.slot,
        phases=-(-network.slot // slot_structure.phase_length),
        delivered=list(root_process.delivered),
        stats=network.stats,
        slot_structure=slot_structure,
    )

