"""k-broadcast (§6): collection to the root + pipelined distribution.

"To broadcast a message a node first sends the message to the root using
the collection subprotocol of Section 4.  Then the message is sent to all
the nodes of the network using the distribution subprotocol."

Distribution has no per-message destination, so §3's deterministic acks do
not apply; instead the paper pipelines: time is divided into *superphases*
of ``2·log n`` Decay invocations (``4·log Δ·log n`` slots, error 1/n² per
hop per message).  "At superphase t the root sends the t-th message and
all the nodes of level i repeatedly send the (t−i)-th message."  Because
of level multiplexing (§2.2) a station only ever hears level i−1 during
those slots, so each superphase moves the pipeline one level forward.

Reliability: "The root appends consecutive numbers to the messages.  Every
node v examines these numbers and when v encounters a gap it realizes that
it did not receive a message.  Thereupon, v sends a message to the root
requesting it to resend the missing message" — the NACK travels over the
(reliable) collection channel, and the root re-injects the missing message
into the pipeline.  The root also interleaves end-of-stream announcements
(carrying how many messages have been sequenced) whenever it is otherwise
idle, so that even a missed *last* message produces gap evidence.  This
plays the role of the paper's mod-3n² checkpoint numbering for the finite
runs of an experiment.  The checkpoint acknowledgements fire as §6
prescribes: a station that holds messages 0 … c·n² − 1 acks checkpoint c
to the root over the collection channel.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.core.decay import DecaySession
from repro.core.messages import (
    AckMessage,
    BroadcastMessage,
    BroadcastSubmission,
    CheckpointAck,
    DataMessage,
    ResendRequest,
)
from repro.core.slots import SlotStructure, decay_budget
from repro.core.transport import TransportLane
from repro.core.tree import TreeInfo, tree_info_from_bfs_tree
from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.radio.process import Process
from repro.radio.trace import NetworkStats
from repro.radio.transmission import DOWN_CHANNEL, UP_CHANNEL, Transmission
from repro.rng import RngFactory

#: Marks an end-of-stream announcement: ``seq`` then carries the number of
#: messages the root has sequenced so far.
EOS = "__end_of_stream__"

#: Superphases a station waits for a missing message before it repeats
#: its NACK.
NACK_RETRY_SUPERPHASES = 8



def superphase_invocations(n: int) -> int:
    """Decay invocations per superphase: ``2·ceil(log2 n)`` (ε = 1/n²)."""
    return max(1, 2 * math.ceil(math.log2(max(2, n))))


class BroadcastProcess(Process):
    """One station's k-broadcast behaviour.

    Two independent machines share the station:

    * an **upward** collection lane (channel ``UP_CHANNEL``) carrying
      broadcast submissions, NACKs and checkpoint acks to the root;
    * a **downward** distribution relay (channel ``DOWN_CHANNEL``) driven
      by superphase arithmetic on the global slot number.

    A station that still misses a message after ``NACK_RETRY_SUPERPHASES``
    superphases NACKs it again, and a station that holds every message
    below a multiple of ``checkpoint_interval`` (n², from
    :func:`build_broadcast_network`) acks that checkpoint to the root.

    ``relay_to`` lists this station's neighbours one level below it, in
    neighbour order (:func:`next_level_neighbors`): the only stations
    whose :meth:`_handle_distribution` accepts its relay, so its
    down-channel transmissions are addressed to them.
    """

    def __init__(
        self,
        info: TreeInfo,
        up_slots: SlotStructure,
        dist_slots: SlotStructure,
        invocations_per_superphase: int,
        rng: random.Random,
        checkpoint_interval: int,
        relay_to: Tuple[NodeId, ...],
    ):
        super().__init__(info.node_id)
        self.info = info
        self.relay_to = relay_to
        self.up_slots = up_slots
        self.dist_slots = dist_slots
        self.invocations_per_superphase = invocations_per_superphase
        self.superphase_slots = (
            invocations_per_superphase * dist_slots.phase_length
        )
        # This station's distribution data slots: offset ``_dist_offset``
        # within every round of ``_dist_round`` slots.
        self._dist_round = dist_slots.round_width
        self._dist_offset = dist_slots.data_offset(info.level)
        self.checkpoint_interval = checkpoint_interval
        self._rng = rng
        self.up_lane = TransportLane(
            info.node_id, info.level, up_slots, rng, UP_CHANNEL
        )
        self._up_serial = 0
        # Distribution state (all stations).
        self.received: Dict[int, BroadcastMessage] = {}
        self.announced_count = 0  # from EOS announcements
        self._max_seen_seq = -1
        # Per-superphase inbox: what was heard from level i−1 during each
        # superphase (message, was-it-new).  At superphase T a station
        # relays what it received during T−1 — never sooner, so the
        # pipeline advances exactly one level per superphase as §6
        # prescribes ("at superphase t … the nodes of level i repeatedly
        # send the (t−i)-th message").
        self._inbox: Dict[int, Tuple[BroadcastMessage, bool]] = {}
        # What this station sends all superphase long: the root's pick,
        # or a relay of the inbox, stamped with its level and addressed
        # to ``relay_to``, built once per superphase.
        self._relay: Optional[Transmission] = None
        # The down-channel message handled last (see on_receive).
        self._last_heard: Optional[BroadcastMessage] = None
        self._session: Optional[DecaySession] = None
        self._session_phase = -1
        self._prepared_superphase = -1
        self._nacked_at: Dict[int, int] = {}  # seq -> superphase of last NACK
        self._checkpoints_acked = 0
        # Root state.
        self.sequenced: List[BroadcastMessage] = []
        self._next_fresh = 0  # next seq the root has not yet pipelined
        self._resend_queue: Deque[int] = deque()
        self._resend_set: Set[int] = set()
        self.resends_served = 0
        self.checkpoint_acks: Dict[int, Set[NodeId]] = {}

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def submit(self, payload: Any) -> None:
        """Initiate a broadcast of ``payload`` from this station."""
        if self.info.is_root:
            # Picked up when the root next prepares a superphase, which
            # is always one of its wake slots.
            self._sequence(self.info.node_id, payload)
        else:
            self._send_up(
                BroadcastSubmission(origin=self.info.node_id, body=payload)
            )
            self.wake()  # revoke any idle declaration: there is traffic now

    def _send_up(self, payload: Any) -> None:
        message = DataMessage(
            msg_id=(self.info.node_id, self._up_serial),
            origin=self.info.node_id,
            hop_sender=self.info.node_id,
            hop_dest=self.info.parent,
            payload=payload,
        )
        self._up_serial += 1
        self.up_lane.enqueue(message)

    def _sequence(self, origin: NodeId, payload: Any) -> int:
        seq = len(self.sequenced)
        self.sequenced.append(
            BroadcastMessage(seq=seq, origin=origin, payload=payload)
        )
        # The root trivially "receives" its own stream.
        self.received[seq] = self.sequenced[seq]
        return seq

    # ------------------------------------------------------------------
    # Superphase arithmetic
    # ------------------------------------------------------------------

    def superphase(self, slot: int) -> int:
        return slot // self.superphase_slots

    def _prepare_superphase(self, index: int) -> None:
        """Runs once at each station's first data slot of a superphase.

        The message this station sends all superphase long is picked,
        stamped with its level and wrapped in its transmission here,
        once.  The stamp is a fresh object every superphase, which is
        what lets a receiver skip a repeat by identity (on_receive).
        """
        self._prepared_superphase = index
        level = self.info.level
        outgoing: Optional[BroadcastMessage] = None
        if self.info.is_root:
            outgoing = self._pick_root_message().at_level(level)
        else:
            entry = self._inbox.get(index - 1)
            if entry is not None:
                outgoing = entry[0].at_level(level)
            # Drop anything older than the previous superphase.
            self._inbox = {
                sp: value
                for sp, value in self._inbox.items()
                if sp >= index - 1
            }
            self._emit_nacks(index)
            self._emit_checkpoint_acks()
        self._relay = (
            None
            if outgoing is None
            else Transmission(outgoing, DOWN_CHANNEL, self.relay_to)
        )

    def _pick_root_message(self) -> Optional[BroadcastMessage]:
        while self._resend_queue:
            seq = self._resend_queue.popleft()
            self._resend_set.discard(seq)
            if 0 <= seq < len(self.sequenced):
                self.resends_served += 1
                return self.sequenced[seq]
        if self._next_fresh < len(self.sequenced):
            message = self.sequenced[self._next_fresh]
            self._next_fresh += 1
            return message
        # Idle: announce the end of the stream so stragglers get gap
        # evidence even for the very last message.
        return BroadcastMessage(
            seq=len(self.sequenced), origin=self.info.node_id, payload=EOS
        )

    # ------------------------------------------------------------------
    # Gap detection and NACKs (non-root)
    # ------------------------------------------------------------------

    def _known_upper(self) -> int:
        """Number of messages this station has evidence must exist."""
        return max(self.announced_count, self._max_seen_seq + 1)

    def missing_seqs(self) -> List[int]:
        return [
            seq
            for seq in range(self._known_upper())
            if seq not in self.received
        ]

    def _emit_nacks(self, superphase_index: int) -> None:
        for seq in self.missing_seqs():
            last = self._nacked_at.get(seq)
            if (
                last is None
                or superphase_index - last >= NACK_RETRY_SUPERPHASES
            ):
                self._nacked_at[seq] = superphase_index
                self._send_up(
                    ResendRequest(requester=self.info.node_id, seq=seq)
                )

    def _emit_checkpoint_acks(self) -> None:
        # The evidence test comes first: a run that never sequences a
        # checkpoint's worth of messages pays one comparison here.
        while True:
            boundary = (self._checkpoints_acked + 1) * self.checkpoint_interval
            if self._known_upper() < boundary or not all(
                seq in self.received for seq in range(boundary)
            ):
                return
            self._checkpoints_acked += 1
            self._send_up(
                CheckpointAck(
                    origin=self.info.node_id,
                    checkpoint=self._checkpoints_acked,
                )
            )

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------

    def on_slot(self, slot: int):
        up = self.up_lane.on_slot(slot)
        down = self._distribution_transmission(slot)
        if up is None:
            return down
        if down is None:
            return up
        return [up, down]

    def _distribution_transmission(self, slot: int) -> Optional[Transmission]:
        if slot % self._dist_round != self._dist_offset:
            return None
        index = slot // self.superphase_slots
        if index != self._prepared_superphase:
            self._prepare_superphase(index)
        relay = self._relay
        if relay is None:
            return None
        phase = slot // self.dist_slots.phase_length
        if phase != self._session_phase:
            self._session_phase = phase
            self._session = DecaySession(
                self.dist_slots.decay_budget, self._rng
            )
        assert self._session is not None
        if self._session.should_transmit():
            return relay
        return None

    def quiet_until(self, slot: int) -> int:
        return min(
            self.up_lane.next_active_slot(slot), self._relay_wake(slot)
        )

    def _relay_wake(self, slot: int) -> int:
        """The first own distribution data slot >= ``slot`` that does work.

        The first own data slot of every superphase runs
        :meth:`_prepare_superphase` (relay pick, NACKs, checkpoint acks),
        so it is always a wake slot.  After it, a station with nothing to
        relay is silent until the next superphase, and one whose Decay
        session died is silent until the next phase: a dead session
        draws no coin.
        """
        width, offset = self._dist_round, self._dist_offset
        own = slot + (offset - slot) % width
        index = own // self.superphase_slots
        if index != self._prepared_superphase:
            return own
        if self._relay is None:
            start = (index + 1) * self.superphase_slots
            return start + (offset - start) % width
        phase_length = self.dist_slots.phase_length
        phase = own // phase_length
        session = self._session
        if (
            phase == self._session_phase
            and session is not None
            and not session.alive
        ):
            start = (phase + 1) * phase_length
            return start + (offset - start) % width
        return own

    def on_receive(
        self, slot: int, channel: int, payload: Any
    ) -> Optional[bool]:
        # False whenever the declared wake stands (see
        # Process.on_receive): on a drop, and on every down-channel
        # message, since :meth:`_relay_wake` reads nothing that
        # :meth:`_handle_distribution` writes.
        if channel == DOWN_CHANNEL:
            # A relay sends one message object all superphase long and a
            # fresh one each superphase (_prepare_superphase), so the
            # object handled last, heard again, is a repeat within its
            # superphase, and filing it again would change nothing.
            if payload is not self._last_heard and isinstance(
                payload, BroadcastMessage
            ):
                self._last_heard = payload
                self._handle_distribution(slot, payload)
            return False
        if channel != UP_CHANNEL:
            return False
        if isinstance(payload, DataMessage):
            if payload.hop_dest != self.info.node_id:
                return False  # overheard someone else's hop
            if not self.up_lane.accept_data(slot, payload):
                return None
            if self.info.is_root:
                self._root_consume(payload.payload)
            else:
                self.up_lane.enqueue(
                    payload.rehop(self.info.node_id, self.info.parent),
                    received_at_slot=slot,
                )
            return None
        if isinstance(payload, AckMessage) and (
            payload.hop_dest == self.info.node_id
        ):
            self.up_lane.accept_ack(payload)
            return None
        return False

    def _handle_distribution(self, slot: int, message: BroadcastMessage) -> None:
        if message.sender_level != self.info.level - 1:
            return  # only the pipeline stage directly above feeds us
        if message.payload == EOS:
            self.announced_count = max(self.announced_count, message.seq)
            self._consider_relay(slot, message)
            return
        self._max_seen_seq = max(self._max_seen_seq, message.seq)
        is_new = message.seq not in self.received
        if is_new:
            self.received[message.seq] = message.at_level(0)
        self._consider_relay(slot, message, is_new_data=is_new)

    def _consider_relay(
        self, slot: int, message: BroadcastMessage, is_new_data: bool = False
    ) -> None:
        """Record what to forward in the *next* superphase.

        Priority within a superphase's inbox: data that was new on arrival
        beats everything (it is the advancing pipeline front); otherwise
        keep the latest thing heard — duplicates and EOS announcements
        *must* still be forwarded, or NACK-driven resends and end-of-stream
        evidence would never reach levels below us.
        """
        superphase = self.superphase(slot)
        entry = self._inbox.get(superphase)
        if entry is None or is_new_data or not entry[1]:
            self._inbox[superphase] = (message, is_new_data)

    def _root_consume(self, payload: Any) -> None:
        if isinstance(payload, BroadcastSubmission):
            self._sequence(payload.origin, payload.body)
        elif isinstance(payload, ResendRequest):
            seq = payload.seq
            if seq not in self._resend_set and 0 <= seq < len(self.sequenced):
                self._resend_set.add(seq)
                self._resend_queue.append(seq)
        elif isinstance(payload, CheckpointAck):
            self.checkpoint_acks.setdefault(
                payload.checkpoint, set()
            ).add(payload.origin)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def has_prefix(self, k: int) -> bool:
        """Whether this station holds broadcasts 0..k−1."""
        return all(seq in self.received for seq in range(k))

    def delivered_in_order(self) -> List[BroadcastMessage]:
        """The longest delivered prefix, in sequence order."""
        out = []
        seq = 0
        while seq in self.received:
            out.append(self.received[seq])
            seq += 1
        return out

    def is_done(self) -> bool:
        return self.up_lane.idle


@dataclass
class BroadcastResult:
    """Outcome of a k-broadcast run."""

    slots: int
    superphases: int
    messages: int
    stats: NetworkStats
    resends: int  # how many pipeline injections were NACK-driven
    delivered_everywhere: bool


def broadcast_reference_slots(
    k: int, depth: int, max_degree: int, n: int, level_classes: int = 3
) -> float:
    """Reference scale for §6: ``O((k + D)·log Δ·log n)`` slots.

    Concretely ``(k + D + slack)`` superphases of
    ``2·log n × 2·log Δ × level_classes`` slots.
    """
    log_n = math.log2(max(2, n))
    log_delta = math.log2(max(2, max_degree))
    return (k + depth + 4) * (2 * log_n) * (2 * log_delta) * level_classes


def next_level_neighbors(
    graph: Graph, infos: Dict[NodeId, TreeInfo]
) -> Dict[NodeId, Tuple[NodeId, ...]]:
    """Each station's neighbours one tree level below it, in neighbour
    order: the stations that accept its down-channel relay."""
    return {
        node: tuple(
            neighbor
            for neighbor in graph.neighbors(node)
            if infos[neighbor].level == infos[node].level + 1
        )
        for node in graph.nodes
    }


def build_broadcast_network(
    graph: Graph,
    tree: BFSTree,
    seed: int,
    level_classes: int = 3,
    invocations: Optional[int] = None,
) -> Tuple[RadioNetwork, Dict[NodeId, BroadcastProcess]]:
    """Wire a network of broadcast stations over a BFS tree.

    Superphases run ``invocations`` Decay invocations (default
    :func:`superphase_invocations` of n), and checkpoints fall every n²
    messages (§6).
    """
    factory = RngFactory(seed)
    budget = decay_budget(graph.max_degree())
    up_slots = SlotStructure(
        decay_budget=budget, level_classes=level_classes, with_acks=True
    )
    dist_slots = SlotStructure(
        decay_budget=budget, level_classes=level_classes, with_acks=False
    )
    if invocations is None:
        invocations = superphase_invocations(graph.num_nodes)
    infos = tree_info_from_bfs_tree(tree)
    relay_to = next_level_neighbors(graph, infos)
    network = RadioNetwork(graph, num_channels=2)
    processes: Dict[NodeId, BroadcastProcess] = {}
    for node in graph.nodes:
        process = BroadcastProcess(
            info=infos[node],
            up_slots=up_slots,
            dist_slots=dist_slots,
            invocations_per_superphase=invocations,
            rng=factory.for_node(node),
            checkpoint_interval=graph.num_nodes ** 2,
            relay_to=relay_to[node],
        )
        processes[node] = process
        network.attach(process)
    return network, processes


def run_broadcast(
    graph: Graph,
    tree: BFSTree,
    submissions: Dict[NodeId, List[Any]],
    seed: int,
    level_classes: int = 3,
    invocations: Optional[int] = None,
) -> BroadcastResult:
    """Run a k-broadcast batch until every station holds every message.

    The run is capped at ``max(20 000, 30×)`` the §6 reference scale
    (:func:`broadcast_reference_slots`); past it
    :class:`~repro.errors.SimulationTimeout` is raised.
    """
    network, processes = build_broadcast_network(
        graph, tree, seed, level_classes, invocations
    )
    k = sum(len(v) for v in submissions.values())
    for node, payloads in submissions.items():
        if node not in processes:
            raise ConfigurationError(f"unknown station {node!r}")
        for payload in payloads:
            processes[node].submit(payload)
    bound = broadcast_reference_slots(
        k, tree.depth, graph.max_degree(), graph.num_nodes, level_classes
    )
    max_slots = max(20_000, int(30 * bound))
    network.run(
        max_slots,
        until=lambda net: all(p.has_prefix(k) for p in processes.values()),
        check_every=4,
    )
    root_process = processes[tree.root]
    return BroadcastResult(
        slots=network.slot,
        superphases=root_process.superphase(network.slot),
        messages=k,
        stats=network.stats,
        resends=root_process.resends_served,
        delivered_everywhere=all(
            p.has_prefix(k) for p in processes.values()
        ),
    )
