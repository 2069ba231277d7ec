"""Message formats used by the paper's protocols.

The radio model gives receivers no physical-layer information about who
transmitted, so — exactly as §4 prescribes — every message carries the IDs
it needs inside its payload ("To each message we append the ID of the node
v which sent the message and the ID of v's BFS-parent").

Messages are values, standing in for the O(log n)-bit packets of the
model: they compare, hash and print by their fields.  Like
:class:`~repro.radio.transmission.Transmission` they are immutable by
contract, not by enforcement: nothing assigns a field after
construction, and a message that changes on its way (the hop fields of
:meth:`DataMessage.rehop`, the level stamp of
:meth:`BroadcastMessage.at_level`) is built anew.  Every hop of every
protocol builds messages, so each type is a slotted dataclass with the
plain generated ``__init__``; a frozen one writes each field through
``object.__setattr__`` and cost about four times as much to build, and
``dataclasses.replace`` about eight times a direct build
(docs/performance.md, "What a streamed hop costs").  ``unsafe_hash``
gives each type the field-tuple hash a frozen dataclass has.  The
``hop_sender`` / ``hop_dest`` fields change at every hop; the
``origin`` / ``dest_address`` fields identify the end-to-end flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro.graphs.graph import NodeId


@dataclass(slots=True, unsafe_hash=True)
class DataMessage:
    """A unicast data packet travelling hop by hop along the BFS tree.

    Used by collection (§4) and by both point-to-point subprotocols (§5).

    Attributes
    ----------
    msg_id:
        Globally unique message identifier, ``(origin, serial)``.
    origin:
        Station that injected the message.
    hop_sender / hop_dest:
        Current-hop transmitter and its intended next-hop receiver.  Per
        Theorem 3.1 each data message has exactly one destination.
    dest_address:
        Final destination as a DFS address (§5.1); ``None`` means "the
        root" (pure collection traffic).
    payload:
        Application payload (opaque).
    """

    msg_id: Tuple[NodeId, int]
    origin: NodeId
    hop_sender: NodeId
    hop_dest: NodeId
    dest_address: Optional[int] = None
    payload: Any = None

    def rehop(self, sender: NodeId, dest: NodeId) -> "DataMessage":
        """The same end-to-end message readdressed for the next hop."""
        return DataMessage(
            self.msg_id, self.origin, sender, dest, self.dest_address,
            self.payload,
        )


@dataclass(slots=True, unsafe_hash=True)
class AckMessage:
    """A deterministic acknowledgement (§3) for one received data message.

    Sent in the slot immediately following the reception, by the station
    the data message was designated to, back toward ``hop_dest`` (the
    original transmitter).
    """

    msg_id: Tuple[NodeId, int]
    hop_sender: NodeId  # the acknowledging station
    hop_dest: NodeId  # the station whose transmission is being acked


@dataclass(slots=True, unsafe_hash=True)
class JoinMessage:
    """BFS-expansion announcement: "I am at level ``level``, join under me"."""

    sender: NodeId
    level: int


@dataclass(slots=True, unsafe_hash=True)
class LeaderMessage:
    """Bitwise-tournament flood: "a candidate has a 1 in this round's bit"."""

    sender: NodeId
    round: int


@dataclass(slots=True, unsafe_hash=True)
class TokenMessage:
    """The DFS token of §5.1 (only its holder transmits: conflict-free).

    During the first traversal (on the graph) the token broadcast carries
    the holder's ID and BFS parent, so all neighbors learn who is whose
    BFS child.  During the second traversal (on the BFS tree) it carries
    DFS-number assignments.
    """

    holder: NodeId
    next_holder: NodeId
    traversal: int  # 1 = DFS on the graph, 2 = DFS on the BFS tree
    holder_bfs_parent: Optional[NodeId] = None
    dfs_number: Optional[int] = None  # number assigned to next_holder
    returning: bool = False  # token backtracking to the parent
    max_descendant: Optional[int] = None  # reported while backtracking


@dataclass(slots=True, unsafe_hash=True)
class BroadcastMessage:
    """A pipelined distribution packet (§6): the root's ``seq``-th message."""

    seq: int
    origin: NodeId
    payload: Any = None
    sender_level: int = 0

    def at_level(self, level: int) -> "BroadcastMessage":
        """The same broadcast, stamped as sent from BFS ``level``."""
        return BroadcastMessage(self.seq, self.origin, self.payload, level)


@dataclass(slots=True, unsafe_hash=True)
class ResendRequest:
    """A NACK travelling to the root: "I am missing broadcast #``seq``".

    Carried as the payload of a collection DataMessage (§6: "v sends a
    message to the root requesting it to resend the missing message").
    """

    requester: NodeId
    seq: int


@dataclass(slots=True, unsafe_hash=True)
class BroadcastSubmission:
    """A broadcast payload on its way up to the root for sequencing (§6)."""

    origin: NodeId
    body: Any


@dataclass(slots=True, unsafe_hash=True)
class CheckpointAck:
    """§6's checkpoint acknowledgement: "I hold every message of
    checkpoint #``checkpoint``"."""

    origin: NodeId
    checkpoint: int


def message_bits(message: object) -> int:
    """Rough size of a message in bits, for model-compliance checks.

    The model allows messages of length O(log n); tests use this to assert
    that no protocol smuggles more than a constant number of IDs, sequence
    numbers and flags into one packet.
    """
    fields = getattr(message, "__dataclass_fields__", {})
    count = 0
    for name in fields:
        value = getattr(message, name)
        if isinstance(value, tuple):
            count += len(value)
        else:
            count += 1
    # Each field is an ID, a level, a sequence number or a flag: O(log n)
    # bits apiece.  Report "number of log-n words" * 1 for simplicity.
    return count


def is_protocol_message(payload: Hashable) -> bool:
    """Whether a payload is one of this module's message types."""
    return isinstance(
        payload,
        (
            DataMessage,
            AckMessage,
            JoinMessage,
            LeaderMessage,
            TokenMessage,
            BroadcastMessage,
            BroadcastSubmission,
            CheckpointAck,
            ResendRequest,
        ),
    )
