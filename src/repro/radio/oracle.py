"""Omniscient trace verification: protocol invariants checked globally.

The simulator can capture a full :class:`~repro.radio.trace.EventTrace`;
this module turns the paper's correctness statements into *checkers* over
such traces, so any run — unit test, benchmark, or a user's custom
protocol — can be audited after the fact:

* :func:`check_ack_determinism` — Theorem 3.1, in its strongest
  observable form: for every successful delivery of a designated data
  message at slot t, the matching acknowledgement is delivered back to
  the transmitter at slot t+1.
* :func:`check_exactly_once` — no designated data message is delivered
  to the same receiver twice (the corollary strict-mode transport
  enforces online).
* :func:`check_slot_discipline` — on an acked channel, data payloads
  travel only in DATA slots and acks only in ACK slots of the given
  :class:`~repro.core.slots.SlotStructure`.
* :func:`check_level_classes` — §2.2: every data transmission happens in
  its transmitter's level-class slots.

Each checker returns a list of violation strings (empty = invariant
holds), so callers can assert emptiness or report.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.core.messages import AckMessage, DataMessage
from repro.core.slots import SlotKind, SlotStructure
from repro.graphs.graph import NodeId
from repro.radio.trace import DeliverEvent, EventTrace
from repro.radio.transmission import UP_CHANNEL


def _designated_data_deliveries(
    trace: EventTrace, channel: Optional[int]
) -> List[DeliverEvent]:
    out = []
    for event in trace.deliveries:
        if channel is not None and event.channel != channel:
            continue
        if isinstance(event.payload, DataMessage) and (
            event.payload.hop_dest == event.receiver
        ):
            out.append(event)
    return out


def check_ack_determinism(
    trace: EventTrace, channel: Optional[int] = None
) -> List[str]:
    """Theorem 3.1 over a whole trace.

    For each designated data delivery (u → v at slot t), require an
    AckMessage with the same msg_id delivered to u at slot t+1.
    """
    ack_deliveries = {
        (event.slot, event.receiver, event.payload.msg_id)
        for event in trace.deliveries
        if isinstance(event.payload, AckMessage)
        and (channel is None or event.channel == channel)
    }
    violations = []
    for event in _designated_data_deliveries(trace, channel):
        key = (event.slot + 1, event.sender, event.payload.msg_id)
        if key not in ack_deliveries:
            violations.append(
                f"message {event.payload.msg_id} received by "
                f"{event.receiver!r} at slot {event.slot} was never "
                f"acked back to {event.sender!r}"
            )
    return violations


def check_exactly_once(
    trace: EventTrace, channel: Optional[int] = None
) -> List[str]:
    """No (receiver, msg_id) designated delivery occurs twice."""
    seen: Dict[tuple, int] = {}
    violations = []
    for event in _designated_data_deliveries(trace, channel):
        key = (event.receiver, event.payload.msg_id)
        if key in seen:
            violations.append(
                f"message {event.payload.msg_id} delivered to "
                f"{event.receiver!r} again at slot {event.slot} "
                f"(first at slot {seen[key]})"
            )
        else:
            seen[key] = event.slot
    return violations


def check_slot_discipline(
    trace: EventTrace,
    slots: SlotStructure,
    channel: int,
) -> List[str]:
    """Data only in DATA slots, acks only in ACK slots, on ``channel``."""
    violations = []
    for event in trace.transmissions:
        if event.channel != channel:
            continue
        kind = slots.decode(event.slot).kind
        if isinstance(event.payload, DataMessage) and kind is not SlotKind.DATA:
            violations.append(
                f"station {event.node!r} sent data in an "
                f"{kind.value} slot ({event.slot})"
            )
        if isinstance(event.payload, AckMessage) and kind is not SlotKind.ACK:
            violations.append(
                f"station {event.node!r} sent an ack in a "
                f"{kind.value} slot ({event.slot})"
            )
    return violations


def check_level_classes(
    trace: EventTrace,
    slots: SlotStructure,
    levels: Mapping[NodeId, int],
    channel: int,
) -> List[str]:
    """§2.2: data transmissions only in the transmitter's class slots."""
    violations = []
    for event in trace.transmissions:
        if event.channel != channel:
            continue
        if not isinstance(event.payload, DataMessage):
            continue
        level = levels.get(event.node)
        if level is None:
            violations.append(f"unknown level for station {event.node!r}")
            continue
        if not slots.is_data_slot_for(event.slot, level):
            violations.append(
                f"station {event.node!r} (level {level}) transmitted data "
                f"in slot {event.slot}, outside its class"
            )
    return violations


def audit_collection_trace(
    trace: EventTrace,
    slots: SlotStructure,
    levels: Mapping[NodeId, int],
) -> List[str]:
    """All four checks, concatenated — the full §2–§4 discipline, on
    collection's channel ``UP_CHANNEL``."""
    return (
        check_ack_determinism(trace, UP_CHANNEL)
        + check_exactly_once(trace, UP_CHANNEL)
        + check_slot_discipline(trace, slots, UP_CHANNEL)
        + check_level_classes(trace, slots, levels, UP_CHANNEL)
    )
