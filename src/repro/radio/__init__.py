"""Slot-synchronous multi-hop radio-network simulator (the model of §1.1)."""

from repro.radio.failures import (
    AdversarialJammer,
    BernoulliLinkLoss,
    ComposedFailures,
    CrashSchedule,
    FailureModel,
    GilbertElliott,
    MarkovChurn,
    PermanentCrashes,
    RegionOutage,
    subtree_outage,
)
from repro.radio.multiplex import (
    TimeDivisionProcess,
    logical_slots,
    multiplex_network,
)
from repro.radio.network import RadioNetwork
from repro.radio.oracle import (
    audit_collection_trace,
    check_ack_determinism,
    check_exactly_once,
    check_level_classes,
    check_slot_discipline,
)
from repro.radio.process import Process, SilentProcess
from repro.radio.trace import (
    ChannelStats,
    CollisionEvent,
    DeliverEvent,
    DropEvent,
    EventTrace,
    NetworkStats,
    TransmitEvent,
)
from repro.radio.transmission import (
    DEFAULT_CHANNEL,
    DOWN_CHANNEL,
    UP_CHANNEL,
    Transmission,
)

__all__ = [
    "AdversarialJammer",
    "BernoulliLinkLoss",
    "ChannelStats",
    "CollisionEvent",
    "ComposedFailures",
    "CrashSchedule",
    "DEFAULT_CHANNEL",
    "DOWN_CHANNEL",
    "DeliverEvent",
    "DropEvent",
    "EventTrace",
    "FailureModel",
    "GilbertElliott",
    "MarkovChurn",
    "NetworkStats",
    "PermanentCrashes",
    "RegionOutage",
    "Process",
    "RadioNetwork",
    "SilentProcess",
    "TimeDivisionProcess",
    "TransmitEvent",
    "audit_collection_trace",
    "check_ack_determinism",
    "check_exactly_once",
    "check_level_classes",
    "check_slot_discipline",
    "Transmission",
    "UP_CHANNEL",
    "logical_slots",
    "multiplex_network",
    "subtree_outage",
]
