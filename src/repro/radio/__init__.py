"""Slot-synchronous multi-hop radio-network simulator (the model of §1.1)."""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "failures": (
        "BernoulliLinkLoss",
        "ComposedFailures",
        "CrashSchedule",
        "FailureModel",
        "PermanentCrashes",
    ),
    "faults": (
        "AdversarialJammer",
        "GilbertElliott",
        "MarkovChurn",
        "RegionOutage",
        "subtree_outage",
    ),
    "multiplex": (
        "TimeDivisionProcess",
        "logical_slots",
        "multiplex_network",
    ),
    "network": ("RadioNetwork",),
    "oracle": (
        "audit_collection_trace",
        "check_ack_determinism",
        "check_exactly_once",
        "check_level_classes",
        "check_slot_discipline",
    ),
    "process": ("Process", "SilentProcess"),
    "trace": (
        "ChannelStats",
        "CollisionEvent",
        "DeliverEvent",
        "DropEvent",
        "EventTrace",
        "NetworkStats",
        "TransmitEvent",
    ),
    "transmission": (
        "DEFAULT_CHANNEL",
        "DOWN_CHANNEL",
        "UP_CHANNEL",
        "Transmission",
    ),
})
