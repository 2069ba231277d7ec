"""Counters and (optional) event traces for simulation runs.

Counters are always on — they are a handful of integer increments per slot
and every experiment reports them.  Full event traces are opt-in because
they allocate per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.graphs.graph import NodeId


@dataclass
class ChannelStats:
    """Per-channel aggregate counters over a whole run."""

    transmissions: int = 0
    deliveries: int = 0
    collisions: int = 0  # listener-slots with >= 2 transmitting neighbors
    busy_slots: int = 0  # slots with >= 1 transmission anywhere
    dropped: int = 0  # would-be deliveries lost to the failure model

    def as_dict(self) -> Dict[str, int]:
        return {
            "transmissions": self.transmissions,
            "deliveries": self.deliveries,
            "collisions": self.collisions,
            "busy_slots": self.busy_slots,
            "dropped": self.dropped,
        }


@dataclass
class NetworkStats:
    """Aggregate counters for a run, totals plus per-channel breakdown."""

    slots: int = 0
    per_channel: Dict[int, ChannelStats] = field(default_factory=dict)
    down_node_slots: int = 0  # node-slots spent crashed (failure injection)

    def channel(self, channel: int) -> ChannelStats:
        if channel not in self.per_channel:
            self.per_channel[channel] = ChannelStats()
        return self.per_channel[channel]

    @property
    def transmissions(self) -> int:
        return sum(c.transmissions for c in self.per_channel.values())

    @property
    def deliveries(self) -> int:
        return sum(c.deliveries for c in self.per_channel.values())

    @property
    def collisions(self) -> int:
        return sum(c.collisions for c in self.per_channel.values())

    @property
    def dropped(self) -> int:
        return sum(c.dropped for c in self.per_channel.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "slots": self.slots,
            "transmissions": self.transmissions,
            "deliveries": self.deliveries,
            "collisions": self.collisions,
            "dropped": self.dropped,
            "down_node_slots": self.down_node_slots,
            "per_channel": {
                ch: stats.as_dict() for ch, stats in self.per_channel.items()
            },
        }


@dataclass(frozen=True)
class TransmitEvent:
    slot: int
    channel: int
    node: NodeId
    payload: Any


@dataclass(frozen=True)
class DeliverEvent:
    slot: int
    channel: int
    receiver: NodeId
    sender: NodeId
    payload: Any


@dataclass(frozen=True)
class CollisionEvent:
    slot: int
    channel: int
    receiver: NodeId
    senders: Tuple[NodeId, ...]


@dataclass(frozen=True)
class DropEvent:
    """A delivery that would have succeeded but was lost to the failure
    model (fading, jamming, …) — collisions are :class:`CollisionEvent`."""

    slot: int
    channel: int
    receiver: NodeId
    sender: NodeId
    payload: Any


class EventTrace:
    """Opt-in event recorder.

    Pass an instance as ``trace=`` to :class:`repro.radio.RadioNetwork` to
    capture every transmission, delivery, collision and drop of the run.
    A trace is never truncated, so an audit over it sees the whole run.
    """

    def __init__(self):
        self.events: List[object] = []

    def record(self, event: object) -> None:
        self.events.append(event)

    def of_type(self, event_type: type) -> List[object]:
        return [e for e in self.events if isinstance(e, event_type)]

    @property
    def transmissions(self) -> List[TransmitEvent]:
        return self.of_type(TransmitEvent)  # type: ignore[return-value]

    @property
    def deliveries(self) -> List[DeliverEvent]:
        return self.of_type(DeliverEvent)  # type: ignore[return-value]

    @property
    def collisions(self) -> List[CollisionEvent]:
        return self.of_type(CollisionEvent)  # type: ignore[return-value]

    @property
    def drops(self) -> List[DropEvent]:
        return self.of_type(DropEvent)  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self.events)
