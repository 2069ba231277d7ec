"""Transmission intents handed from protocol processes to the engine."""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.graphs.graph import NodeId

#: Default channel used by single-channel protocols.
DEFAULT_CHANNEL = 0

#: Conventional channel assignment used by the multi-channel protocols:
#: the paper assumes the upward (collection) and downward (distribution)
#: traffic run "by using separate channels" (§1.4).
UP_CHANNEL = 0
DOWN_CHANNEL = 1


class Transmission:
    """A single-slot transmission intent on one channel.

    ``payload`` is the message object broadcast to all neighbors; per the
    radio model it is delivered to a neighbor only if no other neighbor of
    that node transmits on the same channel in the same slot.

    ``to`` names the only stations that can act on the message (None:
    every neighbour).  It is a simulator shortcut for §1.1's drop by the
    IDs in the payload, not a physical-layer address: every neighbour
    still receives the message, which still collides and still counts
    in the delivery counters, but a neighbour outside ``to`` would have
    returned False from :meth:`~repro.radio.process.Process.on_receive`
    with no change of state, so the engine may skip that call.  Every
    entry must be a neighbour of the sender (the engine raises
    :class:`~repro.errors.ProtocolError` otherwise) and appear once;
    listed in the sender's neighbour order, the addressees are called
    in the order the engine calls every receiver when it skips nothing.

    A transmission is immutable by contract, not by enforcement: nothing
    assigns its fields after construction, so a sender that repeats one
    message (a Decay invocation, a relay's superphase, a flood's round)
    may build it once and return the same object at every slot it
    transmits.  The class has ``__slots__`` and a plain ``__init__``
    because every transmission of every protocol pays for building one;
    a frozen dataclass, or a ``__setattr__`` guard, costs about three
    times as much (docs/performance.md, "What a repeated transmission
    costs").  Equality, hashing and ``repr`` are by the three fields.
    """

    __slots__ = ("payload", "channel", "to")

    def __init__(
        self,
        payload: Any,
        channel: int = DEFAULT_CHANNEL,
        to: Optional[Tuple[NodeId, ...]] = None,
    ):
        if channel < 0:
            raise ValueError(f"channel must be >= 0, got {channel}")
        self.payload = payload
        self.channel = channel
        self.to = to

    def _fields(self) -> Tuple[Any, int, Optional[Tuple[NodeId, ...]]]:
        return (self.payload, self.channel, self.to)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(payload={self.payload!r}, "
            f"channel={self.channel!r}, to={self.to!r})"
        )
