"""Transmission intents handed from protocol processes to the engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.graphs.graph import NodeId

#: Default channel used by single-channel protocols.
DEFAULT_CHANNEL = 0

#: Conventional channel assignment used by the multi-channel protocols:
#: the paper assumes the upward (collection) and downward (distribution)
#: traffic run "by using separate channels" (§1.4).
UP_CHANNEL = 0
DOWN_CHANNEL = 1


@dataclass(frozen=True)
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
    """

    payload: Any
    channel: int = DEFAULT_CHANNEL
    to: Optional[Tuple[NodeId, ...]] = None

    def __post_init__(self) -> None:
        if self.channel < 0:
            raise ValueError(f"channel must be >= 0, got {self.channel}")
