"""Time-division multiplexing of logical channels onto one transceiver.

§1.4: the concurrent collection and distribution subprotocols run "either
by using separate channels or by multiplexing: the odd time slots are
dedicated to the upward traffic (collection) and the even ones to the
downwards traffic.  We shall not elaborate further and assume separate
channels."

The separate-channels assumption is what :mod:`repro.core` uses; this
module supplies the elaboration the paper skips, so the whole stack also
runs on single-transceiver hardware.  :class:`TimeDivisionProcess` wraps
any multi-channel protocol process and lays its ``C`` logical channels
out round-robin over physical slots:

* physical slot ``t`` carries logical channel ``t mod C`` of logical slot
  ``t // C``;
* the wrapped process is stepped once per *logical* slot (at the first
  physical sub-slot); its transmissions are buffered and released each on
  its own sub-slot;
* receptions are translated back to (logical slot, logical channel).

Everything the inner protocol observes is exactly what it would observe
on a C-channel radio, at C× the slot cost — which is the trade §1.4
describes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.errors import ConfigurationError
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.radio.process import Process
from repro.radio.transmission import Transmission


class TimeDivisionProcess(Process):
    """Adapter running a C-logical-channel process on one physical channel."""

    def __init__(self, inner: Process, logical_channels: int):
        if logical_channels < 1:
            raise ConfigurationError(
                f"need >= 1 logical channel, got {logical_channels}"
            )
        super().__init__(inner.node_id)
        self.inner = inner
        self.logical_channels = logical_channels
        self._pending: Dict[int, Any] = {}  # logical channel -> payload
        self._pending_logical_slot = -1

    # ------------------------------------------------------------------
    # Slot arithmetic
    # ------------------------------------------------------------------

    def _logical(self, physical_slot: int) -> int:
        return physical_slot // self.logical_channels

    def _subchannel(self, physical_slot: int) -> int:
        return physical_slot % self.logical_channels

    # ------------------------------------------------------------------
    # Engine callbacks (physical side)
    # ------------------------------------------------------------------

    def on_slot(self, slot: int):
        logical_slot = self._logical(slot)
        subchannel = self._subchannel(slot)
        if subchannel == 0:
            # Start of a logical slot: collect the inner process's intent
            # for all logical channels at once.
            self._pending = {}
            self._pending_logical_slot = logical_slot
            action = self.inner.on_slot(logical_slot)
            for tx in RadioNetwork._normalize_action(action):
                if tx.channel >= self.logical_channels:
                    raise ConfigurationError(
                        f"inner process used logical channel {tx.channel} "
                        f"but only {self.logical_channels} are multiplexed"
                    )
                if tx.channel in self._pending:
                    raise ConfigurationError(
                        f"inner process transmitted twice on logical "
                        f"channel {tx.channel}"
                    )
                self._pending[tx.channel] = tx.payload
        if (
            self._pending_logical_slot == logical_slot
            and subchannel in self._pending
        ):
            payload = self._pending.pop(subchannel)
            return Transmission(payload, 0)
        return None

    def on_receive(self, slot: int, channel: int, payload: Any) -> None:
        # Physical channel is always 0; the sub-slot index *is* the
        # logical channel.
        self.inner.on_receive(
            self._logical(slot), self._subchannel(slot), payload
        )

    def on_slot_end(self, slot: int) -> None:
        # The logical slot ends with its last sub-slot.
        if self._subchannel(slot) == self.logical_channels - 1:
            self.inner.on_slot_end(self._logical(slot))

    def is_done(self) -> bool:
        return self.inner.is_done()


def multiplex_network(
    graph: Graph,
    inner_factory: Callable[[NodeId], Process],
    logical_channels: int,
) -> RadioNetwork:
    """A single-channel network running wrapped C-channel processes.

    ``inner_factory(node)`` builds the protocol process exactly as it
    would for a C-channel radio; the returned network multiplexes it onto
    one physical channel at C× the slot cost.
    """
    network = RadioNetwork(graph, num_channels=1)
    for node in graph.nodes:
        network.attach(
            TimeDivisionProcess(inner_factory(node), logical_channels)
        )
    return network


def logical_slots(network: RadioNetwork, logical_channels: int) -> int:
    """Logical slots elapsed on a multiplexed network (floor)."""
    return network.slot // logical_channels
