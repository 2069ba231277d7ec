"""The per-station process interface seen by the simulation engine.

A *process* is the program running on one station.  The engine drives it
with three callbacks per slot, in this order for every station:

1. :meth:`Process.on_slot` — decide what to transmit this slot (possibly on
   several channels; the paper's model allows one transceiver per channel).
2. :meth:`Process.on_receive` — called once per channel on which *exactly
   one* neighbor transmitted and this station was listening, unless that
   transmission's ``to`` leaves this station out (see
   :class:`~repro.radio.transmission.Transmission`).
3. :meth:`Process.on_slot_end` — bookkeeping after all receptions of the
   slot are in; called only for processes that override it.

Faithfulness notes:

* Stations receive the *message only*: the model gives no physical-layer
  sender identification, so any sender/destination information must travel
  inside the payload (the paper appends IDs to messages explicitly, §4).
  A transmission's ``to`` is not such an ID: it only spares the simulator
  the calls whose receivers would drop the message by those payload IDs.
* There is no collision detection: a collision and a silent slot are both
  simply "no :meth:`on_receive` call".
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Union

from repro.graphs.graph import NodeId
from repro.radio.transmission import Transmission

#: What :meth:`Process.on_slot` may return: nothing (listen on all
#: channels), one transmission, or several transmissions on distinct
#: channels.
SlotAction = Union[None, Transmission, Iterable[Transmission]]

#: Sentinel wake slot for :meth:`Process.quiet_until`: "I will stay
#: silent until something is delivered to me."  Any value this large is
#: treated the same way; the engine never pushes it onto the wake heap.
QUIET_FOREVER = 2 ** 62


class Process:
    """Base class for station programs.

    Subclasses override the callbacks they need.  The default behaviour is
    a station that always listens and ignores everything it hears.
    """

    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        # Installed by the engine on attach; see wake().
        self._waker: Optional[Callable[[], None]] = None

    def on_slot(self, slot: int) -> SlotAction:
        """Return the transmission(s) for this slot, or None to listen.

        A process may return the same
        :class:`~repro.radio.transmission.Transmission` object at many
        slots (a transmission is immutable by contract); the engine
        counts and delivers it afresh at each.
        """
        return None

    def on_receive(
        self, slot: int, channel: int, payload: Any
    ) -> Optional[bool]:
        """Called when a message was successfully received on ``channel``.

        Return ``False`` to say the reception left this process's
        outstanding :meth:`quiet_until` declaration valid: on every slot
        before the declared wake, :meth:`on_slot` would still return
        None and :meth:`on_slot_end` would still be a no-op.  A sleeping
        station then stays asleep: the engine calls neither
        :meth:`on_slot_end` nor :meth:`quiet_until` for it this slot.
        Any other return value (None included) wakes it for the rest of
        the slot.  The paper's stations hear every neighbour that
        transmits alone and drop, by the IDs in the payload, what is not
        meant for them (§1.1); ``False`` is how such a drop stays free.

        A transmission whose :attr:`~repro.radio.transmission.
        Transmission.to` leaves this station out is a promise by its
        sender: here this method would return ``False`` and change no
        state.  Unless a trace, a failure model or the capture effect is
        attached, the engine then makes no call at all.
        """

    def on_slot_end(self, slot: int) -> None:
        """Called after all of this slot's receptions have been delivered.

        This base method does nothing, and the engine never calls it: when
        a process is attached, the engine reads its bound ``on_slot_end``
        and calls it each slot only if it is not this method, that is
        when the class or the instance overrides it.  An override
        assigned after :meth:`~repro.radio.network.RadioNetwork.attach`
        takes effect at the next attach.
        """

    def quiet_until(self, slot: int) -> int:
        """Idle declaration: the first slot >= ``slot`` this process is
        *active* in — i.e. might transmit, or does per-slot work in
        :meth:`on_slot` / :meth:`on_slot_end`.

        Contract: if a process returns ``w > slot``, it promises that —
        absent any reception in between — for every slot s in
        ``[slot, w)`` its :meth:`on_slot` would return None and its
        :meth:`on_slot_end` would be a no-op.  The engine may then skip
        those callbacks entirely (it keeps a min-heap of wake slots, see
        :mod:`repro.radio.network`).  Receiving a message re-wakes the
        process for the current slot, so reactive behaviour is never
        delayed, unless :meth:`on_receive` returns ``False``: then the
        declaration stands, and the process is next polled at the slot
        it declared.
        Return :data:`QUIET_FOREVER` for "silent until spoken to".

        The default returns ``slot`` — no declaration, polled every
        slot — so subclasses are unaffected unless they opt in.  The
        paper's schedule makes exact declarations easy: a node at BFS
        level i owns only the class ``i mod 3`` data slots (§2.2), so at
        least 2 of every 3 slot-pairs are declarable silence; and Decay
        repeats only "until coin = 0" (§1.4), so once its coin has
        fallen a station is silent until its next invocation — a dead
        session draws no coin, so sleeping through it shifts no coin
        stream.  Each protocol of the paper's stack declares the
        silences that apply to it.

        If *external* events can change what this process would do —
        e.g. an application submitting a message mid-run (§1.4's
        reactive model) — the mutating entry point must call
        :meth:`wake` to revoke the outstanding declaration.
        """
        return slot

    def wake(self) -> None:
        """Revoke an outstanding :meth:`quiet_until` declaration.

        Must be called by any entry point that mutates this process from
        *outside* the engine's callbacks (application-level submission,
        test harness pokes) while a run is in progress; otherwise the
        engine may keep honouring a now-stale quiet declaration.  A no-op
        when not attached to an idle-scheduling engine, or once that
        engine has been freed (it is held weakly).
        """
        if self._waker is not None:
            self._waker()

    def is_done(self) -> bool:
        """Whether this station considers its task locally complete.

        Purely observational: the engine never consults it, but experiment
        drivers commonly run ``until=lambda net: all(p.is_done() ...)``.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(node={self.node_id!r})"


class SilentProcess(Process):
    """A station that only listens, recording everything it hears.

    Useful as an experiment probe and in unit tests of the engine.
    """

    def __init__(self, node_id: NodeId):
        super().__init__(node_id)
        self.heard: list = []

    def on_receive(self, slot: int, channel: int, payload: Any) -> None:
        self.heard.append((slot, channel, payload))

