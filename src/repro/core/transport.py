"""Reliable single-hop transport over the BFS tree: Decay + deterministic acks.

This module implements the machinery shared by the collection protocol
(§4) and both point-to-point subprotocols (§5): every station keeps "a
buffer of unacknowledged messages"; in each phase it invokes Decay once to
send the head of the buffer toward its next hop; data slots are followed by
ack slots in which receivers acknowledge deterministically (§3); "every
such message is resent until an acknowledgement is received", whereupon it
moves to the receiver's buffer — so each message lives in exactly one
buffer at any time.

One :class:`TransportLane` manages one direction of traffic on one channel
(the paper runs upward and downward traffic "on separate channels", §1.4).
"""

from __future__ import annotations

import functools
import random
from collections import deque
from typing import Callable, Deque, Optional, Protocol, Set, Tuple

from repro.core.decay import DecaySession
from repro.core.messages import AckMessage, DataMessage
from repro.core.slots import SlotStructure
from repro.errors import ConfigurationError, ProtocolError
from repro.graphs.graph import NodeId
from repro.radio.process import QUIET_FOREVER
from repro.radio.transmission import Transmission


class SessionLike(Protocol):
    """What a per-phase retransmission session must provide.

    A session that is not :attr:`alive` must stay silent for the rest of
    its phase *without drawing a coin* in :meth:`should_transmit`: the
    lane relies on that to sleep through a dead session's remaining data
    slots (see :meth:`TransportLane.next_active_slot`).
    """

    @property
    def alive(self) -> bool:  # pragma: no cover - protocol
        ...

    def should_transmit(self) -> bool:  # pragma: no cover - protocol
        ...

    def kill(self) -> None:  # pragma: no cover - protocol
        ...


class BacklogTotal:
    """The number of messages buffered across the lanes that joined it.

    Each lane keeps the total current as it enqueues and releases
    messages (:meth:`TransportLane.join_total`), so reading the backlog
    of a whole network costs O(1) rather than a pass over its lanes.
    """

    __slots__ = ("messages",)

    def __init__(self) -> None:
        self.messages = 0


#: The most phases a retrying lane sits out after a failed attempt: after
#: attempt k it waits ``min(BACKOFF_CAP, 2^(k-1) - 1)`` phases, so the
#: first retry is immediate and every later one waits one phase.
BACKOFF_CAP = 1


class TransportLane:
    """One station's send/receive state for one traffic direction.

    Responsibilities per slot (driven by the owning process):

    * On this station's data slots (its level class, §2.2): run the
      per-phase Decay session for the buffer head.
    * On the slot right after receiving a designated data message: send
      the acknowledgement (§3).
    * On receiving an acknowledgement for the in-flight head: remove it
      from the buffer and fall silent for the rest of the phase.

    Every data hop and ack is addressed to its ``hop_dest``
    (:attr:`Transmission.to <repro.radio.transmission.Transmission.to>`):
    every process that owns a lane drops, unchanged, a hop or ack
    designated to another station.

    ``strict`` mode turns impossible-in-the-model events (duplicate
    designated receptions, unmatched designated acks) into
    :class:`ProtocolError` — the property tests run strict; failure
    injection experiments run non-strict and count anomalies instead.

    The paper's transport retries the buffer head every phase forever —
    correct in the failure-free model, a livelock once the next hop can
    crash.  A ``retry`` lane counts the phases it has attempted its
    current head without an acknowledgement (``head_attempts``) and backs
    off between them (see :data:`BACKOFF_CAP`); the repair layer's
    watchdog reads that count to suspect the next hop and re-route
    (:class:`~repro.core.repair.ResilientCollectionProcess`).

    The per-phase retransmission policy is the paper's Decay; an
    ablation (E12) swaps in another by assigning
    :attr:`session_factory`, a zero-argument callable returning a
    :class:`SessionLike`.
    """

    def __init__(
        self,
        node_id: NodeId,
        level: int,
        slots: SlotStructure,
        rng: random.Random,
        channel: int,
        strict: bool = True,
        retry: bool = False,
        dedup_window: Optional[int] = None,
    ):
        if dedup_window is not None and dedup_window < 1:
            raise ConfigurationError(
                f"dedup_window must be >= 1 or None, got {dedup_window}"
            )
        self.node_id = node_id
        self.level = level
        self.slots = slots
        self.channel = channel
        self.strict = strict
        self.retry = retry
        self._rng = rng
        # A partial, not a lambda over self, so a finished lane is freed
        # by reference counting rather than left as cyclic garbage.
        self.session_factory: Callable[[], SessionLike] = functools.partial(
            DecaySession, slots.decay_budget, rng
        )
        self.buffer: Deque[DataMessage] = deque()
        # The shared total this lane keeps current, if it joined one.
        self._total: Optional[BacklogTotal] = None
        # Phase from which each buffered message may be transmitted: §4.1
        # has a node send, each phase, a message whose buffer residence
        # predates the phase ("every node whose buffer is not empty [at
        # the beginning of a phase] executes Decay"), so a message
        # received mid-phase must wait for the next phase — this is what
        # keeps the pipeline at one level per phase, the granularity all
        # of §4.2's models assume.
        self._earliest_phase: Deque[int] = deque()
        self._session: Optional[SessionLike] = None
        self._session_phase = -1
        self._head: Optional[DataMessage] = None
        self._pending_ack: Optional[Tuple[int, AckMessage]] = None
        # Duplicate suppression.  Closed runs keep every accepted id (an
        # exact tripwire for Thm 3.1 violations); open-system service
        # runs pass a ``dedup_window`` bound so a horizon of millions of
        # messages never accretes per-message state — a realistic
        # duplicate (re-reception after a lost ack) arrives within a
        # phase or two of the original, far inside any sane window.
        self._accepted_ids: Set[Tuple[NodeId, int]] = set()
        self._dedup_window = dedup_window
        self._accepted_order: Deque[Tuple[NodeId, int]] = deque()
        self._evictions_since_rebuild = 0
        # Retry/backoff state for the current head (``retry`` lanes only).
        self._attempt_msg_id: Optional[Tuple[NodeId, int]] = None
        self._attempt_phase = -1
        self._backoff_until_phase = 0
        self.head_attempts = 0
        # A muted lane does ack duty but never transmits data — set by the
        # repair layer when this station has given up (partition).
        self.muted = False
        # Counters for experiments.
        self.data_transmissions = 0
        self.ack_transmissions = 0
        self.duplicates_seen = 0
        self.retargets = 0

    # ------------------------------------------------------------------
    # Sending side
    # ------------------------------------------------------------------

    def enqueue(
        self, message: DataMessage, received_at_slot: Optional[int] = None
    ) -> None:
        """Add a hop-addressed message to this lane's buffer.

        ``received_at_slot`` marks forwarded traffic: a message received
        during phase p becomes transmittable at phase p+1 (see
        ``_earliest_phase``).  Locally originated messages (no slot) are
        eligible immediately.
        """
        if message.hop_sender != self.node_id:
            raise ProtocolError(
                f"station {self.node_id!r} enqueued a message whose "
                f"hop_sender is {message.hop_sender!r}"
            )
        self.buffer.append(message)
        if self._total is not None:
            self._total.messages += 1
        if received_at_slot is None:
            self._earliest_phase.append(0)
        else:
            self._earliest_phase.append(
                self.slots.phase_of(received_at_slot) + 1
            )

    @property
    def backlog(self) -> int:
        return len(self.buffer)

    def join_total(self, total: BacklogTotal) -> None:
        """Count this lane's buffered messages into ``total`` from now on.

        A lane joins at most one total; :meth:`retarget` re-addresses the
        buffer without changing its length, so the count survives it.
        """
        if self._total is not None:
            raise ConfigurationError(
                f"station {self.node_id!r}'s lane already counts into a total"
            )
        total.messages += len(self.buffer)
        self._total = total

    def on_slot(self, slot: int) -> Optional[Transmission]:
        """This lane's transmission (if any) for the given slot."""
        # Ack duty takes precedence; it is scheduled on an ack slot, which
        # is never simultaneously one of our data slots.
        if self._pending_ack is not None:
            due, ack = self._pending_ack
            if due == slot:
                self._pending_ack = None
                self.ack_transmissions += 1
                return Transmission(ack, self.channel, (ack.hop_dest,))
            if due < slot:
                # The ack slot passed while this station was down (failure
                # injection): the ack is lost, like any other transmission
                # of a crashed station.
                self._pending_ack = None
        if not self.buffer or self.muted:
            return None
        slots = self.slots
        if not slots.is_data_slot_for(slot, self.level):
            return None
        phase = slot // slots.phase_length
        if phase != self._session_phase:
            # A new phase begins: nodes whose buffer is non-empty at the
            # beginning of the phase invoke Decay for the buffer head (§4.1).
            self._session_phase = phase
            self._session = None
            self._head = None
            if self._earliest_phase[0] <= phase:
                if self.retry:
                    self._start_attempt(phase)
                else:
                    self._session = self.session_factory()
                    self._head = self.buffer[0]
            # else: head arrived mid-phase, sit this phase out.
        if self._session is not None and self._session.should_transmit():
            self.data_transmissions += 1
            head = self._head
            assert head is not None
            return Transmission(head, self.channel, (head.hop_dest,))
        return None

    def _start_attempt(self, phase: int) -> None:
        """Retry gate at a phase boundary: maybe attempt the head."""
        head = self.buffer[0]
        if head.msg_id != self._attempt_msg_id:
            # Fresh head: reset the per-message retry state.
            self._attempt_msg_id = head.msg_id
            self.head_attempts = 0
            self._backoff_until_phase = 0
        if phase < self._backoff_until_phase:
            return
        self.head_attempts += 1
        self._attempt_phase = phase
        self._backoff_until_phase = (
            phase + 1 + min(BACKOFF_CAP, (1 << (self.head_attempts - 1)) - 1)
        )
        self._session = self.session_factory()
        self._head = head

    def failed_attempts(self, slot: int) -> int:
        """Completed, unacknowledged attempts for the current head.

        An attempt spans one Decay phase (its ack, if any, arrives within
        that same phase); an attempt whose phase is over without the head
        being acknowledged has therefore failed.  This is the watchdog's
        input: N failed attempts ⇒ suspect the next hop.
        """
        if self._attempt_msg_id is None:
            return 0
        if self.slots.phase_of(slot) > self._attempt_phase:
            return self.head_attempts
        return max(0, self.head_attempts - 1)

    def retarget(self, new_dest: NodeId, new_level: Optional[int] = None) -> None:
        """Re-address all buffered traffic to a new next hop.

        Called by the repair layer after a parent switch: every buffered
        message is re-hopped to ``new_dest``, the in-flight session is
        killed, and the per-message retry state is reset so the new parent
        gets a full retry budget.  ``new_level`` renumbers this station's
        BFS level (which selects its data slots).
        """
        self.buffer = deque(
            message.rehop(self.node_id, new_dest) for message in self.buffer
        )
        if new_level is not None:
            self.level = new_level
        if self._session is not None:
            self._session.kill()
        self._session = None
        self._head = None
        self._attempt_msg_id = None
        self._attempt_phase = -1
        self.head_attempts = 0
        self._backoff_until_phase = 0
        self.retargets += 1

    # ------------------------------------------------------------------
    # Receiving side
    # ------------------------------------------------------------------

    def accept_data(self, slot: int, message: DataMessage) -> bool:
        """Handle a received data message designated to this station.

        Schedules the deterministic acknowledgement for the next slot and
        reports whether the message is new (True) or a duplicate (False —
        impossible in the failure-free model; see ``strict``).  The caller
        routes new messages onward (enqueue on some lane, or deliver).
        """
        if message.hop_dest != self.node_id:
            raise ProtocolError(
                f"station {self.node_id!r} asked to accept a message "
                f"designated to {message.hop_dest!r}"
            )
        ack = AckMessage(message.msg_id, self.node_id, message.hop_sender)
        if self._pending_ack is not None:
            if self._pending_ack[0] <= slot:
                self._pending_ack = None  # expired while crashed
            else:
                raise ProtocolError(
                    f"station {self.node_id!r} has two pending acks; data "
                    f"arrived on an ack slot?"
                )
        self._pending_ack = (self.slots.ack_slot_after(slot), ack)
        if message.msg_id in self._accepted_ids:
            self.duplicates_seen += 1
            if self.strict:
                raise ProtocolError(
                    f"station {self.node_id!r} received duplicate message "
                    f"{message.msg_id!r}: acknowledgement determinism "
                    f"(Thm 3.1) was violated"
                )
            return False
        self._accepted_ids.add(message.msg_id)
        if self._dedup_window is not None:
            self._accepted_order.append(message.msg_id)
            while len(self._accepted_order) > self._dedup_window:
                self._accepted_ids.discard(self._accepted_order.popleft())
                self._evictions_since_rebuild += 1
            if self._evictions_since_rebuild >= self._dedup_window:
                # CPython sets never shrink on discard (dummy entries
                # accrete and the table keeps resizing up), so a churn
                # of W evictions rebuilds the set from the bounded
                # deque — amortized O(1), table size pinned to W.
                self._accepted_ids = set(self._accepted_order)
                self._evictions_since_rebuild = 0
        return True

    def accept_ack(self, ack: AckMessage) -> None:
        """Handle an acknowledgement designated to this station."""
        if ack.hop_dest != self.node_id:
            raise ProtocolError(
                f"station {self.node_id!r} asked to accept an ack "
                f"designated to {ack.hop_dest!r}"
            )
        if self.buffer and self.buffer[0].msg_id == ack.msg_id:
            self.buffer.popleft()
            self._earliest_phase.popleft()
            if self._total is not None:
                self._total.messages -= 1
            self._attempt_msg_id = None
            self.head_attempts = 0
            self._backoff_until_phase = 0
            if self._head is not None and self._head.msg_id == ack.msg_id:
                self._head = None
                if self._session is not None:
                    self._session.kill()
            return
        # An ack for something not at our head: cannot happen in the model
        # (we only ever have one in-flight message, and it is resent until
        # acked); tolerated when failures are being injected.
        if self.strict:
            raise ProtocolError(
                f"station {self.node_id!r} got ack for {ack.msg_id!r} "
                f"which is not its in-flight head"
            )

    def next_active_slot(self, slot: int) -> int:
        """The first slot >= ``slot`` this lane does anything in.

        The lane's activity is fully slot-determined: a scheduled ack
        fires at its due slot, and buffered data may only be transmitted
        in this level class's data slots (§2.2).  A live session draws
        one ``should_transmit`` coin per own data slot, so it must be
        polled on each of them (skipping one would shift the coin
        stream).  A head that arrived during the current phase may not
        be sent before the next one (§4.1, ``_earliest_phase``), so the
        lane sleeps to its first data slot of that phase: before it,
        :meth:`on_slot` would draw no coin and only reset a session that
        is already gone.  Once the lane has opened the current phase
        with no session or a dead one — the coin fell, the head was
        acked or retargeted, or is backing off — it does nothing until
        the next phase begins: a dead session draws no coin.  All other
        slots are provable no-ops, which is what feeds the engine's
        :meth:`~repro.radio.process.Process.quiet_until` fast path.  A
        reception re-wakes the owning process immediately, so new ack
        duty / forwarded traffic is never missed.
        """
        wake = QUIET_FOREVER
        if self._pending_ack is not None and self._pending_ack[0] >= slot:
            wake = self._pending_ack[0]
        if self.buffer and not self.muted:
            slots = self.slots
            phase = slots.phase_of(slot)
            start = slot
            eligible = self._earliest_phase[0]
            if eligible > phase:
                start = slots.first_slot_of_phase(eligible)
            elif self._session_phase == phase and (
                self._session is None or not self._session.alive
            ):
                start = slots.first_slot_of_phase(phase + 1)
            data = slots.next_data_slot_for(start, self.level)
            if data < wake:
                wake = data
        return wake

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No buffered traffic and no ack duty outstanding."""
        return not self.buffer and self._pending_ack is None

    def quiescent(self, slot: int) -> bool:
        """Like :attr:`idle`, but a stale ack duty does not count.

        A station that crashed holding a scheduled ack keeps it frozen
        until revival; once ``slot`` has passed the ack's due slot the
        duty can never fire, so for termination detection the lane is as
        good as idle.
        """
        if self.buffer:
            return False
        return self._pending_ack is None or self._pending_ack[0] < slot
