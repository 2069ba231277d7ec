"""The multiplexed slot schedule shared by the tree protocols.

The paper composes three time-multiplexing mechanisms:

* **Decay phases** (§1.4): the basic unit of progress is one invocation of
  Decay, lasting ``decay_budget = 2·ceil(log2 Δ)`` transmission
  opportunities.
* **Level classes** (§2.2): a node at BFS level i may transmit only when
  the current slot's class equals ``i mod 3``, which prevents collisions
  between non-adjacent levels ("increases the duration … by a factor of 3").
* **Ack slots** (§3): "the odd time slots are dedicated to the original
  protocol and the even ones to acknowledgements" — every data slot is
  immediately followed by an ack slot ("slows down the protocol by a
  factor of 2").

:class:`SlotStructure` fixes one concrete interleaving honouring all three:
a *phase* consists of ``decay_budget`` rounds; each round contains, for
each level class j in order, one data slot (class j transmits a Decay step)
immediately followed by its ack slot.  Every station derives the whole
schedule from the global slot number alone — no coordination needed, which
is exactly how the paper's synchronous model intends it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError


class SlotKind(Enum):
    """What a given slot is for."""

    DATA = "data"
    ACK = "ack"


def decay_budget(max_degree: int) -> int:
    """The paper's Decay repetition budget, ``2·ceil(log2 Δ)`` (minimum 2).

    ``max_degree`` is the upper bound on Δ that every station knows
    a priori (§1.1).  Δ ≤ 1 degenerates to a budget of 2: one guaranteed
    transmission plus one coin-gated repeat, enough for conflict-free
    topologies.
    """
    if max_degree < 0:
        raise ConfigurationError(f"max degree must be >= 0, got {max_degree}")
    return max(2, 2 * math.ceil(math.log2(max(2, max_degree))))


@dataclass(frozen=True)
class SlotInfo:
    """Decoded meaning of one global slot."""

    slot: int
    phase: int  # which Decay phase this slot belongs to
    decay_step: int  # 0-based step within the phase
    level_class: int  # which (level mod classes) may transmit data
    kind: SlotKind  # data or acknowledgement


class SlotStructure:
    """Decoder from global slot numbers to the multiplexed schedule.

    Parameters
    ----------
    decay_budget:
        Transmission opportunities per Decay invocation (per level class).
    level_classes:
        3 in the paper (§2.2); 1 disables level multiplexing (used by the
        ablation experiment E11 and by protocols that are single-level by
        construction, like the BFS expansion stages).
    with_acks:
        Whether each data slot is followed by an ack slot (§3).  Protocols
        without per-message destinations (distribution, §6) turn this off.
    """

    def __init__(
        self,
        decay_budget: int,
        level_classes: int = 3,
        with_acks: bool = True,
    ):
        if decay_budget < 1:
            raise ConfigurationError(
                f"decay budget must be >= 1, got {decay_budget}"
            )
        if level_classes < 1:
            raise ConfigurationError(
                f"need >= 1 level class, got {level_classes}"
            )
        self.decay_budget = decay_budget
        self.level_classes = level_classes
        self.with_acks = with_acks
        self._width = 2 if with_acks else 1
        #: Slots per round: one data slot (plus its ack slot) per class.
        self.round_width = level_classes * self._width
        self.phase_length = decay_budget * self.round_width

    def decode(self, slot: int) -> SlotInfo:
        """Decode a global slot number."""
        phase, within_phase = divmod(slot, self.phase_length)
        decay_step, within_round = divmod(within_phase, self.round_width)
        level_class, sub = divmod(within_round, self._width)
        kind = SlotKind.ACK if (self.with_acks and sub == 1) else SlotKind.DATA
        return SlotInfo(
            slot=slot,
            phase=phase,
            decay_step=decay_step,
            level_class=level_class,
            kind=kind,
        )

    def data_offset(self, level: int) -> int:
        """Where BFS ``level``'s data slot sits within each round.

        Phases tile rounds uniformly, so the data slots of level class c
        are exactly the slots congruent to ``c * width (mod
        round_width)``: the class's data slot sits at offset
        ``c * width`` within each round of ``level_classes * width``
        slots.  The per-slot checks below are this arithmetic, with no
        :meth:`decode`.
        """
        return (level % self.level_classes) * self._width

    def is_data_slot_for(self, slot: int, level: int) -> bool:
        """Whether a node at BFS ``level`` may transmit data in ``slot``."""
        return slot % self.round_width == self.data_offset(level)

    def next_data_slot_for(self, slot: int, level: int) -> int:
        """The first slot >= ``slot`` in which BFS ``level`` may send data.

        Exact schedule arithmetic for the idle fast path (see
        :meth:`data_offset`).
        """
        return slot + (self.data_offset(level) - slot) % self.round_width

    def ack_slot_after(self, data_slot: int) -> int:
        """The ack slot paired with ``data_slot`` (the next slot, §3)."""
        if not self.with_acks:
            raise ConfigurationError("this schedule has no ack slots")
        if data_slot % self._width:
            raise ConfigurationError(f"slot {data_slot} is not a data slot")
        return data_slot + 1

    def phase_of(self, slot: int) -> int:
        return slot // self.phase_length

    def first_slot_of_phase(self, phase: int) -> int:
        return phase * self.phase_length

    def slots_for_phases(self, phases: int) -> int:
        """Total slots consumed by ``phases`` complete phases."""
        return phases * self.phase_length
