"""Backlog-drift stability test for open-system runs.

§4's stability condition is λ < µ: below it the tandem's queues are
positive recurrent and the time-averaged backlog converges; above it
backlog grows linearly in time.  The detector turns that dichotomy into
a constant-memory test on *windowed queue lengths*:

* a streaming least-squares regression of backlog against slot (running
  sums only) gives the backlog growth rate ``slope``;
* head/tail window means (the first and last ``EDGE_FRACTION`` of the
  measured span, accumulated online because the span is known up front)
  give the level shift ``tail_mean − head_mean``.

The run is declared **unstable** when both agree: the regression
projects a material rise over the measured span *and* the tail windows
actually sit materially above the head windows.  Requiring both keeps
the test robust on stable-but-noisy queues (a lucky early sample does
not condemn the run) and on unstable ones (linear growth moves both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.analysis.sketches import Welford
from repro.errors import ConfigurationError

#: Width of the head and tail comparison windows as a fraction of the
#: span: the first vs the last quarter.
EDGE_FRACTION = 0.25

#: Absolute rise (in messages) always tolerated: it absorbs the
#: integer-valued jitter of near-empty queues.
RISE_SLACK = 3.0

#: Relative rise tolerated: the tail may sit up to
#: ``RISE_FACTOR × max(1, head_mean)`` above the head before the shift
#: counts as drift.
RISE_FACTOR = 0.75


@dataclass(frozen=True)
class DriftVerdict:
    """Outcome of the stability test over one measured span."""

    stable: bool
    slope_per_kslot: float  # backlog growth per 1000 slots
    projected_rise: float  # slope × measured span, in messages
    head_mean: float
    tail_mean: float
    mean_backlog: float
    samples: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stable": self.stable,
            "slope_per_kslot": self.slope_per_kslot,
            "projected_rise": self.projected_rise,
            "head_mean": self.head_mean,
            "tail_mean": self.tail_mean,
            "mean_backlog": self.mean_backlog,
            "samples": self.samples,
        }


class BacklogDriftDetector:
    """Streaming stability test on backlog samples over a known span.

    ``start_slot`` and ``end_slot`` bound the measured span
    (post-warmup): samples outside it are ignored.
    """

    def __init__(self, start_slot: int, end_slot: int):
        if end_slot <= start_slot:
            raise ConfigurationError(
                f"empty drift span [{start_slot}, {end_slot})"
            )
        self.start_slot = start_slot
        self.end_slot = end_slot
        span = end_slot - start_slot
        self._head_end = start_slot + EDGE_FRACTION * span
        self._tail_start = end_slot - EDGE_FRACTION * span
        self._head = Welford()
        self._tail = Welford()
        self._all = Welford()
        # Running sums for the least-squares slope of backlog vs slot;
        # x is recentred on start_slot to keep the sums well-conditioned.
        self._n = 0
        self._sx = 0.0
        self._sy = 0.0
        self._sxx = 0.0
        self._sxy = 0.0

    def observe(self, slot: int, backlog: float) -> None:
        """Record one windowed backlog sample (O(1) state)."""
        if slot < self.start_slot or slot >= self.end_slot:
            return
        x = float(slot - self.start_slot)
        self._n += 1
        self._sx += x
        self._sy += backlog
        self._sxx += x * x
        self._sxy += x * backlog
        self._all.add(backlog)
        if slot < self._head_end:
            self._head.add(backlog)
        if slot >= self._tail_start:
            self._tail.add(backlog)

    @property
    def slope(self) -> float:
        """Least-squares backlog growth per slot (0 until 2 samples)."""
        if self._n < 2:
            return 0.0
        denom = self._n * self._sxx - self._sx * self._sx
        if denom == 0.0:
            return 0.0
        return (self._n * self._sxy - self._sx * self._sy) / denom

    def verdict(self) -> DriftVerdict:
        span = self.end_slot - self.start_slot
        slope = self.slope
        projected = slope * span
        head = self._head.mean if self._head.count else 0.0
        tail = self._tail.mean if self._tail.count else 0.0
        rise = tail - head
        allowed = max(RISE_SLACK, RISE_FACTOR * max(1.0, head))
        drifting = rise > allowed and projected > allowed
        return DriftVerdict(
            stable=not drifting,
            slope_per_kslot=slope * 1000.0,
            projected_rise=projected,
            head_mean=head,
            tail_mean=tail,
            mean_backlog=self._all.mean if self._all.count else 0.0,
            samples=self._n,
        )
