"""Constant-memory streaming estimators (shared sketches).

Born in the open-system service loop — a long-horizon run must never
retain per-message state — and now shared by every consumer that
computes KPIs online (the service loop, the scenario KPI processor):

* :class:`Welford` — numerically stable running mean/variance
  (Welford 1962), O(1) state.
* :class:`P2Quantile` — the P² dynamic quantile sketch of Jain &
  Chlamtac (CACM 1985): five markers tracking the p-quantile of an
  unbounded stream with piecewise-parabolic height adjustment, O(1)
  state, no samples stored.
* :class:`RateWindow` — event counts bucketed into fixed slot windows,
  keeping only the running aggregate (count, window tally, extrema).

SciPy/NumPy are deliberately not used here: the estimators run inside
the per-slot hot loop and must stay import-light; tests cross-validate
them against numpy and exact quantiles.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.errors import ConfigurationError


class Welford:
    """Running mean and variance (Welford's online algorithm)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance (n−1 denominator); 0 for fewer than 2 values."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
        }


#: The sojourn quantiles every latency-measuring sink sketches and the
#: KPI report pools (``latency_p50/p90/p99_phases``).
SOJOURN_QUANTILES = (0.5, 0.9, 0.99)


class P2Quantile:
    """P² single-quantile sketch (Jain & Chlamtac 1985).

    Tracks the ``p``-quantile of a stream with five markers whose
    heights are nudged toward their ideal positions by a piecewise
    parabolic (hence P²) interpolation — constant memory, one pass,
    no retained samples.  Exact until the fifth observation.
    """

    __slots__ = ("p", "_heights", "_positions", "_desired", "_increments",
                 "_initial", "count")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"quantile must be in (0,1), got {p}")
        self.p = p
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self.count = 0

    def add(self, value: float) -> None:
        self.count += 1
        if len(self._initial) < 5:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0,
                    1.0 + 2.0 * self.p,
                    1.0 + 4.0 * self.p,
                    3.0 + 2.0 * self.p,
                    5.0,
                ]
            return

        q = self._heights
        n = self._positions
        # Locate the cell and bump the extreme markers.
        if value < q[0]:
            q[0] = value
            k = 0
        elif value >= q[4]:
            q[4] = value
            k = 3
        else:
            k = 0
            while k < 3 and value >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]

        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = self._desired[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        q, n = self._heights, self._positions
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step)
            * (q[i] - q[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        q, n = self._heights, self._positions
        j = i + int(step)
        return q[i] + step * (q[j] - q[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """Current estimate of the p-quantile (NaN on an empty stream)."""
        if not self.count:
            return float("nan")
        if len(self._initial) < 5:
            ordered = sorted(self._initial)
            rank = self.p * (len(ordered) - 1)
            low = int(rank)
            high = min(low + 1, len(ordered) - 1)
            return ordered[low] + (rank - low) * (ordered[high] - ordered[low])
        return self._heights[2]


class RateWindow:
    """Event counts bucketed into fixed windows of ``window_slots`` slots.

    Keeps only O(1) state: the current window's tally plus aggregates of
    completed windows (count, sum, extrema, Welford moments) — the
    streaming form of a windowed-throughput series.
    """

    __slots__ = ("window_slots", "_window_index", "_tally", "windows",
                 "moments", "min_rate", "max_rate")

    def __init__(self, window_slots: int):
        if window_slots < 1:
            raise ConfigurationError("window must be >= 1 slot")
        self.window_slots = window_slots
        self._window_index = 0
        self._tally = 0.0
        self.windows = 0
        self.moments = Welford()
        self.min_rate = math.inf
        self.max_rate = -math.inf

    def record(self, slot: int) -> None:
        """Count one event at ``slot``."""
        index = slot // self.window_slots
        while index > self._window_index:
            self._close_window()
        self._tally += 1.0

    def _close_window(self) -> None:
        rate = self._tally / self.window_slots
        self.windows += 1
        self.moments.add(rate)
        self.min_rate = min(self.min_rate, rate)
        self.max_rate = max(self.max_rate, rate)
        self._tally = 0.0
        self._window_index += 1

    def finish(self, horizon_slot: int) -> None:
        """Close every window up to (excluding) ``horizon_slot``'s window."""
        final = horizon_slot // self.window_slots
        while final > self._window_index:
            self._close_window()

    @property
    def mean_rate(self) -> float:
        """Mean per-slot rate over completed windows."""
        if not self.windows:
            return float("nan")
        return self.moments.mean
