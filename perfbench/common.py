"""Shared pieces of the benchmark: the per-operation record and statistics.

Every workload module exposes the same four names, which ``run.py``
drives:

* ``CONTEXT`` — the workload's fixed sizes, printed with every run;
* ``setup(seed, work)`` — builds the inputs from the seed (timed several
  times for ``setup_s``); ``work`` is a scratch directory inside the
  checkout;
* ``run_op(inputs, index, traced)`` — one closed-loop operation, which
  returns an :class:`Op`; ``traced`` asks it to attribute time to layers
  through the ambient profiler (``repro.profiling.profiled``);
* ``ledger(inputs, untraced, traced, work)`` — the per-layer metrics of
  a traced run, from the operations it ran.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Sequence

#: A second seed kept out of every tuning run: a later speed claim must
#: also hold on it (the choosing-metrics rule on held-out data).
HELD_OUT_SEED = 20261016

#: Topologies are part of a workload, not of the seed: a run's cost
#: swings with a field's depth and degrees, so seeded fields would make
#: runs with different seeds do different amounts of work.  The seed
#: draws placements, arrivals and every protocol coin.
FIELD_SEED = 1989

#: The scalar radio's profiled slot-loop phases (``repro.radio.network``).
PHASES = ("intents", "reception", "slot_end")

#: Iterations of :func:`reference_loop` per host-speed sample.
REF_ITERATIONS = 4000
#: Untimed iterations before each sample.
REF_WARMUP = 1000
#: Seconds one sample takes at the nominal host speed that every
#: end-to-end time is rescaled to; any fixed value would do.
REF_NOMINAL_S = 0.00045
#: Seconds between host-speed samples while an operation runs.
SAMPLE_INTERVAL_S = 0.05


def reference_loop(iterations: int) -> int:
    """Fixed pure-Python work: set inserts and small-tuple allocation.

    It never changes, so its time measures only how fast the host runs
    Python at that moment.  Of the loops tried, this allocation-heavy one
    slows most like the workloads do: their wall time goes as the 0.93th
    to 1.06th power of its time.  Tight arithmetic or dict loops slow
    less than the workloads, and loops over large tables much less.
    """
    seen = set()
    pending = []
    for i in range(iterations):
        seen.add(i & 255)
        pending.append((i, i & 7))
        if len(pending) > 64:
            pending.clear()
    return len(seen)


class HostSpeed:
    """Samples the host's speed while a timed section runs.

    On a small shared host the same operation runs up to 60% slower for
    a fraction of a second to minutes at a time, with its CPU time
    slowing alike.  Inside ``with HostSpeed() as speed:`` an interval
    timer interrupts the section every ``SAMPLE_INTERVAL_S`` seconds to
    time :func:`reference_loop` (about 1% of the section's wall), and
    once more at each end.  ``speed.scale`` is the mean of nominal ÷
    measured sample time: below 1 while the host was slow.  A wall time
    times ``scale`` reads as at nominal speed.  Every workload's
    operation times follow the samples closely (correlation 0.97 to 0.99
    on repeated identical operations), so the rescaled times stay steady
    while the raw ones swing.

    The timer is ``SIGALRM``, so this works in the main thread only, and
    the timed code must tolerate interrupted system calls (Python
    retries them).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous: Any = None

    def _sample(self, *_args: Any) -> None:
        # The loop's allocations must not set off a garbage collection:
        # that would traverse the workload's heap and charge it here.
        collecting = gc.isenabled()
        gc.disable()
        # An untimed first pass refills the caches the workload evicted,
        # which would otherwise charge the workload's state to the host.
        reference_loop(REF_WARMUP)
        started = time.perf_counter()
        reference_loop(REF_ITERATIONS)
        self.samples.append(time.perf_counter() - started)
        if collecting:
            gc.enable()

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(
            signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def scale(self) -> float:
        return sum(REF_NOMINAL_S / s for s in self.samples) / len(self.samples)


@dataclass
class Op:
    """One timed operation of a workload.

    ``attempted`` counts the operations inside it (a protocol call, a
    batch replication, a service run); ``failures`` holds
    one line per operation that raised or failed its correctness check.
    """

    wall: float
    slots: int
    attempted: int
    failures: List[str] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)
    #: :attr:`HostSpeed.scale` over the operation (set by ``run.py``).
    scale: float = 1.0

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    @property
    def nominal_wall(self) -> float:
        """``wall`` rescaled to the nominal host speed."""
        return self.wall * self.scale

    @property
    def nominal_slots_per_s(self) -> float:
        """Simulated slots per second at the nominal host speed."""
        return self.slots / self.nominal_wall


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def paired_overhead(untraced: Sequence[Op], traced: Sequence[Op]) -> float:
    """Median of traced ÷ untraced wall − 1 over identical operations."""
    return median([t.wall / u.wall for u, t in zip(untraced, traced)]) - 1.0


def poll_share(counters: Dict[str, int]) -> float:
    """polled ÷ (polled + skipped) from a scalar-radio profile."""
    polled = counters.get("polled", 0)
    return ratio(polled, polled + counters.get("skipped", 0))


def merged(profiles: Sequence[Any]) -> Any:
    """Sum several ``SlotLoopProfile`` objects into a new one."""
    from repro.profiling import SlotLoopProfile

    total = SlotLoopProfile()
    for profile in profiles:
        for phase, seconds in profile.seconds.items():
            total.seconds[phase] = total.seconds.get(phase, 0.0) + seconds
        for counter, amount in profile.counters.items():
            total.bump(counter, amount)
    return total


def radio_layer(profile: Any, traced_wall: float, n: int) -> Dict[str, float]:
    """The scalar radio's share of a traced run, from its profile.

    Shares are of the traced operations' wall time; the remainder is
    protocol set-up and the calling code around the slot loop.
    """
    seconds = profile.seconds
    loop = sum(seconds.get(f"scalar/{p}", 0.0) for p in PHASES)
    slots = profile.counters.get("scalar_slots", 0)
    layer = {
        f"radio.{phase}_share": ratio(
            seconds.get(f"scalar/{phase}", 0.0), traced_wall
        )
        for phase in PHASES
    }
    layer["radio.poll_share"] = poll_share(profile.counters)
    layer["radio.ns_per_station_slot"] = ratio(loop * 1e9, slots * n)
    return layer
