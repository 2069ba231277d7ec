"""Lightweight slot-loop profiling: per-phase wall-clock accumulators.

Perf work on the simulation engines needs a measurement the optimizer
can trust *before* cutting: where do the slot loops actually spend their
time — polling processes, resolving receptions, end-of-slot bookkeeping,
the vector kernels?  This module provides that as a near-zero-overhead
accumulator:

* :class:`SlotLoopProfile` — named ``perf_counter`` buckets (seconds +
  sample counts) plus plain event counters;
* :func:`profiled` — a context manager installing one profile as the
  *ambient* profile of the process.  Engines pick it up at construction
  time (``profiling.current_profile()``) and, when one is active, wrap
  each phase of their slot loop in a pair of clock reads.  With no
  ambient profile the hot loops pay a single ``is None`` check per
  phase — nothing else.

The ambient-profile design is what lets ``python -m repro profile
<EXP_ID>`` measure a whole registered experiment without threading a
profiler argument through every task function: the CLI runs the
experiment inline (workers=0, no cache) under :func:`profiled` and every
network built inside attributes its slot loop to the same profile.

Profiles are process-local: sharded (``workers >= 1``) runs construct
their networks in worker processes where no ambient profile is active,
so profiling is an inline-gear tool by design.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional


class SlotLoopProfile:
    """Accumulated per-phase timings and counters for the slot loops.

    ``add(phase, seconds)`` accumulates one timed section; ``bump``
    counts events (slots stepped, processes polled/skipped, …).  The
    :meth:`report` dict is JSON-safe and stable-ordered, ready for the
    ``profile`` CLI and for committing alongside benchmark results.
    """

    #: The clock all sections use; exposed so engines call
    #: ``profiler.clock()`` without importing :mod:`time` logic twice.
    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate one timed section of ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.samples[phase] = self.samples.get(phase, 0) + 1

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a plain event counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def report(self) -> Dict[str, Any]:
        """A JSON-safe phase breakdown, largest phase first."""
        total = self.total_seconds
        phases = [
            {
                "phase": phase,
                "seconds": round(self.seconds[phase], 6),
                "share": round(self.seconds[phase] / total, 4)
                if total > 0
                else 0.0,
                "samples": self.samples[phase],
            }
            for phase in sorted(
                self.seconds, key=self.seconds.get, reverse=True
            )
        ]
        return {
            "total_seconds": round(total, 6),
            "phases": phases,
            "counters": dict(sorted(self.counters.items())),
        }

    def summary(self) -> str:
        return json.dumps(self.report(), indent=2)


_ACTIVE: Optional[SlotLoopProfile] = None


def current_profile() -> Optional[SlotLoopProfile]:
    """The ambient profile engines should report to (None = disabled)."""
    return _ACTIVE


@contextmanager
def profiled() -> Iterator[SlotLoopProfile]:
    """Install a fresh profile as the ambient profile.

    Every engine constructed inside the ``with`` block accumulates its
    slot-loop phases into the yielded profile; the previous ambient
    profile (usually None) is restored on exit.
    """
    global _ACTIVE
    profile = SlotLoopProfile()
    previous = _ACTIVE
    _ACTIVE = profile
    try:
        yield profile
    finally:
        _ACTIVE = previous
