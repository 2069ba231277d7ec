"""Arrival processes for reactive (streaming) workloads.

The paper's protocols are reactive — "invoked whenever a source
originates a message" (§1.4) — and its §4 analysis models arrivals as a
Bernoulli process with rate λ < µ.  This module supplies the arrival
processes experiments drive the protocols with:

* :class:`BernoulliArrivals` — the analysis's own model: each phase,
  each source independently originates a message with probability λ.
* :class:`PoissonArrivals` — continuous-time traffic: per-station
  ``expovariate`` inter-arrival streams (the Meshtasticator generator
  idiom), discretized onto slots.
* :class:`DeterministicSchedule` — scripted (slot, source, payload)
  triples, for tests and trace replay.
* :class:`BurstArrivals` — periodic synchronized bursts (every source
  fires every ``period`` phases), the classic sensor-sampling pattern.

All processes yield per-slot batches so drivers can inject mid-run,
and name the next slot that has one (``next_arrival_slot``), so a
driver can jump over the slots between arrivals.

Determinism contract
--------------------
Stochastic processes are *slot-indexed*: the batch returned for a slot
is a pure function of ``(seed, slot)``, derived through the
:mod:`repro.rng` sha256 scheme rather than drawn from a shared
``random.Random`` in call order.  Two drivers that poll different slot
subsets (e.g. an idle-aware loop that skips quiet stretches) therefore
see byte-identical arrival sequences on the slots they do poll, and an
arrival process can be re-created mid-run without perturbing anything.
:class:`PoissonArrivals` is the one sequential process (inter-arrival
gaps accumulate); its per-station streams are still seed-derived and
its queries must be slot-monotone — arrivals that fall into skipped
slots are emitted, never lost, at the next polled slot.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.graphs.graph import NodeId
from repro.radio.process import QUIET_FOREVER
from repro.rng import child_rng, derive_seed

#: How many phases ahead :meth:`BernoulliArrivals.next_arrival_slot`
#: draws before it settles for the end of its look-ahead: a driver never
#: pays for many coin draws past its horizon, even at a tiny rate.
BERNOULLI_LOOKAHEAD_PHASES = 64


class ArrivalProcess:
    """Base: maps a slot to the (source, payload) arrivals at that slot."""

    def arrivals_at(self, slot: int) -> List[Tuple[NodeId, Any]]:
        raise NotImplementedError

    def next_arrival_slot(self, slot: int) -> int:
        """A slot >= ``slot`` before which :meth:`arrivals_at` is empty.

        The four processes here return the next slot that has an
        arrival, or :data:`~repro.radio.process.QUIET_FOREVER` if none
        ever will (:class:`BernoulliArrivals` looks at most
        :data:`BERNOULLI_LOOKAHEAD_PHASES` phases ahead); this default
        claims nothing and returns ``slot``.
        """
        return slot


@dataclass
class DeterministicSchedule(ArrivalProcess):
    """Scripted arrivals: an explicit (slot, source, payload) list."""

    events: Sequence[Tuple[int, NodeId, Any]]

    def __post_init__(self) -> None:
        self._by_slot: Dict[int, List[Tuple[NodeId, Any]]] = {}
        for slot, source, payload in self.events:
            if slot < 0:
                raise ConfigurationError(f"negative arrival slot {slot}")
            self._by_slot.setdefault(slot, []).append((source, payload))
        self._slots = sorted(self._by_slot)

    def arrivals_at(self, slot: int) -> List[Tuple[NodeId, Any]]:
        return self._by_slot.get(slot, [])

    def next_arrival_slot(self, slot: int) -> int:
        index = bisect.bisect_left(self._slots, slot)
        if index == len(self._slots):
            return QUIET_FOREVER
        return self._slots[index]


def _require_seed(seed: object) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError(
            "arrival processes take an integer seed and derive their "
            "slot-indexed streams via repro.rng (a shared random.Random "
            "would make arrivals depend on poll order); got "
            f"{type(seed).__name__}"
        )
    return seed


class BernoulliArrivals(ArrivalProcess):
    """Each source fires independently with probability λ per *phase*.

    The §4 analysis counts time in Decay phases, so the rate is applied
    once per ``phase_length`` slots (at the phase's first slot); passing
    ``phase_length=1`` gives per-slot Bernoulli arrivals instead.

    The coin flips of phase p are drawn from the derived stream
    ``child_rng(seed, "bernoulli-phase", p)`` in fixed source order, so
    the batch at any slot is a pure function of ``(seed, slot)``.
    """

    def __init__(
        self,
        sources: Iterable[NodeId],
        rate: float,
        phase_length: int,
        seed: int,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0,1], got {rate}")
        if phase_length < 1:
            raise ConfigurationError("phase_length must be >= 1")
        self.sources = tuple(sources)
        self.rate = rate
        self.phase_length = phase_length
        self.seed = _require_seed(seed)
        # The last look-ahead of next_arrival_slot: phases [first, last)
        # draw no arrival, and ``batch`` is phase ``last``'s draw.
        self._ahead: Tuple[int, int, List[Tuple[NodeId, Any]]] = (0, -1, [])

    def _draw(self, phase: int) -> List[Tuple[NodeId, Any]]:
        rng = child_rng(self.seed, "bernoulli-phase", phase)
        return [
            (source, ("bernoulli", source, phase))
            for source in self.sources
            if rng.random() < self.rate
        ]

    def arrivals_at(self, slot: int) -> List[Tuple[NodeId, Any]]:
        if slot % self.phase_length != 0:
            return []
        phase = slot // self.phase_length
        first, last, batch = self._ahead
        if phase == last:
            return list(batch)
        if first <= phase < last:
            return []
        return self._draw(phase)

    def next_arrival_slot(self, slot: int) -> int:
        """The next phase start with an arrival, drawing each phase's
        coins once (:meth:`arrivals_at` reuses the draw); past
        :data:`BERNOULLI_LOOKAHEAD_PHASES` empty phases it returns the
        last phase start it drew."""
        if self.rate == 0.0 or not self.sources:
            return QUIET_FOREVER
        phase = -(-slot // self.phase_length)
        first, last, _batch = self._ahead
        if not first <= phase <= last:
            first = last = phase
            batch = self._draw(last)
            while not batch and last < first + BERNOULLI_LOOKAHEAD_PHASES:
                last += 1
                batch = self._draw(last)
            self._ahead = (first, last, batch)
        return last * self.phase_length


class PoissonArrivals(ArrivalProcess):
    """Per-station Poisson streams: expovariate inter-arrival times.

    Each station draws successive inter-arrival gaps (in slots) from its
    own ``random.Random.expovariate`` stream, seeded with
    ``child_rng(seed, "poisson", source)`` — statistically independent
    stations, reproducible from the experiment seed alone.  Gaps
    accumulate on a continuous clock from slot 0, and an arrival
    materializes in the slot its arrival time falls into.

    Queries must be slot-monotone (drivers step forward in time).  A
    query may jump forward over skipped slots; arrivals that landed in
    the gap are emitted at the queried slot, so no traffic is ever lost
    to idle-aware slot skipping.
    """

    def __init__(
        self,
        sources: Iterable[NodeId],
        mean_interarrival_slots: float,
        seed: int,
    ):
        if not mean_interarrival_slots > 0.0:
            raise ConfigurationError(
                "mean inter-arrival must be > 0 slots, got "
                f"{mean_interarrival_slots}"
            )
        self.sources = tuple(sources)
        self.mean_interarrival_slots = float(mean_interarrival_slots)
        self.seed = _require_seed(seed)
        lam = 1.0 / self.mean_interarrival_slots
        self._rngs = {
            source: child_rng(self.seed, "poisson", source)
            for source in self.sources
        }
        # Continuous next-arrival time per station (the Meshtasticator
        # `nextGen = random.expovariate(1/period)` generator idiom).
        self._next_time = {
            source: self._rngs[source].expovariate(lam)
            for source in self.sources
        }
        self._count = {source: 0 for source in self.sources}
        self._lambda = lam
        self._last_slot = -1
        self._first_due = self._earliest()

    def _earliest(self) -> int:
        """The slot the earliest pending arrival time falls into."""
        if not self._next_time:
            return QUIET_FOREVER
        return math.floor(min(self._next_time.values()))

    @classmethod
    def per_phase_rate(
        cls,
        sources: Iterable[NodeId],
        rate: float,
        phase_length: int,
        seed: int,
    ) -> "PoissonArrivals":
        """Poisson traffic matched to a per-phase offered load.

        ``rate`` messages per source per phase of ``phase_length`` slots
        — the calibration that makes Poisson and Bernoulli workloads
        comparable at the same λ.
        """
        if not rate > 0.0:
            raise ConfigurationError(f"rate must be > 0, got {rate}")
        if phase_length < 1:
            raise ConfigurationError("phase_length must be >= 1")
        return cls(sources, phase_length / rate, seed)

    def arrivals_at(self, slot: int) -> List[Tuple[NodeId, Any]]:
        if slot < self._last_slot:
            raise ConfigurationError(
                f"PoissonArrivals polled backwards: slot {slot} after "
                f"{self._last_slot} (queries must be monotone)"
            )
        self._last_slot = slot
        horizon = slot + 1.0
        out: List[Tuple[NodeId, Any]] = []
        for source in self.sources:
            next_time = self._next_time[source]
            while next_time < horizon:
                out.append(
                    (source, ("poisson", source, self._count[source]))
                )
                self._count[source] += 1
                next_time += self._rngs[source].expovariate(self._lambda)
            self._next_time[source] = next_time
        self._first_due = self._earliest()
        return out

    def next_arrival_slot(self, slot: int) -> int:
        # An arrival time t falls into slot floor(t): arrivals_at(s)
        # emits every t < s + 1.
        return max(slot, self._first_due)


class BurstArrivals(ArrivalProcess):
    """Every source fires every ``period`` slots, optionally jittered.

    With ``jitter > 0`` each (burst, source) pair is offset into its
    burst window by a uniform draw from ``[0, min(jitter, period-1)]``
    slots, derived from ``(seed, burst, ...)`` — a pure function of the
    queried slot, so jittered bursts stay stable under slot skipping.
    """

    def __init__(
        self,
        sources: Iterable[NodeId],
        period: int,
        bursts: int,
        jitter: int = 0,
        seed: Optional[int] = None,
    ):
        if period < 1:
            raise ConfigurationError("period must be >= 1")
        if bursts < 0:
            raise ConfigurationError("bursts must be >= 0")
        if jitter < 0:
            raise ConfigurationError("jitter must be >= 0")
        if jitter > 0 and seed is None:
            raise ConfigurationError(
                "jittered bursts need a seed for their derived offsets"
            )
        self.sources = tuple(sources)
        self.period = period
        self.bursts = bursts
        self.jitter = min(jitter, period - 1)
        self.seed = None if seed is None else _require_seed(seed)
        self._offsets_burst = -1
        self._offsets: Dict[int, List[NodeId]] = {}

    def _burst_offsets(self, burst: int) -> Dict[int, List[NodeId]]:
        """Offset → sources map for one burst (cached, pure in burst)."""
        if burst != self._offsets_burst:
            rng = child_rng(self.seed or 0, "burst-jitter", burst)
            offsets: Dict[int, List[NodeId]] = {}
            for source in self.sources:
                offset = rng.randint(0, self.jitter) if self.jitter else 0
                offsets.setdefault(offset, []).append(source)
            self._offsets_burst = burst
            self._offsets = offsets
        return self._offsets

    def next_arrival_slot(self, slot: int) -> int:
        if not self.sources:
            return QUIET_FOREVER
        burst, within = divmod(slot, self.period)
        while burst < self.bursts:
            offsets = self._burst_offsets(burst) if self.jitter else (0,)
            later = [offset for offset in offsets if offset >= within]
            if later:
                return burst * self.period + min(later)
            burst, within = burst + 1, 0
        return QUIET_FOREVER

    def arrivals_at(self, slot: int) -> List[Tuple[NodeId, Any]]:
        burst, within = divmod(slot, self.period)
        if burst >= self.bursts:
            return []
        if self.jitter == 0:
            if within != 0:
                return []
            return [
                (source, ("burst", burst, source))
                for source in self.sources
            ]
        return [
            (source, ("burst", burst, source))
            for source in self._burst_offsets(burst).get(within, ())
        ]


def arrivals_for(
    params: Dict[str, Any],
    sources: Sequence[NodeId],
    phase_length: int,
    seed: int,
) -> Optional[ArrivalProcess]:
    """The arrival process a cell's scalars name, seeded from ``seed``.

    ``params["arrival"]``: ``"none"`` (a closed workload; returns None),
    ``"bernoulli"`` or ``"poisson"`` at ``rate`` messages per source per
    phase, or ``"burst"`` (``bursts`` flashes every ``period`` phases,
    ``jitter`` slots of spread).
    """
    kind = params.get("arrival", "none")
    arrival_seed = derive_seed(seed, "arrivals")
    if kind == "none":
        return None
    if kind == "bernoulli":
        return BernoulliArrivals(
            sources, params["rate"], phase_length, seed=arrival_seed
        )
    if kind == "poisson":
        return PoissonArrivals.per_phase_rate(
            sources, params["rate"], phase_length, seed=arrival_seed
        )
    if kind == "burst":
        return BurstArrivals(
            sources,
            period=params["period"] * phase_length,
            bursts=params["bursts"],
            jitter=params.get("jitter", 0),
            seed=arrival_seed,
        )
    raise ConfigurationError(f"unknown arrival kind {kind!r}")
