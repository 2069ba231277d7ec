"""Discrete-time Bernoulli-server (Geo/Geo/1) simulation.

Companion to :mod:`repro.queueing.analysis`: simulates the single server
the paper's §4.3 builds on, recording everything the closed forms predict —
the stationary queue-length distribution, the mean queue length, sojourn
times (Little's law), and the departure process (Hsu–Burke: Bernoulli(λ)
in steady state).

Convention (matching the radio chain): in each time step the server first
serves the *pre-arrival* queue (success w.p. µ if non-empty), then a new
customer arrives w.p. λ — so a customer arriving in step t can depart no
earlier than step t+1, exactly like a message that enters a BFS level in
one phase and leaves it in a later phase.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.errors import ConfigurationError


class BernoulliServer:
    """One discrete-time server with geometric service.

    Drive it with :meth:`step`; composition into tandems is done by
    feeding one server's departures to the next (see
    :mod:`repro.queueing.tandem`).
    """

    def __init__(self, mu: float, rng: random.Random):
        if not 0.0 < mu <= 1.0:
            raise ConfigurationError(f"service rate must be in (0,1], got {mu}")
        self.mu = mu
        self._rng = rng
        self.queue = 0

    def step(self, arrival: bool) -> bool:
        """Advance one time step; returns whether a customer departed."""
        departed = False
        if self.queue > 0 and self._rng.random() < self.mu:
            self.queue -= 1
            departed = True
        if arrival:
            self.queue += 1
        return departed


@dataclass
class SingleServerObservation:
    """Measurements from one long single-server run."""

    steps: int
    lam: float
    mu: float
    queue_length_histogram: Dict[int, int] = field(default_factory=dict)
    departures: int = 0
    sojourn_times: List[int] = field(default_factory=list)
    interdeparture_times: List[int] = field(default_factory=list)

    def empirical_p(self, j: int) -> float:
        """Fraction of observed steps with queue length j."""
        return self.queue_length_histogram.get(j, 0) / max(1, self.steps)

    @property
    def mean_queue_length(self) -> float:
        total = sum(j * c for j, c in self.queue_length_histogram.items())
        return total / max(1, self.steps)

    @property
    def mean_sojourn_time(self) -> float:
        if not self.sojourn_times:
            return 0.0
        return sum(self.sojourn_times) / len(self.sojourn_times)

    @property
    def departure_rate(self) -> float:
        return self.departures / max(1, self.steps)


def observe_single_server(
    lam: float,
    mu: float,
    steps: int,
    rng: random.Random,
) -> SingleServerObservation:
    """Run one Geo/Geo/1 server and record stationary statistics.

    ``steps // 10`` warm-up steps are run first and excluded from every
    statistic so the measurements approximate steady state.  Sojourn
    times are tracked FIFO via arrival timestamps.
    """
    if not 0.0 < lam < 1.0:
        raise ConfigurationError(f"arrival rate must be in (0,1), got {lam}")
    if lam >= mu:
        raise ConfigurationError(f"stability requires λ < µ ({lam} >= {mu})")
    if steps < 1:
        raise ConfigurationError("need at least one step")
    warmup = steps // 10
    server = BernoulliServer(mu, rng)
    arrivals_in_queue: Deque[int] = deque()
    observation = SingleServerObservation(steps=steps, lam=lam, mu=mu)
    last_departure: Optional[int] = None
    for t in range(warmup + steps):
        measuring = t >= warmup
        if measuring:
            # Queue length sampled at the start of the step (pre-service),
            # matching the stationary p_j convention.
            histogram = observation.queue_length_histogram
            histogram[server.queue] = histogram.get(server.queue, 0) + 1
        arrival = rng.random() < lam
        departed = server.step(arrival)
        if departed:
            arrived_at = arrivals_in_queue.popleft() if arrivals_in_queue else None
            if measuring:
                observation.departures += 1
                if arrived_at is not None:
                    observation.sojourn_times.append(t - arrived_at)
                if last_departure is not None:
                    observation.interdeparture_times.append(t - last_departure)
            last_departure = t
        if arrival:
            arrivals_in_queue.append(t)
    return observation


def interdeparture_histogram(
    observation: SingleServerObservation, max_gap: int
) -> Dict[int, float]:
    """Empirical distribution of interdeparture gaps, up to ``max_gap``.

    Hsu–Burke predicts geometric gaps: ``P(gap = g) = λ(1−λ)^(g−1)``.
    """
    counts: Dict[int, int] = {}
    for gap in observation.interdeparture_times:
        key = min(gap, max_gap)
        counts[key] = counts.get(key, 0) + 1
    total = max(1, len(observation.interdeparture_times))
    return {gap: count / total for gap, count in sorted(counts.items())}
