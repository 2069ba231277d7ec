"""The four models of §4.2 and the tandem-queue simulations behind them.

The paper's reduction chain (proved by Lemmas 4.10–4.15, reproduced as
experiment E4):

* **Model 1** — the radio network itself: k messages placed on a BFS tree,
  one Decay phase per step; Theorem 4.1 guarantees each loaded level
  advances a message with probability ≥ µ.  (Simulated by
  :func:`repro.core.collection.run_collection`; the adapter
  :func:`radio_completion_phases` converts its output to phases.)
* **Model 2** — a path of D+1 nodes, all level-i messages collapsed onto
  node i, at most one message moves per node per step, with probability
  *exactly* µ; no arrivals.
* **Model 3** — same servers, but the k messages are not initially present:
  they arrive at node D as a Bernoulli(λ) stream (λ < µ); queues start
  empty.
* **Model 4** — model 3 started in steady state: each server's queue is
  initialized from the stationary Geo/Geo/1 distribution; completion is
  the time for k *additional* messages to arrive and drain (since the
  tandem is overtake-free, that is exactly the time for the whole system,
  reservoir included, to empty).

The chain E[T₁] ≤ E[T₂] ≤ E[T₃] ≤ E[T₄] makes Theorem 4.3's closed form
for model 4 an upper bound for the radio protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.queueing.analysis import (
    sample_stationary_queue_length,
    tandem_completion_time,
)
from repro.queueing.moves import (
    is_empty,
    move,
    random_move_vector,
)

#: Phases a tandem simulation may run before it raises.
DEFAULT_STEP_LIMIT = 10**7


@dataclass
class TandemRunResult:
    """Outcome of one tandem simulation."""

    steps: int  # completion time in phases
    depth: int
    delivered: int
    initial_backlog: int  # messages already in queues at t=0 (model 4)


def _run_to_empty(
    state: Tuple[int, ...],
    mu: float,
    lam: float,
    rng: random.Random,
) -> int:
    steps = 0
    while not is_empty(state):
        steps += 1
        if steps > DEFAULT_STEP_LIMIT:
            raise ConfigurationError(
                f"tandem simulation exceeded {DEFAULT_STEP_LIMIT} steps"
            )
        state = move(state, random_move_vector(len(state), mu, lam, rng))
    return steps


def simulate_model2(
    initial_levels: Sequence[int],
    mu: float,
    rng: random.Random,
) -> TandemRunResult:
    """Model 2: messages pre-placed on the path, no arrivals.

    ``initial_levels[i]`` is the load of level i+1 (so a partition of
    length D); the reservoir is empty.
    """
    levels = tuple(int(x) for x in initial_levels)
    if any(x < 0 for x in levels):
        raise ConfigurationError("loads must be non-negative")
    state = levels + (0,)
    k = sum(levels)
    steps = _run_to_empty(state, mu, lam=0.0, rng=rng)
    return TandemRunResult(
        steps=steps, depth=len(levels), delivered=k, initial_backlog=0
    )


def simulate_model3(
    k: int,
    depth: int,
    mu: float,
    lam: float,
    rng: random.Random,
) -> TandemRunResult:
    """Model 3: queues start empty; k messages arrive Bernoulli(λ)."""
    if k < 0 or depth < 1:
        raise ConfigurationError("need k >= 0 and depth >= 1")
    state = (0,) * depth + (k,)
    steps = _run_to_empty(state, mu, lam, rng)
    return TandemRunResult(
        steps=steps, depth=depth, delivered=k, initial_backlog=0
    )


def simulate_model4(
    k: int,
    depth: int,
    mu: float,
    lam: float,
    rng: random.Random,
) -> TandemRunResult:
    """Model 4: model 3 started from the stationary queue profile.

    Queues are initialized independently from the Geo/Geo/1 stationary
    distribution (the Hsu–Burke departure theorem makes every server's
    input Bernoulli(λ) in steady state, so each queue is marginally
    stationary).  Because the tandem is overtake-free, the completion time
    of the k tagged arrivals equals the time for the whole system to empty.
    """
    if k < 0 or depth < 1:
        raise ConfigurationError("need k >= 0 and depth >= 1")
    initial = tuple(
        sample_stationary_queue_length(lam, mu, rng) for _ in range(depth)
    )
    state = initial + (k,)
    steps = _run_to_empty(state, mu, lam, rng)
    return TandemRunResult(
        steps=steps,
        depth=depth,
        delivered=k,
        initial_backlog=sum(initial),
    )


def mean_completion(
    simulate,
    replications: int,
    seed: int,
) -> Tuple[float, List[int]]:
    """Average ``simulate(rng)`` completion over seeded replications."""
    from repro.rng import RngFactory

    factory = RngFactory(seed)
    samples = []
    for index in range(replications):
        rng = factory.named(f"tandem-{index}")
        samples.append(simulate(rng).steps)
    return sum(samples) / max(1, len(samples)), samples


def model4_prediction(k: int, depth: int, mu: float, lam: float) -> float:
    """Theorem 4.3's closed form, re-exported next to its simulator."""
    return tandem_completion_time(k, depth, lam=lam, mu=mu)


def radio_completion_phases(slots: int, phase_length: int) -> int:
    """Convert a radio run's slot count to model-1 phases (ceil)."""
    if phase_length < 1:
        raise ConfigurationError("phase length must be >= 1")
    return -(-slots // phase_length)
