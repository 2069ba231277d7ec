"""The Decay primitive of Bar-Yehuda, Goldreich & Itai.

    procedure Decay(m);
        repeat at most 2·log Δ times
            transmit m to all neighbors;
            flip coin R ∈ {0, 1}
        until coin = 0.

Properties (§1.4):

1. One invocation lasts ``2·log Δ`` time slots.
2. If several neighbors of a node v use Decay to send messages, then with
   probability greater than 1/2, v receives one of the messages.

:class:`DecaySession` is the reusable in-protocol building block: one
instance per invocation, stepped once per transmission opportunity.  The
module also provides standalone processes and a closed-form/Monte-Carlo
analysis of property (2) used by experiment E1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, List, Optional

from repro.graphs.graph import NodeId
from repro.radio.process import Process
from repro.radio.transmission import DEFAULT_CHANNEL, Transmission


class DecaySession:
    """One invocation of Decay by one station.

    The station calls :meth:`should_transmit` at each of its transmission
    opportunities within the phase.  Faithful to the paper's pseudocode:
    the station transmits, *then* flips a coin and falls silent ("dies")
    on 0, and never exceeds ``budget`` transmissions.
    """

    def __init__(self, budget: int, rng: random.Random):
        if budget < 1:
            raise ValueError(f"Decay budget must be >= 1, got {budget}")
        self.budget = budget
        self._rng = rng
        self._steps_taken = 0
        # False once the coin fell, the budget is spent or kill() ran.
        self._alive = True

    @property
    def alive(self) -> bool:
        """Whether the station still transmits in this invocation."""
        return self._alive

    def should_transmit(self) -> bool:
        """Decide (and record) one transmission opportunity.

        Returns True iff the station transmits at this opportunity; the
        post-transmission coin flip is performed internally, so every
        transmission draws exactly one coin.
        """
        if not self._alive:
            return False
        self._steps_taken += 1
        if self._rng.random() < 0.5 or self._steps_taken == self.budget:
            self._alive = False
        return True

    def kill(self) -> None:
        """Fall silent immediately (used when the message got acked)."""
        self._alive = False


class DecayTransmitter(Process):
    """Standalone process: transmit ``payload`` with one Decay invocation.

    Transmits on the default channel at every slot from slot 0 until the
    session dies.  Used by the single-layer experiments (E1) and Decay
    unit tests.
    """

    def __init__(
        self,
        node_id: NodeId,
        payload: Any,
        budget: int,
        rng: random.Random,
    ):
        super().__init__(node_id)
        self.payload = payload
        self.session = DecaySession(budget, rng)

    def on_slot(self, slot: int):
        if self.session.should_transmit():
            return Transmission(self.payload)
        return None

    def is_done(self) -> bool:
        return not self.session.alive


def success_probability_exact(num_transmitters: int, budget: int) -> Fraction:
    """Exact P[receiver hears exactly one transmitter in some step].

    Closed-form companion to Decay property (2), for a star: one receiver
    whose ``num_transmitters`` neighbors all start an independent Decay
    with the given budget.  Computed by dynamic programming over the number
    of live transmitters: at each step every live station transmits then
    survives with probability 1/2; the receiver succeeds at the first step
    that begins with exactly one live station.

    The paper's property (2) asserts this exceeds 1/2 whenever
    ``num_transmitters <= Δ`` and ``budget = 2·ceil(log2 Δ)``; experiment
    E1 checks the Monte-Carlo simulation against this exact value, and the
    exact value against 1/2.
    """
    if num_transmitters < 1:
        raise ValueError("need at least one transmitter")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    # state: probability distribution over the number of live stations at
    # the *start* of each step, conditioned on not having succeeded yet.
    # Success at a step happens iff exactly one station is live then.
    half = Fraction(1, 2)
    dist = {num_transmitters: Fraction(1)}
    success = Fraction(0)
    for _ in range(budget):
        success += dist.get(1, Fraction(0))
        dist.pop(1, None)  # succeeded runs stop contributing
        new_dist: dict = {}
        for live, prob in dist.items():
            if live == 0:
                # Everyone already dead without success: absorbed failure.
                new_dist[0] = new_dist.get(0, Fraction(0)) + prob
                continue
            # Each of the `live` stations independently survives w.p. 1/2.
            for survivors in range(live + 1):
                weight = (
                    prob
                    * _binomial(live, survivors)
                    * half**live
                )
                new_dist[survivors] = (
                    new_dist.get(survivors, Fraction(0)) + weight
                )
        dist = new_dist
    return success


def _binomial(n: int, k: int) -> int:
    import math

    return math.comb(n, k)


def simulate_star_reception(
    num_transmitters: int,
    budget: int,
    rng: random.Random,
    trials: int,
) -> float:
    """Monte-Carlo estimate of the same star-reception probability.

    Simulates the coin flips directly (no radio engine) for speed; the
    engine-level equivalent lives in experiment E1 and the two are compared
    in tests.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    successes = 0
    for _ in range(trials):
        live = num_transmitters
        for _ in range(budget):
            if live == 1:
                successes += 1
                break
            if live == 0:
                break
            # Each live station transmits, then survives w.p. 1/2.
            survivors = sum(1 for _ in range(live) if rng.random() < 0.5)
            live = survivors
    return successes / trials


def expected_transmissions(budget: int) -> float:
    """Expected number of transmissions by one Decay invocation (≤ 2).

    The station transmits once, then each further transmission requires
    surviving a fair coin: 1 + 1/2 + 1/4 + … truncated at ``budget``.
    """
    return sum(0.5**i for i in range(budget))


def decay_schedule(budget: int, rng: random.Random) -> List[bool]:
    """Materialize one invocation's transmit/silent pattern (for tests)."""
    session = DecaySession(budget, rng)
    return [session.should_transmit() for _ in range(budget)]


class DecayRelay(Process):
    """Repeat-Decay flooding relay: re-broadcasts the first payload heard.

    This is the body of the BGI broadcast protocol that the setup phase
    builds on: a station that knows the message keeps invoking Decay for
    ``repetitions`` invocations.

    Invocations are **window-aligned**: globally, invocation w occupies
    slots ``[w·budget, (w+1)·budget)`` — every station derives the
    boundaries from the slot number, a station whose session dies early
    stays silent until the next boundary, and a station informed mid-window
    joins at the next boundary.  This alignment is what property (2) of
    Decay assumes (all participating neighbors run the *same* invocation).
    The relay runs on the default channel.
    """

    def __init__(
        self,
        node_id: NodeId,
        budget: int,
        repetitions: int,
        rng: random.Random,
        initial_payload: Optional[Any] = None,
    ):
        super().__init__(node_id)
        self.budget = budget
        self.repetitions = repetitions
        self._rng = rng
        self.payload = initial_payload
        self._session: Optional[DecaySession] = None
        self._session_window = -1
        self._joined_window: Optional[int] = 0 if initial_payload is not None else None
        self.informed_at_slot: Optional[int] = 0 if initial_payload is not None else None

    @property
    def informed(self) -> bool:
        return self.payload is not None

    def _window(self, slot: int) -> int:
        return slot // self.budget

    def on_slot(self, slot: int):
        if self.payload is None:
            return None
        window = self._window(slot)
        assert self._joined_window is not None
        if window < self._joined_window:
            return None
        if window - self._joined_window >= self.repetitions:
            return None
        if self._session_window != window:
            self._session = DecaySession(self.budget, self._rng)
            self._session_window = window
        assert self._session is not None
        if self._session.should_transmit():
            return Transmission(self.payload)
        return None

    def on_receive(self, slot: int, channel: int, payload: Any) -> None:
        if channel == DEFAULT_CHANNEL and self.payload is None:
            self.payload = payload
            self.informed_at_slot = slot
            # Participate from the next invocation boundary onward.
            self._joined_window = self._window(slot) + 1

    def is_done(self) -> bool:
        """Informed and past its transmission duty (relative to joining)."""
        if self.payload is None or self._joined_window is None:
            return False
        return self._window_done()

    def _window_done(self) -> bool:
        assert self._joined_window is not None
        current = self._session_window
        return current - self._joined_window + 1 >= self.repetitions
