"""Leader election for the setup phase.

The paper delegates leader election to Bar-Yehuda, Goldreich & Itai's
companion paper [4] (a tournament built on single-hop emulation, expected
``O(loglog n · (D + log n) · log Δ)``).  Reproducing [4] wholesale is out of
scope (see DESIGN.md §4); what *this* paper needs from it is only: a unique
station ends up knowing it is the leader, whp, in setup time.

We substitute a **bitwise tournament** (:class:`BitElectionProcess`): the
maximum ID is found bit by bit, most significant first, each bit settled
by a window of Decay-relayed floods, in ``O(log N · (n + log n) · log Δ)``
slots — the [4] shape without its loglog refinement, and with the
diameter bound D̂ = n − 1 that every station knows in place of D, so
the window grows with n rather than with the diameter.  A missed flood
leaves the stations disagreeing, possibly with a false extra leader.  In
the paper's setup phase the Las-Vegas verification catches that (two
roots → the root never collects n−1 confirmations → retry, §2);
:func:`elect_leader` stands in for that check with the simulator's
omniscience and retries with fresh coins until one leader is agreed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.decay import DecaySession
from repro.core.messages import LeaderMessage
from repro.core.slots import decay_budget
from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.radio.process import QUIET_FOREVER, Process
from repro.radio.transmission import DEFAULT_CHANNEL, Transmission
from repro.rng import RngFactory

#: Las-Vegas attempts an election gets before the caller gives up.
ELECTION_ATTEMPTS = 10


@dataclass
class LeaderElectionResult:
    """Outcome of one election run."""

    leaders: List[NodeId]  # stations that believe they lead (usually one)
    true_max: NodeId
    slots: int
    agreed: bool  # every station believes in the true maximum

    @property
    def unique(self) -> bool:
        return len(self.leaders) == 1


class BitElectionProcess(Process):
    """Bitwise tournament election (the [4] stand-in).

    The max ID is found bit by bit, from the most significant: in round b
    every still-candidate station whose ID has bit b set *floods* a
    one-bit "someone has a 1 here" signal through a fixed window of
    window-aligned Decay invocations.  The flood relays the way
    Bar-Yehuda–Goldreich–Itai's broadcast does: a source relays for
    ``relay_invocations`` (K) invocations from the round's start, and a
    station that first hears the signal relays for the rest of that
    invocation and then for K more; after that it sleeps until the
    next round.  At the window's end, every station that heard (or
    originated) the signal records bit b = 1 and candidates lacking the
    bit withdraw; silence records 0.  After ``id_bits`` rounds every
    station holds the maximum ID, and the unique station owning it
    becomes leader.

    Why K relays suffice: by Decay's property (2), a station with a
    relaying neighbour misses all K of its invocations with probability
    at most 2⁻ᴷ.  :func:`run_bit_election` takes K = ⌈log₂(n²·id_bits)⌉
    (capped at the window), so a union bound over the n stations and
    the ``id_bits`` rounds keeps the failure rate at or below 1/n.

    Cost: ``id_bits`` windows of ``(D̂ + 2·log n)`` Decay invocations,
    with D̂ = n − 1 (:func:`run_bit_election`) —
    ``O(log N · (n + log n) · log Δ)`` slots, the [4] shape without its
    loglog refinement and with n in place of D; K only bounds how many
    of them a station spends transmitting.  A missed flood yields
    disagreement, caught by the setup phase's Las-Vegas verification.
    """

    def __init__(
        self,
        node_id: int,
        id_bits: int,
        budget: int,
        window_invocations: int,
        relay_invocations: int,
        rng: random.Random,
    ):
        super().__init__(node_id)
        if id_bits < 1:
            raise ConfigurationError(f"need id_bits >= 1, got {id_bits}")
        if relay_invocations < 1:
            raise ConfigurationError(
                f"need relay_invocations >= 1, got {relay_invocations}"
            )
        self.id_bits = id_bits
        self.budget = budget
        self.window_invocations = window_invocations
        self.window_slots = window_invocations * budget
        self.relay_invocations = relay_invocations
        self._rng = rng
        self.candidate = True
        self.known_prefix = 0  # the max ID's bits discovered so far
        self._heard_this_round = False
        # First invocation past this round's relay; read only once the
        # station has heard (or sourced) the round's signal.
        self._relay_until = 0
        self._session: Optional[DecaySession] = None
        self._session_invocation = -1
        self._finalized_round = -1
        # The round's signal, built once per round and sent at every
        # opportunity of it.
        self._signal: Optional[Transmission] = None
        self._signal_round = -1

    # ------------------------------------------------------------------
    # Round arithmetic (slot-number driven)
    # ------------------------------------------------------------------

    def _round(self, slot: int) -> int:
        return slot // self.window_slots

    def _bit_of_round(self, round_index: int) -> int:
        return self.id_bits - 1 - round_index

    @property
    def horizon_slots(self) -> int:
        return self.id_bits * self.window_slots

    def _finalize_rounds_through(self, round_index: int) -> None:
        """Close every round before ``round_index`` (records its bit)."""
        while self._finalized_round < round_index - 1:
            closing = self._finalized_round + 1
            bit = self._bit_of_round(closing)
            heard = self._heard_this_round
            self._heard_this_round = False
            self._finalized_round = closing
            if heard:
                self.known_prefix |= 1 << bit
                if self.candidate and not (self.node_id >> bit) & 1:
                    self.candidate = False
            # Silence leaves the bit 0 and candidates unchanged.

    def _is_signal_source(self, round_index: int) -> bool:
        if not self.candidate:
            return False
        bit = self._bit_of_round(round_index)
        return bool((self.node_id >> bit) & 1)

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------

    def on_slot(self, slot: int):
        round_index = self._round(slot)
        if round_index >= self.id_bits:
            self._finalize_rounds_through(self.id_bits)
            return None
        self._finalize_rounds_through(round_index)
        if not self._heard_this_round:
            if not self._is_signal_source(round_index):
                return None
            self._heard_this_round = True
            self._relay_until = (
                round_index * self.window_invocations + self.relay_invocations
            )
        invocation = slot // self.budget
        if invocation >= self._relay_until:
            return None
        if self._session_invocation != invocation:
            self._session = DecaySession(self.budget, self._rng)
            self._session_invocation = invocation
        assert self._session is not None
        if not self._session.should_transmit():
            return None
        if self._signal_round != round_index:
            self._signal_round = round_index
            self._signal = Transmission(
                LeaderMessage(sender=self.node_id, round=round_index)
            )
        return self._signal

    def quiet_until(self, slot: int) -> int:
        """Exact idle declaration.

        :meth:`on_slot` closes the previous round lazily, and a reception
        that came before that close would be credited to the wrong bit.
        So every station is polled at the first slot of every round; in
        between, a station that neither sources nor has heard the signal,
        or whose relay is spent, sleeps to the next round, and one whose
        Decay session died sleeps to the next invocation (a dead session
        draws no coin).
        """
        round_index = self._round(slot)
        if round_index >= self.id_bits:
            return QUIET_FOREVER
        if self._finalized_round < round_index - 1:
            return slot
        next_round = (round_index + 1) * self.window_slots
        if not self._heard_this_round:
            return slot if self._is_signal_source(round_index) else next_round
        invocation = slot // self.budget
        session = self._session
        if (
            invocation == self._session_invocation
            and session is not None
            and not session.alive
        ):
            invocation += 1
            slot = invocation * self.budget
        if invocation >= self._relay_until:
            return next_round
        return slot

    def on_receive(self, slot: int, channel: int, payload) -> Optional[bool]:
        # Only the round's first signal changes anything; every later
        # one returns False, so the declared wake stands (see
        # Process.on_receive).
        if (
            channel != DEFAULT_CHANNEL
            or not isinstance(payload, LeaderMessage)
            or payload.round != self._round(slot)
            or self._heard_this_round
        ):
            return False
        self._heard_this_round = True
        self._relay_until = slot // self.budget + 1 + self.relay_invocations
        return None

    def believes_leader(self) -> bool:
        """After the horizon: is this station the (unique) maximum?"""
        self._finalize_rounds_through(self.id_bits)
        return self.candidate and self.node_id == self.known_prefix

    def known_max(self) -> int:
        self._finalize_rounds_through(self.id_bits)
        return self.known_prefix


def run_bit_election(
    graph: Graph,
    seed: int,
) -> LeaderElectionResult:
    """Run the bitwise tournament election over ``graph``.

    Station IDs must be non-negative integers; the tournament runs one
    round per bit of the largest ID (every station can compute a common
    width from the known ID space, e.g. the bound N of §1.1).

    Each round's window is ``D̂ + 2⌈log₂ n⌉`` Decay invocations, with the
    diameter bound D̂ = n − 1 that every station knows, and a station
    relays the signal for
    K = ⌈log₂(n²·id_bits)⌉ of them, capped at the window (14 at n = 48,
    19 at n = 200): a station next to a relay misses all K invocations
    with probability at most 2⁻ᴷ ≤ 1/(n²·id_bits), so over n stations
    and ``id_bits`` rounds the election fails with probability at most
    1/n.  The slot count is ``id_bits`` windows whatever K is.
    """
    if any(not isinstance(v, int) or v < 0 for v in graph.nodes):
        raise ConfigurationError(
            "bit election needs non-negative integer IDs"
        )
    factory = RngFactory(seed)
    budget = decay_budget(graph.max_degree())
    n = graph.num_nodes
    id_bits = max(1, max(graph.nodes).bit_length())  # type: ignore[arg-type]
    window_invocations = max(1, n - 1) + 2 * max(
        1, math.ceil(math.log2(max(2, n)))
    )
    relay_invocations = min(
        window_invocations, max(1, math.ceil(math.log2(n * n * id_bits)))
    )
    network = RadioNetwork(graph, num_channels=1)
    processes: Dict[int, BitElectionProcess] = {}
    for node in graph.nodes:
        process = BitElectionProcess(
            node_id=node,
            id_bits=id_bits,
            budget=budget,
            window_invocations=window_invocations,
            relay_invocations=relay_invocations,
            rng=factory.for_node(node),
        )
        processes[node] = process
        network.attach(process)
    network.run(processes[graph.nodes[0]].horizon_slots)
    true_max = max(graph.nodes)  # type: ignore[type-var]
    leaders = [
        node for node, proc in processes.items() if proc.believes_leader()
    ]
    agreed = all(
        proc.known_max() == true_max for proc in processes.values()
    )
    return LeaderElectionResult(
        leaders=leaders, true_max=true_max, slots=network.slot, agreed=agreed
    )


def elect_leader(graph: Graph, seed: int) -> LeaderElectionResult:
    """Las-Vegas election: re-run the tournament until all stations agree.

    Attempt ``a`` runs :func:`run_bit_election` at ``seed + 101·a``.  The
    paper's setup phase detects disagreement by the BFS confirmation
    count; here the simulator's omniscience stands in for it.  The
    returned result counts the slots of every attempt; after
    ``ELECTION_ATTEMPTS`` failed attempts
    :class:`~repro.errors.SimulationTimeout` is raised.
    """
    total_slots = 0
    for attempt in range(ELECTION_ATTEMPTS):
        result = run_bit_election(graph, seed=seed + 101 * attempt)
        total_slots += result.slots
        if result.agreed and result.unique:
            return replace(result, slots=total_slots)
    raise SimulationTimeout(
        f"leader election failed {ELECTION_ATTEMPTS} times"
    )
