"""Non-pipelined broadcast baseline: one full BGI flood per message.

§6 motivates pipelining by pricing the alternative: "In principle the
message can be sent using the BFS protocol.  However, each message would
require 2·D·log Δ·log n time to reach all the nodes with probability
1−ε."  This module implements exactly that alternative — for each of the
k messages, run a complete Decay-relay flood from the root and only then
start the next message — so experiment E10 can measure the pipelining
gain (≈ min(k, D)× for k ≫ D).

The flood is the BGI broadcast skeleton: a station that knows the message
keeps re-broadcasting it with window-aligned Decay invocations
(:class:`repro.core.decay.DecayRelay`).  Per-message completion is
detected omnisciently by the driver (all stations informed), which is,
again, *generous to the baseline* — a real deployment would have to run
each flood for its full 1−ε time budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.core.decay import DecayRelay
from repro.core.slots import decay_budget
from repro.errors import ConfigurationError
from repro.graphs.graph import Graph, NodeId
from repro.radio.network import RadioNetwork
from repro.rng import RngFactory


@dataclass
class FloodResult:
    slots: int
    informed: int


@dataclass
class NaiveBroadcastResult:
    slots: int  # total measured slots across all k sequential floods
    per_message_slots: List[int]
    messages: int
    charged_slots: int = 0  # total under the protocol's whp schedule

    @property
    def fair_slots(self) -> int:
        """What the baseline actually costs as a *protocol*.

        The measured slots use the simulator's omniscient "everyone is
        informed" detector, which no real radio deployment has; a real
        flood must run for its full 1−ε budget before the next message may
        start (§6: "each message would require 2·D·log Δ·log n time to
        reach all the nodes with probability 1−ε").  Per message we charge
        ``max(measured, whp budget)``, aggregated here.
        """
        return max(self.slots, self.charged_slots)


def run_single_flood(
    graph: Graph,
    source: NodeId,
    payload: Any,
    seed: int,
) -> FloodResult:
    """Flood one message from ``source`` to every station (BGI broadcast).

    The flood is capped at ``max(20 000, 64·n·budget)`` slots; past it
    :class:`~repro.errors.SimulationTimeout` is raised.
    """
    if source not in graph:
        raise ConfigurationError(f"unknown source {source!r}")
    factory = RngFactory(seed)
    budget = decay_budget(graph.max_degree())
    n = graph.num_nodes
    # Enough invocations that a station keeps transmitting for the whole
    # flood: the message needs ≤ D ≤ n hops, each expected O(1)
    # invocations; 2·(n + log n) is a generous per-station duty.
    repetitions = 2 * (n + max(1, math.ceil(math.log2(max(2, n)))))
    network = RadioNetwork(graph, num_channels=1)
    processes: Dict[NodeId, DecayRelay] = {}
    for node in graph.nodes:
        process = DecayRelay(
            node_id=node,
            budget=budget,
            repetitions=repetitions,
            rng=factory.for_node(node),
            initial_payload=payload if node == source else None,
        )
        processes[node] = process
        network.attach(process)
    network.run(
        max(20_000, 64 * n * budget),
        until=lambda net: all(p.informed for p in processes.values()),
    )
    return FloodResult(
        slots=network.slot,
        informed=sum(1 for p in processes.values() if p.informed),
    )


def flood_whp_budget(depth: int, n: int, max_degree: int) -> int:
    """The slot budget one BGI flood needs for whp (ε = 1/n²) completion.

    ``(D + 2·ceil(log2 n))`` window-aligned Decay invocations of
    ``2·ceil(log2 Δ)`` slots each — the §6 price of the non-pipelined
    alternative, with the diameter charitably assumed known.
    """
    from repro.core.slots import decay_budget

    invocations = max(1, depth) + 2 * max(1, math.ceil(math.log2(max(2, n))))
    return invocations * decay_budget(max_degree)


def run_naive_broadcast(
    graph: Graph,
    root: NodeId,
    k: int,
    seed: int,
) -> NaiveBroadcastResult:
    """k sequential floods from the root; no pipelining.

    (The collection leg — sources to root — is identical in both designs,
    so the comparison isolates distribution, which is where pipelining
    acts.)  ``slots`` reports the omnisciently-detected completion times;
    ``charged_slots``/``fair_slots`` report the cost under the whp
    schedule a real deployment must run (see :func:`flood_whp_budget`).
    """
    if k < 0:
        raise ConfigurationError(f"need k >= 0, got {k}")
    from repro.graphs.properties import eccentricity

    depth = eccentricity(graph, root) if graph.num_nodes > 1 else 0
    budget_per_flood = flood_whp_budget(
        depth, graph.num_nodes, graph.max_degree()
    )
    per_message = []
    charged = 0
    for index in range(k):
        result = run_single_flood(
            graph,
            root,
            payload=("naive", index),
            seed=seed + 31 * index,
        )
        per_message.append(result.slots)
        charged += max(result.slots, budget_per_flood)
    return NaiveBroadcastResult(
        slots=sum(per_message),
        per_message_slots=per_message,
        messages=k,
        charged_slots=charged,
    )


def naive_broadcast_reference_slots(
    k: int, depth: int, max_degree: int, n: int
) -> float:
    """§6's price for the alternative: ``k × 2·D·log Δ·log n``."""
    log_n = math.log2(max(2, n))
    log_delta = math.log2(max(2, max_degree))
    return k * 2.0 * max(1, depth) * log_delta * log_n


def staged_flood_slots(depth: int, n: int, max_degree: int) -> int:
    """Deterministic schedule length of ONE staged (BFS-protocol) flood.

    This is exactly the alternative §6 prices at "2·D·log Δ·log n time …
    with probability 1−ε": the message descends stage by stage, each level
    relaying for ``2·ceil(log2 n)`` window-aligned Decay invocations of
    ``2·ceil(log2 Δ)`` slots (ε = 1/n² per hop).  The schedule is fixed a
    priori — its cost needs no simulation — and it is the natural
    apples-to-apples baseline for the pipelined distribution, whose
    superphases are the very same per-level windows.
    """
    from repro.core.slots import decay_budget

    invocations = max(1, 2 * math.ceil(math.log2(max(2, n))))
    return max(1, depth) * invocations * decay_budget(max_degree)
