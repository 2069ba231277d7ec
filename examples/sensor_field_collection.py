#!/usr/bin/env python3
"""Sensor-field convergecast: the fully distributed pipeline, end to end.

Scenario: battery-powered sensors are scattered over a field; one of them
must become the sink and gather everyone's periodic readings over radio.
Nothing is configured centrally — the stations run the *paper's own setup
phase* to organize themselves:

1. bitwise-tournament leader election (the sink emerges),
2. distributed BFS-tree construction with Las-Vegas confirmation (§2),
3. steady-state collection (§4), with readings submitted over time
   (the protocol is reactive) rather than as one batch.

The script then checks the measured steady-state throughput against
Theorem 4.4's "a new transmission every O(log Δ) time slots".

Usage: python examples/sensor_field_collection.py [seed] [n]
"""

import math
import random
import sys

from repro.core import (
    elect_leader,
    expected_collection_slots,
    run_setup,
)
from repro.core.collection import build_collection_network
from repro.graphs import diameter, random_geometric


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 36

    rng = random.Random(seed)
    field = random_geometric(n, radius=max(0.22, 1.9 / math.sqrt(n)), rng=rng)
    print(
        f"sensor field: n={n}, D={diameter(field)}, Δ={field.max_degree()}"
    )

    # --- distributed setup -------------------------------------------------
    election = elect_leader(field, seed=seed)
    sink = election.leaders[0]
    print(f"leader election: station {sink} became the sink "
          f"({election.slots} slots)")

    setup = run_setup(field, root=sink, seed=seed + 1)
    tree = setup.tree
    print(
        f"BFS setup: depth {tree.depth}, {setup.slots} slots, "
        f"{setup.attempts} attempt(s), true BFS levels: {setup.is_true_bfs}"
    )

    # --- reactive periodic readings -----------------------------------------
    network, processes, slots = build_collection_network(
        field, tree, sources={}, seed=seed + 2
    )
    sink_process = processes[sink]
    sensors = [node for node in field.nodes if node != sink]
    rounds = 4
    submitted = 0
    report_interval = 2 * slots.phase_length
    for round_index in range(rounds):
        for sensor in sensors:
            processes[sensor].submit((round_index, sensor, "temp=ok"))
            submitted += 1
        # Let the pipeline drain a little between sampling rounds.
        network.run(
            500_000,
            until=lambda net: len(sink_process.delivered)
            >= submitted - len(sensors) // 2,
            check_every=report_interval,
        )
        print(
            f"round {round_index}: sink holds "
            f"{len(sink_process.delivered)}/{submitted} readings "
            f"at slot {network.slot}"
        )
    network.run(
        1_000_000,
        until=lambda net: len(sink_process.delivered) >= submitted,
        check_every=4,
    )
    steady_slots = network.slot

    # --- throughput vs Theorem 4.4 -----------------------------------------
    log_delta = math.log2(max(2, field.max_degree()))
    per_message = steady_slots / submitted
    bound = expected_collection_slots(
        submitted, tree.depth, field.max_degree(), level_classes=3
    )
    print(
        f"\nsteady state: {submitted} readings in {steady_slots} slots "
        f"= {per_message:.1f} slots/reading "
        f"(log2 Δ = {log_delta:.2f}, so {per_message / log_delta:.1f}·logΔ "
        f"per reading)"
    )
    print(
        f"Theorem 4.4 envelope for this workload: {bound:,.0f} slots "
        f"({'within' if steady_slots <= bound else 'OVER'})"
    )


if __name__ == "__main__":
    main()
