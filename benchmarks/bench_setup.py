"""E6 — setup-phase cost: expected O((n + D·log n)·log Δ) slots (§2).

Sweeps n across families with very different (D, Δ) profiles and reports
the normalized constant ``slots / ((n + D·log2 n)·log2 Δ)``, which the §2
bound predicts to be flat in n.  Also records the retry count of the
Las-Vegas BFS wrapper (expected ≤ 2 attempts) and the cost of the
substituted leader election, the bitwise tournament (DESIGN.md §4).
"""

import math
import random

from conftest import replication_seeds

from repro.analysis import print_table, summarize
from repro.core import elect_leader, run_setup
from repro.graphs import diameter, grid, path, random_geometric


def normalized_setup_cost(graph, seed):
    result = run_setup(graph, root=graph.nodes[0], seed=seed)
    n = graph.num_nodes
    depth = result.tree.depth
    log_n = math.log2(max(2, n))
    log_delta = math.log2(max(2, graph.max_degree()))
    return (
        result.slots / ((n + depth * log_n) * log_delta),
        result.attempts,
        result.slots,
    )


def test_e6_setup_scaling(benchmark):
    rows = []
    scenarios = [
        ("path-16", lambda r: path(16)),
        ("path-32", lambda r: path(32)),
        ("path-64", lambda r: path(64)),
        ("grid-4x4", lambda r: grid(4, 4)),
        ("grid-6x6", lambda r: grid(6, 6)),
        ("rgg-24", lambda r: random_geometric(24, 0.32, r)),
        ("rgg-48", lambda r: random_geometric(48, 0.24, r)),
    ]
    constants = {}
    for name, build in scenarios:
        costs, attempts, slots_list = [], [], []
        for seed in replication_seeds(f"e6-{name}", 4):
            graph = build(random.Random(seed))
            cost, attempt_count, slots = normalized_setup_cost(graph, seed)
            costs.append(cost)
            attempts.append(attempt_count)
            slots_list.append(float(slots))
        graph = build(random.Random(0))
        constants[name] = summarize(costs).mean
        rows.append(
            [
                name,
                graph.num_nodes,
                diameter(graph),
                graph.max_degree(),
                summarize(slots_list).mean,
                constants[name],
                max(attempts),
            ]
        )
        assert max(attempts) <= 3  # Las-Vegas retries are rare
    print_table(
        [
            "topology",
            "n",
            "D",
            "Δ",
            "setup slots",
            "slots/((n+DlogN)logΔ)",
            "max attempts",
        ],
        rows,
        title="E6: setup phase — normalized constant should be flat in n",
    )
    # Within each family, the constant must not grow with n (the bound is
    # tight up to constants): allow 2.5x family drift.
    assert constants["path-64"] <= 2.5 * constants["path-16"]
    assert constants["grid-6x6"] <= 2.5 * constants["grid-4x4"]
    assert constants["rgg-48"] <= 2.5 * constants["rgg-24"]

    # Leader election: the bitwise tournament elects the max ID.
    election_rows = []
    for name, build in [("path-16", scenarios[0][1]), ("rgg-24", scenarios[5][1])]:
        graph = build(random.Random(1))
        election = elect_leader(graph, seed=5)
        assert election.leaders == [max(graph.nodes)]
        election_rows.append([name, election.leaders[0], election.slots])
    print_table(
        ["topology", "leader", "tournament slots"],
        election_rows,
        title="E6b: the bitwise tournament, the stand-in for [4] (elects the max ID)",
    )
    benchmark(lambda: run_setup(grid(3, 3), root=0, seed=7).slots)
