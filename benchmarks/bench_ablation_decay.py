"""E12 — ablation of the Decay retransmission policy.

Two axes:

1. **Repetition budget**: the paper uses 2·ceil(log2 Δ) transmission
   opportunities per invocation.  Halving it hurts the single-window
   success probability (below the 1/2 guarantee for large contention);
   doubling it wastes slots without improving per-phase success much
   (a dead station cannot come back, so the tail opportunities are
   mostly silent).
2. **Policy**: Decay's geometric back-off vs fixed-probability slotted
   ALOHA at p = 1/Δ over the same window.  **Finding:** each wins its
   regime.  Under *saturated* contention (m ≈ Δ persistently, e.g. every
   leaf of a star transmitting), ALOHA's tuned p ≈ 1/m gives ~1/e success
   *per slot* and never falls silent, beating Decay's per-window ≥ 1/2.
   Under *sparse* contention (m ≪ Δ — the normal state of a tree pipeline
   after the initial burst drains), ALOHA over-throttles: a lone sender
   transmits only w.p. 1/Δ per slot while Decay succeeds immediately, and
   end-to-end collection shows the reversal.  Decay's virtue is exactly
   what the paper claims: a guarantee for *all* m with no knowledge of m.
"""

import random

from conftest import replication_seeds

from repro.analysis import print_table, summarize
from repro.baselines import aloha_session_factory, aloha_success_probability
from repro.core import (
    decay_budget,
    success_probability_exact,
)
from repro.core.collection import build_collection_network
from repro.graphs import layered_band, reference_bfs_tree, star


def test_e12a_budget_sweep_single_window(benchmark):
    rows = []
    max_degree = 32
    paper_budget = decay_budget(max_degree)
    for factor, budget in [
        (0.5, paper_budget // 2),
        (1.0, paper_budget),
        (2.0, 2 * paper_budget),
    ]:
        worst = min(
            float(success_probability_exact(m, budget))
            for m in (2, 4, 8, 16, 32)
        )
        rows.append([factor, budget, worst, "yes" if worst >= 0.5 else "NO"])
    print_table(
        ["budget factor", "slots/window", "worst-case P[hear]", "≥ 1/2"],
        rows,
        title=f"E12a: Decay budget sweep, Δ = {max_degree}",
    )
    # The paper's budget is the knee: half loses the guarantee, double
    # buys < 4 percentage points.
    half = min(
        float(success_probability_exact(m, paper_budget // 2))
        for m in (2, 4, 8, 16, 32)
    )
    full = min(
        float(success_probability_exact(m, paper_budget))
        for m in (2, 4, 8, 16, 32)
    )
    double = min(
        float(success_probability_exact(m, 2 * paper_budget))
        for m in (2, 4, 8, 16, 32)
    )
    assert half < 0.5 <= full
    assert double - full < 0.04
    benchmark(lambda: success_probability_exact(16, paper_budget))


def collection_with_policy(graph, tree, sources, seed, policy):
    """End-to-end collection slots under a retransmission policy."""
    network, processes, slots = build_collection_network(
        graph, tree, sources, seed
    )
    if policy == "aloha":
        p = 1.0 / max(2, graph.max_degree())
        for node, process in processes.items():
            process.lane.session_factory = aloha_session_factory(
                p, random.Random((seed << 8) ^ hash(node))
            )
    total = sum(len(v) for v in sources.values())
    root = processes[tree.root]
    network.run(
        2_000_000,
        until=lambda n: len(root.delivered) >= total
        and all(p.is_done() for p in processes.values()),
        check_every=4,
    )
    return network.slot


def test_e12b_decay_vs_aloha_end_to_end(benchmark):
    rows = []
    scenarios = [("star-17", star(17)), ("band-4x4", layered_band(4, 4))]
    for name, graph in scenarios:
        tree = reference_bfs_tree(graph, 0)
        sources = {
            n: ["m"] for n in graph.nodes if tree.level[n] == tree.depth
        }
        decay_mean = summarize(
            [
                float(
                    collection_with_policy(graph, tree, sources, s, "decay")
                )
                for s in replication_seeds(f"e12b-{name}-d", 4)
            ]
        ).mean
        aloha_mean = summarize(
            [
                float(
                    collection_with_policy(graph, tree, sources, s, "aloha")
                )
                for s in replication_seeds(f"e12b-{name}-a", 4)
            ]
        ).mean
        rows.append([name, decay_mean, aloha_mean, aloha_mean / decay_mean])
    print_table(
        ["topology", "Decay slots", "ALOHA(1/Δ) slots", "ALOHA/Decay"],
        rows,
        title="E12b: end-to-end collection, Decay vs fixed-p ALOHA",
    )
    # Each policy wins its regime (module docstring): ALOHA under the
    # saturated star (m ≈ Δ every phase), Decay once contention is sparse
    # (the band's interior hops drain to a few senders per parent).
    by_name = {row[0]: row[3] for row in rows}
    assert by_name["star-17"] < 1.0  # saturated: ALOHA faster
    assert by_name["band-4x4"] > 1.0  # sparse: Decay faster

    # Closed-form illustration of why: m = 1 contender under each policy.
    window = decay_budget(16)
    single_decay = float(success_probability_exact(1, window))
    single_aloha = aloha_success_probability(1, 1.0 / 16, window)
    assert single_decay == 1.0
    assert single_aloha < 0.5
    print_table(
        ["policy", "P[success | m=1, Δ=16]"],
        [["Decay", single_decay], ["ALOHA 1/Δ", single_aloha]],
        title="E12c: the lonely-transmitter case that dominates pipelines",
    )
    graph = star(9)
    tree = reference_bfs_tree(graph, 0)
    benchmark(
        lambda: collection_with_policy(
            graph, tree, {1: ["x"], 5: ["y"]}, 3, "decay"
        )
    )
