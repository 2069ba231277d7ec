"""E11 — ablation of the §2.2 level multiplexing (mod-3 slot classes).

The paper buys cross-level collision freedom with a ×3 slot slowdown.
This experiment runs collection with 1 vs 3 level classes:

* Correctness survives either way (the ack layer is class-agnostic).
* **Finding:** at these scales the un-multiplexed variant is *faster on
  every topology tried* — the cross-level collisions that multiplexing
  prevents are absorbed more cheaply by the resend-until-ack loop than by
  a ×3 slot schedule.  The classes=3/classes=1 slot ratio stays between
  1 and 3: multiplexing never wins outright, it only narrows its own ×3
  overhead where cross-level collisions are frequent.  This is consistent
  with the paper: §2.2's multiplexing is an ingredient of the *analysis*
  (it makes Theorem 4.1's µ a clean per-level guarantee), not an
  empirical optimization claim.

For the *distribution* protocol the multiplexing underpins "if v receives
any message it must be from level i−1"; our implementation additionally
filters on the sender_level field, so classes=1 stays correct there too —
and faster, for the same reason.
"""

from conftest import replication_seeds

from repro.analysis import print_table, summarize
from repro.core import run_broadcast, run_collection
from repro.graphs import caterpillar, layered_band, path, reference_bfs_tree


def collection_slots(graph, tree, sources, classes, name):
    return summarize(
        [
            float(
                run_collection(
                    graph, tree, sources, seed=s, level_classes=classes
                ).slots
            )
            for s in replication_seeds(name, 5)
        ]
    ).mean


def test_e11_level_multiplexing_collection(benchmark):
    rows = []
    scenarios = [
        ("path-16", path(16)),
        ("caterpillar-10x4", caterpillar(10, 4)),
        ("band-8x4", layered_band(8, 4)),
    ]
    ratios = {}
    for name, graph in scenarios:
        tree = reference_bfs_tree(graph, 0)
        deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
        sources = {deepest: [f"m{i}" for i in range(10)]}
        with_mux = collection_slots(graph, tree, sources, 3, f"e11-{name}-3")
        without = collection_slots(graph, tree, sources, 1, f"e11-{name}-1")
        ratios[name] = with_mux / without
        rows.append([name, tree.depth, with_mux, without, ratios[name]])
    print_table(
        ["topology", "D", "slots (classes=3)", "slots (classes=1)", "3/1"],
        rows,
        title="E11: collection with vs without mod-3 level multiplexing",
    )
    # Both variants are correct; the multiplexed schedule costs at most
    # its raw ×3 (it never *wins* at these scales — see module docstring),
    # and always at least breaks even on slots divided by classes.
    for name, ratio in ratios.items():
        assert 1.0 <= ratio <= 3.5, (name, ratio)

    graph = layered_band(4, 3)
    tree = reference_bfs_tree(graph, 0)
    benchmark(
        lambda: run_collection(
            graph, tree, {graph.nodes[-1]: ["x"] * 3}, seed=2, level_classes=1
        ).slots
    )


def test_e11_distribution_needs_multiplexing(benchmark):
    """§6's analysis relies on 'if v receives any message it must be from
    level i−1' — true only under mod-3 classes.  With classes=1 the
    sender_level filter must discard cross-level receptions; count them."""
    graph = layered_band(5, 3)
    tree = reference_bfs_tree(graph, 0)
    submissions = {0: [f"m{i}" for i in range(5)]}
    rows = []
    for classes in (3, 1):
        slots_mean = []
        for seed in replication_seeds(f"e11d-{classes}", 3):
            result = run_broadcast(
                graph,
                tree,
                submissions,
                seed=seed,
                level_classes=classes,
            )
            assert result.delivered_everywhere  # filter keeps it correct
            slots_mean.append(float(result.slots))
        rows.append([classes, summarize(slots_mean).mean])
    print_table(
        ["level classes", "broadcast slots (mean)"],
        rows,
        title="E11b: distribution correct under both, via sender_level filter",
    )
    benchmark(
        lambda: run_broadcast(
            path(6), reference_bfs_tree(path(6), 0), {0: ["a"]}, seed=1
        ).slots
    )
