"""E16 — Resilience: collection under churn, fading, jamming and partition.

Outside the paper: the model of §1.1 is failure-free, so Theorem 4.4's
"always successful" collection has no stated behaviour under faults.  This
experiment measures what the hardened stack (``core/repair.py``) restores:
delivery ratio and completion-time inflation versus the failure-free
baseline for each fault scenario, plus repair counts and
partition-detection accuracy.

Qualitative claims asserted:

* under link faults and recoverable churn the repaired protocol still
  delivers everything (the Las-Vegas property survives, only time degrades);
* under a severing partition, the reachable side still delivers fully and
  the run terminates with a partition report rather than a timeout;
* the failure-free baseline through the hardened stack matches plain
  collection (the hardening is free when nothing fails).
"""

from conftest import replication_seeds, run_experiment_for_bench

from repro.analysis import default_sources, print_table, scenario_metrics
from repro.analysis.resilience import SCENARIOS
from repro.core import run_collection, run_resilient_collection
from repro.graphs import layered_band, path, reference_bfs_tree


def test_e16_resilience_suite(benchmark):
    report = run_experiment_for_bench("E16", replications=3)
    by_scenario = {}
    for outcomes in report.grouped().values():
        by_scenario[outcomes[0].spec.params["scenario"]] = outcomes

    for scenario, outcomes in by_scenario.items():
        for outcome in outcomes:
            metrics = outcome.metrics
            seed = outcome.spec.seed
            # Any fault class: never hang — a run either drains or reports.
            assert not metrics["timed_out"], (scenario, seed)
            # Link faults and recoverable outages: correctness survives,
            # only running time degrades (delivery stays total).
            if scenario in ("fading", "jammer", "churn", "blackout"):
                assert metrics["delivery_ratio"] == 1.0, (scenario, seed)
            # Partition: everything reachable still arrives (repair routes
            # around the dead station wherever the graph allows).
            assert metrics["reachable_delivery_ratio"] == 1.0, (
                scenario,
                seed,
            )
            assert metrics["partition_precision"] == 1.0, (scenario, seed)

    # Aggregate across seeds: mean slowdown per scenario.
    rows = []
    for scenario in SCENARIOS:
        outcomes = by_scenario[scenario]
        mean = lambda name: sum(
            o.metrics[name] for o in outcomes
        ) / len(outcomes)
        rows.append(
            [
                scenario,
                f"{mean('delivery_ratio'):.2f}",
                f"{mean('slowdown'):.2f}x",
                f"{mean('repairs'):.1f}",
                f"{mean('partition_precision'):.2f}"
                f"/{mean('partition_recall'):.2f}",
            ]
        )
    print_table(
        ["scenario", "delivery ratio", "slowdown", "repairs", "part P/R"],
        rows,
        title="E16: means over seeds (layered_band 6x3)",
    )

    seed = replication_seeds("e16-kernel", 1)[0]
    benchmark(lambda: scenario_metrics("fading", seed))


def test_e16_true_partition_terminates_structurally():
    """On a path there is no detour: orphans must declare, not hang."""
    graph = path(8)
    tree = reference_bfs_tree(graph, 0)
    from repro.radio.faults import RegionOutage

    for seed in replication_seeds("e16-partition", 3):
        result = run_resilient_collection(
            graph,
            tree,
            {7: ["a", "b"], 2: ["c"]},
            seed=seed,
            failures=RegionOutage([3], start=0, end=None),
            down_grace_slots=2_000,
        )
        assert not result.timed_out
        assert result.partition_detected
        # Ground truth: everything past the dead station is unreachable.
        assert set(result.unreachable) == {3, 4, 5, 6, 7}
        assert set(result.declared_partitioned) <= {4, 5, 6, 7}
        # The reachable side is untouched.
        assert result.reachable_delivery_ratio == 1.0


def test_e16_hardening_is_free_without_faults():
    """Failure-free: the resilient stack costs nothing measurable."""
    graph = layered_band(5, 3)
    tree = reference_bfs_tree(graph, 0)
    sources = default_sources(tree)
    rows = []
    for seed in replication_seeds("e16-baseline", 3):
        plain = run_collection(graph, tree, sources, seed=seed)
        hardened = run_resilient_collection(graph, tree, sources, seed=seed)
        assert hardened.delivery_ratio == 1.0
        assert not hardened.repairs
        rows.append([seed, plain.slots, hardened.slots])
        # Identical seeds drive identical Decay coin flips; the hardened
        # run may only differ by backoff phases, bounded well under 2x.
        assert hardened.slots <= 2 * plain.slots
    print_table(
        ["seed", "plain slots", "hardened slots"],
        rows,
        title="E16b: failure-free cost of the hardened stack",
    )
