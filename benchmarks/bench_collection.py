"""E3 — Theorem 4.4: k-collection completes in ≤ 32.27·(k+D)·log Δ slots.

Sweeps k and D across topology families and reports the measured constant
``slots / ((k + D)·log2 Δ)`` against the paper's 32.27 (the stated bound
excludes the ×3 level-multiplexing of §2.2, so the multiplexed
implementation is compared against 3×32.27; the un-multiplexed variant
against 32.27 directly).  Also fits the scaling exponent of slots vs k,
which Theorem 4.4 predicts to be ≤ 1 asymptotically.

Runs through the parallel runner (experiment ``E3`` of
``repro.runner.defs``): set ``REPRO_BENCH_WORKERS`` to shard the grid and
``REPRO_BENCH_CACHE`` to make repeat runs near-free.  A run's KPI
report comes from ``python -m repro run E3 --json DIR``
(``DIR/KPI_E3.json``).
"""

from conftest import run_experiment_for_bench

from repro.analysis import print_table, scaling_exponent
from repro.core import theorem_44_constant
from repro.runner.defs import (
    E3_CLASSES,
    E3_KS,
    E3_SCALING_KS,
    E3_SCALING_TOPOLOGY,
    E3_TOPOLOGIES,
    collection_metrics,
)


def test_e3_collection_constant(benchmark):
    report = run_experiment_for_bench("E3", replications=5)
    cells = {}
    for outcomes in report.grouped().values():
        params = outcomes[0].spec.params
        key = (params["topology"], params["k"], params["classes"])
        cells[key] = outcomes

    rows = []
    for name in E3_TOPOLOGIES:
        for k in E3_KS:
            for classes in E3_CLASSES:
                outcomes = cells[(name, k, classes)]
                mean_slots = sum(
                    o.metrics["slots"] for o in outcomes
                ) / len(outcomes)
                constant = sum(
                    o.metrics["constant"] for o in outcomes
                ) / len(outcomes)
                depth = outcomes[0].metrics["depth"]
                bound = theorem_44_constant() * classes
                rows.append(
                    [
                        name,
                        k,
                        depth,
                        classes,
                        mean_slots,
                        constant,
                        bound,
                        "yes" if constant <= bound else "NO",
                    ]
                )
                assert constant <= bound, (name, k, classes, constant)
    print_table(
        [
            "topology",
            "k",
            "D",
            "classes",
            "slots (mean)",
            "slots/((k+D)logΔ)",
            "paper bound",
            "within",
        ],
        rows,
        title="E3: Thm 4.4 — measured collection constant vs 32.27",
    )

    # Scaling in k at fixed topology: exponent ~ <= 1 (linear pipeline).
    means = [
        sum(o.metrics["slots"] for o in cells[(E3_SCALING_TOPOLOGY, k, 3)])
        / len(cells[(E3_SCALING_TOPOLOGY, k, 3)])
        for k in E3_SCALING_KS
    ]
    alpha = scaling_exponent(E3_SCALING_KS, means)
    print_table(
        ["k", "slots"],
        list(zip(E3_SCALING_KS, means)),
        title=(
            f"E3b: slots vs k on {E3_SCALING_TOPOLOGY} "
            f"(fit exponent α = {alpha:.2f})"
        ),
    )
    assert alpha <= 1.2

    benchmark(
        lambda: collection_metrics(E3_SCALING_TOPOLOGY, 8, 3, seed=5)
    )
