"""E2 — Theorem 4.1: per-phase level-advance probability ≥ µ = e⁻¹(1−e⁻¹).

"Let i ≥ 1 be a level containing messages at the beginning of a phase.
There is probability µ = e⁻¹(1−e⁻¹) that during the phase a message from
level i is successfully received by its BFS parent."

Unlike Decay property (2) this demands the message arrive at its *correct
destination* despite cross-traffic toward other parents.  The adversarial
shape (root, P parents, C children adjacent to all parents) and the
advance-rate measurement live in ``repro.runner.defs`` as experiment
``E2``; this bench drives the grid through the parallel runner and
asserts the bound per configuration.  A run's KPI report comes from
``python -m repro run E2 --json DIR`` (``DIR/KPI_E2.json``).
"""

from conftest import run_experiment_for_bench

from repro.analysis import print_table, summarize
from repro.core import MU
from repro.runner.defs import E2_CONFIGS, advance_rate_metrics


def test_e2_theorem_41_advance_probability(benchmark):
    report = run_experiment_for_bench("E2", replications=6)
    cells = {}
    for outcomes in report.grouped().values():
        params = outcomes[0].spec.params
        cells[(params["parents"], params["children"])] = outcomes

    rows = []
    for parents, children, load in E2_CONFIGS:
        outcomes = cells[(parents, children)]
        summary = summarize(
            [o.metrics["advance_rate"] for o in outcomes]
        )
        delta = outcomes[0].metrics["delta"]
        rows.append(
            [
                parents,
                children,
                delta,
                load,
                summary.mean,
                MU,
                "yes" if summary.mean >= MU else "NO",
            ]
        )
        assert summary.mean >= MU, (parents, children, summary)
    print_table(
        [
            "parents",
            "children",
            "Δ",
            "msgs/child",
            "advance rate",
            "µ bound",
            "≥ µ",
        ],
        rows,
        title="E2: Thm 4.1 — per-phase P[level advances] vs µ ≈ 0.2325",
    )
    benchmark(lambda: advance_rate_metrics(2, 8, 1, seed=1))
