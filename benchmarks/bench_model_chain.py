"""E4 — the model reduction chain (§4.2, Thm 4.15 + Lemmas 4.10/4.11).

``E[T(model 1)] ≤ E[T(model 2)] ≤ E[T(model 3)] ≤ E[T(model 4)]``

Model 1 is the real radio protocol (collection on a depth-D path, measured
in Decay phases); models 2–4 are the tandem-queue abstractions with
service probability exactly µ; model 4's expectation also has Theorem
4.3's closed form.  Matched (k, D, µ, λ*) across the chain.
"""

from conftest import replication_seeds

from repro.analysis import print_table, summarize
from repro.core import LAMBDA_STAR, MU, run_collection
from repro.graphs import path, reference_bfs_tree
from repro.queueing import (
    model4_prediction,
    radio_completion_phases,
    simulate_model2,
    simulate_model3,
    simulate_model4,
)
import random


def radio_phases(depth: int, k: int, seed: int) -> int:
    graph = path(depth + 1)
    tree = reference_bfs_tree(graph, 0)
    sources = {depth: [f"m{i}" for i in range(k)]}
    result = run_collection(graph, tree, sources, seed)
    return radio_completion_phases(
        result.slots, result.slot_structure.phase_length
    )


def test_e4_model_chain(benchmark):
    rows = []
    reps = 60
    tandem_reps = 400
    for depth, k in [(5, 4), (10, 8), (15, 4)]:
        seeds = replication_seeds(f"e4-{depth}-{k}", reps)
        t1 = summarize(
            [float(radio_phases(depth, k, s)) for s in seeds]
        ).mean
        t2 = summarize(
            [
                float(
                    simulate_model2(
                        (0,) * (depth - 1) + (k,), MU, random.Random(s)
                    ).steps
                )
                for s in replication_seeds(f"e4m2-{depth}-{k}", tandem_reps)
            ]
        ).mean
        t3 = summarize(
            [
                float(
                    simulate_model3(
                        k, depth, MU, LAMBDA_STAR, random.Random(s)
                    ).steps
                )
                for s in replication_seeds(f"e4m3-{depth}-{k}", tandem_reps)
            ]
        ).mean
        t4 = summarize(
            [
                float(
                    simulate_model4(
                        k, depth, MU, LAMBDA_STAR, random.Random(s)
                    ).steps
                )
                for s in replication_seeds(f"e4m4-{depth}-{k}", tandem_reps)
            ]
        ).mean
        closed_form = model4_prediction(k, depth, mu=MU, lam=LAMBDA_STAR)
        if depth * k <= 40:
            # Third leg: the exact absorbing-Markov-chain value for
            # model 3 (linear algebra, no randomness).
            from repro.queueing import expected_completion_model3_exact

            t3_exact = expected_completion_model3_exact(
                k, depth, MU, LAMBDA_STAR
            )
            assert abs(t3 - t3_exact) / t3_exact < 0.08, (t3, t3_exact)
        else:
            t3_exact = float("nan")
        rows.append([depth, k, t1, t2, t3, t3_exact, t4, closed_form])
        slack = 1.05  # Monte-Carlo noise allowance
        assert t1 <= t2 * slack, (depth, k, t1, t2)
        assert t2 <= t3 * slack, (depth, k, t2, t3)
        assert t3 <= t4 * slack, (depth, k, t3, t4)
        assert abs(t4 - closed_form) / closed_form < 0.12
    print_table(
        [
            "D",
            "k",
            "T1 radio",
            "T2 placed",
            "T3 arrivals",
            "T3 exact",
            "T4 steady",
            "Thm 4.3",
        ],
        rows,
        title="E4: expected completion (phases) along the model chain",
    )
    benchmark(lambda: radio_phases(5, 4, seed=3))
