"""Quick self-check: verify the paper's headline claims in ~half a minute.

``python -m repro validate`` runs a fast (reduced-replication) version of
each headline experiment and prints PASS/FAIL per claim.  It is *not* a
substitute for the full harness (``pytest benchmarks/ --benchmark-only``)
— replication counts are small — but it lets a downstream user confirm in
seconds that their installation reproduces the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List

from repro.rng import RngFactory

ROOT_SEED = 987_654_321


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_decay_property() -> CheckResult:
    from repro.core import decay_budget, success_probability_exact

    worst = 1.0
    for delta in (4, 16, 64):
        budget = decay_budget(delta)
        for m in (2, delta // 2, delta):
            worst = min(worst, float(success_probability_exact(m, budget)))
    return CheckResult(
        name="Decay property (2): P[hear] ≥ 1/2",
        passed=worst >= 0.5,
        detail=f"worst case over Δ ∈ {{4,16,64}}: {worst:.3f}",
    )


def _check_collection_bound() -> CheckResult:
    from repro.core import expected_collection_slots, run_collection
    from repro.graphs import path, reference_bfs_tree

    graph = path(12)
    tree = reference_bfs_tree(graph, 0)
    k = 8
    factory = RngFactory(ROOT_SEED)
    slots = [
        run_collection(
            graph, tree, {11: ["m"] * k}, seed=seed
        ).slots
        for seed in factory.spawn(1).replication_seeds(5)
    ]
    mean = sum(slots) / len(slots)
    bound = expected_collection_slots(
        k, tree.depth, graph.max_degree(), level_classes=3
    )
    return CheckResult(
        name="Thm 4.4: k-collection ≤ 32.27(k+D)logΔ",
        passed=mean <= bound,
        detail=f"measured {mean:.0f} slots vs bound {bound:.0f}",
    )


def _check_model_chain() -> CheckResult:
    from repro.core import LAMBDA_STAR, MU, run_collection
    from repro.graphs import path, reference_bfs_tree
    from repro.queueing import (
        model4_prediction,
        radio_completion_phases,
        simulate_model2,
        simulate_model4,
    )

    depth, k = 5, 4
    graph = path(depth + 1)
    tree = reference_bfs_tree(graph, 0)
    factory = RngFactory(ROOT_SEED)
    t1 = 0.0
    reps = 10
    for seed in factory.spawn(2).replication_seeds(reps):
        result = run_collection(graph, tree, {depth: ["m"] * k}, seed=seed)
        t1 += radio_completion_phases(
            result.slots, result.slot_structure.phase_length
        )
    t1 /= reps
    sim_reps = 200
    t2 = (
        sum(
            simulate_model2(
                (0,) * (depth - 1) + (k,), MU, random.Random(s)
            ).steps
            for s in factory.spawn(3).replication_seeds(sim_reps)
        )
        / sim_reps
    )
    t4 = (
        sum(
            simulate_model4(k, depth, MU, LAMBDA_STAR, random.Random(s)).steps
            for s in factory.spawn(4).replication_seeds(sim_reps)
        )
        / sim_reps
    )
    closed = model4_prediction(k, depth, mu=MU, lam=LAMBDA_STAR)
    ok = t1 <= t2 * 1.1 and t2 <= t4 * 1.1 and abs(t4 - closed) / closed < 0.2
    return CheckResult(
        name="§4.2 model chain: T1 ≤ T2 ≤ T4 ≈ Thm 4.3",
        passed=ok,
        detail=f"T1={t1:.1f} T2={t2:.1f} T4={t4:.1f} thm={closed:.1f}",
    )


def _check_queueing_forms() -> CheckResult:
    from repro.queueing import (
        expected_queue_length,
        expected_sojourn_time,
        observe_single_server,
    )

    lam, mu = 0.1, 0.3
    obs = observe_single_server(
        lam, mu, steps=40_000, rng=random.Random(ROOT_SEED)
    )
    n_err = abs(obs.mean_queue_length - expected_queue_length(lam, mu))
    t_err = abs(obs.mean_sojourn_time - expected_sojourn_time(lam, mu))
    ok = n_err < 0.1 and t_err < 0.8 and abs(obs.departure_rate - lam) < 0.01
    return CheckResult(
        name="Geo/Geo/1 closed forms (Burke/Hsu–Burke)",
        passed=ok,
        detail=(
            f"N̄ err {n_err:.3f}, E(T) err {t_err:.3f}, "
            f"dep rate {obs.departure_rate:.3f} ≈ λ={lam}"
        ),
    )


def _check_setup_and_services() -> CheckResult:
    from repro.core import run_broadcast, run_full_setup, run_ranking
    from repro.graphs import bfs_levels, grid

    graph = grid(3, 3)
    setup = run_full_setup(graph, seed=ROOT_SEED)
    tree = setup.tree
    broadcast = run_broadcast(graph, tree, {4: ["x"]}, seed=ROOT_SEED)
    ranking = run_ranking(graph, tree, seed=ROOT_SEED)
    ok = (
        setup.root == max(graph.nodes)
        and tree.level == bfs_levels(graph, setup.root)
        and broadcast.delivered_everywhere
        and ranking.ranks == {n: n + 1 for n in graph.nodes}
    )
    return CheckResult(
        name="end-to-end: election → setup → DFS prep → broadcast → ranking",
        passed=ok,
        detail=(
            f"leader {setup.root}, election {setup.election_slots} slots, "
            f"setup {setup.bfs_slots}, broadcast {broadcast.slots}, "
            f"ranking {ranking.slots}"
        ),
    )


def _check_ack_determinism() -> CheckResult:
    from repro.core import run_collection
    from repro.graphs import layered_band, reference_bfs_tree

    graph = layered_band(3, 4)
    tree = reference_bfs_tree(graph, 0)
    sources = {n: ["a", "b"] for n in graph.nodes if n != 0}
    # run_collection's lanes are strict: any Thm 3.1 violation raises.
    for seed in range(5):
        run_collection(graph, tree, sources, seed=seed)
    return CheckResult(
        name="Thm 3.1: deterministic acks (no duplicates, 5 seeds)",
        passed=True,
        detail="strict mode raised no protocol errors",
    )


CHECKS: List[Callable[[], CheckResult]] = [
    _check_decay_property,
    _check_collection_bound,
    _check_model_chain,
    _check_queueing_forms,
    _check_setup_and_services,
    _check_ack_determinism,
]


def run_validation() -> List[CheckResult]:
    """Run all quick checks; prints and returns the results."""
    results = []
    for check in CHECKS:
        try:
            result = check()
        except Exception as error:  # a crash is a failure, with context
            result = CheckResult(
                name=getattr(check, "__name__", "check"),
                passed=False,
                detail=f"raised {type(error).__name__}: {error}",
            )
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}")
        print(f"       {result.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(
        f"\n{len(results) - failed}/{len(results)} claims verified"
        + ("" if failed == 0 else f" — {failed} FAILED")
    )
    return results
