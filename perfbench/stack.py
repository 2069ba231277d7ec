"""``stack``: the paper's whole lifecycle on one unit-disk inputs.

Election → Las-Vegas BFS setup → DFS preparation → collection →
point-to-point → broadcast → ranking, in order, on the scalar radio.
It is the only workload where the protocols that poll every station
every slot run (and dominate); its timed operations never touch the
runner or the vector engine.  Each timed operation is one lifecycle
with fresh placements and fresh coins.  The traced run ends with the
runner probe (``runner_probe.py``), which reports the ``runner.*``
metrics.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from common import (
    FIELD_SEED,
    Op,
    median,
    merged,
    poll_share,
    radio_layer,
    ratio,
)

from repro.core import (
    apply_preparation,
    broadcast_reference_slots,
    expected_collection_slots,
    expected_setup_slots,
    p2p_reference_slots,
    run_bit_election,
    run_broadcast,
    run_collection,
    run_dfs_preparation,
    run_point_to_point,
    run_ranking,
    run_setup,
)
from repro.graphs import random_geometric
from repro.profiling import profiled
from repro.rng import derive_seed

N = 48
MEAN_DEGREE = 12
COLLECT_K = 32
P2P_PAIRS = 32
BROADCASTS = 8
#: Las-Vegas re-runs of the election with fresh coins, as
#: ``repro.core.run_full_setup`` does.
ELECTION_ATTEMPTS = 10
LEVEL_CLASSES = 3
STAGES = ("leader", "bfs", "dfs", "collection", "p2p", "broadcast", "ranking")
#: Stages whose result carries the network's ``NetworkStats``.
STATS_STAGES = ("collection", "p2p", "broadcast", "ranking")

CONTEXT = {
    "n": N,
    "mean_degree": MEAN_DEGREE,
    "collection_k": COLLECT_K,
    "p2p_pairs": P2P_PAIRS,
    "broadcast_k": BROADCASTS,
}


@dataclass
class Inputs:
    seed: int
    graph: Any
    topology_s: float


@dataclass
class Placement:
    sources: Dict[int, List[str]]
    pairs: List[Tuple[int, int, str]]
    submissions: Dict[int, List[str]]


def setup(seed: int, work: Any) -> Inputs:
    radius = math.sqrt(MEAN_DEGREE / (math.pi * N))
    started = time.perf_counter()
    graph = random_geometric(
        N, radius, random.Random(derive_seed(FIELD_SEED, "stack-field"))
    )
    return Inputs(seed, graph, time.perf_counter() - started)


def _place(inputs: Inputs, index: int) -> Placement:
    """Operation ``index``'s collection sources, p2p pairs and broadcasts."""
    graph = inputs.graph
    rng = random.Random(derive_seed(inputs.seed, "stack-placement", index))
    stations = sorted(graph.nodes)
    # The bit election elects the largest ID; collection sources sit
    # elsewhere so every message has a path to travel.
    others = stations[:-1]
    sources: Dict[int, List[str]] = {}
    for i in range(COLLECT_K):
        sources.setdefault(rng.choice(others), []).append(f"c{i}")
    pairs = []
    for i in range(P2P_PAIRS):
        source, dest = rng.sample(stations, 2)
        pairs.append((source, dest, f"p{i}"))
    submissions: Dict[int, List[str]] = {}
    for i in range(BROADCASTS):
        submissions.setdefault(rng.choice(stations), []).append(f"b{i}")
    return Placement(sources, pairs, submissions)


class _Abort(Exception):
    """A stage raised; the stages after it cannot run."""


def run_op(inputs: Inputs, index: int, traced: bool) -> Op:
    graph = inputs.graph
    placement = _place(inputs, index)
    walls: Dict[str, float] = {}
    profiles: Dict[str, Any] = {}
    results: Dict[str, Any] = {}
    failures: List[str] = []

    def stage(name: str, call):
        seed = derive_seed(inputs.seed, "stack", index, name)
        started = time.perf_counter()
        try:
            if traced:
                with profiled() as profile:
                    result = call(seed)
                profiles[name] = profile
            else:
                result = call(seed)
        except Exception as exc:  # a failed protocol call is counted
            failures.append(f"{name}: raised {exc!r}")
            raise _Abort from exc
        walls[name] = time.perf_counter() - started
        results[name] = result
        return result

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    started = time.perf_counter()
    try:
        election = stage("leader", lambda seed: _elect(graph, seed)).last
        if not (election.unique and election.agreed):
            failures.append(
                f"leader: not unique and agreed ({election.leaders})"
            )
            raise _Abort
        leader = election.leaders[0]
        setup = stage("bfs", lambda seed: run_setup(graph, leader, seed))
        tree = setup.tree
        check(_spans(graph, tree), "bfs: tree does not span the graph")

        def prepare(seed):
            result = run_dfs_preparation(graph, tree)
            apply_preparation(tree, result)
            return result

        prep = stage("dfs", prepare)
        check(
            len(set(prep.dfs_number.values())) == N,
            "dfs: addresses are not distinct",
        )
        collection = stage(
            "collection",
            lambda seed: run_collection(graph, tree, placement.sources, seed),
        )
        check(
            sorted(m.payload for m in collection.delivered)
            == sorted(p for ps in placement.sources.values() for p in ps),
            f"collection: root got {len(collection.delivered)} of "
            f"{COLLECT_K} messages",
        )
        p2p = stage(
            "p2p",
            lambda seed: run_point_to_point(
                graph, tree, placement.pairs, seed
            ),
        )
        check(_p2p_delivered(placement.pairs, p2p.delivered),
              "p2p: a destination is missing payloads")
        broadcast = stage(
            "broadcast",
            lambda seed: run_broadcast(
                graph, tree, placement.submissions, seed
            ),
        )
        check(broadcast.delivered_everywhere,
              "broadcast: not delivered everywhere")
        ranking = stage(
            "ranking", lambda seed: run_ranking(graph, tree, seed)
        )
        check(
            ranking.ranks
            == {v: i + 1 for i, v in enumerate(sorted(graph.nodes))},
            "ranking: ranks are not the ID order 1..n",
        )
    except _Abort:
        failures.extend(
            f"{name}: not run"
            for name in STAGES
            if name not in walls and not any(
                line.startswith(f"{name}: raised") for line in failures
            )
        )
    wall = time.perf_counter() - started
    slots = {name: results[name].slots for name in results}
    return Op(
        wall=wall,
        slots=sum(slots.values()),
        attempted=len(STAGES),
        failures=failures,
        detail={
            "walls": walls,
            "slots": slots,
            "profiles": profiles,
            "results": results,
        },
    )


@dataclass
class Election:
    """The last election run, with slots summed over every attempt."""

    last: Any
    slots: int
    attempts: int


def _elect(graph, seed: int) -> Election:
    """The bit election, re-run with fresh coins until it is decisive."""
    slots = 0
    for attempt in range(1, ELECTION_ATTEMPTS + 1):
        result = run_bit_election(graph, seed=seed + 101 * attempt)
        slots += result.slots
        if result.unique and result.agreed:
            break
    return Election(result, slots, attempt)


def _spans(graph, tree) -> bool:
    if set(tree.nodes) != set(graph.nodes):
        return False
    return all(
        node == tree.root or graph.has_edge(node, tree.parent[node])
        for node in graph.nodes
    )


def _p2p_delivered(pairs, delivered) -> bool:
    expected: Dict[int, List[str]] = {}
    for _source, dest, payload in pairs:
        expected.setdefault(dest, []).append(payload)
    return all(
        sorted(m.payload for m in delivered.get(dest, [])) == sorted(payloads)
        for dest, payloads in expected.items()
    )


def _collision_frac(stats) -> float:
    return ratio(stats.collisions, stats.deliveries + stats.collisions)


def ledger(
    inputs: Inputs, untraced: List[Op], traced: List[Op], work
) -> Dict[str, float]:
    full = [op for op in untraced if len(op.detail["walls"]) == len(STAGES)]
    lifecycle_wall = sum(op.wall for op in full)
    first = untraced[0].detail
    delta = inputs.graph.max_degree()
    layer: Dict[str, float] = {"graphs.topology_s": inputs.topology_s}
    for name in STAGES:
        stage_profiles = [
            op.detail["profiles"][name]
            for op in traced
            if name in op.detail["profiles"]
        ]
        walls = [op.detail["walls"][name] for op in full]
        layer[f"{name}.wall_s"] = median(walls) if walls else 0.0
        layer[f"{name}.share"] = ratio(
            sum(op.detail["walls"][name] for op in full), lifecycle_wall
        )
        layer[f"{name}.slots"] = first["slots"].get(name, 0)
        layer[f"{name}.poll_share"] = poll_share(
            merged(stage_profiles).counters
        )
    results = first["results"]
    for name in STATS_STAGES:
        if name in results:
            layer[f"{name}.collision_frac"] = _collision_frac(
                results[name].stats
            )
    if "leader" in results:
        layer["leader.attempts"] = results["leader"].attempts
    if "bfs" in results:
        tree = results["bfs"].tree
        depth = tree.depth
        layer["bfs.attempts"] = results["bfs"].attempts
        layer["bfs.bound_ratio"] = ratio(
            results["bfs"].slots, expected_setup_slots(N, depth, delta)
        )
        if "collection" in results:
            layer["collection.bound_ratio"] = ratio(
                results["collection"].slots,
                expected_collection_slots(
                    COLLECT_K, depth, delta, level_classes=LEVEL_CLASSES
                ),
            )
        if "p2p" in results:
            layer["p2p.bound_ratio"] = ratio(
                results["p2p"].slots,
                p2p_reference_slots(
                    P2P_PAIRS, depth, delta, level_classes=LEVEL_CLASSES
                ),
            )
        if "broadcast" in results:
            layer["broadcast.bound_ratio"] = ratio(
                results["broadcast"].slots,
                broadcast_reference_slots(
                    BROADCASTS, depth, delta, N, level_classes=LEVEL_CLASSES
                ),
            )
            layer["broadcast.resends"] = results["broadcast"].resends
    every_profile = [
        profile for op in traced for profile in op.detail["profiles"].values()
    ]
    layer.update(
        radio_layer(
            merged(every_profile), sum(op.wall for op in traced), N
        )
    )
    # Imported here: the runner is no part of the timed lifecycle, and
    # importing it would add to the untraced run's set-up and memory.
    from runner_probe import runner_layer

    layer.update(runner_layer(inputs.seed, work / "runner"))
    return layer
