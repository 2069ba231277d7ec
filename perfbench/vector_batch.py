"""``vector``: the NumPy lockstep engine's masked path at scale.

``run_collection_batch`` runs B replications of collection on one large
unit-disk field, with k sources taken deepest level first.  The engine's
defaults resolve to sparse reception, the active-set mask and the numpy
backend (numba is optional).  Set-up carries the graphs layer (topology
and the reference BFS tree); the timed operation bypasses the scalar
radio and the runner.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from common import FIELD_SEED, Op, median, merged, ratio

from repro.graphs import random_geometric, reference_bfs_tree
from repro.profiling import profiled
from repro.rng import derive_seed
from repro.vector import BatchCollection, run_collection_batch

N = 10_000
MEAN_DEGREE = 15.4
REPLICATIONS = 16
K = 128

CONTEXT = {
    "n": N,
    "mean_degree": MEAN_DEGREE,
    "replications": REPLICATIONS,
    "k": K,
}


@dataclass
class Inputs:
    seed: int
    graph: Any
    tree: Any
    sources: Dict[int, List[str]]
    topology_s: float
    bfs_tree_s: float


def setup(seed: int, work: Any) -> Inputs:
    radius = math.sqrt(MEAN_DEGREE / (math.pi * N))
    started = time.perf_counter()
    graph = random_geometric(
        N, radius, random.Random(derive_seed(FIELD_SEED, "vector-field"))
    )
    built = time.perf_counter()
    tree = reference_bfs_tree(graph, 0)
    rooted = time.perf_counter()
    deepest = sorted(tree.nodes, key=lambda v: (-tree.level[v], v))[:K]
    sources = {v: [f"m{v}"] for v in deepest}
    return Inputs(
        seed, graph, tree, sources, built - started, rooted - built
    )


def run_op(inputs: Inputs, index: int, traced: bool) -> Op:
    seeds = [
        derive_seed(inputs.seed, "vector", index, b)
        for b in range(REPLICATIONS)
    ]
    detail: Dict[str, Any] = {}
    failures: List[str] = []
    started = time.perf_counter()
    try:
        if traced:
            # run_collection_batch's two steps, timed apart.
            with profiled() as profile:
                sim = BatchCollection(
                    inputs.graph, inputs.tree, inputs.sources, seeds
                )
                built = time.perf_counter()
                completion = sim.run_until_done()
            detail["build_s"] = built - started
            detail["run_s"] = time.perf_counter() - built
            detail["profile"] = profile
        else:
            result = run_collection_batch(
                inputs.graph, inputs.tree, inputs.sources, seeds
            )
            sim, completion = result.simulation, result.completion_slots
    except Exception as exc:  # a failed batch fails every replication
        wall = time.perf_counter() - started
        return Op(wall, 0, REPLICATIONS,
                  [f"batch raised {exc!r}"] * REPLICATIONS)
    wall = time.perf_counter() - started
    for b in range(REPLICATIONS):
        if not sim.done[b] or sim.delivered_count[b] != K:
            failures.append(
                f"replication {b}: done={bool(sim.done[b])}, "
                f"delivered {int(sim.delivered_count[b])} of {K}"
            )
    detail["backend"] = sim.radio.backend.name
    detail["reception"] = sim.radio.reception
    detail["masked"] = bool(sim.masked)
    return Op(
        wall=wall,
        slots=int(completion.sum()),
        attempted=REPLICATIONS,
        failures=failures,
        detail=detail,
    )


def context(inputs: Inputs, op: Op) -> Dict[str, Any]:
    return {
        "backend": op.detail.get("backend"),
        "reception": op.detail.get("reception"),
        "masked": op.detail.get("masked"),
        "depth": inputs.tree.depth,
        "max_degree": inputs.graph.max_degree(),
    }


def ledger(
    inputs: Inputs, untraced: List[Op], traced: List[Op], work
) -> Dict[str, float]:
    profile = merged([op.detail["profile"] for op in traced])
    first = traced[0].detail["profile"].counters
    run_s = sum(op.detail["run_s"] for op in traced)
    seconds = profile.seconds
    loop = sum(seconds.get(f"vector/{p}", 0.0)
               for p in ("decay", "reception", "collection"))
    awake = profile.counters.get("vector_awake_pairs", 0)
    station_slots = (
        first.get("vector_slots", 0) * REPLICATIONS * inputs.graph.num_nodes
    )
    return {
        "graphs.topology_s": inputs.topology_s,
        "graphs.bfs_tree_s": inputs.bfs_tree_s,
        "vector.build_s": median([op.detail["build_s"] for op in traced]),
        "vector.run_s": median([op.detail["run_s"] for op in traced]),
        "vector.slots": first.get("vector_slots", 0),
        "vector.decay_share": ratio(seconds.get("vector/decay", 0.0), run_s),
        "vector.reception_share": ratio(
            seconds.get("vector/reception", 0.0), run_s
        ),
        "vector.collection_share": ratio(
            seconds.get("vector/collection", 0.0), run_s
        ),
        "vector.awake_pairs": first.get("vector_awake_pairs", 0),
        "vector.awake_occupancy": ratio(
            first.get("vector_awake_pairs", 0), station_slots
        ),
        "vector.ns_per_awake_pair": ratio(loop * 1e9, awake),
    }
