"""EV — engine throughput: vector lockstep batch vs scalar slot loop.

Not a paper claim — the capacity statement behind ``--engine vector``:
replications/second of both engines on an E3-style collection cell that
is large enough to matter (n = 200 stations, B = 64 replications), plus
the speedup ratio.  The acceptance floor is 10×; the measured ratio is
recorded in ``benchmarks/results/BENCH_VECTOR.json`` so CI can publish
it as an artifact.

Timing uses plain ``perf_counter`` (no pytest-benchmark fixture): the
scalar engine is slow at this size, so the scalar side is timed on a
seed subset and reported as a rate.  The two sides are timed in
interleaved rounds (the scalar sample, then the vector batch) and each
keeps its best round: on a shared host the speed swings between
moments, and a ratio of two rates timed at different moments swings
with it, while the best of several rounds close together does not.
"""

import json
import time

from conftest import ROOT_SEED, bench_results_dir

from repro.core import run_collection
from repro.graphs import layered_band, reference_bfs_tree
from repro.rng import derive_seed
from repro.vector import run_collection_batch

#: The benchmark cell: a 25-layer band of width 8 (n = 200), k = 16
#: messages spread over the deepest layer, 64 replications.
LAYERS, WIDTH = 25, 8
K = 16
REPLICATIONS = 64
#: Scalar runs timed per round (the rate extrapolates).
SCALAR_SAMPLE = 6
#: Interleaved rounds; each side's rate is its best round's.
ROUNDS = 5
#: Acceptance floor: vector must beat scalar by at least this factor.
MIN_SPEEDUP = 10.0


def _cell():
    graph = layered_band(LAYERS, WIDTH)
    tree = reference_bfs_tree(graph, 0)
    deepest_level = max(tree.level.values())
    deepest = sorted(
        v for v in tree.nodes if tree.level[v] == deepest_level
    )
    per_node = K // len(deepest) or 1
    sources = {
        v: [f"m{v}-{i}" for i in range(per_node)]
        for v in deepest[: K // per_node]
    }
    return graph, tree, sources


def test_vector_engine_speedup():
    graph, tree, sources = _cell()
    seeds = [
        derive_seed(ROOT_SEED, "bench-vector", index)
        for index in range(REPLICATIONS)
    ]

    scalar_seconds = vector_seconds = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        scalar_slots = [
            run_collection(graph, tree, sources, seed).slots
            for seed in seeds[:SCALAR_SAMPLE]
        ]
        scalar_seconds = min(scalar_seconds, time.perf_counter() - started)

        started = time.perf_counter()
        batch = run_collection_batch(graph, tree, sources, seeds)
        vector_seconds = min(vector_seconds, time.perf_counter() - started)

        # Sanity: both engines drained the same workload to completion.
        assert all(s > 0 for s in scalar_slots)
        assert (batch.completion_slots > 0).all()
    scalar_rate = SCALAR_SAMPLE / scalar_seconds
    vector_rate = REPLICATIONS / vector_seconds

    speedup = vector_rate / scalar_rate
    summary = {
        "experiment": "VECTOR",
        "title": "vector lockstep batch vs scalar slot loop",
        "cell": {
            "topology": f"band-{LAYERS}x{WIDTH}",
            "stations": graph.num_nodes,
            "k": sum(len(v) for v in sources.values()),
            "replications": REPLICATIONS,
            "seed": ROOT_SEED,
        },
        "rounds": ROUNDS,
        "scalar": {
            "replications_timed": SCALAR_SAMPLE,
            "seconds": round(scalar_seconds, 3),
            "replications_per_sec": round(scalar_rate, 3),
        },
        "vector": {
            "replications_timed": REPLICATIONS,
            "seconds": round(vector_seconds, 3),
            "replications_per_sec": round(vector_rate, 3),
        },
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
    }
    out = bench_results_dir() / "BENCH_VECTOR.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"\nEV: scalar {scalar_rate:.2f} rep/s, vector {vector_rate:.2f} "
        f"rep/s, speedup {speedup:.1f}x -> {out}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vector engine only {speedup:.1f}x faster than scalar "
        f"(floor {MIN_SPEEDUP}x)"
    )
