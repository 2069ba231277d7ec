"""SCALE100K — the lockstep loop at n up to 10⁵ stations.

Not a paper claim — the capacity statement behind ``--engine vector`` at
scale: a collection batch with k messages has at most O(k·B)
provably-awake (replication, station) pairs per slot, and the lockstep
loop only works on those.  This sweep times it on unit-disk fields of
growing n, records the awake and live occupancy that explain the rate,
and writes
``benchmarks/results/BENCH_SCALE100K.json``.
"""

import json
import random
import time

from conftest import ROOT_SEED, bench_results_dir

from repro.graphs import random_geometric, reference_bfs_tree
from repro.rng import derive_seed
from repro.vector.collection import BatchCollection


def _timed_window(sim, slots):
    started = time.perf_counter()
    for _ in range(slots):
        sim.step()
    return time.perf_counter() - started


#: Sweep sizes.
SWEEP_NS = (10_000, 30_000, 100_000)
#: Unit-disk mean-degree target.  Connectivity needs ~ln n; 15.4 keeps
#: a comfortable margin at n = 10⁵ (ln 10⁵ ≈ 11.5) without inflating Δ.
TARGET_MEAN_DEGREE = 15.4
#: Sources (stations at the deepest levels) and replications per point.
SWEEP_K = 32
SWEEP_REPLICATIONS = 3
SWEEP_WARMUP = 4
SWEEP_WINDOW = 24


def _sweep_cell(n):
    import math

    radius = math.sqrt(TARGET_MEAN_DEGREE / (math.pi * n))
    graph = random_geometric(n, radius, random.Random(ROOT_SEED))
    tree = reference_bfs_tree(graph, 0)
    deepest_level = max(tree.level.values())
    sources = {}
    level = deepest_level
    while len(sources) < SWEEP_K and level > 0:
        for v in sorted(v for v in tree.nodes if tree.level[v] == level):
            if len(sources) == SWEEP_K:
                break
            sources[v] = [f"m{v}"]
        level -= 1
    return graph, tree, sources, radius


def test_masked_scaling_sweep():
    points = []
    for n in SWEEP_NS:
        graph, tree, sources, radius = _sweep_cell(n)
        seeds = [
            derive_seed(ROOT_SEED, "bench-scale-masked", n, index)
            for index in range(SWEEP_REPLICATIONS)
        ]
        sim = BatchCollection(graph, tree, sources, seeds)
        for _ in range(SWEEP_WARMUP):
            sim.step()
        seconds = _timed_window(sim, SWEEP_WINDOW)
        rate = SWEEP_REPLICATIONS * SWEEP_WINDOW / seconds
        occupancy = sim.awake_occupancy
        live = sim.live_occupancy
        points.append({
            "n": n,
            "radius": round(radius, 6),
            "stations": graph.num_nodes,
            "edges": graph.num_edges,
            "max_degree": graph.max_degree(),
            "k": sum(len(v) for v in sources.values()),
            "replications": SWEEP_REPLICATIONS,
            "window_slots": SWEEP_WINDOW,
            "awake_occupancy": round(float(occupancy), 8),
            "live_occupancy": round(float(live), 8),
            "slots_per_sec": round(rate, 3),
        })
        print(
            f"\nSCALE100K n={n}: {rate:.1f} rep·slots/s "
            f"(occupancy {occupancy:.2e}, live {live:.2e})"
        )

    largest = max(points, key=lambda p: p["n"])
    summary = {
        "experiment": "SCALE100K",
        "title": "lockstep loop rate and awake occupancy up to n = 10^5",
        "seed": ROOT_SEED,
        "sweep": points,
        "n": largest["n"],
        "awake_occupancy": largest["awake_occupancy"],
        "live_occupancy": largest["live_occupancy"],
    }
    out = bench_results_dir() / "BENCH_SCALE100K.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"SCALE100K sweep -> {out}")

    # The occupancy is what the loop cashes in: a few dozen awake pairs
    # against B·n station slots.
    assert 0.0 < largest["awake_occupancy"] < 0.05
