"""ES — large-n scaling: sparse CSR reception vs the dense adjacency product.

Not a paper claim — the capacity statement behind ``--reception sparse``:
at n = 10⁴ stations on a unit-disk field (the canonical radio topology),
the dense kernel pays O(B·n²) work and a ~400 MB float32 adjacency per
batch regardless of how few stations transmit, while the CSR scatter
pays O(transmitters·degree).  This bench times both kernels on an
*identical* slot window of one collection batch, asserts their
trajectories stayed bit-identical, and records the throughput ratio in
``benchmarks/results/BENCH_SCALE.json`` (regression-gated by
``benchmarks/check_regression.py`` against ``benchmarks/floors.json``).

The window is deliberately short: the dense kernel needs ~1 GFLOP per
slot at this size, and a dozen slots is plenty to time it; the sparse
kernel's advantage only grows with run length.
"""

import json
import random
import time

import numpy as np
from conftest import ROOT_SEED, bench_results_dir

from repro.graphs import random_geometric, reference_bfs_tree
from repro.rng import derive_seed
from repro.vector.collection import BatchCollection
from repro.vector.engine import LockstepRadio

#: The benchmark cell: a connected unit-disk field with n = 10_000
#: stations (radius tuned for mean degree ~10, Δ ≈ 25).
N = 10_000
RADIUS = 0.018
K = 32
REPLICATIONS = 4
#: Untimed warm-up slots: fills the amortized coin block (identical in
#: both runs) so a refill that serves 256 data slots is not charged to
#: a 12-slot timing window.
WARMUP = 4
#: Slots timed per kernel (identical window, identical coins).
WINDOW = 12
#: Acceptance floor: sparse must beat dense by at least this factor.
MIN_SPEEDUP = 5.0


def _cell():
    graph = random_geometric(N, RADIUS, random.Random(ROOT_SEED))
    tree = reference_bfs_tree(graph, 0)
    deepest_level = max(tree.level.values())
    deepest = sorted(
        v for v in tree.nodes if tree.level[v] == deepest_level
    )[:K]
    sources = {v: [f"m{v}"] for v in deepest}
    return graph, tree, sources


def _batch_state(sim):
    return (
        sim.backlog.copy(),
        sim.head.copy(),
        sim.delivered_count.copy(),
        sim.pending_child.copy(),
        sim.pending_msg.copy(),
        sim.done.copy(),
    )


def _timed_window(sim, slots):
    started = time.perf_counter()
    for _ in range(slots):
        sim.step()
    return time.perf_counter() - started


def test_sparse_kernel_scaling():
    graph, tree, sources = _cell()
    seeds = [
        derive_seed(ROOT_SEED, "bench-scale", index)
        for index in range(REPLICATIONS)
    ]

    # mask="off" pins both runs to the full-width loop: the bench times
    # the reception kernels, and at this n the auto mask would otherwise
    # switch both sims onto the pair-list path where reception mode is
    # irrelevant (the masked loop scatters over awake pairs directly).
    sparse = BatchCollection(
        graph, tree, sources, seeds, reception="sparse", mask="off"
    )
    dense = BatchCollection(
        graph, tree, sources, seeds, reception="dense", mask="off"
    )
    assert sparse.radio.reception == "sparse"
    assert dense.radio.reception == "dense"
    # The auto heuristic must pick sparse at this size on its own.
    auto = LockstepRadio(graph, tree, 1, reception="auto")
    assert auto.reception == "sparse"

    for sim in (sparse, dense):
        for _ in range(WARMUP):
            sim.step()
    sparse_seconds = _timed_window(sparse, WINDOW)
    dense_seconds = _timed_window(dense, WINDOW)

    # Same seeds, same coins, bit-identical kernels: after the identical
    # window the two batch states must agree exactly.
    for a, b in zip(_batch_state(sparse), _batch_state(dense)):
        assert np.array_equal(a, b)
    assert sparse.slot == dense.slot == WARMUP + WINDOW

    sparse_rate = REPLICATIONS * WINDOW / sparse_seconds
    dense_rate = REPLICATIONS * WINDOW / dense_seconds
    speedup = sparse_rate / dense_rate
    nnz = int(sparse.radio.indices.size)
    summary = {
        "experiment": "SCALE",
        "title": "sparse CSR reception vs dense adjacency product",
        "cell": {
            "topology": f"rgg-{N}",
            "stations": graph.num_nodes,
            "edges": nnz // 2,
            "density": round(nnz / (N * N), 6),
            "max_degree": graph.max_degree(),
            "k": sum(len(v) for v in sources.values()),
            "replications": REPLICATIONS,
            "window_slots": WINDOW,
            "seed": ROOT_SEED,
        },
        "dense": {
            "seconds": round(dense_seconds, 3),
            "replication_slots_per_sec": round(dense_rate, 3),
        },
        "sparse": {
            "seconds": round(sparse_seconds, 3),
            "replication_slots_per_sec": round(sparse_rate, 3),
        },
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "auto_resolution": auto.reception,
    }
    out = bench_results_dir() / "BENCH_SCALE.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"\nES: dense {dense_rate:.2f} rep·slots/s, sparse "
        f"{sparse_rate:.2f} rep·slots/s, speedup {speedup:.1f}x -> {out}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"sparse kernel only {speedup:.1f}x faster than dense at n={N} "
        f"(floor {MIN_SPEEDUP}x)"
    )


# ----------------------------------------------------------------------
# SCALE100K — the idle-aware (active-set masked) loop at n up to 10⁵
# ----------------------------------------------------------------------
#
# The capacity statement behind ``--mask``: a collection batch with k
# messages has at most O(k·B) provably-awake (replication, station)
# pairs per slot, while the full-width loop pays O(B·n) regardless.
# This sweep times the masked loop against the unmasked sparse loop on
# unit-disk fields of growing n (same radio physics, distributionally
# identical protocol), records the awake-set occupancy that explains
# the gap, and gates the largest-n speedup in
# ``benchmarks/results/BENCH_SCALE100K.json``.

#: Sweep sizes; ``REPRO_SCALE_N`` (single integer) overrides the whole
#: sweep — CI smoke runs the reduced n=10⁴ point through the same gate.
SWEEP_NS = (10_000, 30_000, 100_000)
#: Unit-disk mean-degree target.  Connectivity needs ~ln n; 15.4 keeps
#: a comfortable margin at n = 10⁵ (ln 10⁵ ≈ 11.5) without inflating Δ.
TARGET_MEAN_DEGREE = 15.4
#: Sources (stations at the deepest levels) and replications per point.
SWEEP_K = 32
SWEEP_REPLICATIONS = 3
SWEEP_WARMUP = 4
SWEEP_WINDOW = 24
#: Acceptance floor at the largest sweep point: the masked loop must
#: beat the unmasked sparse loop by at least this factor.
MIN_MASKED_SPEEDUP = 5.0


def _sweep_ns():
    import os

    override = os.environ.get("REPRO_SCALE_N")
    if override:
        return (int(override),)
    return SWEEP_NS


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
    from repro.vector import available_backends

    backends = available_backends()
    points = []
    for n in _sweep_ns():
        graph, tree, sources, radius = _sweep_cell(n)
        seeds = [
            derive_seed(ROOT_SEED, "bench-scale-masked", n, index)
            for index in range(SWEEP_REPLICATIONS)
        ]

        unmasked = BatchCollection(
            graph, tree, sources, seeds, reception="sparse", mask="off"
        )
        assert not unmasked.masked
        for _ in range(SWEEP_WARMUP):
            unmasked.step()
        unmasked_seconds = _timed_window(unmasked, SWEEP_WINDOW)
        unmasked_rate = SWEEP_REPLICATIONS * SWEEP_WINDOW / unmasked_seconds

        masked_rates = {}
        occupancy = live = None
        for backend in backends:
            masked = BatchCollection(
                graph, tree, sources, seeds,
                reception="sparse", mask="on", backend=backend,
            )
            assert masked.masked
            # The auto threshold must turn the mask on by itself at
            # every sweep size.
            auto = BatchCollection(
                graph, tree, sources, seeds[:1], mask="auto"
            )
            assert auto.masked
            for _ in range(SWEEP_WARMUP):
                masked.step()
            masked_seconds = _timed_window(masked, SWEEP_WINDOW)
            masked_rates[backend] = (
                SWEEP_REPLICATIONS * SWEEP_WINDOW / masked_seconds
            )
            if backend == "numpy":
                occupancy = masked.awake_occupancy
                live = masked.live_occupancy
        best_rate = max(masked_rates.values())
        speedup = best_rate / unmasked_rate
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
            "unmasked_slots_per_sec": round(unmasked_rate, 3),
            "masked_slots_per_sec": {
                name: round(rate, 3) for name, rate in masked_rates.items()
            },
            "speedup": round(speedup, 2),
        })
        print(
            f"\nSCALE100K n={n}: unmasked {unmasked_rate:.1f} "
            f"rep·slots/s, masked {best_rate:.1f} rep·slots/s "
            f"({speedup:.1f}x, occupancy {occupancy:.2e}, "
            f"live {live:.2e})"
        )

    largest = max(points, key=lambda p: p["n"])
    summary = {
        "experiment": "SCALE100K",
        "title": "active-set masked loop vs unmasked sparse lockstep",
        "seed": ROOT_SEED,
        "backends": list(backends),
        "sweep": points,
        "n": largest["n"],
        "speedup": largest["speedup"],
        "awake_occupancy": largest["awake_occupancy"],
        "live_occupancy": largest["live_occupancy"],
        "min_speedup": MIN_MASKED_SPEEDUP,
    }
    out = bench_results_dir() / "BENCH_SCALE100K.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"SCALE100K sweep -> {out}")

    # The occupancy is what the speedup cashes in: a few dozen awake
    # pairs against B·n slots of full-width work.
    assert 0.0 < largest["awake_occupancy"] < 0.05
    if largest["n"] >= SWEEP_NS[-1]:
        assert largest["speedup"] >= MIN_MASKED_SPEEDUP, (
            f"masked loop only {largest['speedup']:.1f}x faster than the "
            f"unmasked sparse loop at n={largest['n']} "
            f"(floor {MIN_MASKED_SPEEDUP}x)"
        )
