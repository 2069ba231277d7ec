"""E0 — infrastructure: raw simulator throughput.

Not a paper claim — a capacity statement for the reproduction itself:
how many slot·station updates per second the engine sustains, and how
cost scales with network size and density.  This is what bounds the
experiment sizes everywhere else in the harness.
"""

import json
import random
import time

from conftest import ROOT_SEED, bench_results_dir

from repro.analysis import print_table
from repro.core import build_collection_network, run_collection
from repro.graphs import (
    balanced_tree,
    gnp_connected,
    grid,
    path,
    reference_bfs_tree,
)
from repro.radio import RadioNetwork, SilentProcess


def idle_slot_rate(graph, slots=2_000):
    """Slots/second with all-silent stations (pure engine overhead)."""
    network = RadioNetwork(graph)
    network.attach_all(SilentProcess)
    start = time.perf_counter()
    network.run(slots)
    elapsed = time.perf_counter() - start
    return slots / elapsed


def test_e0_engine_throughput(benchmark):
    rows = []
    for name, graph in [
        ("path-64", path(64)),
        ("grid-16x16", grid(16, 16)),
        ("gnp-128", gnp_connected(128, 0.08, random.Random(1))),
    ]:
        rate = idle_slot_rate(graph)
        rows.append(
            [
                name,
                graph.num_nodes,
                graph.num_edges,
                rate,
                rate * graph.num_nodes,
            ]
        )
    print_table(
        ["topology", "n", "edges", "slots/s", "station-slots/s"],
        rows,
        title="E0: engine throughput (idle stations; protocol work extra)",
    )
    # A laptop-scale floor: the harness assumes ~10^4 slots/s at n≈100.
    assert all(row[3] > 2_000 for row in rows)

    # The benchmark proper: a busy protocol workload (collection).
    graph = grid(6, 6)
    tree = reference_bfs_tree(graph, 0)
    sources = {n: ["m"] for n in list(graph.nodes)[1:13]}
    benchmark(
        lambda: run_collection(graph, tree, sources, seed=3).slots
    )


def test_e0_neighbor_cache_guard(benchmark):
    """Guard: neighbor tuples are derived once per topology, not per slot.

    The reception loop iterates per-node neighbor tuples millions of
    times; they must come from the cache built at topology-assignment
    time.  The identity checks pin the contract (same cache object
    across slots; rebuilt exactly when ``graph`` is reassigned) and the
    benchmark tracks the cached hot path so a regression that re-derives
    adjacency per slot shows up as a step change.
    """
    graph = grid(12, 12)
    network = RadioNetwork(graph)
    network.attach_all(SilentProcess)
    cached = network._neighbors
    network.run(200)
    assert network._neighbors is cached, "cache rebuilt inside slot loop"
    network.graph = grid(12, 12)
    assert network._neighbors is not cached, (
        "topology change must rebuild the neighbor cache"
    )

    bench_network = RadioNetwork(grid(12, 12))
    bench_network.attach_all(SilentProcess)
    benchmark(lambda: bench_network.run(200))


#: Idle-scheduling bench cell: a level-multiplexed collection on a
#: depth-10 binary tree with n = 2047 stations, k = 32 messages at the
#: deepest leaves — level classes (§2.2) plus mostly-empty buffers make
#: almost every station declarably silent in almost every slot.
IDLE_DEPTH = 10
IDLE_K = 32
IDLE_WINDOW = 2_000
IDLE_MIN_SPEEDUP = 2.0
#: Interleaved rounds; each leg's time is its best round's.
IDLE_ROUNDS = 5


def _idle_cell():
    graph = balanced_tree(2, IDLE_DEPTH)
    tree = reference_bfs_tree(graph, 0)
    deepest = sorted(
        v for v in tree.nodes if tree.level[v] == IDLE_DEPTH
    )[:IDLE_K]
    sources = {v: [f"m{v}"] for v in deepest}
    return graph, tree, sources


def _collection_fingerprint(network, processes, root):
    """Everything observable about a collection run's protocol outcome."""
    stats = network.stats.channel(0)
    return {
        "delivered": [m.msg_id for m in processes[root].delivered],
        "backlogs": [p.lane.backlog for p in processes.values()],
        "data_tx": sum(p.lane.data_transmissions for p in processes.values()),
        "ack_tx": sum(p.lane.ack_transmissions for p in processes.values()),
        "transmissions": stats.transmissions,
        "deliveries": stats.deliveries,
        "collisions": stats.collisions,
    }


def _timed_leg(graph, tree, sources, idle):
    """One fresh run of the window: ``(seconds, fingerprint)``."""
    network, processes, _ = build_collection_network(
        graph, tree, sources, seed=ROOT_SEED
    )
    network.idle_scheduling = idle
    started = time.perf_counter()
    network.run(IDLE_WINDOW)
    seconds = time.perf_counter() - started
    return seconds, _collection_fingerprint(network, processes, tree.root)


def test_e0_idle_scheduling_speedup():
    """The quiet_until fast path: >= 2x slots/sec, identical outcomes.

    Both runs use the same seed and execute the same fixed slot window;
    the only difference is ``idle_scheduling``.  The fingerprints must
    agree exactly — the fast path skips only provable no-op callbacks,
    so every transmission, delivery, collision and coin flip is
    unchanged.

    The two legs are timed in interleaved rounds (legacy, then idle)
    and each keeps its best round, as ``bench_vector.py`` does: the idle
    leg lasts tens of milliseconds, so one timing of it swings with the
    host's speed at that moment, and so would the ratio.
    """
    graph, tree, sources = _idle_cell()
    best = {False: float("inf"), True: float("inf")}
    prints = {}
    for _ in range(IDLE_ROUNDS):
        for idle in (False, True):
            seconds, fingerprint = _timed_leg(graph, tree, sources, idle)
            best[idle] = min(best[idle], seconds)
            assert prints.setdefault(idle, fingerprint) == fingerprint

    legacy_seconds, idle_seconds = best[False], best[True]
    legacy_print, idle_print = prints[False], prints[True]
    assert idle_print == legacy_print, (
        "idle scheduling changed protocol outcomes"
    )
    # The workload must be real: traffic flowed and drained to the root.
    assert idle_print["deliveries"] > 0
    assert len(idle_print["delivered"]) > 0

    legacy_rate = IDLE_WINDOW / legacy_seconds
    idle_rate = IDLE_WINDOW / idle_seconds
    speedup = idle_rate / legacy_rate
    summary = {
        "experiment": "IDLE",
        "title": "idle-aware scalar slot loop vs poll-every-process",
        "cell": {
            "topology": f"btree-2x{IDLE_DEPTH}",
            "stations": graph.num_nodes,
            "k": IDLE_K,
            "window_slots": IDLE_WINDOW,
            "seed": ROOT_SEED,
        },
        "rounds": IDLE_ROUNDS,
        "legacy": {
            "seconds": round(legacy_seconds, 3),
            "slots_per_sec": round(legacy_rate, 1),
        },
        "idle": {
            "seconds": round(idle_seconds, 3),
            "slots_per_sec": round(idle_rate, 1),
        },
        "speedup": round(speedup, 2),
        "min_speedup": IDLE_MIN_SPEEDUP,
    }
    out = bench_results_dir() / "BENCH_IDLE.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"\nE0-idle: legacy {legacy_rate:.0f} slots/s, idle-aware "
        f"{idle_rate:.0f} slots/s, speedup {speedup:.1f}x -> {out}"
    )
    assert speedup >= IDLE_MIN_SPEEDUP, (
        f"idle-aware loop only {speedup:.1f}x faster at n="
        f"{graph.num_nodes} (floor {IDLE_MIN_SPEEDUP}x)"
    )
