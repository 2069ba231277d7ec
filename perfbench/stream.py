"""``stream``: service mode under an open arrival stream.

``run_service`` streams Bernoulli arrivals at the deepest stations of a
unit-disk field through the collection protocol for a fixed horizon —
an open loop in simulated time, below the stability knee.  Each
operation draws a fresh arrival stream and fresh coins.  Arrivals
flow through the idle-scheduled collection path (few stations awake per
slot), with wake-on-submit, the bounded dedup window and the streaming
sketches; no other workload drives the service layer.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from common import FIELD_SEED, Op, merged, radio_layer

from repro.core import SlotStructure, decay_budget
from repro.graphs import random_geometric, reference_bfs_tree
from repro.profiling import profiled
from repro.rng import derive_seed
from repro.service import run_service
from repro.workloads import BernoulliArrivals

N = 200
MEAN_DEGREE = 12
SOURCES = 16
#: Messages per source per phase; the aggregate sits well below the
#: pipeline's capacity, so the drift test must call every run stable.
RATE = 0.02
PHASES = 1500

CONTEXT = {
    "n": N,
    "mean_degree": MEAN_DEGREE,
    "sources": SOURCES,
    "rate_per_source_phase": RATE,
    "phases": PHASES,
}


@dataclass
class Inputs:
    seed: int
    graph: Any
    tree: Any
    sources: List[int]
    phase_length: int
    horizon_slots: int
    topology_s: float
    bfs_tree_s: float


def setup(seed: int, work: Any) -> Inputs:
    radius = math.sqrt(MEAN_DEGREE / (math.pi * N))
    started = time.perf_counter()
    graph = random_geometric(
        N, radius, random.Random(derive_seed(FIELD_SEED, "stream-field"))
    )
    built = time.perf_counter()
    tree = reference_bfs_tree(graph, 0)
    rooted = time.perf_counter()
    deepest = sorted(tree.nodes, key=lambda v: (-tree.level[v], v))[:SOURCES]
    phase_length = SlotStructure(
        decay_budget(graph.max_degree()), 3, True
    ).phase_length
    return Inputs(
        seed, graph, tree, deepest, phase_length, PHASES * phase_length,
        built - started, rooted - built,
    )


def run_op(inputs: Inputs, index: int, traced: bool) -> Op:
    seed = derive_seed(inputs.seed, "stream", index)
    arrivals = BernoulliArrivals(
        inputs.sources, RATE, inputs.phase_length,
        seed=derive_seed(inputs.seed, "stream-arrivals", index),
    )
    detail: Dict[str, Any] = {}
    started = time.perf_counter()
    try:
        if traced:
            with profiled() as profile:
                kpis = run_service(
                    inputs.graph, inputs.tree, arrivals, seed,
                    inputs.horizon_slots,
                )
            detail["profile"] = profile
        else:
            kpis = run_service(
                inputs.graph, inputs.tree, arrivals, seed,
                inputs.horizon_slots,
            )
    except Exception as exc:  # the service run is one operation
        return Op(time.perf_counter() - started, 0, 1,
                  [f"service raised {exc!r}"])
    wall = time.perf_counter() - started
    failures = []
    if kpis.submitted != kpis.delivered + kpis.final_backlog:
        failures.append(
            f"conservation: submitted {kpis.submitted} != delivered "
            f"{kpis.delivered} + backlog {kpis.final_backlog}"
        )
    if not kpis.stable:
        failures.append(f"drift: unstable below the knee ({kpis.drift})")
    detail["kpis"] = kpis
    return Op(wall, inputs.horizon_slots, 1, failures, detail=detail)


def ledger(
    inputs: Inputs, untraced: List[Op], traced: List[Op], work
) -> Dict[str, float]:
    kpis = untraced[0].detail["kpis"]
    layer = {
        "graphs.topology_s": inputs.topology_s,
        "graphs.bfs_tree_s": inputs.bfs_tree_s,
        "service.slots": kpis.horizon_slots,
        "service.submitted": kpis.submitted,
        "service.delivered": kpis.delivered,
        "service.final_backlog": kpis.final_backlog,
        "service.throughput_per_phase": kpis.throughput_per_phase,
        "service.sojourn_p50_phases": kpis.sojourn_quantiles[0.5],
        "service.sojourn_p99_phases": kpis.sojourn_quantiles[0.99],
    }
    layer.update(
        radio_layer(
            merged([op.detail["profile"] for op in traced]),
            sum(op.wall for op in traced),
            N,
        )
    )
    return layer
