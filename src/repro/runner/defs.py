"""Built-in runnable experiments for ``python -m repro run``.

Each definition expands one experiment of the DESIGN.md registry into a
pure ``(topology × workload × seed)`` task grid and provides the
top-level task function the executor ships to worker processes:

* **E2** — Theorem 4.1's per-phase level-advance probability vs. µ;
* **E3** — Theorem 4.4's collection constant across topology families,
  plus the slots-vs-k scaling cells;
* **E16** — self-healing collection under the standard fault scenarios.

Topologies are named, not closed over: :func:`build_topology` parses
``"path-24"``, ``"grid-4x4"``, ``"rgg-30"``, … into a graph, so a task
spec stays a plain JSON record that any worker can reconstruct.

Every definition accepts ``quick=True``, a miniature grid used by the CI
smoke run and the sharding-determinism tests.
"""

from __future__ import annotations

import math
import random
import re
from typing import (
    Any, Callable, Dict, Iterator, List, Sequence, Tuple,
)

from repro.analysis.resilience import SCENARIOS, scenario_metrics
from repro.core.collection import build_collection_network, run_collection
from repro.errors import ConfigurationError
from repro.graphs import (
    Graph,
    balanced_tree,
    caterpillar,
    cycle,
    grid,
    layered_band,
    path,
    random_geometric,
    random_tree,
    reference_bfs_tree,
    star,
)
from repro.runner.registry import ExperimentDef, register
from repro.runner.task import TaskSpec, task_grid
from repro.vector.collection import BatchCollection, run_collection_batch

# ----------------------------------------------------------------------
# Topologies by name
# ----------------------------------------------------------------------

#: Unit-disk radius used by named ``rgg-N`` topologies.
RGG_RADIUS = 0.3


#: The topology-name grammar: per family, the name template (each ``{}``
#: a decimal size) and the smallest size its generator takes at each
#: ``{}``.  Scenario validation and :func:`build_topology` both read
#: names through :func:`parse_topology_name`, so a spec validates
#: exactly when its topology builds.
TOPOLOGY_FAMILIES = {
    "path": ("path-{}", (1,)),
    "star": ("star-{}", (1,)),
    "cycle": ("cycle-{}", (3,)),
    "grid": ("grid-{}x{}", (1, 1)),
    "band": ("band-{}x{}", (1, 1)),
    "caterpillar": ("caterpillar-{}x{}", (1, 0)),
    "tree": ("tree-b{}-d{}", (1, 0)),
    "rgg": ("rgg-{}", (1,)),
    "rtree": ("rtree-{}", (1,)),
}

#: Generators of the families that draw nothing from the rng.
_FIXED_FAMILIES = {
    "path": path,
    "star": star,
    "cycle": cycle,
    "grid": grid,
    "band": layered_band,
    "caterpillar": caterpillar,
    "tree": balanced_tree,
}


def parse_topology_name(name: str) -> Tuple[str, Tuple[int, ...]]:
    """``(family, sizes)`` of a topology name, without building it.

    Raises :class:`ConfigurationError` for a name outside
    :data:`TOPOLOGY_FAMILIES` or below its family's smallest sizes.
    """
    family = name.partition("-")[0]
    if family in TOPOLOGY_FAMILIES:
        template, smallest = TOPOLOGY_FAMILIES[family]
        match = re.fullmatch(template.replace("{}", "([0-9]+)"), name)
        if match:
            sizes = tuple(int(group) for group in match.groups())
            if all(size >= low for size, low in zip(sizes, smallest)):
                return family, sizes
            raise ConfigurationError(
                f"topology {name!r} is too small: {family} sizes start "
                f"at {template.format(*smallest)!r}"
            )
    raise ConfigurationError(
        f"unknown topology name {name!r} (expected e.g. 'path-24', "
        "'grid-4x4', 'band-6x4', 'caterpillar-6x2', 'tree-b3-d2', "
        "'rgg-30', 'rtree-24')"
    )


def build_topology(name: str, rng: random.Random) -> Graph:
    """Construct the topology named by ``name``.

    Supported families (:data:`TOPOLOGY_FAMILIES`): ``path-N``,
    ``star-N``, ``cycle-N``, ``grid-RxC``, ``band-LxW``,
    ``caterpillar-SxL``, ``tree-bB-dD``, ``rgg-N`` (unit disk, radius
    0.3, sampled from ``rng``) and ``rtree-N`` (uniform random tree
    sampled from ``rng``).
    """
    family, sizes = parse_topology_name(name)
    if family == "rgg":
        return random_geometric(*sizes, radius=RGG_RADIUS, rng=rng)
    if family == "rtree":
        return random_tree(*sizes, rng=rng)
    return _FIXED_FAMILIES[family](*sizes)


# ----------------------------------------------------------------------
# E3 — Theorem 4.4 collection constant
# ----------------------------------------------------------------------

E3_TOPOLOGIES = ("path-12", "path-24", "band-6x4", "rgg-30")
E3_KS = (4, 16)
E3_CLASSES = (3, 1)
#: The slots-vs-k scaling strip (fixed topology, multiplexed classes).
E3_SCALING_TOPOLOGY = "path-16"
E3_SCALING_KS = (4, 8, 16, 32)


def _e3_cell(topology: str, k: int, seed: int):
    """``(graph, tree, workload)`` of one E3 seed: k messages at the
    deepest station."""
    graph = build_topology(topology, random.Random(seed))
    tree = reference_bfs_tree(graph, 0)
    deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
    return graph, tree, {deepest: [f"m{i}" for i in range(k)]}


def collection_batches(
    seeds: Sequence[int], realize: Callable[[int], tuple], classes: int
) -> Iterator[tuple]:
    """One lockstep collection batch per graph the seeds realize.

    ``realize(seed)`` builds a seed's ``(graph, tree, workload)`` cell.
    Seed-dependent topology families (``rgg-N``, ``rtree-N``) realize a
    different graph per seed, so seeds are bucketed by the graph they
    realize and each bucket runs as one batch on its first seed's cell;
    deterministic families collapse into a single batch.  Yields
    ``(positions in seeds, cell, batch result)`` per bucket.
    """
    buckets: Dict[Graph, List[int]] = {}
    cells: Dict[Graph, tuple] = {}
    for position, seed in enumerate(seeds):
        cell = realize(seed)
        buckets.setdefault(cell[0], []).append(position)
        cells.setdefault(cell[0], cell)
    for graph, positions in buckets.items():
        _, tree, workload = cell = cells[graph]
        batch = run_collection_batch(
            graph,
            tree,
            workload,
            [seeds[position] for position in positions],
            level_classes=classes,
        )
        yield positions, cell, batch


def collection_metrics(
    topology: str, k: int, classes: int, seed: int
) -> Dict[str, Any]:
    """One E3 task: k-collection from the deepest station.

    Emits the engine counters behind the Theorem 4.4 comparison: slots,
    the tree depth (= the bound's D for this placement), log2 Δ, and the
    measured constant ``slots / ((k + D)·log2 Δ)``.
    """
    graph, tree, sources = _e3_cell(topology, k, seed)
    result = run_collection(
        graph, tree, sources, seed, level_classes=classes
    )
    log_delta = math.log2(max(2, graph.max_degree()))
    denominator = (k + tree.depth) * log_delta
    return {
        "slots": result.slots,
        "depth": tree.depth,
        "log_delta": log_delta,
        "constant": result.slots / denominator,
    }


def _e3_tasks(
    seed: int, replications: int, quick: bool = False
) -> List[TaskSpec]:
    if quick:
        cases = [
            {"topology": name, "k": 4, "classes": 3}
            for name in ("path-12", "band-6x4")
        ]
    else:
        cases = [
            {"topology": name, "k": k, "classes": classes}
            for name in E3_TOPOLOGIES
            for k in E3_KS
            for classes in E3_CLASSES
        ]
        cases += [
            {"topology": E3_SCALING_TOPOLOGY, "k": k, "classes": 3}
            for k in E3_SCALING_KS
        ]
    return task_grid("E3", cases, replications, seed)


def _e3_run(spec: TaskSpec) -> Dict[str, Any]:
    params = spec.params
    return collection_metrics(
        params["topology"], params["k"], params["classes"], spec.seed
    )


def collection_metrics_batch(
    topology: str,
    k: int,
    classes: int,
    seeds: List[int],
) -> List[Dict[str, Any]]:
    """All seeds of one E3 cell in NumPy lockstep batches (see
    :func:`collection_batches`)."""
    results: List[Dict[str, Any]] = [{} for _ in seeds]
    for positions, (graph, tree, _), batch in collection_batches(
        seeds, lambda seed: _e3_cell(topology, k, seed), classes
    ):
        log_delta = math.log2(max(2, graph.max_degree()))
        denominator = (k + tree.depth) * log_delta
        for position, slots in zip(positions, batch.completion_slots):
            results[position] = {
                "slots": int(slots),
                "depth": tree.depth,
                "log_delta": log_delta,
                "constant": int(slots) / denominator,
            }
    return results


def _e3_run_batch(specs: List[TaskSpec]) -> List[Dict[str, Any]]:
    params = specs[0].params
    return collection_metrics_batch(
        params["topology"],
        params["k"],
        params["classes"],
        [spec.seed for spec in specs],
    )


register(
    ExperimentDef(
        exp_id="E3",
        title="Thm 4.4: k-collection slots vs 32.27·(k+D)·log Δ",
        make_tasks=_e3_tasks,
        run_task=_e3_run,
        summary_metrics=("slots", "constant"),
        run_batch=_e3_run_batch,
        # Collection is Las-Vegas: budget for the running-time tail, not
        # the mean (quick cells finish in well under a second).
        default_timeout=120.0,
    )
)


# ----------------------------------------------------------------------
# E2 — Theorem 4.1 per-phase advance probability
# ----------------------------------------------------------------------

#: (parents, children, msgs/child) — children vs Δ spans both proof cases.
E2_CONFIGS = ((1, 2, 3), (1, 6, 3), (2, 8, 2), (3, 12, 2), (2, 24, 1))


def contention_graph(parents: int, children: int) -> Graph:
    """Root 0; parents 1..P at level 1; children fully joined to parents."""
    edges = [(0, p) for p in range(1, parents + 1)]
    for child in range(parents + 1, parents + children + 1):
        for parent in range(1, parents + 1):
            edges.append((parent, child))
    return Graph.from_edges(edges)


def advance_rate_metrics(
    parents: int, children: int, load: int, seed: int
) -> Dict[str, Any]:
    """One E2 task: the fraction of loaded phases in which level 2 drains.

    Theorem 4.1 lower-bounds this per-phase advance probability by
    µ = e⁻¹(1−e⁻¹) on the adversarial all-to-all contention shape.
    """
    graph = contention_graph(parents, children)
    tree = reference_bfs_tree(graph, 0)
    child_ids = [node for node in graph.nodes if tree.level[node] == 2]
    sources = {
        child: [f"m{child}-{i}" for i in range(load)] for child in child_ids
    }
    network, processes, slots = build_collection_network(
        graph, tree, sources, seed
    )

    def level2_backlog() -> int:
        return sum(processes[child].backlog for child in child_ids)

    successes = 0
    phases = 0
    while level2_backlog() > 0 and phases < 5_000:
        before = level2_backlog()
        for _ in range(slots.phase_length):
            network.step()
        phases += 1
        if level2_backlog() < before:
            successes += 1
    return {
        "advance_rate": successes / max(1, phases),
        "phases": phases,
        "delta": graph.max_degree(),
    }


def _e2_tasks(
    seed: int, replications: int, quick: bool = False
) -> List[TaskSpec]:
    configs = E2_CONFIGS[:2] if quick else E2_CONFIGS
    cases = [
        {"parents": parents, "children": children, "load": load}
        for parents, children, load in configs
    ]
    return task_grid("E2", cases, replications, seed)


def _e2_run(spec: TaskSpec) -> Dict[str, Any]:
    params = spec.params
    return advance_rate_metrics(
        params["parents"], params["children"], params["load"], spec.seed
    )


def advance_rate_metrics_batch(
    parents: int,
    children: int,
    load: int,
    seeds: List[int],
) -> List[Dict[str, Any]]:
    """All seeds of one E2 cell as a single lockstep batch.

    Mirrors :func:`advance_rate_metrics` per replication: a phase counts
    as an advance iff the summed level-2 backlog strictly drops, and a
    replication stops accruing phases once its level 2 drains (or at the
    5000-phase cap).
    """
    import numpy as np

    graph = contention_graph(parents, children)
    tree = reference_bfs_tree(graph, 0)
    child_ids = [node for node in graph.nodes if tree.level[node] == 2]
    sources = {
        child: [f"m{child}-{i}" for i in range(load)] for child in child_ids
    }
    simulation = BatchCollection(graph, tree, sources, seeds)
    B = len(seeds)
    successes = np.zeros(B, dtype=np.int64)
    phases = np.zeros(B, dtype=np.int64)
    active = simulation.backlog_at(child_ids) > 0
    global_phases = 0
    while active.any() and global_phases < 5_000:
        before = simulation.backlog_at(child_ids)
        simulation.advance(simulation.slot + simulation.phase_length)
        after = simulation.backlog_at(child_ids)
        global_phases += 1
        phases[active] += 1
        successes[active & (after < before)] += 1
        active &= after > 0
    delta = graph.max_degree()
    return [
        {
            "advance_rate": int(successes[b]) / max(1, int(phases[b])),
            "phases": int(phases[b]),
            "delta": delta,
        }
        for b in range(B)
    ]


def _e2_run_batch(specs: List[TaskSpec]) -> List[Dict[str, Any]]:
    params = specs[0].params
    return advance_rate_metrics_batch(
        params["parents"],
        params["children"],
        params["load"],
        [spec.seed for spec in specs],
    )


register(
    ExperimentDef(
        exp_id="E2",
        title="Thm 4.1: per-phase P[level advances] ≥ µ",
        make_tasks=_e2_tasks,
        run_task=_e2_run,
        summary_metrics=("advance_rate",),
        run_batch=_e2_run_batch,
        default_timeout=120.0,
    )
)


# ----------------------------------------------------------------------
# E16 — resilience scenarios (task function lives with the harness)
# ----------------------------------------------------------------------

def _e16_tasks(
    seed: int, replications: int, quick: bool = False
) -> List[TaskSpec]:
    scenarios = ("fading", "partition") if quick else SCENARIOS
    cases = [{"scenario": name} for name in scenarios]
    return task_grid("E16", cases, replications, seed)


def _e16_run(spec: TaskSpec) -> Dict[str, Any]:
    return scenario_metrics(spec.params["scenario"], spec.seed)


register(
    ExperimentDef(
        exp_id="E16",
        title="resilience: collection under injected faults",
        make_tasks=_e16_tasks,
        run_task=_e16_run,
        summary_metrics=("delivery_ratio", "slowdown", "repairs"),
        # Fault scenarios run long slot horizons (blackout grace periods);
        # give them a wider tail budget than the clean experiments.
        default_timeout=300.0,
    )
)


# ----------------------------------------------------------------------
# E19 / E20 — open-system service mode (repro.service)
# ----------------------------------------------------------------------

E19_CELLS = (
    {"topology": "path-12", "source_mode": "tail", "arrival": "bernoulli",
     "rate": 0.3, "phases": 1200},
    {"topology": "path-12", "source_mode": "tail", "arrival": "poisson",
     "rate": 0.3, "phases": 1200},
    {"topology": "band-4x3", "source_mode": "bottom", "arrival": "bernoulli",
     "rate": 0.12, "phases": 1200},
)
E19_QUICK_CELLS = (
    {"topology": "path-8", "source_mode": "tail", "arrival": "bernoulli",
     "rate": 0.25, "phases": 240},
)


def service_sources(topology: str, source_mode: str, seed: int):
    """Build (graph, tree, sources) for one service or scenario cell.

    ``source_mode``: ``"tail"`` = the single deepest station, ``"bottom"``
    = every deepest-level station, ``"all"`` = every non-root station.
    """
    graph = build_topology(topology, random.Random(seed))
    tree = reference_bfs_tree(graph, 0)
    if source_mode == "tail":
        sources = [max(tree.nodes, key=lambda v: (tree.level[v], v))]
    elif source_mode == "bottom":
        sources = [n for n in tree.nodes if tree.level[n] == tree.depth]
    elif source_mode == "all":
        sources = [n for n in tree.nodes if n != tree.root]
    else:
        raise ConfigurationError(
            f"unknown source_mode {source_mode!r} "
            "(expected 'tail', 'bottom' or 'all')"
        )
    return graph, tree, sources


def service_metrics(
    topology: str,
    source_mode: str,
    arrival: str,
    rate: float,
    phases: int,
    seed: int,
) -> Dict[str, Any]:
    """One E19 task: open-system KPIs + tandem-oracle comparison.

    Streams ``rate``-per-source-per-phase arrivals (Bernoulli or
    Poisson) for ``phases`` phases, measures the streaming KPIs with
    warmup truncation, probes the pipeline's saturation capacity, and
    reports measured vs predicted sojourn/queue (``sojourn_ratio``,
    ``queue_ratio``) against `repro.queueing.analysis`.
    """
    from repro.core.slots import SlotStructure, decay_budget
    from repro.service import (
        compare_with_oracle,
        measure_capacity,
        run_service,
    )
    from repro.workloads.arrivals import arrivals_for

    graph, tree, sources = service_sources(topology, source_mode, seed)
    phase_length = SlotStructure(
        decay_budget(graph.max_degree()), 3, True
    ).phase_length
    if arrival not in ("bernoulli", "poisson"):
        raise ConfigurationError(
            f"unknown arrival process {arrival!r} "
            "(expected 'bernoulli' or 'poisson')"
        )
    arrivals = arrivals_for(
        {"arrival": arrival, "rate": rate}, sources, phase_length, seed
    )
    kpis = run_service(
        graph, tree, arrivals, seed=seed,
        horizon_slots=phases * phase_length,
    )
    capacity = measure_capacity(
        graph, tree, sources, seed,
        phases=min(300, max(120, phases // 4)),
    )
    oracle = compare_with_oracle(kpis, capacity)
    return {**kpis.to_metrics(), **oracle.to_dict()}


def _e19_tasks(
    seed: int, replications: int, quick: bool = False
) -> List[TaskSpec]:
    cells = E19_QUICK_CELLS if quick else E19_CELLS
    return task_grid("E19", list(cells), replications, seed)


def _e19_run(spec: TaskSpec) -> Dict[str, Any]:
    params = spec.params
    return service_metrics(
        params["topology"], params["source_mode"], params["arrival"],
        params["rate"], params["phases"], spec.seed,
    )


register(
    ExperimentDef(
        exp_id="E19",
        title="open-system service KPIs vs the §4 tandem oracle",
        make_tasks=_e19_tasks,
        run_task=_e19_run,
        summary_metrics=(
            "sojourn_phases", "queue_mean", "throughput_per_phase",
            "sojourn_ratio",
        ),
        # Long-horizon streaming runs; budget for the capacity probe too.
        default_timeout=600.0,
    )
)


E20_CELLS = (
    {"topology": "band-4x3", "source_mode": "bottom", "points": 7,
     "phases": 500},
    # A second contended cell; a single-source path would never
    # destabilize (its max arrival rate equals the uncontended hop
    # service rate — the E15 flat line), so sweeps need contention.
    {"topology": "band-4x4", "source_mode": "bottom", "points": 5,
     "phases": 400},
)
E20_QUICK_CELLS = (
    {"topology": "band-4x3", "source_mode": "bottom", "points": 3,
     "phases": 220},
)


def sweep_metrics(
    topology: str, source_mode: str, points: int, phases: int, seed: int
) -> Dict[str, Any]:
    """One E20 task: locate the stability knee and validate it.

    Probes capacity, walks λ across the predicted critical rate with
    ``points`` sweep points of ``phases`` phases each, and reports the
    detected knee bracket plus whether it contains the analytic
    critical rate µ_eff/|sources| (``knee_brackets_critical``).
    """
    from repro.service import saturation_sweep

    graph, tree, sources = service_sources(topology, source_mode, seed)
    result = saturation_sweep(
        graph, tree, sources, seed=seed, points=points,
        phases_per_point=phases,
        capacity_phases=max(150, phases // 2),
    )
    return result.to_metrics()


def _e20_tasks(
    seed: int, replications: int, quick: bool = False
) -> List[TaskSpec]:
    cells = E20_QUICK_CELLS if quick else E20_CELLS
    return task_grid("E20", list(cells), replications, seed)


def _e20_run(spec: TaskSpec) -> Dict[str, Any]:
    params = spec.params
    return sweep_metrics(
        params["topology"], params["source_mode"], params["points"],
        params["phases"], spec.seed,
    )


register(
    ExperimentDef(
        exp_id="E20",
        title="saturation sweep: stability knee vs analytic critical λ",
        make_tasks=_e20_tasks,
        run_task=_e20_run,
        summary_metrics=(
            "critical_rate_per_source", "knee_low", "knee_high",
        ),
        # A sweep is many service runs; give it the widest tail budget.
        default_timeout=900.0,
    )
)
