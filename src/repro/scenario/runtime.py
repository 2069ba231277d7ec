"""Execute one scenario task: the protocol drivers behind the DSL.

Each compiled case is a flat dict of JSON scalars; this module is the
interpreter that reconstructs the topology, arrival process and fault
model from those scalars and drives the named protocol, returning flat
numeric metrics.  Everything is a pure function of the
:class:`~repro.runner.task.TaskSpec` — the contract that lets scenario
tasks ride the cache, the process-pool workers and the fleet backend.

Worker-side resolution: scenario experiment ids carry a ``scenario:``
prefix, which :func:`repro.runner.registry.get_experiment` resolves to
the synthetic definition built by :func:`scenario_experiment`, so a
``(exp_id, spec)`` pair crosses process boundaries by name exactly like
a registered experiment's tasks.

Protocol semantics
------------------
``collection``
    Streaming convergecast: arrivals are injected per slot over the
    horizon, then the pipeline drains (bounded).  Per-message sojourns
    feed P² percentile sketches; with ``arrival = "none"`` the run is
    the classic closed workload instead.  Fault profiles run on the
    self-healing stack (``core/repair``).  ``mobility_epochs > 1``
    re-samples the topology every epoch (seed-derived), modelling
    station movement for the geometric/random families; messages still
    in flight at an epoch boundary are counted as handoff losses.
``p2p``
    Streaming point-to-point: each arrival is addressed to a
    seed-derived random destination; sojourns are measured at the
    destination station.
``broadcast``, ``tdma``, ``spatial-tdma``
    Closed runs: the arrival stream (or the ``messages``-per-source
    workload) is materialized into slot-0 submissions and the protocol
    runs to completion.
``service``, ``saturation``
    Delegated to the open-system service harness
    (:func:`repro.runner.defs.service_metrics` /
    :func:`~repro.runner.defs.sweep_metrics`) — the same cells E19/E20
    run.

Units: ``horizon_phases``, ``start_phase`` and ``end_phase`` count
Decay phases (the §4 clock); a jammer's ``jam_period``/``jam_duty``
count slots (jam windows are sub-phase phenomena).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.collection import (
    build_collection_network,
    expected_collection_slots,
)
from repro.errors import ConfigurationError
from repro.graphs.graph import Graph, NodeId
from repro.rng import child_rng, derive_seed
from repro.runner.registry import ExperimentDef
from repro.runner.task import TaskSpec
from repro.workloads.arrivals import arrivals_for
from repro.workloads.driver import (
    Drive,
    FlowAccumulator,
    collection_hooks,
    p2p_hooks,
)


# ----------------------------------------------------------------------
# Reconstruction helpers (case scalars -> objects)
# ----------------------------------------------------------------------

def _cell(params: Dict[str, Any], seed: int):
    """(graph, tree, sources) of a case, by the same source rule as the
    service cells."""
    from repro.runner.defs import service_sources

    return service_sources(
        params["topology"], params.get("sources", "tail"), seed
    )


def _phase_length(graph: Graph, classes: int) -> int:
    """Collection's phase length, a function of Δ and the class count."""
    from repro.core.slots import SlotStructure, decay_budget

    return SlotStructure(
        decay_budget(graph.max_degree()), classes, True
    ).phase_length


def _closed_messages(sources: List[NodeId], k: int) -> Dict[NodeId, List[Any]]:
    """The closed workload: ``k`` messages per source, all at slot 0."""
    return {node: [f"m{node}-{i}" for i in range(k)] for node in sources}


def _closed_workload(
    params: Dict[str, Any],
    sources: List[NodeId],
    phase_length: int,
    seed: int,
) -> Dict[NodeId, List[Any]]:
    """Slot-0 submissions for the closed protocol kinds."""
    arrivals = arrivals_for(params, sources, phase_length, seed)
    if arrivals is None:
        return _closed_messages(sources, params.get("messages", 4))
    horizon = params["horizon_phases"] * phase_length
    workload: Dict[NodeId, List[Any]] = {}
    for slot in range(horizon):
        for node, payload in arrivals.arrivals_at(slot):
            workload.setdefault(node, []).append(payload)
    return workload


def _make_failures(params: Dict[str, Any], graph: Graph, tree, phase_length: int, seed: int):
    kind = params.get("fault", "none")
    if kind == "none":
        return None
    fault_seed = derive_seed(seed, "faults")
    non_root = [n for n in graph.nodes if n != tree.root]
    if kind == "churn":
        from repro.radio.faults import MarkovChurn

        return MarkovChurn(
            non_root,
            fail_rate=params["fail_rate"],
            recover_rate=params["recover_rate"],
            seed=fault_seed,
        )
    if kind == "fading":
        from repro.radio.faults import GilbertElliott

        return GilbertElliott(
            p_bad=params["p_bad"],
            p_good=params["p_good"],
            loss_good=params.get("loss_good", 0.0),
            loss_bad=params.get("loss_bad", 1.0),
            seed=fault_seed,
        )
    if kind == "outage":
        from repro.radio.faults import RegionOutage

        count = max(1, int(round(params["fraction"] * len(non_root))))
        deepest_first = sorted(
            non_root, key=lambda v: (tree.level[v], v), reverse=True
        )
        return RegionOutage(
            deepest_first[:count],
            start=params.get("start_phase", 0) * phase_length,
            end=params["end_phase"] * phase_length,
        )
    if kind == "jammer":
        from repro.radio.faults import AdversarialJammer

        targets = (
            [n for n in tree.nodes if tree.level[n] == tree.depth]
            if params.get("targets", "all") == "bottom"
            else None
        )
        end_phase = params.get("end_phase")
        return AdversarialJammer(
            period=params["jam_period"],
            duty=params["jam_duty"],
            targets=targets,
            start=params.get("start_phase", 0) * phase_length,
            end=None if end_phase is None else end_phase * phase_length,
        )
    raise ConfigurationError(f"unknown fault kind {kind!r}")


# ----------------------------------------------------------------------
# collection and p2p (streamed or closed, through the drive loop)
# ----------------------------------------------------------------------

def _drive_flow(
    params: Dict[str, Any],
    seed: int,
    cell,
    network,
    phase_length: int,
    hooks,
    acc: FlowAccumulator,
    horizon_phases: int,
) -> None:
    """Feed one network its closed workload or its arrival stream, drain
    it, and fold the outcome into ``acc``."""
    graph, tree, sources = cell
    arrivals = arrivals_for(params, sources, phase_length, seed)
    horizon_slots = 0 if arrivals is None else horizon_phases * phase_length
    # Set per network: a mobility epoch's re-sampled field may change Δ.
    acc.phase_length = phase_length
    acc.warmup_slots = int(
        horizon_slots * params.get("warmup_fraction", 0.0)
    )
    drive = Drive(network, hooks, acc)
    if arrivals is None:
        closed = _closed_messages(sources, params.get("messages", 4))
        for node, payloads in closed.items():
            for payload in payloads:
                drive.submit(node, payload)
    else:
        drive.run(arrivals, horizon_slots)
    # Drain: no new arrivals; bounded by what is actually left, because
    # a faulty run may have wedged messages below a dead region (the
    # repair layer freezes buffers at stations it declares partitioned).
    budget = _drain_cap(
        len(drive.in_flight), tree.depth, graph.max_degree(),
        params.get("classes", 3),
    )
    acc.lost += drive.drain(budget, stall=_STALL_SLOTS)
    acc.slots += network.slot
    acc.absorb_stats(network.stats)


def _drive_collection_epoch(
    params: Dict[str, Any],
    seed: int,
    acc: FlowAccumulator,
    horizon_phases: int,
) -> None:
    """One epoch of (possibly streaming, faulty) collection."""
    classes = params.get("classes", 3)
    cell = _cell(params, seed)
    graph, tree, _sources = cell
    if params.get("fault", "none") != "none":
        from repro.core.repair import build_resilient_collection_network

        # The fault schedule is in phases, so it needs the phase length
        # before the faulty network is wired.
        failures = _make_failures(
            params, graph, tree, _phase_length(graph, classes), seed
        )
        network, processes, slots, _registry = (
            build_resilient_collection_network(
                graph, tree, {}, seed, failures=failures,
                level_classes=classes,
            )
        )
    else:
        network, processes, slots = build_collection_network(
            graph, tree, {}, seed, level_classes=classes
        )
    _drive_flow(
        params, seed, cell, network, slots.phase_length,
        collection_hooks(processes, tree.root), acc, horizon_phases,
    )


#: Drain stall window: a drain that has delivered nothing for this many
#: slots is declared wedged (partitioned buffers never revive).
_STALL_SLOTS = 20_000


def _drain_cap(remaining: int, depth: int, max_degree: int, classes: int) -> int:
    """Slot budget to flush ``remaining`` in-flight messages.

    Ten times the Theorem 4.4 expectation for what is left, clamped: the
    floor absorbs fault-repair stalls on tiny backlogs, the ceiling
    keeps a permanently wedged message (a dead cut vertex) from turning
    the drain into an unbounded spin — leftovers count as ``lost``.
    """
    return min(
        200_000,
        max(
            20_000,
            int(10 * expected_collection_slots(
                remaining, depth, max_degree, classes
            )),
        ),
    )


def _collection_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    epochs = params.get("mobility_epochs", 1)
    horizon = params.get("horizon_phases", 0)
    acc = FlowAccumulator()
    for epoch in range(epochs):
        epoch_seed = seed if epochs == 1 else derive_seed(seed, "epoch", epoch)
        share = horizon // epochs + (1 if epoch < horizon % epochs else 0)
        _drive_collection_epoch(params, epoch_seed, acc, share)
    metrics = acc.metrics()
    metrics["epochs"] = epochs
    return metrics


def _p2p_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Each message goes to a seed-derived random station other than its
    origin; sojourns are measured at the destination."""
    from repro.core.point_to_point import build_p2p_network

    cell = _cell(params, seed)
    graph, tree, _sources = cell
    tree.assign_dfs_intervals()
    network, processes, slots = build_p2p_network(
        graph, tree, seed, level_classes=params.get("classes", 3)
    )
    nodes = sorted(tree.nodes)
    dest_rng = child_rng(seed, "p2p-dest")

    def destination_of(origin: NodeId, payload: Any) -> NodeId:
        dest = origin
        while dest == origin:
            dest = nodes[dest_rng.randrange(len(nodes))]
        return dest

    acc = FlowAccumulator()
    _drive_flow(
        params, seed, cell, network, slots.phase_length,
        p2p_hooks(processes, tree, destination_of), acc,
        params.get("horizon_phases", 0),
    )
    return acc.metrics()


# ----------------------------------------------------------------------
# closed kinds: broadcast and the deterministic baselines
# ----------------------------------------------------------------------

def _broadcast_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    from repro.core.broadcast import run_broadcast

    graph, tree, sources = _cell(params, seed)
    workload = _closed_workload(
        params, sources, _phase_length(graph, params.get("classes", 3)), seed
    )
    result = run_broadcast(
        graph, tree, workload, seed,
        level_classes=params.get("classes", 3),
    )
    busy = sum(c.busy_slots for c in result.stats.per_channel.values())
    return {
        "messages": result.messages,
        "slots": result.slots,
        "superphases": result.superphases,
        "delivered_everywhere": result.delivered_everywhere,
        "resends": result.resends,
        "utilization": busy / result.slots if result.slots else 0.0,
        "collision_rate": (
            result.stats.collisions / result.stats.transmissions
            if result.stats.transmissions else 0.0
        ),
        "transmissions": result.stats.transmissions,
        "collisions": result.stats.collisions,
    }


def _tdma_task(
    params: Dict[str, Any], seed: int, spatial: bool
) -> Dict[str, Any]:
    graph, tree, sources = _cell(params, seed)
    workload = _closed_workload(params, sources, _phase_length(graph, 3), seed)
    if not workload:
        workload = {sources[0]: ["m0"]}
    if spatial:
        from repro.baselines.spatial_tdma import run_spatial_tdma_collection

        result = run_spatial_tdma_collection(graph, tree, workload)
        frame_length = result.frame_length
    else:
        from repro.baselines.tdma import run_tdma_collection

        result = run_tdma_collection(graph, tree, workload)
        frame_length = graph.num_nodes
    submitted = sum(len(v) for v in workload.values())
    busy = sum(c.busy_slots for c in result.stats.per_channel.values())
    return {
        "submitted": submitted,
        "delivered": len(result.delivered),
        "delivery_ratio": (
            len(result.delivered) / submitted if submitted else 1.0
        ),
        "slots": result.slots,
        "frames": result.frames,
        "frame_length": frame_length,
        "utilization": busy / result.slots if result.slots else 0.0,
        "collision_rate": 0.0,  # TDMA is collision-free by construction
        "transmissions": result.stats.transmissions,
    }


# ----------------------------------------------------------------------
# open-system kinds (delegated to the service harness)
# ----------------------------------------------------------------------

def _service_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    from repro.runner.defs import service_metrics

    return service_metrics(
        params["topology"], params.get("sources", "tail"),
        params["arrival"], params["rate"], params["horizon_phases"], seed,
    )


def _saturation_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    from repro.runner.defs import sweep_metrics

    return sweep_metrics(
        params["topology"], params.get("sources", "tail"),
        params["points"], params["horizon_phases"], seed,
    )


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def run_scenario_task(spec: TaskSpec) -> Dict[str, Any]:
    """Execute one scenario task (worker entry point, pure in ``spec``)."""
    params = spec.params
    kind = params.get("protocol")
    if kind == "collection":
        return _collection_task(params, spec.seed)
    if kind == "p2p":
        return _p2p_task(params, spec.seed)
    if kind == "broadcast":
        return _broadcast_task(params, spec.seed)
    if kind == "tdma":
        return _tdma_task(params, spec.seed, spatial=False)
    if kind == "spatial-tdma":
        return _tdma_task(params, spec.seed, spatial=True)
    if kind == "service":
        return _service_task(params, spec.seed)
    if kind == "saturation":
        return _saturation_task(params, spec.seed)
    raise ConfigurationError(
        f"task {spec.label()} has no protocol kind (corrupt case?)"
    )


#: Scalar-only diagnostics the lockstep engine cannot observe (it has
#: no per-channel stats object); the batch path reports the honest
#: subset rather than zeros masquerading as measurements.
_SCALAR_ONLY_METRICS = (
    "utilization", "collision_rate", "transmissions", "collisions",
    "dropped",
)


def run_scenario_batch(specs: List[TaskSpec]) -> List[Dict[str, Any]]:
    """Execute same-case scenario tasks in one lockstep batch.

    The vector-engine entry point for scenario experiments: every task
    of a (sub-)batch shares one compiled case (the registry refuses a
    batch that mixes cases), so the whole group runs as one
    :func:`~repro.vector.collection.run_collection_batch` call — all
    replications advancing in NumPy lockstep.  Only the shape the
    lockstep engine simulates is accepted (closed, fault-free, single-
    epoch collection); the spec cross-field checks reject anything else
    at validation time, so the guard here is a corruption tripwire, not
    a user-facing error path.

    Seed-dependent topology families realize a different graph per
    seed, so tasks run one batch per graph they realize
    (:func:`repro.runner.defs.collection_batches`).  Metrics mirror the
    scalar closed-run path — same submission order, sojourns in phases
    from the delivery slot — except the per-channel diagnostics the
    lockstep engine does not observe, which are omitted rather than
    fabricated.
    """
    from repro.runner.defs import collection_batches

    params = specs[0].params
    if (
        params.get("protocol") != "collection"
        or params.get("fault", "none") != "none"
        or params.get("arrival", "none") != "none"
        or params.get("mobility_epochs", 1) > 1
    ):
        raise ConfigurationError(
            f"task {specs[0].label()} is not a closed fault-free "
            "collection case; the vector engine cannot batch it "
            "(the spec validator should have rejected this scenario)"
        )
    messages = params.get("messages", 4)

    def realize(seed: int):
        graph, tree, sources = _cell(params, seed)
        return graph, tree, _closed_messages(sources, messages)

    results: List[Dict[str, Any]] = [{} for _ in specs]
    for positions, (_, _, workload), batch in collection_batches(
        [spec.seed for spec in specs], realize, params.get("classes", 3)
    ):
        simulation = batch.simulation
        phase_length = simulation.phase_length
        origins = simulation.message_origins
        delivered = simulation.delivered_slots()
        for b, index in enumerate(positions):
            acc = FlowAccumulator(phase_length)
            # Same submission order as the scalar closed path, so
            # jain_fairness iterates flows identically.
            for node, payloads in workload.items():
                for _ in payloads:
                    acc.on_submit(None, node, 0)
            for slot, gid in delivered[b]:
                # Closed runs have no warmup: every sojourn counts.
                acc.on_deliver(gid, origins[gid], 0, slot)
            acc.slots = int(batch.completion_slots[b])
            metrics = acc.metrics()
            for name in _SCALAR_ONLY_METRICS:
                metrics.pop(name, None)
            metrics["epochs"] = 1
            results[index] = metrics
    return results


def _no_grid(seed: int, replications: int, quick: bool = False):
    raise ConfigurationError(
        "scenario experiments are compiled from spec files; use "
        "'python -m repro scenario <file>' (the registry cannot expand "
        "their grids)"
    )


def scenario_experiment(exp_id: str) -> ExperimentDef:
    """Synthetic :class:`ExperimentDef` for a ``scenario:`` experiment id.

    Built on demand by the registry so worker processes (and the fleet
    backend) resolve scenario tasks by name, with the task function
    shared across every scenario — the case carries all semantics.
    """
    parts = exp_id.split(":")
    name = parts[1] if len(parts) > 1 and parts[1] else exp_id
    return ExperimentDef(
        exp_id=exp_id,
        title=f"declarative scenario {name!r}",
        make_tasks=_no_grid,
        run_task=run_scenario_task,
        run_batch=run_scenario_batch,
        summary_metrics=(),
        default_timeout=600.0,
    )
