"""Compile a validated spec into the runner's task grid and execute it.

The compiler's whole job is normalization: turn the spec's tables into
the flat, JSON-scalar *case* dicts :func:`repro.runner.task.task_grid`
understands, expanding every sweep axis into the cross-product.  Only
the keys a protocol kind actually consumes enter its cases (a jammer
knob never pollutes a fault-free cell's cache key), and the canonical
case list is content-hashed into the experiment id —
``scenario:<name>:<hash12>`` — so a semantic edit to the spec can never
alias a stale cache entry, while cosmetic edits (title, description,
replication count) leave keys untouched.

Registry-twin mode bypasses all of this: ``[registry]`` delegates the
grid to the registered experiment, producing byte-identical task specs
(and hence cache keys) to ``python -m repro run <EXP>``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.rng import content_key
from repro.runner.executor import experiment_grid, run_tasks
from repro.runner.registry import (
    get_experiment,
    run_registered_batch,
    run_registered_task,
)
from repro.runner.task import TaskSpec, task_grid
from repro.scenario.spec import ScenarioSpec

#: Default per-task watchdog budget for scenario tasks (Las-Vegas
#: protocols under faults can run long horizons; budget the tail).
SCENARIO_DEFAULT_TIMEOUT = 600.0

#: Summary metrics per protocol kind, in display priority order.
_KIND_METRICS: Dict[str, Tuple[str, ...]] = {
    "collection": (
        "delivered", "delivery_ratio", "sojourn_p50_phases", "slots",
        "collision_rate",
    ),
    "p2p": (
        "delivered", "delivery_ratio", "sojourn_p50_phases", "slots",
        "collision_rate",
    ),
    "broadcast": ("messages", "slots", "delivered_everywhere", "collision_rate"),
    "tdma": ("delivered", "slots", "utilization"),
    "spatial-tdma": ("delivered", "slots", "utilization"),
    "service": (
        "sojourn_phases", "queue_mean", "throughput_per_phase", "stable",
    ),
    "saturation": ("critical_rate_per_source", "knee_low", "knee_high"),
}


def _case_for(
    spec: ScenarioSpec, choice: Dict[Tuple[str, str], Any]
) -> Dict[str, Any]:
    """Build one case dict from a concrete sweep-axis assignment.

    ``choice`` maps ``(table, key)`` to the chosen scalar.  Only keys
    the chosen protocol kind consumes survive — irrelevant axes prune
    away (and pruned-equal cases dedupe at the caller).
    """

    def pick(table: str, key: str, default: Any = None) -> Any:
        if (table, key) in choice:
            return choice[(table, key)]
        data = getattr(spec, table)
        value = data.get(key, default)
        return value

    kind = pick("protocol", "kind")
    case: Dict[str, Any] = {
        "protocol": kind,
        "topology": pick("topology", "name"),
    }
    arrival = pick("arrivals", "kind", "none")
    source_mode = pick("arrivals", "sources", "tail")
    horizon = pick("run", "horizon_phases")

    if kind in ("collection", "p2p", "broadcast"):
        case["classes"] = pick("protocol", "classes", 3)
    if kind in ("collection", "p2p", "broadcast", "tdma", "spatial-tdma"):
        case["sources"] = source_mode
        case["arrival"] = arrival
        if arrival == "none":
            case["messages"] = pick("arrivals", "messages", 4)
        else:
            case["horizon_phases"] = horizon
            if arrival in ("bernoulli", "poisson"):
                case["rate"] = pick("arrivals", "rate")
            else:  # burst
                case["period"] = pick("arrivals", "period")
                case["bursts"] = pick("arrivals", "bursts")
                case["jitter"] = pick("arrivals", "jitter", 0)
        if kind in ("collection", "p2p") and arrival != "none":
            case["warmup_fraction"] = pick("run", "warmup_fraction", 0.25)
    elif kind == "service":
        case["sources"] = source_mode
        case["arrival"] = arrival
        case["rate"] = pick("arrivals", "rate")
        case["horizon_phases"] = horizon
    elif kind == "saturation":
        case["sources"] = source_mode
        case["points"] = pick("protocol", "points", 5)
        case["horizon_phases"] = horizon

    fault = pick("faults", "kind", "none")
    if fault != "none" and kind == "collection":
        case["fault"] = fault
        if fault == "churn":
            case["fail_rate"] = pick("faults", "fail_rate")
            case["recover_rate"] = pick("faults", "recover_rate")
        elif fault == "fading":
            case["p_bad"] = pick("faults", "p_bad")
            case["p_good"] = pick("faults", "p_good")
            case["loss_good"] = pick("faults", "loss_good", 0.0)
            case["loss_bad"] = pick("faults", "loss_bad", 1.0)
        elif fault == "outage":
            case["fraction"] = pick("faults", "fraction")
            case["start_phase"] = pick("faults", "start_phase", 0)
            case["end_phase"] = pick("faults", "end_phase")
        elif fault == "jammer":
            case["jam_period"] = pick("faults", "jam_period")
            case["jam_duty"] = pick("faults", "jam_duty")
            case["targets"] = pick("faults", "targets", "all")
            case["start_phase"] = pick("faults", "start_phase", 0)
            end = pick("faults", "end_phase")
            if end is not None:
                case["end_phase"] = end

    epochs = pick("protocol", "mobility_epochs", 1)
    if kind == "collection" and epochs and epochs > 1:
        case["mobility_epochs"] = epochs
    return case


def expand_cases(spec: ScenarioSpec) -> List[Dict[str, Any]]:
    """Cross-product of every sweep axis, pruned and deduplicated."""
    axes: List[Tuple[Tuple[str, str], List[Any]]] = []
    for table, keys in (
        ("topology", ("name",)),
        ("protocol", ("kind", "classes", "points", "mobility_epochs")),
        ("arrivals", (
            "kind", "sources", "rate", "period", "bursts", "jitter",
            "messages",
        )),
        ("faults", (
            "kind", "fail_rate", "recover_rate", "p_bad", "p_good",
            "loss_good", "loss_bad", "fraction", "start_phase",
            "end_phase", "jam_period", "jam_duty", "targets",
        )),
        ("run", ("horizon_phases",)),
    ):
        data = getattr(spec, table)
        for key in keys:
            if key in data and isinstance(data[key], list):
                axes.append(((table, key), data[key]))
    cases: List[Dict[str, Any]] = []
    seen = set()
    for combo in itertools.product(*(values for _, values in axes)):
        choice = {axis: value for (axis, _), value in zip(axes, combo)}
        case = _case_for(spec, choice)
        fingerprint = json.dumps(case, sort_keys=True, separators=(",", ":"))
        if fingerprint not in seen:
            seen.add(fingerprint)
            cases.append(case)
    return cases


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario lowered onto the runner: its grid and identity."""

    spec: ScenarioSpec
    exp_id: str
    cases: List[Dict[str, Any]]
    tasks: List[TaskSpec]
    engine: str
    registry_mode: bool
    grid_hash: Optional[str]
    summary_metrics: Tuple[str, ...]
    timeout: float

    @property
    def name(self) -> str:
        return self.spec.name


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Lower a validated spec into its :class:`TaskSpec` grid."""
    engine = spec.engine["kind"]
    seed = spec.run["seed"]
    replications = spec.run["replications"]

    if spec.registry_mode:
        # Raises with the known ids on a typo, and for a vector engine
        # the experiment does not implement.
        defn, tasks, _options = experiment_grid(
            spec.registry["experiment"],
            seed=seed,
            replications=replications,
            engine=engine,
            quick=spec.registry["quick"],
        )
        return CompiledScenario(
            spec=spec,
            exp_id=defn.exp_id,
            cases=[dict(t.case) for t in tasks[:: max(1, replications)]],
            tasks=tasks,
            engine=engine,
            registry_mode=True,
            grid_hash=None,
            summary_metrics=defn.summary_metrics,
            timeout=(
                spec.run.get("timeout")
                or defn.default_timeout
                or SCENARIO_DEFAULT_TIMEOUT
            ),
        )

    cases = expand_cases(spec)
    grid_hash = content_key({"scenario": spec.name, "cases": cases})[:12]
    exp_id = f"scenario:{spec.name}:{grid_hash}"
    tasks = task_grid(exp_id, cases, replications, seed)
    if engine != "scalar":
        # The cross-field checks already vetted this grid as closed,
        # fault-free collection — the shape the lockstep batch engine
        # simulates.
        tasks = [dataclasses.replace(t, engine=engine) for t in tasks]
    kinds: List[str] = []
    for case in cases:
        if case["protocol"] not in kinds:
            kinds.append(case["protocol"])
    metrics: List[str] = []
    for kind in kinds:
        for name in _KIND_METRICS[kind]:
            if name not in metrics:
                metrics.append(name)
    return CompiledScenario(
        spec=spec,
        exp_id=exp_id,
        cases=cases,
        tasks=tasks,
        engine=engine,
        registry_mode=False,
        grid_hash=grid_hash,
        summary_metrics=tuple(metrics[:8]),
        timeout=spec.run.get("timeout") or SCENARIO_DEFAULT_TIMEOUT,
    )


def run_scenario(
    compiled: CompiledScenario,
    *,
    workers: int = 0,
    cache=None,
    telemetry=None,
    progress: bool = False,
):
    """Execute a compiled scenario through the shared runner machinery.

    Everything downstream of the compiler is the stock pipeline:
    :func:`repro.runner.executor.run_tasks` with the scenario's
    experiment id resolving the worker-side task function by name (the
    ``scenario:`` prefix is understood by the registry), so sharding,
    caching, telemetry, fault policy and the fleet backend behave
    exactly as for registered experiments.  The fault policy is the
    default one with the scenario's per-task timeout.
    """
    from repro.runner.policy import FaultPolicy

    batch_fn = None
    defn = get_experiment(compiled.exp_id)
    if defn.supports_vector:
        batch_fn = functools.partial(run_registered_batch, compiled.exp_id)
    run_fn = functools.partial(run_registered_task, compiled.exp_id)
    return run_tasks(
        compiled.tasks,
        run_fn,
        workers=workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
        batch_fn=batch_fn,
        policy=FaultPolicy(timeout=compiled.timeout),
        options={
            "scenario": compiled.spec.name,
            "source": compiled.spec.source,
            "grid_hash": compiled.grid_hash,
            "seed": compiled.spec.run["seed"],
            "replications": compiled.spec.run["replications"],
            "engine": compiled.engine,
        },
    )
