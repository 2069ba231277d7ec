"""Scenario spec files: parsing, normalization, cross-field checks.

A spec is a TOML (or JSON) document of up to eight tables::

    [scenario]   name, title, description
    [registry]   experiment, quick          (twin mode: delegate a grid)
    [topology]   name                       (sweepable)
    [arrivals]   kind, rate, period, bursts, jitter, sources, messages
    [faults]     kind + per-model knobs
    [protocol]   kind, classes, points, mobility_epochs
    [engine]     kind, idle_scheduling
    [run]        seed, replications, horizon_phases, warmup_fraction
    [kpi]        quantiles

Any field marked *sweepable* may hold a list; the compiler expands the
cross-product of all sweep axes into the task grid.  ``[registry]``
switches the spec into *twin mode*: it compiles to exactly the task
grid of the named registered experiment (same content keys, same cache
entries), proving the DSL subsumes the registry.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.scenario.schema import (
    Field,
    ValidationError,
    check_quantile,
    check_topology_name,
    check_unknown_tables,
    validate_table,
)

ARRIVAL_KINDS = ("none", "bernoulli", "poisson", "burst")
FAULT_KINDS = ("none", "churn", "fading", "outage", "jammer")
PROTOCOL_KINDS = (
    "collection", "broadcast", "p2p", "tdma", "spatial-tdma",
    "service", "saturation",
)
SOURCE_MODES = ("tail", "bottom", "all")

SCENARIO_FIELDS = {
    "name": Field((str,), required=True),
    "title": Field((str,)),
    "description": Field((str,)),
}
REGISTRY_FIELDS = {
    "experiment": Field((str,), required=True),
    "quick": Field((bool,), default=False),
}
TOPOLOGY_FIELDS = {
    "name": Field(
        (str,), required=True, sweep=True, check=check_topology_name
    ),
}
ARRIVAL_FIELDS = {
    "kind": Field((str,), default="none", choices=ARRIVAL_KINDS, sweep=True),
    # Per-source per-phase offered load (bernoulli/poisson).  The upper
    # bound of 1 for Bernoulli is a cross-field check (poisson may burst
    # past 1 message per phase).
    "rate": Field((float,), exclusive_minimum=0.0, sweep=True),
    # Burst arrivals: every source fires every `period` phases,
    # `bursts` times, jittered into the window by up to `jitter` slots.
    "period": Field((int,), minimum=1, sweep=True),
    "bursts": Field((int,), minimum=1, sweep=True),
    "jitter": Field((int,), minimum=0, default=0, sweep=True),
    "sources": Field(
        (str,), default="tail", choices=SOURCE_MODES, sweep=True
    ),
    # Closed-workload size: messages per source, injected at slot 0,
    # used by kind="none" and the closed protocol kinds.
    "messages": Field((int,), minimum=1, default=4, sweep=True),
}
FAULT_FIELDS = {
    "kind": Field((str,), default="none", choices=FAULT_KINDS, sweep=True),
    # churn (also models duty-cycled stations: mean on-time 1/fail_rate
    # slots, mean off-time 1/recover_rate slots)
    "fail_rate": Field((float,), minimum=0.0, maximum=1.0, sweep=True),
    "recover_rate": Field((float,), minimum=0.0, maximum=1.0, sweep=True),
    # fading (Gilbert–Elliott per-link chains)
    "p_bad": Field((float,), minimum=0.0, maximum=1.0, sweep=True),
    "p_good": Field((float,), minimum=0.0, maximum=1.0, sweep=True),
    "loss_good": Field((float,), minimum=0.0, maximum=1.0, sweep=True),
    "loss_bad": Field((float,), minimum=0.0, maximum=1.0, sweep=True),
    # outage: the deepest `fraction` of stations goes dark for the
    # phase window [start_phase, end_phase)
    "fraction": Field(
        (float,), exclusive_minimum=0.0, maximum=1.0, sweep=True
    ),
    "start_phase": Field((int,), minimum=0, default=0, sweep=True),
    "end_phase": Field((int,), minimum=1, sweep=True),
    # jammer: duty-cycled reception blanking at the targeted stations
    "jam_period": Field((int,), minimum=1, sweep=True),
    "jam_duty": Field((int,), minimum=0, sweep=True),
    "targets": Field(
        (str,), default="all", choices=("all", "bottom"), sweep=True
    ),
}
PROTOCOL_FIELDS = {
    "kind": Field(
        (str,), required=True, choices=PROTOCOL_KINDS, sweep=True
    ),
    "classes": Field((int,), minimum=1, maximum=8, default=3, sweep=True),
    # saturation: sweep points across the predicted critical rate
    "points": Field((int,), minimum=2, default=5, sweep=True),
    # mobility: re-sample the topology every epoch (seed-derived), so
    # `rgg-N`/`rtree-N` families model station movement between epochs
    "mobility_epochs": Field((int,), minimum=1, default=1, sweep=True),
}
ENGINE_FIELDS = {
    "kind": Field((str,), default="scalar", choices=("scalar", "vector")),
    "idle_scheduling": Field((bool,), default=True),
}
RUN_FIELDS = {
    "seed": Field((int,), default=7),
    "replications": Field((int,), minimum=1, default=3),
    "horizon_phases": Field((int,), minimum=1, default=200, sweep=True),
    "warmup_fraction": Field(
        (float,), minimum=0.0, maximum=0.99, default=0.25
    ),
    "timeout": Field((float,), exclusive_minimum=0.0),
}
KPI_FIELDS = {
    "quantiles": Field((list,), default=[0.5, 0.9, 0.99]),
}

TABLES = (
    "scenario", "registry", "topology", "arrivals", "faults",
    "protocol", "engine", "run", "kpi",
)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@dataclass(frozen=True)
class ScenarioSpec:
    """A parsed, validated scenario spec (tables normalized)."""

    name: str
    title: Optional[str]
    description: Optional[str]
    registry: Optional[Dict[str, Any]]
    topology: Dict[str, Any]
    arrivals: Dict[str, Any]
    faults: Dict[str, Any]
    protocol: Dict[str, Any]
    engine: Dict[str, Any]
    run: Dict[str, Any]
    kpi: Dict[str, Any]
    source: Optional[str] = dc_field(default=None, compare=False)

    @property
    def registry_mode(self) -> bool:
        return self.registry is not None


def _as_list(value: Any) -> List[Any]:
    return value if isinstance(value, list) else [value]


def _cross_checks(spec: ScenarioSpec) -> None:
    """Constraints spanning fields/tables (layer 3)."""
    arrivals, faults, protocol = spec.arrivals, spec.faults, spec.protocol
    kinds = _as_list(protocol["kind"]) if protocol else []
    arrival_kinds = _as_list(arrivals.get("kind", "none"))
    fault_kinds = _as_list(faults.get("kind", "none"))

    for kind in arrival_kinds:
        if kind in ("bernoulli", "poisson") and "rate" not in arrivals:
            raise ValidationError(
                "arrivals.rate",
                f"required for kind={kind!r} (per-source per-phase load)",
            )
        if kind == "burst" and "period" not in arrivals:
            raise ValidationError(
                "arrivals.period", "required for kind='burst'"
            )
        if kind == "burst" and "bursts" not in arrivals:
            raise ValidationError(
                "arrivals.bursts", "required for kind='burst'"
            )
    if "bernoulli" in arrival_kinds:
        for rate in _as_list(arrivals.get("rate", [])):
            if rate > 1.0:
                raise ValidationError(
                    "arrivals.rate",
                    f"a Bernoulli per-phase rate is a probability and must "
                    f"be <= 1, got {rate}",
                )

    for kind in fault_kinds:
        if kind == "churn":
            for key in ("fail_rate", "recover_rate"):
                if key not in faults:
                    raise ValidationError(
                        f"faults.{key}", "required for kind='churn'"
                    )
        elif kind == "fading":
            for key in ("p_bad", "p_good"):
                if key not in faults:
                    raise ValidationError(
                        f"faults.{key}", "required for kind='fading'"
                    )
        elif kind == "outage":
            for key in ("fraction", "end_phase"):
                if key not in faults:
                    raise ValidationError(
                        f"faults.{key}", "required for kind='outage'"
                    )
        elif kind == "jammer":
            for key in ("jam_period", "jam_duty"):
                if key not in faults:
                    raise ValidationError(
                        f"faults.{key}", "required for kind='jammer'"
                    )
    if "jam_period" in faults and "jam_duty" in faults:
        max_duty = max(_as_list(faults["jam_duty"]))
        min_period = min(_as_list(faults["jam_period"]))
        if max_duty > min_period:
            raise ValidationError(
                "faults.jam_duty",
                f"duty ({max_duty}) must not exceed jam_period "
                f"({min_period})",
            )
    if "end_phase" in faults:
        max_start = max(_as_list(faults.get("start_phase", 0)))
        min_end = min(_as_list(faults["end_phase"]))
        if min_end <= max_start:
            raise ValidationError(
                "faults.end_phase",
                f"empty fault window: end_phase ({min_end}) must exceed "
                f"start_phase ({max_start})",
            )

    injecting = any(kind != "none" for kind in fault_kinds)
    if injecting:
        unsupported = [k for k in kinds if k != "collection"]
        if unsupported:
            raise ValidationError(
                "faults.kind",
                "fault injection needs the self-healing collection stack; "
                f"protocol kind(s) {unsupported!r} have no repair layer "
                "(use protocol.kind='collection' or faults.kind='none')",
            )

    for kind in kinds:
        if kind == "service":
            ok = [k for k in arrival_kinds if k in ("bernoulli", "poisson")]
            if not ok or len(ok) != len(arrival_kinds):
                raise ValidationError(
                    "arrivals.kind",
                    "protocol kind='service' streams an open system and "
                    "needs 'bernoulli' or 'poisson' arrivals, got "
                    f"{arrivals.get('kind', 'none')!r}",
                )

    if spec.engine["kind"] == "vector" and not spec.registry_mode:
        # The lockstep batch engine requires every replication of a cell
        # to run the identical workload on the identical failure-free
        # topology — that is what parity (vector/check.py) certifies.
        # Any closed, fault-free collection scenario qualifies; the
        # combinations below realize per-replication state the batch
        # arrays cannot represent.
        unsupported = [k for k in kinds if k != "collection"]
        if unsupported:
            raise ValidationError(
                "engine.kind",
                "engine 'vector' batches the collection protocol only; "
                f"protocol kind(s) {unsupported!r} have no lockstep "
                "implementation (use kind='collection' or "
                "engine.kind='scalar')",
            )
        if injecting:
            raise ValidationError(
                "engine.kind",
                "engine 'vector' assumes the failure-free model "
                "(lockstep replications share one topology); fault "
                f"kind(s) {fault_kinds!r} need the scalar engine's "
                "repair layer",
            )
        streaming = [k for k in arrival_kinds if k != "none"]
        if streaming:
            raise ValidationError(
                "engine.kind",
                "engine 'vector' runs closed workloads only (arrivals "
                "realize a different trajectory per replication, which "
                f"lockstep arrays cannot represent); arrival kind(s) "
                f"{streaming!r} need engine.kind='scalar'",
            )
        epochs = _as_list(protocol.get("mobility_epochs", 1))
        if any(e > 1 for e in epochs):
            raise ValidationError(
                "engine.kind",
                "engine 'vector' runs a single fixed topology; "
                "mobility_epochs > 1 re-samples the graph between "
                "epochs and needs engine.kind='scalar'",
            )


def validate_scenario(
    data: Mapping[str, Any], source: Optional[str] = None
) -> ScenarioSpec:
    """Validate a raw spec document into a :class:`ScenarioSpec`."""
    if not isinstance(data, Mapping):
        raise ValidationError(
            "", f"a scenario spec must be a table, got {type(data).__name__}"
        )
    check_unknown_tables(data, TABLES)
    if "scenario" not in data:
        raise ValidationError(
            "scenario", "required table is missing (set scenario.name)"
        )
    meta = validate_table(data["scenario"], SCENARIO_FIELDS, "scenario")
    if not _NAME_RE.match(meta["name"]):
        raise ValidationError(
            "scenario.name",
            f"must match {_NAME_RE.pattern} (it names the experiment id "
            f"and the KPI report), got {meta['name']!r}",
        )

    registry = None
    if "registry" in data:
        registry = validate_table(data["registry"], REGISTRY_FIELDS, "registry")
        for table in ("topology", "arrivals", "faults", "protocol"):
            if table in data:
                raise ValidationError(
                    f"{table}",
                    "a [registry] twin delegates its whole grid to the "
                    f"registered experiment; remove the [{table}] table",
                )
    else:
        for table in ("topology", "protocol"):
            if table not in data:
                raise ValidationError(
                    table,
                    "required table is missing (or use [registry] to twin "
                    "a registered experiment)",
                )

    topology = (
        validate_table(data["topology"], TOPOLOGY_FIELDS, "topology")
        if "topology" in data else {}
    )
    arrivals = (
        validate_table(data["arrivals"], ARRIVAL_FIELDS, "arrivals")
        if "arrivals" in data else validate_table({}, ARRIVAL_FIELDS, "arrivals")
    )
    faults = (
        validate_table(data["faults"], FAULT_FIELDS, "faults")
        if "faults" in data else validate_table({}, FAULT_FIELDS, "faults")
    )
    protocol = (
        validate_table(data["protocol"], PROTOCOL_FIELDS, "protocol")
        if "protocol" in data else {}
    )
    engine = validate_table(data.get("engine", {}), ENGINE_FIELDS, "engine")
    run = validate_table(data.get("run", {}), RUN_FIELDS, "run")
    kpi = validate_table(data.get("kpi", {}), KPI_FIELDS, "kpi")
    for index, q in enumerate(kpi["quantiles"]):
        if isinstance(q, bool) or not isinstance(q, (int, float)):
            raise ValidationError(
                f"kpi.quantiles[{index}]",
                f"expected float, got {type(q).__name__} {q!r}",
            )
        check_quantile(q, f"kpi.quantiles[{index}]")

    spec = ScenarioSpec(
        name=meta["name"],
        title=meta.get("title"),
        description=meta.get("description"),
        registry=registry,
        topology=topology,
        arrivals=arrivals,
        faults=faults,
        protocol=protocol,
        engine=engine,
        run=run,
        kpi=kpi,
        source=source,
    )
    if not spec.registry_mode:
        _cross_checks(spec)
    return spec


def parse_scenario(path: Any) -> ScenarioSpec:
    """Read and validate a scenario spec file (TOML or JSON)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError("", f"cannot read {path}: {exc}") from None
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError("", f"{path}: invalid JSON: {exc}") from None
    else:
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ValidationError("", f"{path}: invalid TOML: {exc}") from None
    return validate_scenario(data, source=str(path))


#: Alias (reads better at call sites that already hold a path).
load_scenario = parse_scenario
