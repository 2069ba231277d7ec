"""Fold per-task metric records into one flat KPI report.

The input is the task record shape (``{"spec": ..., "metrics": ...,
"wall_time": ..., "cached": ...}``) — produced identically from a run
directory's journal on disk and from an in-memory
:class:`~repro.runner.executor.RunReport` — so the same post-pass works
on a live run and on an archived one.

Aggregation rules
-----------------
Counters pool by summation before ratios are formed (a delivery ratio
is ``Σ delivered / Σ submitted``, never a mean of per-task ratios — the
latter over-weights idle tasks).  Utilization pools slot-weighted.
Latency percentiles pool the per-task P² estimates weighted by each
task's measured sample count: each driver already streams its sojourns
through a P² sketch (:mod:`repro.analysis.sketches`), so the post-pass
combines sketch outputs rather than re-reading raw samples — the whole
pipeline stays constant-memory in the number of messages.  Per-metric
distributions across tasks use Welford + P² sketches directly.

The report is a flat JSON object: every top-level value is a scalar
(plus two nested breakdown tables), so ``benchmarks/check_regression.py``
can gate any KPI by naming its key.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.sketches import P2Quantile, Welford
from repro.errors import ConfigurationError

#: Sojourn quantiles reported when the records carry latency sketches.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

#: Flow counters pooled by summation across tasks.
_POOLED_COUNTERS = (
    "submitted", "delivered", "lost", "transmissions", "collisions",
    "dropped", "slots",
)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value: Any) -> Optional[float]:
    """The value as a float when it is a usable number, else None."""
    if not _is_number(value):
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _case_label(spec: Mapping[str, Any]) -> str:
    case = spec.get("case", {})
    if not case:
        return str(spec.get("exp_id", "?"))
    return ",".join(f"{k}={case[k]}" for k in sorted(case))


def _quantile_key(q: float) -> str:
    return f"p{int(round(q * 100))}"


def compute_kpis(
    records: Sequence[Mapping[str, Any]],
    *,
    scenario: Optional[str] = None,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
) -> Dict[str, Any]:
    """Fold task records into the scenario's KPI report (a flat dict)."""
    if not records:
        raise ConfigurationError("no task records to compute KPIs from")

    totals = {name: 0.0 for name in _POOLED_COUNTERS}
    totals_seen = {name: False for name in _POOLED_COUNTERS}
    util_slots = 0.0      # Σ utilization · slots
    util_weight = 0.0     # Σ slots over tasks that reported utilization
    latency_sum = {_quantile_key(q): 0.0 for q in quantiles}
    latency_weight = {_quantile_key(q): 0.0 for q in quantiles}
    latency_mean_sum = 0.0
    latency_mean_weight = 0.0
    jain = Welford()
    wall = Welford()
    wall_sketch = P2Quantile(0.9)
    per_metric: Dict[str, Welford] = {}
    per_case: Dict[str, Dict[str, Welford]] = {}
    cached = 0
    exp_ids: List[str] = []

    for record in records:
        spec = record.get("spec", {})
        metrics = record.get("metrics", {})
        exp_id = str(spec.get("exp_id", "?"))
        if exp_id not in exp_ids:
            exp_ids.append(exp_id)
        if record.get("cached"):
            cached += 1
        wall_time = _finite(record.get("wall_time"))
        if wall_time is not None:
            wall.add(wall_time)
            wall_sketch.add(wall_time)

        for name in _POOLED_COUNTERS:
            value = _finite(metrics.get(name))
            if value is not None:
                totals[name] += value
                totals_seen[name] = True

        slots = _finite(metrics.get("slots")) or 0.0
        utilization = _finite(metrics.get("utilization"))
        if utilization is not None and slots > 0:
            util_slots += utilization * slots
            util_weight += slots

        # Weight each task's P² estimate by its measured sample count
        # (fall back to delivered, then to 1, so sketchless tasks still
        # pool sanely).
        weight = (
            _finite(metrics.get("measured"))
            or _finite(metrics.get("delivered"))
            or 1.0
        )
        for q in quantiles:
            key = _quantile_key(q)
            estimate = _finite(metrics.get(f"sojourn_{key}_phases"))
            if estimate is not None:
                latency_sum[key] += estimate * weight
                latency_weight[key] += weight
        mean_estimate = _finite(metrics.get("sojourn_mean_phases"))
        if mean_estimate is not None:
            latency_mean_sum += mean_estimate * weight
            latency_mean_weight += weight

        fairness = _finite(metrics.get("jain_fairness"))
        if fairness is not None:
            jain.add(fairness)

        label = _case_label(spec)
        case_stats = per_case.setdefault(label, {})
        for name, raw in metrics.items():
            value = _finite(raw) if not isinstance(raw, bool) else float(raw)
            if value is None:
                continue
            per_metric.setdefault(name, Welford()).add(value)
            case_stats.setdefault(name, Welford()).add(value)

    report: Dict[str, Any] = {
        "scenario": scenario or (exp_ids[0] if len(exp_ids) == 1 else None),
        "experiments": exp_ids,
        "tasks": len(records),
        "cases": len(per_case),
        "cached_tasks": cached,
        "cache_hit_rate": cached / len(records),
        "wall_time_total": wall.count * wall.mean if wall.count else 0.0,
        "wall_time_mean": wall.mean if wall.count else 0.0,
        "wall_time_p90": wall_sketch.value if wall.count else 0.0,
    }

    for name in _POOLED_COUNTERS:
        if totals_seen[name]:
            report[name] = totals[name]
    if totals_seen["submitted"]:
        report["delivery_ratio"] = (
            totals["delivered"] / totals["submitted"]
            if totals["submitted"] else 1.0
        )
    if totals_seen["transmissions"]:
        report["collision_rate"] = (
            totals["collisions"] / totals["transmissions"]
            if totals["transmissions"] else 0.0
        )
    if util_weight > 0:
        report["utilization"] = util_slots / util_weight
    for q in quantiles:
        key = _quantile_key(q)
        if latency_weight[key] > 0:
            report[f"latency_{key}_phases"] = (
                latency_sum[key] / latency_weight[key]
            )
    if latency_mean_weight > 0:
        report["latency_mean_phases"] = (
            latency_mean_sum / latency_mean_weight
        )
    if jain.count:
        report["jain_fairness"] = jain.mean

    report["per_metric"] = {
        name: {
            "mean": stats.mean,
            "stddev": stats.stddev,
            "count": stats.count,
        }
        for name, stats in sorted(per_metric.items())
    }
    report["per_case"] = {
        label: {
            name: stats.mean for name, stats in sorted(case_stats.items())
        }
        for label, case_stats in sorted(per_case.items())
    }
    return report


def kpis_from_report(
    report: Any,
    *,
    scenario: Optional[str] = None,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
) -> Dict[str, Any]:
    """KPIs straight from a :class:`RunReport` (no run directory needed)."""
    records = [
        {
            "spec": outcome.spec.to_record(),
            "metrics": dict(outcome.metrics),
            "wall_time": outcome.wall_time,
            "cached": outcome.cached,
            "key": outcome.key,
        }
        for outcome in report.outcomes
    ]
    return compute_kpis(records, scenario=scenario, quantiles=quantiles)


def kpis_from_run_dir(
    run_dir: Any,
    *,
    scenario: Optional[str] = None,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
) -> Dict[str, Any]:
    """KPIs from a run directory's journal (outcome lines, deduplicated)."""
    from repro.runner.journal import (
        JOURNAL_NAME,
        merge_task_records,
        read_journal,
    )

    merged, _ = merge_task_records([
        entry
        for entry in read_journal(Path(run_dir) / JOURNAL_NAME)
        if entry.get("kind") == "outcome"
    ])
    records = [
        {**entry["record"], "cached": entry["cached"], "key": entry["key"]}
        for entry in merged
    ]
    return compute_kpis(records, scenario=scenario, quantiles=quantiles)


def kpi_filename(scenario: str) -> str:
    """``KPI_<scenario>.json`` with the name sanitized for filesystems."""
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", scenario).strip("_") or "report"
    return f"KPI_{safe}.json"


def write_kpi_report(
    kpis: Mapping[str, Any], out: Any
) -> Path:
    """Write the KPI report as JSON; ``out`` is a file or a directory.

    A directory target gets the canonical ``KPI_<scenario>.json`` name.
    Returns the path written.
    """
    path = Path(out)
    if path.is_dir() or not path.suffix:
        path = path / kpi_filename(str(kpis.get("scenario") or "report"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(kpis, indent=2, sort_keys=True) + "\n")
    return path
