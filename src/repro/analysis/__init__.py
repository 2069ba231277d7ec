"""Experiment scaffolding: statistics, the experiment registry, the
resilience harness, timelines and table rendering.

A custom grid runs through :func:`repro.runner.task_grid` and
:func:`repro.runner.run_tasks`, the same path every registered
experiment takes."""

from repro.analysis.experiments import Experiment, REGISTRY, by_id, registry_table
from repro.analysis.sketches import P2Quantile, RateWindow, Welford
from repro.analysis.stats import (
    Summary,
    geometric_pmf,
    linear_fit,
    quantile,
    r_squared,
    scaling_exponent,
    summarize,
    total_variation_distance,
)
from repro.analysis.resilience import (
    default_sources,
    resilience_table,
    scenario_metrics,
)
from repro.analysis.tables import format_table, print_table
from repro.analysis.timeline import (
    CongestionProfile,
    Timeline,
    congestion_profile,
    record_collection_timeline,
    render_timeline,
)

__all__ = [
    "CongestionProfile",
    "Experiment",
    "P2Quantile",
    "REGISTRY",
    "RateWindow",
    "Welford",
    "Summary",
    "Timeline",
    "congestion_profile",
    "default_sources",
    "format_table",
    "geometric_pmf",
    "linear_fit",
    "print_table",
    "quantile",
    "r_squared",
    "record_collection_timeline",
    "render_timeline",
    "resilience_table",
    "scaling_exponent",
    "scenario_metrics",
    "by_id",
    "registry_table",
    "summarize",
    "total_variation_distance",
]
