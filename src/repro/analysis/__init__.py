"""Experiment scaffolding: statistics, the experiment registry, the
resilience harness, timelines and table rendering.

A custom grid runs through :func:`repro.runner.task_grid` and
:func:`repro.runner.run_tasks`, the same path every registered
experiment takes."""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "experiments": ("Experiment", "REGISTRY", "by_id", "registry_table"),
    "resilience": ("default_sources", "resilience_table", "scenario_metrics"),
    "sketches": ("P2Quantile", "RateWindow", "Welford"),
    "stats": (
        "Summary",
        "geometric_pmf",
        "linear_fit",
        "quantile",
        "r_squared",
        "scaling_exponent",
        "summarize",
        "total_variation_distance",
    ),
    "tables": ("format_table", "print_table"),
    "timeline": (
        "CongestionProfile",
        "Timeline",
        "congestion_profile",
        "record_collection_timeline",
        "render_timeline",
    ),
})
