"""KPI post-processing: telemetry records → one flat KPI report.

A scenario run leaves a trail of per-task metric records (in the
:class:`~repro.runner.executor.RunReport` and, when a run directory was
given, as the outcome lines of its journal).  This package is the
post-pass that folds those records into the scenario's key performance
indicators — delivery ratio, per-flow latency percentiles, air-time
utilization, collision rate, Jain fairness — using the same
constant-memory sketches (:mod:`repro.analysis.sketches`) the streaming
drivers use, and writes
them as ``KPI_<scenario>.json``: a flat JSON object whose top-level
scalars are directly consumable by ``benchmarks/check_regression.py``.
"""

from repro.kpi.processor import (
    compute_kpis,
    kpi_filename,
    kpis_from_report,
    kpis_from_run_dir,
    write_kpi_report,
)

__all__ = [
    "compute_kpis",
    "kpi_filename",
    "kpis_from_report",
    "kpis_from_run_dir",
    "write_kpi_report",
]
