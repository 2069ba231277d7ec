"""Open-system service mode: streaming arrivals, constant-memory KPIs.

The subsystem that runs the protocols the way §4 analyzes them — as an
open queueing system under an unbounded arrival stream — instead of as
bounded k-message runs:

* :mod:`~repro.analysis.sketches` — the O(1) estimators it streams
  into (Welford moments, P² quantile sketches, windowed rate counters),
  shared with the scenario KPI processor and re-exported here;
* :mod:`~repro.service.drift` — the backlog-drift stability test;
* :mod:`~repro.service.loop` — the service KPIs over the shared drive
  loop (:class:`~repro.workloads.driver.Drive`): warmup truncation, no
  per-message retention;
* :mod:`~repro.service.sweep` — capacity probing, saturation sweeps
  locating the stability knee, and the `repro.queueing` tandem oracle
  comparison.

CLI: ``python -m repro service`` — runner experiments E19 (open-system
KPIs) and E20 (saturation sweep) are registered in
:mod:`repro.runner.defs`.
"""

from repro.analysis.sketches import P2Quantile, RateWindow, Welford
from repro.service.drift import BacklogDriftDetector, DriftVerdict
from repro.service.loop import (
    SERVICE_DEDUP_WINDOW,
    ServiceKPIs,
    run_service,
)
from repro.service.sweep import (
    OracleComparison,
    SweepPoint,
    SweepResult,
    compare_with_oracle,
    measure_capacity,
    saturation_sweep,
    sweep_rates,
)

__all__ = [
    "BacklogDriftDetector",
    "DriftVerdict",
    "OracleComparison",
    "P2Quantile",
    "RateWindow",
    "SERVICE_DEDUP_WINDOW",
    "ServiceKPIs",
    "SweepPoint",
    "SweepResult",
    "Welford",
    "compare_with_oracle",
    "measure_capacity",
    "run_service",
    "saturation_sweep",
    "sweep_rates",
]
