"""Saturation sweeps and the tandem-queue oracle comparison.

The §4 analysis (Lemmas 4.5–4.15) models the collection pipeline as a
tandem of Bernoulli servers: stable for λ < µ with closed-form sojourn
``E(T) = D·(1−λ)/(µ−λ)`` phases and per-level queue length
``N̄ = λ(1−λ)/(µ−λ)`` (Little's law), unstable beyond the critical
rate.  This module asks the *simulated radio network* the same
questions:

* :func:`measure_capacity` saturates the pipeline and measures its
  effective aggregate service rate µ_eff (messages per phase at the
  root) — the analysis's µ is a worst-case lower bound; the measured
  pipeline serves faster, so predictions use µ_eff;
* :func:`compare_with_oracle` plugs the measured offered load and
  µ_eff into :mod:`repro.queueing.analysis` and reports
  measured/predicted ratios for sojourn time and queue length;
* :func:`saturation_sweep` walks λ upward across the predicted
  critical rate and locates the *stability knee* — the bracket
  ``(last stable λ, first unstable λ)`` — with the
  :class:`~repro.service.drift.BacklogDriftDetector` backlog-drift
  test as the instability criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.queueing.analysis import (
    expected_queue_length,
    expected_sojourn_time,
)
from repro.rng import derive_seed
from repro.service.loop import ServiceKPIs, run_service
from repro.workloads.arrivals import BernoulliArrivals

#: Relative margin :meth:`SweepResult.knee_brackets_critical` widens the
#: knee bracket by; it absorbs the finite-horizon drift test's
#: conservatism.
KNEE_TOLERANCE = 0.35

#: The span :func:`sweep_rates` covers, as factors of the critical rate.
SWEEP_LOW = 0.4
SWEEP_HIGH = 1.6


@dataclass(frozen=True)
class OracleComparison:
    """Measured KPIs vs the Geo/Geo/1 tandem's closed forms.

    ``lam_per_phase`` is the *aggregate* offered load (all sources) and
    ``mu_per_phase`` the measured saturation throughput µ_eff; every
    message traverses ``depth`` tandem stages.  Ratios are
    measured/predicted (NaN when λ ≥ µ_eff, where the closed forms
    diverge).
    """

    lam_per_phase: float
    mu_per_phase: float
    depth: int
    predicted_sojourn_phases: float
    measured_sojourn_phases: float
    predicted_queue_mean: float
    measured_queue_mean: float

    @property
    def sojourn_ratio(self) -> float:
        if not self.predicted_sojourn_phases > 0.0:
            return float("nan")
        return self.measured_sojourn_phases / self.predicted_sojourn_phases

    @property
    def queue_ratio(self) -> float:
        if not self.predicted_queue_mean > 0.0:
            return float("nan")
        return self.measured_queue_mean / self.predicted_queue_mean

    def to_dict(self) -> Dict[str, float]:
        return {
            "lam_per_phase": self.lam_per_phase,
            "mu_per_phase": self.mu_per_phase,
            "oracle_depth": self.depth,
            "predicted_sojourn_phases": self.predicted_sojourn_phases,
            "measured_sojourn_phases": self.measured_sojourn_phases,
            "sojourn_ratio": self.sojourn_ratio,
            "predicted_queue_mean": self.predicted_queue_mean,
            "measured_queue_mean": self.measured_queue_mean,
            "queue_ratio": self.queue_ratio,
        }


def measure_capacity(
    graph: Graph,
    tree: BFSTree,
    sources: Sequence[NodeId],
    seed: int,
    phases: int = 300,
) -> float:
    """Effective aggregate service rate µ_eff, in messages per phase.

    Saturates the pipeline (every source originates every phase, the
    densest Bernoulli stream) and measures the root's post-warmup
    delivery throughput — the standard capacity probe of an open
    system.  The result is clamped to 1.0: the root accepts at most one
    designated message per phase, so any excess is measurement jitter.
    """
    kpis = _run_cell(
        graph, tree, sources, rate=1.0, seed=derive_seed(seed, "capacity"),
        phases=phases, warmup_fraction=0.5,
    )
    return min(1.0, kpis.throughput_per_phase)


def compare_with_oracle(
    kpis: ServiceKPIs, capacity_per_phase: float
) -> OracleComparison:
    """Compare one run's KPIs against the tandem closed forms.

    Uses the run's measured aggregate offered load as λ and the probed
    µ_eff as µ.  Predictions: sojourn ``D·(1−λ)/(µ−λ)`` phases, total
    queued backlog ``D·λ(1−λ)/(µ−λ)`` (each of the D levels is one
    Geo/Geo/1 server seeing the aggregate stream, Hsu–Burke).
    """
    lam = kpis.offered_per_phase
    mu = min(1.0, capacity_per_phase)
    if 0.0 < lam < mu <= 1.0:
        predicted_sojourn = kpis.depth * expected_sojourn_time(lam, mu)
        predicted_queue = kpis.depth * expected_queue_length(lam, mu)
    else:
        predicted_sojourn = float("nan")
        predicted_queue = float("nan")
    return OracleComparison(
        lam_per_phase=lam,
        mu_per_phase=mu,
        depth=kpis.depth,
        predicted_sojourn_phases=predicted_sojourn,
        measured_sojourn_phases=kpis.sojourn_phases,
        predicted_queue_mean=predicted_queue,
        measured_queue_mean=kpis.queue_mean,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One λ of a saturation sweep."""

    rate_per_source: float
    rate_aggregate: float
    stable: bool
    sojourn_phases: float
    queue_mean: float
    throughput_per_phase: float
    drift_tail_mean: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rate_per_source": self.rate_per_source,
            "rate_aggregate": self.rate_aggregate,
            "stable": self.stable,
            "sojourn_phases": self.sojourn_phases,
            "queue_mean": self.queue_mean,
            "throughput_per_phase": self.throughput_per_phase,
            "drift_tail_mean": self.drift_tail_mean,
        }


@dataclass(frozen=True)
class SweepResult:
    """A saturation sweep and its detected stability knee.

    The knee is the bracket ``(knee_low, knee_high)``: the largest
    per-source λ the drift test still calls stable and the smallest it
    calls unstable (NaN when the sweep never destabilized).  The
    analytic critical rate is µ_eff divided over the sources; the
    acceptance check is that the knee brackets it.
    """

    points: Tuple[SweepPoint, ...]
    capacity_per_phase: float
    sources: int
    critical_rate_per_source: float
    knee_low: float
    knee_high: float

    @property
    def knee_found(self) -> bool:
        return not math.isnan(self.knee_high)

    def knee_brackets_critical(self) -> bool:
        """Does the detected knee agree with the analytic critical λ?

        True when the bracket, widened by the relative margin
        ``KNEE_TOLERANCE``, contains the analytic critical rate.
        """
        if not self.knee_found:
            return False
        low = self.knee_low * (1.0 - KNEE_TOLERANCE)
        high = self.knee_high * (1.0 + KNEE_TOLERANCE)
        return low <= self.critical_rate_per_source <= high

    def to_metrics(self) -> Dict[str, Any]:
        return {
            "capacity_per_phase": self.capacity_per_phase,
            "sources": self.sources,
            "critical_rate_per_source": self.critical_rate_per_source,
            "knee_low": self.knee_low,
            "knee_high": self.knee_high,
            "knee_found": self.knee_found,
            "knee_brackets_critical": self.knee_brackets_critical(),
            "points": len(self.points),
        }


def sweep_rates(critical_rate: float, points: int) -> List[float]:
    """Per-source rates spanning the predicted knee, clamped to (0, 1]:
    ``points`` factors of ``critical_rate`` evenly spaced from
    ``SWEEP_LOW`` to ``SWEEP_HIGH``."""
    if points < 2:
        raise ConfigurationError("a sweep needs at least 2 points")
    rates = []
    for i in range(points):
        factor = SWEEP_LOW + (SWEEP_HIGH - SWEEP_LOW) * i / (points - 1)
        rates.append(min(1.0, max(1e-4, critical_rate * factor)))
    return sorted(set(rates))


def saturation_sweep(
    graph: Graph,
    tree: BFSTree,
    sources: Sequence[NodeId],
    seed: int,
    points: int = 7,
    phases_per_point: int = 600,
    capacity_phases: int = 300,
) -> SweepResult:
    """Walk λ upward and locate the stability knee.

    Each of the :func:`sweep_rates` points streams Bernoulli(λ)-per-phase
    arrivals for ``phases_per_point`` phases and applies the
    backlog-drift test; the capacity probe supplies the analytic
    critical rate ``µ_eff / |sources|`` the knee is validated against.
    """
    if not sources:
        raise ConfigurationError("sweep needs at least one source")
    capacity = measure_capacity(
        graph, tree, sources, seed, phases=capacity_phases
    )
    critical = capacity / len(sources)
    swept: List[SweepPoint] = []
    for index, rate in enumerate(sweep_rates(critical, points)):
        kpis = _run_cell(
            graph, tree, sources, rate=rate,
            seed=derive_seed(seed, "sweep-point", index),
            phases=phases_per_point,
        )
        swept.append(
            SweepPoint(
                rate_per_source=rate,
                rate_aggregate=rate * len(sources),
                stable=kpis.stable,
                sojourn_phases=kpis.sojourn_phases,
                queue_mean=kpis.queue_mean,
                throughput_per_phase=kpis.throughput_per_phase,
                drift_tail_mean=kpis.drift.tail_mean,
            )
        )
    knee_low = float("nan")
    knee_high = float("nan")
    for point in swept:
        if point.stable:
            knee_low = point.rate_per_source
        else:
            knee_high = point.rate_per_source
            break
    return SweepResult(
        points=tuple(swept),
        capacity_per_phase=capacity,
        sources=len(sources),
        critical_rate_per_source=critical,
        knee_low=knee_low,
        knee_high=knee_high,
    )


def _run_cell(
    graph: Graph,
    tree: BFSTree,
    sources: Sequence[NodeId],
    rate: float,
    seed: int,
    phases: int,
    warmup_fraction: float = 0.25,
) -> ServiceKPIs:
    """One open-system cell at a fixed Bernoulli per-phase rate, on
    mod-3 level classes."""
    from repro.core.slots import SlotStructure, decay_budget

    phase_length = SlotStructure(decay_budget(graph.max_degree())).phase_length
    arrivals = BernoulliArrivals(
        sources=sources,
        rate=rate,
        phase_length=phase_length,
        seed=derive_seed(seed, "arrivals"),
    )
    return run_service(
        graph,
        tree,
        arrivals,
        seed=seed,
        horizon_slots=phases * phase_length,
        warmup_fraction=warmup_fraction,
    )
