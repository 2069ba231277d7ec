"""The open-system service loop: unbounded arrivals, streaming KPIs.

Every other harness in the repo runs a *closed* experiment — k messages
in, convergecast, done.  This loop runs the collection protocol as the
§4 analysis actually models it: an open system fed by an unbounded
per-station arrival stream (Bernoulli per phase, or Poisson in
continuous time), observed in steady state over a long horizon.  The
slot loop is the shared :class:`~repro.workloads.driver.Drive`; this
module is its service sink and the per-phase backlog sampling.

Constant-memory contract
------------------------
Peak memory is independent of the horizon.  Nothing per-message is
retained:

* sojourn times feed :class:`~repro.analysis.sketches.Welford` moments
  and :class:`~repro.analysis.sketches.P2Quantile` sketches the moment
  a message is delivered, then the delivery record is dropped (the
  root's ``delivered`` list is drained and cleared every slot);
* the submit-slot map covers only *in-flight* messages — bounded by
  the queue backlog, which is itself bounded in the stable λ < µ
  regime (its observed peak is reported as ``in_flight_peak``);
* queue lengths are sampled once per phase into a
  :class:`~repro.service.drift.BacklogDriftDetector` and windowed
  :class:`~repro.analysis.sketches.RateWindow` counters, all O(1);
* transport-layer duplicate suppression runs with a bounded
  ``dedup_window`` instead of the closed-run unbounded set.

Warmup truncation: deliveries of messages submitted before
``warmup_slots`` are counted but excluded from the KPIs, so the
estimators measure the stationary regime, not the empty-system
transient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.analysis.sketches import RateWindow, Welford
from repro.core.collection import build_collection_network
from repro.core.transport import BacklogTotal
from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph
from repro.service.drift import BacklogDriftDetector, DriftVerdict
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.driver import Drive, FlowAccumulator, collection_hooks

#: Transport dedup-set bound used by service runs: a duplicate is a
#: retransmission after a lost ack and arrives within a couple of phases
#: of the original, so a duplicate would have to survive this many
#: fresher receptions at one station to slip through (impossible in the
#: failure-free model, where Thm 3.1 rules duplicates out entirely).
#: Kept well below any realistic horizon's message count so the bound —
#: not the horizon — sizes the dedup state.
SERVICE_DEDUP_WINDOW = 256

#: Width of the throughput windows, in phases.
WINDOW_PHASES = 16


class _ServiceFlow(FlowAccumulator):
    """The service sink: flow counters plus the throughput window and the
    in-flight peak."""

    def __init__(self, phase_length: int, warmup_slots: int) -> None:
        super().__init__(phase_length, warmup_slots)
        self.throughput = RateWindow(WINDOW_PHASES * phase_length)
        self.served = 0  # deliveries after warmup, whenever submitted
        self.in_flight_peak = 0

    def on_submit(self, key, origin, slot: int) -> None:
        super().on_submit(key, origin, slot)
        self.in_flight_peak = max(
            self.in_flight_peak, self.submitted - self.delivered
        )

    def on_deliver(self, key, origin, submitted_slot: int, now: int) -> None:
        super().on_deliver(key, origin, submitted_slot, now)
        if now >= self.warmup_slots:
            # Throughput counts every post-warmup delivery: in an
            # oversaturated system the messages coming out now were
            # submitted long ago, and they are exactly the served
            # traffic a capacity probe must measure.
            self.served += 1
            self.throughput.record(now)


@dataclass
class ServiceKPIs:
    """Streaming KPIs of one open-system service run.

    All sojourn figures are in *phases* (the §4 analysis's clock);
    throughput and offered load are per phase, aggregated over all
    sources.  ``measured_*`` fields cover the post-warmup span only.
    """

    horizon_slots: int
    warmup_slots: int
    phase_length: int
    depth: int
    submitted: int
    delivered: int
    measured_delivered: int
    offered_per_phase: float
    throughput_per_phase: float
    sojourn: Welford
    sojourn_quantiles: Dict[float, float]
    queue: Welford
    drift: DriftVerdict
    in_flight_peak: int
    final_backlog: int
    throughput_windows: RateWindow = field(repr=False)

    @property
    def sojourn_phases(self) -> float:
        return self.sojourn.mean if self.sojourn.count else float("nan")

    @property
    def queue_mean(self) -> float:
        return self.queue.mean if self.queue.count else float("nan")

    @property
    def stable(self) -> bool:
        return self.drift.stable

    def to_metrics(self) -> Dict[str, Any]:
        """Flat JSON-scalar dict (runner task results, bench summaries)."""
        out: Dict[str, Any] = {
            "horizon_slots": self.horizon_slots,
            "warmup_slots": self.warmup_slots,
            "phase_length": self.phase_length,
            "depth": self.depth,
            "submitted": self.submitted,
            "delivered": self.delivered,
            "measured_delivered": self.measured_delivered,
            "offered_per_phase": self.offered_per_phase,
            "throughput_per_phase": self.throughput_per_phase,
            "sojourn_phases": self.sojourn_phases,
            "sojourn_stddev_phases": self.sojourn.stddev,
            "queue_mean": self.queue_mean,
            "queue_stddev": self.queue.stddev,
            "stable": self.drift.stable,
            "drift_slope_per_kslot": self.drift.slope_per_kslot,
            "drift_head_mean": self.drift.head_mean,
            "drift_tail_mean": self.drift.tail_mean,
            "in_flight_peak": self.in_flight_peak,
            "final_backlog": self.final_backlog,
        }
        for p, value in sorted(self.sojourn_quantiles.items()):
            out[f"sojourn_p{int(round(p * 100))}_phases"] = value
        return out


def run_service(
    graph: Graph,
    tree: BFSTree,
    arrivals: ArrivalProcess,
    seed: int,
    horizon_slots: int,
    warmup_fraction: float = 0.25,
) -> ServiceKPIs:
    """Stream arrivals through collection for ``horizon_slots`` slots.

    Unlike :func:`repro.workloads.run_streaming_collection` this never
    drains and never retains per-message records: it is meant for
    horizons of millions of slots, and its peak memory is a function of
    the topology and the offered load, not of the horizon.  The
    collection runs on mod-3 level classes.
    """
    if horizon_slots < 1:
        raise ConfigurationError("horizon must be >= 1 slot")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(
            f"warmup_fraction must be in [0,1), got {warmup_fraction}"
        )

    network, processes, slots = build_collection_network(
        graph, tree, sources={}, seed=seed, dedup_window=SERVICE_DEDUP_WINDOW
    )
    # The lanes keep a running total of the messages they buffer (the
    # root's never does), so the per-phase sample is one read.
    backlog = BacklogTotal()
    for process in processes.values():
        process.lane.join_total(backlog)
    phase_length = slots.phase_length
    warmup_slots = int(horizon_slots * warmup_fraction)

    flow = _ServiceFlow(phase_length, warmup_slots)
    drive = Drive(network, collection_hooks(processes, tree.root), flow)
    queue = Welford()
    drift = BacklogDriftDetector(warmup_slots, horizon_slots)
    # Sample the backlog once per phase, right after the phase's first slot.
    for slot in range(0, horizon_slots, phase_length):
        drive.run(arrivals, slot + 1)
        drift.observe(slot, backlog.messages)
        if slot >= warmup_slots:
            queue.add(backlog.messages)
    drive.run(arrivals, horizon_slots)

    flow.throughput.finish(horizon_slots)
    return ServiceKPIs(
        horizon_slots=horizon_slots,
        warmup_slots=warmup_slots,
        phase_length=phase_length,
        depth=tree.depth,
        submitted=flow.submitted,
        delivered=flow.delivered,
        measured_delivered=flow.measured,
        offered_per_phase=flow.submitted / max(1, horizon_slots // phase_length),
        throughput_per_phase=flow.served * phase_length
        / max(1, horizon_slots - warmup_slots),
        sojourn=flow.sojourn,
        sojourn_quantiles={p: s.value for p, s in flow.sketches.items()},
        queue=queue,
        drift=drift.verdict(),
        in_flight_peak=flow.in_flight_peak,
        final_backlog=backlog.messages,
        throughput_windows=flow.throughput,
    )
