"""The open-system service loop: unbounded arrivals, streaming KPIs.

Every other harness in the repo runs a *closed* experiment — k messages
in, convergecast, done.  This loop runs the collection protocol as the
§4 analysis actually models it: an open system fed by an unbounded
per-station arrival stream (Bernoulli per phase, or Poisson in
continuous time), observed in steady state over a long horizon.

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
from typing import Any, Dict, Optional, Tuple

from repro.analysis.sketches import P2Quantile, RateWindow, Welford
from repro.core.collection import build_collection_network
from repro.errors import ConfigurationError
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.service.drift import BacklogDriftDetector, DriftVerdict
from repro.workloads.arrivals import ArrivalProcess

#: Transport dedup-set bound used by service runs: a duplicate is a
#: retransmission after a lost ack and arrives within a couple of phases
#: of the original, so a duplicate would have to survive this many
#: fresher receptions at one station to slip through (impossible in the
#: failure-free model, where Thm 3.1 rules duplicates out entirely).
#: Kept well below any realistic horizon's message count so the bound —
#: not the horizon — sizes the dedup state.
SERVICE_DEDUP_WINDOW = 256

#: Default quantiles the sojourn sketches track.
SOJOURN_QUANTILES = (0.5, 0.9, 0.99)


class ArrivalAdapter:
    """Feeds an :class:`ArrivalProcess` into live collection processes.

    The adapter is the only place submit slots are remembered, and only
    while a message is in flight: ``note_delivered`` pops the entry and
    returns the sojourn.  Its peak size — reported for the
    constant-memory acceptance check — tracks the protocol backlog, not
    the horizon.
    """

    def __init__(self, arrivals: ArrivalProcess, processes) -> None:
        self.arrivals = arrivals
        self.processes = processes
        self._in_flight: Dict[Tuple[NodeId, int], int] = {}
        self.submitted = 0
        self.in_flight_peak = 0

    def inject(self, slot: int) -> int:
        """Submit this slot's arrivals; returns how many were injected."""
        count = 0
        for source, payload in self.arrivals.arrivals_at(slot):
            process = self.processes.get(source)
            if process is None:
                raise ConfigurationError(f"unknown source {source!r}")
            msg_id = process.submit(payload)
            self._in_flight[msg_id] = slot
            count += 1
        if count:
            self.submitted += count
            if len(self._in_flight) > self.in_flight_peak:
                self.in_flight_peak = len(self._in_flight)
        return count

    def note_delivered(self, msg_id: Tuple[NodeId, int]) -> Optional[int]:
        """Forget a delivered message; returns its submit slot."""
        return self._in_flight.pop(msg_id, None)

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)


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
    level_classes: int = 3,
    quantiles: Tuple[float, ...] = SOJOURN_QUANTILES,
    sample_every_phases: int = 1,
    window_phases: int = 16,
    dedup_window: Optional[int] = SERVICE_DEDUP_WINDOW,
) -> ServiceKPIs:
    """Stream arrivals through collection for ``horizon_slots`` slots.

    Unlike :func:`repro.workloads.run_streaming_collection` this never
    drains and never retains per-message records: it is meant for
    horizons of millions of slots, and its peak memory is a function of
    the topology and the offered load, not of the horizon.
    """
    if horizon_slots < 1:
        raise ConfigurationError("horizon must be >= 1 slot")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(
            f"warmup_fraction must be in [0,1), got {warmup_fraction}"
        )
    if sample_every_phases < 1 or window_phases < 1:
        raise ConfigurationError("sampling cadence must be >= 1 phase")

    network, processes, slots = build_collection_network(
        graph, tree, sources={}, seed=seed, level_classes=level_classes,
        dedup_window=dedup_window,
    )
    root_process = processes[tree.root]
    non_root = [p for node, p in processes.items() if node != tree.root]
    phase_length = slots.phase_length
    warmup_slots = int(horizon_slots * warmup_fraction)

    adapter = ArrivalAdapter(arrivals, processes)
    sojourn = Welford()
    sketches = {p: P2Quantile(p) for p in quantiles}
    queue = Welford()
    drift = BacklogDriftDetector(warmup_slots, horizon_slots)
    throughput = RateWindow(window_phases * phase_length)
    measured_delivered = 0
    delivered = 0
    delivered_post_warmup = 0
    sample_every_slots = sample_every_phases * phase_length

    for slot in range(horizon_slots):
        adapter.inject(slot)
        network.step()
        now = network.slot
        if root_process.delivered:
            for message in root_process.delivered:
                delivered += 1
                submitted_slot = adapter.note_delivered(message.msg_id)
                if now >= warmup_slots:
                    # Throughput counts every post-warmup delivery: in an
                    # oversaturated system the messages coming out now
                    # were submitted long ago, and they are exactly the
                    # served traffic a capacity probe must measure.
                    delivered_post_warmup += 1
                    throughput.record(now)
                if submitted_slot is None or submitted_slot < warmup_slots:
                    continue  # warmup truncation for the sojourn KPIs
                measured_delivered += 1
                sojourn_phases = (now - submitted_slot) / phase_length
                sojourn.add(sojourn_phases)
                for sketch in sketches.values():
                    sketch.add(sojourn_phases)
            root_process.delivered.clear()
        if slot % sample_every_slots == 0:
            backlog = sum(p.backlog for p in non_root)
            drift.observe(slot, backlog)
            if slot >= warmup_slots:
                queue.add(backlog)

    throughput.finish(horizon_slots)
    final_backlog = sum(p.backlog for p in non_root)
    return ServiceKPIs(
        horizon_slots=horizon_slots,
        warmup_slots=warmup_slots,
        phase_length=phase_length,
        depth=tree.depth,
        submitted=adapter.submitted,
        delivered=delivered,
        measured_delivered=measured_delivered,
        offered_per_phase=adapter.submitted / max(1, horizon_slots // phase_length),
        throughput_per_phase=delivered_post_warmup * phase_length
        / max(1, horizon_slots - warmup_slots),
        sojourn=sojourn,
        sojourn_quantiles={p: s.value for p, s in sketches.items()},
        queue=queue,
        drift=drift.verdict(),
        in_flight_peak=adapter.in_flight_peak,
        final_backlog=final_backlog,
        throughput_windows=throughput,
    )
