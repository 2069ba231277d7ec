"""Reactive workload drivers: one drive loop, three sinks.

Batch runners (:func:`repro.core.collection.run_collection` et al.)
submit everything at slot 0; a *driver* instead steps the network slot by
slot, injecting arrivals from an :class:`~repro.workloads.arrivals.
ArrivalProcess` as they occur and timestamping each message's delivery.
This is what turns the simulator into the §4 queueing system "in the
flesh": offered load λ, service µ, measurable sojourn times.

Every streamed run goes through :class:`Drive`, the one
inject → step → collect → drain loop.  It owns the in-flight map
(key → submit slot) and the delivery timestamps, and passes each
submission and each delivery to a *sink* — any object with
``on_submit(key, origin, slot)`` and
``on_deliver(key, origin, submitted_slot, now)``:

* :class:`RecordSink` keeps one record per message (the
  ``run_streaming_*`` results below);
* :class:`FlowAccumulator` streams sojourns into Welford/P² sketches
  plus per-source flow counters (scenario tasks);
* the service KPIs (:mod:`repro.service.loop`) are a
  :class:`FlowAccumulator` plus a throughput window and the in-flight
  peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.sketches import SOJOURN_QUANTILES, P2Quantile, Welford
from repro.core.collection import build_collection_network
from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs.bfs_tree import BFSTree
from repro.graphs.graph import Graph, NodeId
from repro.workloads.arrivals import ArrivalProcess


@dataclass
class MessageRecord:
    """Lifecycle of one streamed message."""

    msg_id: Tuple[NodeId, int]
    source: NodeId
    submitted_slot: int
    delivered_slot: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        if self.delivered_slot is None:
            return None
        return self.delivered_slot - self.submitted_slot


@dataclass
class StreamingResult:
    """Outcome of a streamed collection run."""

    slots: int
    records: List[MessageRecord] = field(default_factory=list)

    @property
    def submitted(self) -> int:
        return len(self.records)

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.records if r.delivered_slot is not None)

    @property
    def latencies(self) -> List[int]:
        return [
            r.latency for r in self.records if r.latency is not None
        ]  # type: ignore[misc]

    @property
    def mean_latency(self) -> float:
        values = self.latencies
        if not values:
            return float("nan")
        return sum(values) / len(values)

    def mean_latency_phases(self, phase_length: int) -> float:
        return self.mean_latency / phase_length

    @property
    def delivery_ratio(self) -> float:
        if not self.records:
            return 1.0
        return self.delivered / self.submitted


class Drive:
    """The inject → step → collect → drain loop over one radio network.

    ``hooks`` is a service's ``(submit, deliveries)`` pair:
    ``submit(source, payload)`` hands one arrival to the protocol and
    returns the key its delivery will carry; ``deliveries()`` returns the
    ``(key, origin)`` pairs delivered since its last call.
    """

    def __init__(self, network, hooks, sink) -> None:
        self.network = network
        self._submit, self._deliveries = hooks
        self.sink = sink
        self.in_flight: Dict[Any, int] = {}

    def submit(self, source: NodeId, payload: Any) -> None:
        key = self._submit(source, payload)
        slot = self.network.slot
        self.in_flight[key] = slot
        self.sink.on_submit(key, source, slot)

    def collect(self) -> None:
        """Timestamp fresh deliveries and pass them to the sink."""
        now = self.network.slot
        for key, origin in self._deliveries():
            submitted_slot = self.in_flight.pop(key, None)
            if submitted_slot is not None:
                self.sink.on_deliver(key, origin, submitted_slot, now)

    def run(self, arrivals: ArrivalProcess, until: int) -> None:
        """Inject arrivals and step until the network is at slot ``until``.

        Slots where no station is due and no arrival falls are skipped
        in one jump (:meth:`~repro.radio.network.RadioNetwork.skip_to`):
        nothing can be sent, heard or delivered in them.
        """
        network = self.network
        while network.slot < until:
            slot = network.slot
            quiet = min(
                until,
                network.next_due_slot(),
                arrivals.next_arrival_slot(slot),
            )
            if quiet > slot:
                network.skip_to(quiet)
                continue
            batch = arrivals.arrivals_at(slot)
            if batch:
                for source, payload in batch:
                    self.submit(source, payload)
                self.collect()  # a submission at its destination arrives now
            network.step()
            self.collect()

    def drain(self, budget: int, stall: Optional[int] = None) -> int:
        """Step without arrivals until nothing is in flight; returns leftovers.

        Gives up after ``budget`` slots, or once ``stall`` slots in a row
        have delivered nothing.
        """
        extra = progress = 0
        while self.in_flight and extra < budget:
            if stall is not None and extra - progress >= stall:
                break
            before = len(self.in_flight)
            self.network.step()
            self.collect()
            if len(self.in_flight) < before:
                progress = extra
            extra += 1
        return len(self.in_flight)


def _station(processes, node: NodeId, role: str = "source"):
    process = processes.get(node)
    if process is None:
        raise ConfigurationError(f"unknown {role} {node!r}")
    return process


def _read_delivered(stations):
    """Deliveries from the stations' ``delivered`` lists, cleared as read."""

    def deliveries():
        fresh = []
        for station in stations:
            if station.delivered:
                fresh.extend((m.msg_id, m.origin) for m in station.delivered)
                station.delivered.clear()
        return fresh

    return deliveries


def collection_hooks(processes, root: NodeId):
    """Collection: every delivery is at the root."""
    return (
        lambda source, payload: _station(processes, source).submit(payload),
        _read_delivered([processes[root]]),
    )


def p2p_hooks(processes, tree: BFSTree, destination_of):
    """Point-to-point: ``destination_of(source, payload)`` names each
    arrival's target; deliveries are read station by station in node
    order (the order the sojourn sketches see them in)."""

    def submit(source: NodeId, payload: Any):
        process = _station(processes, source)
        dest = destination_of(source, payload)
        _station(processes, dest, "destination")
        return process.submit(tree.dfs_number[dest], payload)

    return submit, _read_delivered([processes[n] for n in sorted(processes)])


class RecordSink:
    """Keeps one :class:`MessageRecord` per message, in submission order."""

    def __init__(self) -> None:
        self.records: Dict[Any, Any] = {}

    def on_submit(self, key, origin, slot: int) -> None:
        self.records[key] = MessageRecord(
            msg_id=key, source=origin, submitted_slot=slot
        )

    def on_deliver(self, key, origin, submitted_slot: int, now: int) -> None:
        self.records[key].delivered_slot = now


class FlowAccumulator:
    """Streams per-message sojourns and per-source flow counters.

    Sojourns are in phases of ``phase_length`` slots; deliveries of
    messages submitted before ``warmup_slots`` are counted but not
    measured.  State is O(sources), never O(messages).
    """

    def __init__(self, phase_length: int = 1, warmup_slots: int = 0) -> None:
        self.phase_length = phase_length
        self.warmup_slots = warmup_slots
        self.sojourn = Welford()
        self.sketches = {p: P2Quantile(p) for p in SOJOURN_QUANTILES}
        self.submitted_by: Dict[NodeId, int] = {}
        self.delivered_by: Dict[NodeId, int] = {}
        self.submitted = 0
        self.delivered = 0
        self.measured = 0
        self.slots = 0
        self.lost = 0
        self.stats = {
            "transmissions": 0, "collisions": 0, "busy_slots": 0,
            "dropped": 0,
        }

    def on_submit(self, key, origin, slot: int) -> None:
        self.submitted += 1
        self.submitted_by[origin] = self.submitted_by.get(origin, 0) + 1

    def on_deliver(self, key, origin, submitted_slot: int, now: int) -> None:
        self.delivered += 1
        self.delivered_by[origin] = self.delivered_by.get(origin, 0) + 1
        if submitted_slot >= self.warmup_slots:
            sojourn_phases = (now - submitted_slot) / self.phase_length
            self.measured += 1
            self.sojourn.add(sojourn_phases)
            for sketch in self.sketches.values():
                sketch.add(sojourn_phases)

    def absorb_stats(self, stats) -> None:
        self.stats["transmissions"] += stats.transmissions
        self.stats["collisions"] += stats.collisions
        self.stats["dropped"] += stats.dropped
        self.stats["busy_slots"] += sum(
            c.busy_slots for c in stats.per_channel.values()
        )

    def metrics(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "submitted": self.submitted,
            "delivered": self.delivered,
            "measured_delivered": self.measured,
            "lost": self.lost,
            "delivery_ratio": (
                self.delivered / self.submitted if self.submitted else 1.0
            ),
            "slots": self.slots,
            "phases": self.slots / self.phase_length,
            "sojourn_mean_phases": (
                self.sojourn.mean if self.sojourn.count else float("nan")
            ),
            "sojourn_stddev_phases": self.sojourn.stddev,
            "jain_fairness": jain_fairness(
                [self.delivered_by.get(s, 0) for s in self.submitted_by]
            ),
            "utilization": (
                self.stats["busy_slots"] / self.slots if self.slots else 0.0
            ),
            "collision_rate": (
                self.stats["collisions"] / self.stats["transmissions"]
                if self.stats["transmissions"] else 0.0
            ),
            "transmissions": self.stats["transmissions"],
            "collisions": self.stats["collisions"],
            "dropped": self.stats["dropped"],
        }
        for p, sketch in sorted(self.sketches.items()):
            out[f"sojourn_p{int(round(p * 100))}_phases"] = sketch.value
        return out


def jain_fairness(shares: List[float]) -> float:
    """Jain's fairness index over per-flow shares: (Σx)²/(n·Σx²)."""
    if not shares:
        return 1.0
    total = float(sum(shares))
    squares = float(sum(x * x for x in shares))
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(shares) * squares)


def _stream(
    network, hooks, sink, arrivals: ArrivalProcess,
    horizon_slots: int, drain_budget: Optional[int],
) -> List[Any]:
    """Run the horizon, then drain for at most ``drain_budget`` slots
    (``None``: no drain); a drain left short raises
    :class:`SimulationTimeout`.  Returns the records in submission order.
    """
    if horizon_slots < 0:
        raise ConfigurationError("horizon must be >= 0")
    drive = Drive(network, hooks, sink)
    drive.run(arrivals, horizon_slots)
    left = drive.drain(drain_budget) if drain_budget is not None else 0
    if left:
        raise SimulationTimeout(
            f"drain exceeded {drain_budget} slots with {left} messages "
            "in flight",
            slots_elapsed=network.slot,
        )
    return list(sink.records.values())


def run_streaming_collection(
    graph: Graph,
    tree: BFSTree,
    arrivals: ArrivalProcess,
    seed: int,
    horizon_slots: int,
    drain: bool = True,
    drain_budget: Optional[int] = None,
) -> StreamingResult:
    """Stream arrivals into collection for ``horizon_slots`` slots.

    The run uses mod-3 level classes.  Each arrival is submitted at its
    slot; deliveries at the root are timestamped by polling (exact, since
    the driver steps every slot in which a station is due).  With
    ``drain`` the run continues past the horizon (up to ``drain_budget``
    extra slots) until every submitted message arrives, so latencies are
    complete; without it, undelivered messages simply have no latency
    (useful for overload experiments).
    """
    network, processes, _slots = build_collection_network(
        graph, tree, sources={}, seed=seed
    )
    if drain_budget is None:
        drain_budget = max(50_000, 30 * horizon_slots)
    records = _stream(
        network, collection_hooks(processes, tree.root), RecordSink(),
        arrivals, horizon_slots, drain_budget if drain else None,
    )
    return StreamingResult(slots=network.slot, records=records)


def run_streaming_p2p(
    graph: Graph,
    tree: BFSTree,
    arrivals: ArrivalProcess,
    destination_of,
    seed: int,
    horizon_slots: int,
) -> StreamingResult:
    """Stream point-to-point traffic: arrivals routed to chosen targets.

    ``destination_of(source, payload)`` names the target station for each
    arrival (so workloads can express hotspots, all-to-one, random pairs…).
    Latency is submission-to-destination-delivery, measured per message.
    The run uses mod-3 level classes and drains past the horizon for at
    most ``max(50 000, 30 × horizon_slots)`` slots until every message
    arrives; a drain left short raises :class:`SimulationTimeout`.
    """
    from repro.core.point_to_point import build_p2p_network

    network, processes, _slots = build_p2p_network(graph, tree, seed)
    records = _stream(
        network, p2p_hooks(processes, tree, destination_of), RecordSink(),
        arrivals, horizon_slots, max(50_000, 30 * horizon_slots),
    )
    return StreamingResult(slots=network.slot, records=records)
