"""One drain loop for both multi-host queue backends.

A worker drains a queue the same way whether the queue is a shared
lease directory (:mod:`repro.runner.fleet`) or a TCP coordinator
(:mod:`repro.runner.client`): claim a task, execute it under the fault
policy's retry budget while a heartbeat thread keeps its lease alive,
commit the outcome (or a quarantine record), and repeat until the queue
reports drained.  :class:`DrainWorker` is that loop.  What differs
between the backends is a small duck-typed *transport*:

``start(report) -> version``
    Ready the queue side and return the submitted grid's code version.
    ``report`` is the worker's :class:`WorkerReport`; the transport adds
    the counts only it can see (lease reclaims, cache replays, stranded
    commits).
``claim() -> (key, spec) | WAIT | DRAINED``
    The next task this worker should run; ``WAIT`` while every pending
    task is leased to a live owner; ``DRAINED`` once none is left.
``heartbeat(key)``
    Keep the lease on ``key`` alive (called from the heartbeat thread).
``commit(key, record)``
    Durably record a computed outcome and give up the lease.
``quarantine(key, record)``
    Record a task the worker gave up on and give up the lease.
``stop()``
    Release the transport's resources; called once, however the loop
    ends.

A transport raises :class:`QueueUnreachable` when its queue stays out of
reach past its offline budget; the loop then ends cleanly.

The module also holds what the two backends' status and report layers
share: the per-host journal fold (:func:`fold_host_entry`), the status
text view (:func:`render_status`) and the merged
:class:`~repro.runner.executor.RunReport` builder (:func:`build_report`).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.runner.executor import RunReport, TaskOutcome
from repro.runner.policy import FaultPolicy, QuarantineRecord
from repro.runner.task import TaskSpec
from repro.runner.telemetry import merge_task_records

#: ``claim()`` results that are not a task.
WAIT = "wait"
DRAINED = "drained"


class QueueUnreachable(RuntimeError):
    """The queue stayed out of reach past the transport's offline budget."""


def check_grid(tasks: Sequence[TaskSpec]) -> None:
    """Reject a grid a queue cannot hold: empty, or several experiments."""
    if not tasks:
        raise ConfigurationError("cannot submit an empty task grid")
    exp_ids = {spec.exp_id for spec in tasks}
    if len(exp_ids) != 1:
        raise ConfigurationError(
            f"one queue holds one experiment, got {sorted(exp_ids)}"
        )


#: Per-process random nonce folded into :func:`default_host_name`.
#: Computed once per interpreter (fork inherits it, but forked children
#: differ by pid; a fresh interpreter draws a fresh nonce).
_HOST_NONCE = os.urandom(2).hex()


def default_host_name() -> str:
    """A per-worker host identity: ``<hostname>-<pid>-<nonce>``.

    One OS host may deliberately run several workers; each is its own
    queue "host" with its own journal stream and lease identity.  The
    random per-process nonce keeps a restarted worker that recycles a
    dead predecessor's PID from inheriting its journal stream and lease
    identity — without it, ``status`` would mis-merge the two
    incarnations into one host taxonomy entry.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{_HOST_NONCE}"


@dataclass
class WorkerReport:
    """What one worker (fleet or coordinator-attached) did.

    ``stranded`` is coordinator-specific: outcomes a worker computed but
    could not commit before its coordinator stayed unreachable past the
    offline budget — spooled to the local outbox and committed by the
    next worker run instead of lost.
    """

    host: str
    executed: int = 0
    cache_hits: int = 0
    retries: int = 0
    lease_reclaims: int = 0
    quarantined: int = 0
    overruns: int = 0
    stranded: int = 0
    wall_time: float = 0.0

    def to_record(self) -> Dict[str, Any]:
        return asdict(self)


class DrainWorker:
    """One pull-mode worker draining a queue through ``transport``.

    Tasks execute inline in this process (a queue already shards across
    processes and machines; each worker is one lane).  ``run_fn``
    overrides the registry lookup — tests inject counting stubs; the CLI
    leaves it None so specs resolve through
    :func:`~repro.runner.registry.run_registered_task` (or the batch
    entry point, as a singleton batch, for ``engine="vector"`` tasks).

    ``throttle`` sleeps that long before each execution — chaos and
    tests use it to hold tasks in flight long enough to kill hosts
    mid-task; production leaves it 0.  ``max_tasks`` stops the worker
    once it has *run* that many tasks, each either executed or
    quarantined after its retries ran out.  Tasks the transport finishes
    without running them — cache replays, and on the fleet a lease whose
    steal budget is spent — do not count, on either backend.
    """

    def __init__(
        self,
        transport,
        host: str,
        *,
        policy: FaultPolicy,
        heartbeat_interval: float,
        poll_interval: float,
        throttle: float,
        run_fn,
        max_tasks: Optional[int],
        progress: bool,
    ) -> None:
        self.transport = transport
        self.host = host
        self.policy = policy
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.throttle = throttle
        self.run_fn = run_fn
        self.max_tasks = max_tasks
        self.progress = progress
        self.report = WorkerReport(host=host)
        self._active_key: Optional[str] = None
        self._stop_heartbeat = threading.Event()

    def run(self) -> WorkerReport:
        """Drain the queue; return what this worker did.

        Ends cleanly in three ways: the queue drained, ``max_tasks`` was
        reached, or the transport raised :class:`QueueUnreachable` — in
        which case whatever it could not deliver is already kept where
        the next run will find it.
        """
        started = time.perf_counter()
        self._stop_heartbeat.clear()
        beat = threading.Thread(target=self._heartbeat_loop, daemon=True)
        try:
            version = self.transport.start(self.report)
            beat.start()
            done = 0
            while self.max_tasks is None or done < self.max_tasks:
                claimed = self.transport.claim()
                if claimed == DRAINED:
                    break
                if claimed == WAIT:
                    time.sleep(self.poll_interval)
                    continue
                key, spec = claimed
                self._run_task(key, spec, version)
                done += 1
        except QueueUnreachable:
            pass
        finally:
            self._stop_heartbeat.set()
            if beat.is_alive():
                beat.join(timeout=2.0)
            self.report.wall_time = time.perf_counter() - started
            self.transport.stop()
        return self.report

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self.heartbeat_interval):
            key = self._active_key
            if key is not None:
                self.transport.heartbeat(key)

    def _run_task(self, key: str, spec: TaskSpec, version: str) -> None:
        self._active_key = key
        try:
            if self.throttle:
                time.sleep(self.throttle)
            result = self._execute(spec, key)
            if result is None:  # quarantined
                return
            metrics, wall = result
            self.report.executed += 1
            self.transport.commit(
                key,
                {
                    "spec": spec.to_record(),
                    "metrics": metrics,
                    "wall_time": wall,
                    "version": version,
                },
            )
            if self.progress:
                print(
                    f"[{self.host}] {spec.label()} done in {wall:.2f}s",
                    flush=True,
                )
        finally:
            self._active_key = None

    def _call(self, spec: TaskSpec) -> Mapping[str, Any]:
        if self.run_fn is not None:
            return self.run_fn(spec)
        from repro.runner.registry import (
            run_registered_batch,
            run_registered_task,
        )

        if spec.engine != "scalar":
            return run_registered_batch(spec.exp_id, [spec])[0]
        return run_registered_task(spec.exp_id, spec)

    def _execute(
        self, spec: TaskSpec, key: str
    ) -> Optional[Tuple[Dict[str, Any], float]]:
        """Run one task with the policy's retry budget; None if given up."""
        attempts = 0
        while True:
            started = time.perf_counter()
            try:
                metrics = dict(self._call(spec))
            except Exception as exc:
                attempts += 1
                if attempts > self.policy.max_retries:
                    self.transport.quarantine(
                        key,
                        QuarantineRecord.for_task(
                            spec,
                            key,
                            category="error",
                            attempts=attempts,
                            detail=(
                                f"task {spec.label()} failed on "
                                f"{self.host}: {type(exc).__name__}: {exc}"
                            ),
                        ).to_record(),
                    )
                    self.report.quarantined += 1
                    return None
                self.report.retries += 1
                time.sleep(self.policy.backoff_delay(key, attempts))
                continue
            wall = time.perf_counter() - started
            if self.policy.timeout is not None and wall > self.policy.timeout:
                # Inline execution cannot preempt; overruns are counted
                # (the watchdog against *dead* hosts is the lease TTL,
                # not this budget).
                self.report.overruns += 1
            return metrics, wall


# ----------------------------------------------------------------------
# Status and report: what both backends' merge layers share
# ----------------------------------------------------------------------


@dataclass
class HostStatus:
    """One host's contribution, folded from its journal lines."""

    host: str
    outcomes: int = 0
    fresh: int = 0
    cached: int = 0
    quarantines: int = 0
    lease_reclaims: int = 0
    started_unix: Optional[float] = None
    last_seen_unix: Optional[float] = None
    finished: bool = False

    def throughput(self) -> Optional[float]:
        """Outcomes per second over this host's observed lifetime.

        None until the host has both produced an outcome and been seen
        for a measurable interval — a freshly-started host has no rate
        yet, and inventing one would poison the ETA.
        """
        if (
            self.outcomes == 0
            or self.started_unix is None
            or self.last_seen_unix is None
        ):
            return None
        span = self.last_seen_unix - self.started_unix
        if span <= 0:
            return None
        return self.outcomes / span

    def to_record(self) -> Dict[str, Any]:
        return asdict(self)


def fold_host_entry(status: HostStatus, entry: Mapping[str, Any]) -> None:
    """Fold one journal line into its host's :class:`HostStatus`.

    A host's lease losses count as ``lease_reclaims`` under either
    journal kind: ``lease_reclaim`` (a fleet host stole a stale lease;
    counted for the thief) or ``lease_expired`` (the coordinator expired
    a lease; counted for its holder).
    """
    stamp = entry.get("time_unix")
    if stamp is not None:
        status.last_seen_unix = stamp
        if status.started_unix is None:
            status.started_unix = stamp
    kind = entry.get("kind")
    if kind == "outcome":
        status.outcomes += 1
        if entry.get("cached"):
            status.cached += 1
        else:
            status.fresh += 1
    elif kind == "quarantine":
        status.quarantines += 1
    elif kind in ("lease_reclaim", "lease_expired"):
        status.lease_reclaims += 1
    elif kind == "host_finish":
        status.finished = True


def render_status(
    header: str,
    *,
    total: int,
    completed: int,
    quarantined: int,
    pending: int,
    in_flight: int,
    hosts: Sequence[HostStatus],
    reclaims: str,
    taxonomy: Sequence[str],
    notes: Sequence[str] = (),
    quarantine_records: Iterable[Mapping[str, Any]] = (),
) -> str:
    """The text status view of a queue, as ``status [--watch]`` prints it.

    ``reclaims`` names what a host's ``lease_reclaims`` count is on this
    backend; ``taxonomy`` lists the counts for the ``failure taxonomy``
    line and ``notes`` any lines to print after it.
    """
    finished = completed + quarantined
    frac = finished / total if total else 1.0
    bar = "#" * int(round(30 * frac))
    lines = [
        header,
        f"[{bar:<30}] {finished}/{total} "
        f"({completed} completed, {quarantined} quarantined, "
        f"{pending} pending, {in_flight} in flight)",
    ]
    live_rate = 0.0
    for host in hosts:
        rate = host.throughput()
        if rate is not None and not host.finished:
            live_rate += rate
        rate_str = f"{rate:.2f}/s" if rate is not None else "--/s"
        lines.append(
            f"  {host.host:<24} {host.outcomes:>4} outcomes "
            f"({host.fresh} fresh, {host.cached} cached) @ {rate_str}, "
            f"{host.lease_reclaims} {reclaims}, "
            f"{host.quarantines} quarantines"
            + (" [finished]" if host.finished else "")
        )
    if pending and live_rate > 0:
        lines.append(
            f"eta: ~{pending / live_rate:.0f}s for {pending} pending at "
            f"{live_rate:.2f} tasks/s across live hosts"
        )
    elif pending and in_flight:
        lines.append(
            f"eta: unknown ({pending} pending, no live throughput "
            "measured yet)"
        )
    lines.append("failure taxonomy: " + ", ".join(taxonomy))
    lines.extend(notes)
    for record in quarantine_records:
        lines.append(
            f"  quarantined {record.get('label')} "
            f"[{record.get('category')}] {record.get('detail')}"
        )
    return "\n".join(lines)


def build_report(
    manifest: Mapping[str, Any],
    outcome_entries: List[Dict[str, Any]],
    quarantine_records: Iterable[Mapping[str, Any]],
    hosts: Sequence[HostStatus],
    *,
    host_failures: int,
) -> RunReport:
    """The merged :class:`RunReport` of a queue run, in grid order.

    ``outcome_entries`` are journal ``outcome`` lines from any number of
    hosts, deduplicated last-write-wins by content key (the folded
    duplicates are counted as ``duplicates_merged``); the manifest's key
    list restores grid order, so ``summary_table()`` is bit-comparable
    with a single-process run of the same grid.
    """
    merged, duplicates = merge_task_records(outcome_entries)
    by_key = {entry["key"]: entry for entry in merged if "key" in entry}
    outcomes: List[TaskOutcome] = []
    for key in manifest.get("keys", sorted(by_key)):
        entry = by_key.get(str(key))
        if entry is None:
            continue
        record = entry.get("record", {})
        outcomes.append(
            TaskOutcome(
                spec=TaskSpec.from_record(record["spec"]),
                metrics=record.get("metrics", {}),
                wall_time=float(record.get("wall_time", 0.0)),
                cached=bool(entry.get("cached")),
                key=str(key),
                source=str(entry.get("source", "fresh")),
            )
        )
    cache_hits = sum(1 for outcome in outcomes if outcome.cached)
    stamps = [h.started_unix for h in hosts if h.started_unix is not None]
    ends = [h.last_seen_unix for h in hosts if h.last_seen_unix is not None]
    wall = max(0.0, max(ends) - min(stamps)) if stamps and ends else 0.0
    return RunReport(
        exp_id=str(manifest.get("exp_id", "?")),
        version=str(manifest.get("version", "?")),
        workers=len(hosts),
        outcomes=outcomes,
        executed=len(outcomes) - cache_hits,
        cache_hits=cache_hits,
        wall_time=wall,
        quarantined=[
            QuarantineRecord.from_record(record)
            for record in quarantine_records
        ],
        duplicates_merged=duplicates,
        lease_reclaims=sum(h.lease_reclaims for h in hosts),
        hosts_seen=len(hosts),
        host_failures=host_failures,
    )
