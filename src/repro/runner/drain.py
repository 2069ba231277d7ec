"""One drain loop for all four execution gears.

A worker drains a queue the same way whether the queue is the task list
of an inline run, the parent of a local process pool
(:mod:`repro.runner.executor`), a shared lease directory
(:mod:`repro.runner.fleet`) or a TCP coordinator
(:mod:`repro.runner.client`): claim a unit of work, execute it under the
fault policy's retry budget, commit each task's outcome (or a
quarantine record) as soon as it is settled, and repeat until the queue
reports drained.  :class:`DrainWorker` is that loop, and the only code
that calls a task function or retries one after it raised.  What
differs between the gears is a small duck-typed *transport*:

``start(report) -> version``
    Ready the queue side and return the submitted grid's code version.
    ``report`` is the worker's :class:`WorkerReport`; the transport adds
    the counts only it can see (lease reclaims, cache replays, stranded
    commits).
``claim() -> [(key, spec), ...] | WAIT | DRAINED``
    The next *unit* this worker should run: one task on the fleet and
    the coordinator, a chunk of scalar tasks or one vector sub-batch on
    the local gears.  ``WAIT`` while every pending task is leased to a
    live owner; ``DRAINED`` once none is left.
``heartbeat(key, delay=0.0)``
    Keep the lease on ``key`` alive.  Called from the heartbeat thread
    while the running attempt is within ``policy.timeout``, and before
    each retry's backoff sleep with that sleep's ``delay``, so a
    watchdog can restart the task's deadline past the sleep.
``commit(key, record)``
    Durably record a computed outcome and give up the lease.
``quarantine(key, record)``
    Record a task the worker gave up on and give up the lease.
``stop()``
    Release the transport's resources; called once, however the loop
    ends.

A unit's tasks are settled in claim order, one commit or quarantine
each, so the first unsettled task of a unit is the one its worker is
running.  A transport raises :class:`QueueUnreachable` when its queue
stays out of reach past its offline budget; the loop then ends cleanly.

The module also holds what the two queue backends' status and report
layers share: the per-host journal fold (:func:`fold_host_entry`), the
status text view (:func:`render_status`) and the merged
:class:`~repro.runner.executor.RunReport` builder (:func:`build_report`).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.runner.journal import merge_task_records
from repro.runner.policy import FaultPolicy, QuarantineRecord
from repro.runner.registry import run_registered_batch, run_registered_task
from repro.runner.task import TaskSpec

if TYPE_CHECKING:
    from repro.runner.executor import RunReport

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

    Tasks execute in this process, one claimed unit at a time (the queue
    shards work across processes and machines; each worker is one
    lane).  Scalar specs go to ``run_fn`` and vector specs to
    ``batch_fn``; each defaults to the registry
    (:func:`~repro.runner.registry.run_registered_task` and
    :func:`~repro.runner.registry.run_registered_batch`), which is what
    the CLI uses — tests inject counting stubs.  A unit of several
    vector specs runs as one ``batch_fn`` call, its wall time amortized
    evenly over the tasks; if that call raises, each task goes through
    the singleton retry path with the failed call as its first attempt.

    ``heartbeat_interval`` starts a thread that keeps the active lease
    alive; None (the local gears) starts none.  The thread stops beating
    once the running attempt has outlived ``policy.timeout`` (per task
    of a batch call; a retry's backoff sleep does not count), so a hung
    task's lease goes stale and another host reclaims it — on the fleet,
    the steal count then quarantines the task as a crash after
    ``max_retries`` steals.  ``throttle`` sleeps that long before each
    claimed unit — chaos and tests use it to hold tasks in flight long
    enough to kill hosts mid-task; production leaves it 0.
    ``max_tasks`` stops the worker once it has *run* that many
    tasks, each either executed or quarantined after its retries ran
    out.  Tasks the transport finishes without running them — cache
    replays, and on the fleet a lease whose steal budget is spent — do
    not count, on either queue backend.
    """

    def __init__(
        self,
        transport,
        host: str,
        *,
        policy: FaultPolicy,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.5,
        throttle: float = 0.0,
        run_fn=None,
        batch_fn=None,
        max_tasks: Optional[int] = None,
        progress: bool = False,
    ) -> None:
        self.transport = transport
        self.host = host
        self.policy = policy
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.throttle = throttle
        self.run_fn = run_fn or (
            lambda spec: run_registered_task(spec.exp_id, spec)
        )
        self.batch_fn = batch_fn or (
            lambda specs: run_registered_batch(specs[0].exp_id, specs)
        )
        self.max_tasks = max_tasks
        self.progress = progress
        self.report = WorkerReport(host=host)
        self._active_key: Optional[str] = None
        #: When the running attempt overruns ``policy.timeout`` (None
        #: between attempts, or with no timeout).
        self._attempt_deadline: Optional[float] = None
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
        beat = None
        if self.heartbeat_interval is not None:
            beat = threading.Thread(target=self._heartbeat_loop, daemon=True)
        try:
            version = self.transport.start(self.report)
            if beat is not None:
                beat.start()
            done = 0
            while self.max_tasks is None or done < self.max_tasks:
                unit = self.transport.claim()
                if unit == DRAINED:
                    break
                if unit == WAIT:
                    time.sleep(self.poll_interval)
                    continue
                self._run_unit(unit, version)
                done += len(unit)
        except QueueUnreachable:
            pass
        finally:
            self._stop_heartbeat.set()
            if beat is not None and beat.is_alive():
                beat.join(timeout=2.0)
            self.report.wall_time = time.perf_counter() - started
            self.transport.stop()
        return self.report

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self.heartbeat_interval):
            key = self._active_key
            deadline = self._attempt_deadline
            if key is not None and (
                deadline is None or time.monotonic() < deadline
            ):
                self.transport.heartbeat(key)

    def _run_unit(
        self, unit: Sequence[Tuple[str, TaskSpec]], version: str
    ) -> None:
        """Run one claimed unit, settling its tasks in claim order."""
        if self.throttle:
            time.sleep(self.throttle)
        # Several vector specs run as one batch call; if it raises, that
        # is each task's first failed attempt.
        batch: Union[List[Tuple[Dict[str, Any], float]], str, None] = None
        if len(unit) > 1 and unit[0][1].engine != "scalar":
            batch = self._attempt([spec for _key, spec in unit])
        for position, (key, spec) in enumerate(unit):
            self._active_key = key
            try:
                if isinstance(batch, list):
                    result = batch[position]
                else:
                    result = self._execute(spec, key, error=batch)
                if result is not None:
                    self._commit(key, spec, version, *result)
            finally:
                self._active_key = None

    def _commit(
        self,
        key: str,
        spec: TaskSpec,
        version: str,
        metrics: Dict[str, Any],
        wall: float,
    ) -> None:
        if self.policy.timeout is not None and wall > self.policy.timeout:
            # A worker cannot preempt its own task; only the local
            # pool's parent, outside it, can kill a hang.
            self.report.overruns += 1
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

    def _attempt(
        self, specs: List[TaskSpec]
    ) -> Union[List[Tuple[Dict[str, Any], float]], str]:
        """One call over ``specs``: each task's metrics and wall time, or
        the error.  Vector specs run as one batch call, its wall time
        amortized evenly over them."""
        started = time.perf_counter()
        if self.policy.timeout is not None:
            self._attempt_deadline = (
                time.monotonic() + self.policy.timeout * len(specs)
            )
        try:
            if specs[0].engine == "scalar":
                results = [self.run_fn(specs[0])]
            else:
                results = self.batch_fn(specs)
            if len(results) != len(specs):
                raise RuntimeError(
                    f"batch function returned {len(results)} results for "
                    f"{len(specs)} tasks"
                )
            results = [dict(metrics) for metrics in results]
        except Exception as exc:
            what = (
                f"task {specs[0].label()}" if len(specs) == 1
                else f"batch of {len(specs)} tasks ({specs[0].label()} ...)"
            )
            return f"{what} failed on {self.host}: {type(exc).__name__}: {exc}"
        finally:
            self._attempt_deadline = None
        wall = (time.perf_counter() - started) / len(specs)
        return [(metrics, wall) for metrics in results]

    def _execute(
        self, spec: TaskSpec, key: str, error: Optional[str] = None
    ) -> Optional[Tuple[Dict[str, Any], float]]:
        """Run one task with the policy's retry budget; None if given up.

        ``error`` is a first attempt that already failed (the unit's
        batch call).
        """
        attempts = int(error is not None)
        while True:
            if error is not None:
                if attempts > self.policy.max_retries:
                    self.transport.quarantine(
                        key,
                        QuarantineRecord.for_task(
                            spec,
                            key,
                            category="error",
                            attempts=attempts,
                            detail=error,
                        ).to_record(),
                    )
                    self.report.quarantined += 1
                    return None
                self.report.retries += 1
                delay = self.policy.backoff_delay(key, attempts)
                self.transport.heartbeat(key, delay)
                time.sleep(delay)
            outcome = self._attempt([spec])
            if isinstance(outcome, list):
                return outcome[0]
            attempts += 1
            error = outcome


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
    from repro.runner.executor import RunReport, TaskOutcome

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
