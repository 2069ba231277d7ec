"""Coordinator-less multi-host fleet runner over a shared queue directory.

A *fleet queue* is a directory on storage every participating host can
reach — local disk for one machine, NFS (or any shared mount) for many:

.. code-block:: text

    queue/
      queue.json              submit manifest: exp_id, version, options,
                              the grid's content keys in grid order
      tasks/<key>.json        one pending task per file (spec + key)
      leases/<key>.lease      in-flight claims (create-exclusive,
                              heartbeat-refreshed — see runner/lease.py)
      results/                the shared content-addressed ResultCache
      hosts/<host>/journal.jsonl  per-host run journal (runner/journal.py):
                              every outcome and quarantine a host settled

There is no coordinator process and no network protocol: ``python -m
repro fleet submit`` populates the queue, any number of ``fleet worker``
processes on any number of machines drain it, and ``fleet status``
merges the per-host journals into one progress / failure-taxonomy view
at any time during or after the run.  The journals are the only record
of a settled task: the merge keeps one outcome and one quarantine record
per content key.

A worker is the shared drain loop of :mod:`repro.runner.drain` over
this module's :class:`LeaseTransport`.  Per task, it claims the lease
create-exclusively, heartbeats its mtime while executing, commits the
outcome to the shared cache with a crash-consistent same-directory
``os.replace``, journals it, removes the task file, and releases the
lease.  Every step is atomic or idempotent, so a worker — or its entire
host — can be SIGKILLed between any two steps: the task is either still
pending, or claimed by a lease that goes stale and is reclaimed within
one TTL, or already committed — in which case the re-claimer replays
the cache hit instead of re-executing.  No task is ever lost; duplicate
journal records are merged last-write-wins by content key at read time
and counted as ``duplicates_merged``.

The steal count carried on each lease folds host death into the
existing :class:`~repro.runner.policy.FaultPolicy` retry budget: a task
whose lease has been stolen more than ``max_retries`` times is killing
its hosts and is quarantined (category ``"crash"``) rather than allowed
to take the fleet down host by host.

``run_fleet_chaos`` (:mod:`repro.runner.chaos`) proves the whole
protocol end to end: it SIGKILLs a worker host mid-sweep, corrupts an
in-flight lease, skews one host's clock, and verifies bit-for-bit
convergence to a single-process clean control.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.runner.atomicio import atomic_write_json
from repro.runner.cache import ResultCache
from repro.runner.drain import (
    DRAINED,
    WAIT,
    DrainWorker,
    HostStatus,
    WorkerReport,
    build_report,
    check_grid,
    default_host_name,
    fold_host_entry,
    render_status,
)
from repro.runner.executor import RunReport
from repro.runner.journal import (
    JOURNAL_NAME,
    Journal,
    merge_task_records,
    read_journal,
)
from repro.runner.lease import LeaseDir, LeaseObserver
from repro.runner.policy import FaultPolicy, QuarantineRecord
from repro.runner.task import TaskSpec

QUEUE_MANIFEST = "queue.json"
TASKS_DIR = "tasks"
LEASES_DIR = "leases"
RESULTS_DIR = "results"
HOSTS_DIR = "hosts"


class FleetQueue:
    """One shared work-queue directory (layout in the module docstring)."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.tasks_dir = self.root / TASKS_DIR
        self.hosts_dir = self.root / HOSTS_DIR
        self.manifest_path = self.root / QUEUE_MANIFEST

    # -- submit --------------------------------------------------------

    def submit(
        self,
        tasks: List[TaskSpec],
        *,
        version: str,
        options: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Populate the queue with ``tasks``; returns how many are new.

        Idempotent: resubmitting the same grid rewrites identical task
        files (atomic, so racing workers never see a torn spec) and
        leaves completed work alone — a task whose result is already in
        the shared cache is skipped by workers as a cache hit, not
        re-executed.
        """
        check_grid(tasks)
        self.tasks_dir.mkdir(parents=True, exist_ok=True)
        (self.root / LEASES_DIR).mkdir(parents=True, exist_ok=True)
        (self.root / RESULTS_DIR).mkdir(parents=True, exist_ok=True)
        self.hosts_dir.mkdir(parents=True, exist_ok=True)
        keys = [spec.key(version) for spec in tasks]
        fresh = 0
        for spec, key in zip(tasks, keys):
            path = self.task_path(key)
            if not path.exists():
                fresh += 1
            atomic_write_json(
                path, {"key": key, "spec": spec.to_record()}
            )
        atomic_write_json(
            self.manifest_path,
            {
                "exp_id": tasks[0].exp_id,
                "version": version,
                "total": len(tasks),
                "keys": keys,
                "options": dict(options or {}),
                "submitted_unix": time.time(),
            },
            indent=2,
        )
        return fresh

    # -- paths and listings --------------------------------------------

    def manifest(self) -> Dict[str, Any]:
        try:
            return json.loads(self.manifest_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            raise ConfigurationError(
                f"{self.root} is not a fleet queue (no readable "
                f"{QUEUE_MANIFEST}; run 'fleet submit' first)"
            ) from None

    def leases(self, clock_skew: float = 0.0) -> LeaseDir:
        # fsync=True: a claim is a commit point — it must survive a
        # machine crash, or a rebooted host could double-own a task.
        return LeaseDir(
            self.root / LEASES_DIR, clock_skew=clock_skew, fsync=True
        )

    def cache(self) -> ResultCache:
        # fsync=True: "committed" must mean durable for the kill -9
        # chaos verdicts to be honest on a real disk.
        return ResultCache(self.root / RESULTS_DIR, fsync=True)

    def task_path(self, key: str) -> Path:
        return self.tasks_dir / f"{key}.json"

    def pending_keys(self) -> List[str]:
        """Content keys of tasks not yet completed (sorted)."""
        try:
            names = os.listdir(self.tasks_dir)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json") and not name.startswith(".")
        )

    def read_task(self, key: str) -> Optional[Dict[str, Any]]:
        """The task record for ``key``; None once completed (or torn)."""
        try:
            payload = json.loads(self.task_path(key).read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def remove_task(self, key: str) -> None:
        try:
            os.unlink(self.task_path(key))
        except OSError:
            pass

    # -- per-host journals ---------------------------------------------

    def journal_path(self, host: str) -> Path:
        return self.hosts_dir / host / JOURNAL_NAME

    def hosts(self) -> List[str]:
        try:
            return sorted(
                entry
                for entry in os.listdir(self.hosts_dir)
                if (self.hosts_dir / entry / JOURNAL_NAME).exists()
            )
        except OSError:
            return []


def _as_queue(queue: Union[FleetQueue, os.PathLike, str]) -> FleetQueue:
    return queue if isinstance(queue, FleetQueue) else FleetQueue(queue)


class LeaseTransport:
    """The lease-directory transport of the drain loop (one per worker).

    ``claim`` scans the pending task files in a host-dependent rotation
    (so simultaneous workers start at different points and rarely
    collide on claims), claims each create-exclusively or reclaims it
    once its lease has gone stale, and finishes on the spot every task
    that needs no run: one its previous owner already retired, one whose
    steal count has spent the retry budget (quarantined as a crash), and
    one already in the shared cache (replayed).  After each full pass it
    reaps moot leases; a pass that made no progress answers ``WAIT``
    while tasks remain, which is also how the worker watches rivals'
    leases for staleness.
    """

    def __init__(
        self,
        queue: FleetQueue,
        host: str,
        *,
        ttl: float,
        clock_skew: float,
        max_retries: int,
    ) -> None:
        self.queue = queue
        self.host = host
        self.ttl = ttl
        self.max_retries = max_retries
        self.leases = queue.leases(clock_skew=clock_skew)
        self.observer = LeaseObserver(ttl)
        self.cache = queue.cache()
        self.report: Optional[WorkerReport] = None
        self._journal: Optional[Journal] = None
        self._scan: Optional[Iterator[str]] = None
        self._progressed = False

    def start(self, report: WorkerReport) -> str:
        self.report = report
        version = str(self.queue.manifest().get("version", ""))
        # fsync=True: journaling an outcome is the step that lets the
        # merge layer trust "this task is done" after any crash.
        self._journal = Journal(self.queue.journal_path(self.host), fsync=True)
        self._journal.append_event(
            "host_start", host=self.host, pid=os.getpid(), ttl=self.ttl
        )
        return version

    def stop(self) -> None:
        if self._journal is None:
            return
        self._journal.append_event(
            "host_finish", host=self.host, stats=self.report.to_record()
        )
        self._journal.close()
        self._journal = None

    def heartbeat(self, key: str, delay: float = 0.0) -> None:
        self.leases.heartbeat(key)

    def claim(self) -> Union[List[Tuple[str, TaskSpec]], str]:
        while True:
            if self._scan is None:
                pending = self.queue.pending_keys()
                if not pending:
                    self._reap_moot_leases()
                    return DRAINED
                offset = hash(self.host) % len(pending)
                self._scan = iter(pending[offset:] + pending[:offset])
                self._progressed = False
            for key in self._scan:
                task = self._try_claim(key)
                if task is not None:
                    return [task]
            self._scan = None
            self._reap_moot_leases()
            if not self._progressed and self.queue.pending_keys():
                return WAIT

    def commit(self, key: str, record: Dict[str, Any]) -> None:
        """Commit order matters: cache, journal, *then* retire the task
        file, then release the lease — a kill between any two steps
        leaves the queue recoverable (at worst a replayed cache hit)."""
        self.cache.put(key, record)
        self._journal.append_outcome(key, record, host=self.host, cached=False)
        self._finish(key)

    def quarantine(self, key: str, record: Dict[str, Any]) -> None:
        """Journal, retire, release: the journal line is the only record
        of a quarantine, so it must be durable before the task goes."""
        self._journal.append_quarantine(key, record, host=self.host)
        self._finish(key)

    def _try_claim(self, key: str) -> Optional[Tuple[str, TaskSpec]]:
        """Claim ``key``; the task if it needs running, else None."""
        task_record = self.queue.read_task(key)
        if task_record is None:
            return None  # completed (or retired) by someone else
        stolen = None
        if not self.leases.claim(key, self.host):
            stolen = self.leases.reclaim(key, self.host, self.observer)
            if stolen is None:
                return None  # live owner elsewhere, or lost the race
            self.report.lease_reclaims += 1
            self._journal.append_event(
                "lease_reclaim",
                key=key,
                host=self.host,
                victim_host=stolen.host,
                steal_count=stolen.steal_count + 1,
            )
        if not self.queue.task_path(key).exists():
            # Retired between our pending scan and the claim: the
            # previous owner committed, removed the task file and
            # released.  Only the lease holder retires a task, so now
            # that *we* hold the lease this check is race-free.
            self.leases.release(key)
            return None
        self._progressed = True
        spec = TaskSpec.from_record(task_record["spec"])
        if stolen is not None and stolen.steal_count + 1 > self.max_retries:
            # The steal count folds into the retry budget: hosts keep
            # dying (or wedging) on this task.
            self.quarantine(
                key,
                QuarantineRecord.for_task(
                    spec,
                    key,
                    category="crash",
                    attempts=stolen.steal_count + 1,
                    detail=(
                        f"lease stolen {stolen.steal_count + 1} times "
                        f"(last victim {stolen.host}); hosts keep dying "
                        "on this task"
                    ),
                ).to_record(),
            )
            self.report.quarantined += 1
            return None
        record = self.cache.get(key)
        if record is not None:
            # A dead (or racing) host already committed: replay.
            self._journal.append_outcome(
                key, record, host=self.host, cached=True
            )
            self.report.cache_hits += 1
            self._finish(key)
            return None
        return key, spec

    def _finish(self, key: str) -> None:
        self.queue.remove_task(key)
        self.leases.release(key)

    def _reap_moot_leases(self) -> None:
        """Unlink leases whose task is already retired.

        A host killed between retiring the task file and releasing the
        lease leaves a lease that refers to nothing.  The work is
        committed, so any worker may clear it immediately — no TTL wait.
        """
        for key in self.leases.keys():
            if not self.queue.task_path(key).exists():
                self.leases.release(key)
                self.observer.forget(key)


class FleetWorker(DrainWorker):
    """One pull-mode worker draining a fleet queue until it is empty.

    The drain loop is :class:`~repro.runner.drain.DrainWorker`'s; this
    wires it to the queue directory through a :class:`LeaseTransport`.
    ``ttl`` is the lease expiry interval: a lease whose mtime sits
    unchanged for one TTL of this worker's monotonic clock is treated as
    orphaned and stolen.  The heartbeat thread refreshes the active
    lease every ``ttl/4`` by default, so only a dead or wedged host, or
    a task running past ``policy.timeout``, goes stale.  ``clock_skew``
    (chaos/testing) makes this worker stamp lease times as if its wall
    clock were wrong by that many seconds.
    """

    def __init__(
        self,
        queue: Union[FleetQueue, os.PathLike, str],
        host: Optional[str] = None,
        *,
        policy: Optional[FaultPolicy] = None,
        ttl: float = 30.0,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.5,
        throttle: float = 0.0,
        clock_skew: float = 0.0,
        run_fn=None,
        max_tasks: Optional[int] = None,
        progress: bool = False,
    ) -> None:
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be positive, got {ttl}")
        host = host if host is not None else default_host_name()
        policy = policy if policy is not None else FaultPolicy()
        super().__init__(
            LeaseTransport(
                _as_queue(queue),
                host,
                ttl=ttl,
                clock_skew=clock_skew,
                max_retries=policy.max_retries,
            ),
            host,
            policy=policy,
            heartbeat_interval=(
                heartbeat_interval
                if heartbeat_interval is not None
                else ttl / 4.0
            ),
            poll_interval=poll_interval,
            throttle=throttle,
            run_fn=run_fn,
            max_tasks=max_tasks,
            progress=progress,
        )


# ----------------------------------------------------------------------
# Status merge and the merged run report
# ----------------------------------------------------------------------


@dataclass
class FleetStatus:
    """The merged live view of one fleet queue."""

    queue_dir: str
    exp_id: str
    version: str
    total: int
    pending: int
    completed: int
    quarantined: int
    duplicates_merged: int
    lease_reclaims: int
    host_failures: int
    hosts: List[HostStatus] = field(default_factory=list)
    leased: Dict[str, str] = field(default_factory=dict)
    orphan_leases: List[str] = field(default_factory=list)
    quarantine_records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.pending == 0

    def to_json(self) -> Dict[str, Any]:
        return {**asdict(self), "done": self.done}

    def summary(self) -> str:
        notes = []
        if self.orphan_leases:
            notes.append(
                f"  {len(self.orphan_leases)} orphan lease(s) awaiting "
                "reclaim: " + ", ".join(k[:12] for k in self.orphan_leases)
            )
        return render_status(
            f"fleet {self.exp_id} @ {self.queue_dir}",
            total=self.total,
            completed=self.completed,
            quarantined=self.quarantined,
            pending=self.pending,
            in_flight=len(self.leased),
            hosts=self.hosts,
            reclaims="reclaims",
            taxonomy=[
                f"{self.quarantined} quarantined",
                f"{self.lease_reclaims} lease reclaims",
                f"{self.host_failures} host failures",
                f"{self.duplicates_merged} duplicates merged",
            ],
            notes=notes,
            quarantine_records=self.quarantine_records,
        )


def _merged_journal(
    queue: FleetQueue,
) -> Tuple[
    List[Dict[str, Any]], Dict[str, Dict[str, Any]], Set[str], List[HostStatus]
]:
    """All hosts' journals: (outcome entries, quarantine records by key,
    reclaimed-from hosts, stats).

    Journals are read leniently (``strict=False``): a SIGKILLed host may
    have torn its final line, and that is interruption, not damage.  A
    key quarantined more than once keeps the last record read, and the
    records come in key order.
    """
    outcomes: List[Dict[str, Any]] = []
    quarantined: Dict[str, Dict[str, Any]] = {}
    victims: Set[str] = set()
    hosts: List[HostStatus] = []
    for host in queue.hosts():
        status = HostStatus(host=host)
        for entry in read_journal(queue.journal_path(host), strict=False):
            fold_host_entry(status, entry)
            kind = entry.get("kind")
            if kind == "outcome":
                outcomes.append(entry)
            elif kind == "quarantine":
                quarantined[entry["key"]] = entry["record"]
            elif kind == "lease_reclaim" and entry.get("victim_host"):
                victims.add(entry["victim_host"])
        hosts.append(status)
    quarantined = {key: quarantined[key] for key in sorted(quarantined)}
    return outcomes, quarantined, victims, hosts


def fleet_status(queue_dir: os.PathLike) -> FleetStatus:
    """Merge manifest, journals and leases into one view."""
    queue = _as_queue(queue_dir)
    manifest = queue.manifest()
    outcomes, quarantined, victims, hosts = _merged_journal(queue)
    merged, duplicates = merge_task_records(outcomes)
    leases = queue.leases()
    leased: Dict[str, str] = {}
    orphans: List[str] = []
    for key in leases.keys():
        record = leases.read(key)
        owner = record.host if record is not None else "(corrupt lease)"
        if queue.task_path(key).exists():
            leased[key] = owner
        else:
            orphans.append(key)
    return FleetStatus(
        queue_dir=str(queue.root),
        exp_id=str(manifest.get("exp_id", "?")),
        version=str(manifest.get("version", "?")),
        total=int(manifest.get("total", 0)),
        pending=len(queue.pending_keys()),
        completed=len(
            {entry.get("key") for entry in merged} - set(quarantined)
        ),
        quarantined=len(quarantined),
        duplicates_merged=duplicates,
        lease_reclaims=sum(h.lease_reclaims for h in hosts),
        host_failures=len(victims),
        hosts=hosts,
        leased=leased,
        orphan_leases=orphans,
        quarantine_records=list(quarantined.values()),
    )


def fleet_report(queue_dir: os.PathLike) -> RunReport:
    """The merged :class:`RunReport` of a fleet run, in grid order.

    Built by :func:`~repro.runner.drain.build_report` from the union of
    the per-host journals; a host failure is a host some lease was
    reclaimed from.
    """
    queue = _as_queue(queue_dir)
    manifest = queue.manifest()
    outcomes, quarantined, victims, hosts = _merged_journal(queue)
    return build_report(
        manifest,
        outcomes,
        quarantined.values(),
        hosts,
        host_failures=len(victims),
    )
