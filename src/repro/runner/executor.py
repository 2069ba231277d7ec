"""The sharded executor: inline for tests, process-parallel for sweeps.

``run_tasks`` drives a task list through one code path with three gears:

* ``workers=0`` — run every task inline, in the calling thread, in task
  order.  This is what unit tests and small benches use; no processes,
  no pickling, and an ambient :mod:`repro.profiling` profile sees every
  task.
* ``workers>=1`` — shard cache misses over that many child processes in
  units (a chunk of scalar tasks or one vector sub-batch per claim, so
  IPC overhead amortizes), and collect results as they complete.
* warm cache — tasks whose content key is already stored replay without
  executing at all, in either gear.

Because every task carries its own pre-derived seed, the three gears
produce *bit-identical* outcome tables; only wall-clock time differs.

Both executing gears run :class:`~repro.runner.drain.DrainWorker`, the
drain loop of fleet and coordinator workers, over an in-memory queue of
the run's units (:class:`_Grid`): inline, in the calling thread; in the
pool, in each child over a pipe, while the parent serves their claims
and watches their process sentinels and deadlines.

Fault tolerance
---------------
The executor survives task and worker failure end to end, governed by a
:class:`~repro.runner.policy.FaultPolicy`:

* **in-band errors** (the task function raised) are retried by the
  drain loop with exponential backoff + deterministic jitter, up to
  ``max_retries``, before quarantine;
* a child **commits each task as soon as it finishes**, so when a child
  dies (segfault, OOM-kill, ``os._exit``) or overruns its deadline, the
  first uncommitted task of its unit is exactly the one it died or hung
  on.  A hang is quarantined as a timeout; a crash is charged one
  attempt and re-queued at once until its retries run out, then
  quarantined as a crash.  The rest of the unit re-runs uncharged (a
  vector sub-batch, one engine call, re-runs task by task), and a
  replacement child is started;
* the **watchdog** deadline covers one attempt: it restarts at every
  commit and every retry, and never counts a retry's backoff sleep;
* a child that dies holding no unit is not replaced; once no child is
  left and work remains, the run **degrades to inline execution**
  rather than aborting the sweep;
* quarantined tasks are itemized in the :class:`RunReport` (and in the
  run directory's journal when telemetry is on) instead of crashing the
  run — unless the failure fraction crosses the policy threshold, in
  which case the run aborts loudly (the manifest then reads
  ``status: "aborted"``).

Fresh outcomes are stored in the result cache as they finish, so an
interrupted run (Ctrl-C, OOM-kill, machine loss) resumes from its cache:
the rerun replays what finished and re-attempts the rest, including any
task the interrupted run had quarantined.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError, ReproError
from repro.runner.cache import ResultCache
from repro.runner.drain import DRAINED, DrainWorker
from repro.runner.policy import (
    MAX_QUARANTINE_FRACTION,
    FaultPolicy,
    QuarantineRecord,
)
from repro.runner.registry import (
    ExperimentDef,
    get_experiment,
    run_registered_batch,
    run_registered_task,
)
from repro.runner.task import CaseItems, TaskSpec, validate_engine
from repro.runner.telemetry import Progress, RunTelemetry

RunFn = Callable[[TaskSpec], Mapping[str, Any]]
BatchFn = Callable[[List[TaskSpec]], List[Mapping[str, Any]]]

#: Slack added to a pool child's deadline for IPC and scheduling delays.
_DEADLINE_GRACE = 0.5


class TaskExecutionError(ReproError):
    """A task failed fatally (quarantine off or failure threshold hit)."""


def _package_version() -> str:
    import repro

    return repro.__version__


@dataclass(frozen=True)
class TaskOutcome:
    """One finished task: spec, metrics, and whether it was replayed
    from the result cache (``cached``) rather than executed."""

    spec: TaskSpec
    metrics: Mapping[str, Any]
    wall_time: float
    cached: bool
    key: str


@dataclass
class RunReport:
    """All outcomes of one run, in task (grid) order.

    Beyond the outcomes, the report itemizes the run's failure taxonomy:
    ``timeouts`` (attempts past the budget: hangs the pool killed, and
    overruns nothing preempted), ``retries`` (task re-executions after a
    failure),
    ``pool_rebuilds`` (pool children replaced), ``quarantined``
    (tasks given up on, with category and detail),
    ``corrupt_cache_entries`` (cache files that failed integrity and
    were re-run), ``duplicates_merged`` (records folded last-write-wins
    when a merged fleet or coordinator journal carried a content key
    more than once) and ``fallback_inline`` (the pool could not be kept
    alive and the run degraded to inline execution).  Fleet runs
    additionally populate ``lease_reclaims`` (orphaned task leases
    stolen from dead hosts), ``hosts_seen`` (distinct worker hosts that
    journaled) and ``host_failures`` (distinct hosts whose leases had to
    be reclaimed); the fields stay zero for single-machine runs.
    """

    exp_id: str
    version: str
    workers: int
    outcomes: List[TaskOutcome]
    executed: int
    cache_hits: int
    wall_time: float
    timeouts: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    corrupt_cache_entries: int = 0
    fallback_inline: bool = False
    duplicates_merged: int = 0
    lease_reclaims: int = 0
    hosts_seen: int = 0
    host_failures: int = 0

    def failure_summary(self) -> Dict[str, Any]:
        """The taxonomy as one flat dict (manifest / CLI rendering)."""
        return {
            "timeouts": self.timeouts,
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": len(self.quarantined),
            "corrupt_cache_entries": self.corrupt_cache_entries,
            "fallback_inline": self.fallback_inline,
            "duplicates_merged": self.duplicates_merged,
            "lease_reclaims": self.lease_reclaims,
            "hosts_seen": self.hosts_seen,
            "host_failures": self.host_failures,
        }

    def grouped(self) -> Dict[str, List[TaskOutcome]]:
        """Outcomes per grid case, preserving grid order throughout."""
        groups: Dict[str, List[TaskOutcome]] = {}
        for outcome in self.outcomes:
            groups.setdefault(outcome.spec.case_label(), []).append(outcome)
        return groups

    def case_means(self, name: str) -> Dict[str, float]:
        """Per-case mean of one metric, in grid order."""
        means: Dict[str, float] = {}
        for label, outcomes in self.grouped().items():
            samples = [
                float(o.metrics[name]) for o in outcomes if name in o.metrics
            ]
            if samples:
                means[label] = sum(samples) / len(samples)
        return means

    def summary_table(
        self, metrics: Optional[Sequence[str]] = None
    ) -> str:
        """A deterministic per-case summary table (mean ± CI half-width).

        The rendering depends only on the grid and the metric values —
        never on worker count, completion order, or cache state — so it
        doubles as the bit-identical fingerprint the determinism tests
        compare across sharding configurations.
        """
        from repro.analysis.stats import summarize
        from repro.analysis.tables import format_table

        groups = self.grouped()
        if metrics is None:
            # Sorted, not insertion order: cached records round-trip
            # through sort_keys JSON, and the table must not depend on
            # whether an outcome was computed or replayed.
            metrics = sorted(
                {
                    name
                    for outcomes in groups.values()
                    for outcome in outcomes
                    for name in outcome.metrics
                }
            )
        rows = []
        for label, outcomes in groups.items():
            row: List[Any] = [label, len(outcomes)]
            for name in metrics:
                samples = [
                    float(o.metrics[name])
                    for o in outcomes
                    if name in o.metrics
                ]
                if not samples:
                    row.append("-")
                    continue
                stats = summarize(samples)
                row.append(f"{stats.mean:.4f}±{stats.ci_half_width:.4f}")
            rows.append(row)
        return format_table(
            ["case", "n"] + list(metrics),
            rows,
            title=f"{self.exp_id}: {len(self.outcomes)} tasks",
        )


# ----------------------------------------------------------------------
# The run's queue, and the pool that drains it
# ----------------------------------------------------------------------


class _Grid:
    """The in-memory queue of one run: the inline transport of
    :class:`~repro.runner.drain.DrainWorker` and the pool's queue.

    A unit is a list of task indices.  Outcomes reach ``on_complete``
    and give-ups ``on_quarantine``; the failure counts of the run's
    report accumulate here, whichever gear ran the tasks.
    """

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        keys: Sequence[str],
        units: Sequence[List[int]],
        policy: FaultPolicy,
        version: str,
        on_complete: Callable[[int, Dict[str, Any], float], None],
        on_quarantine: Callable[[QuarantineRecord], None],
    ) -> None:
        self.tasks = tasks
        self.keys = keys
        self.queue: Deque[List[int]] = deque(units)
        self.policy = policy
        self.version = version
        self.pending_total = sum(len(unit) for unit in units)
        self.on_complete = on_complete
        self.on_quarantine = on_quarantine
        #: The unit the inline worker is running, head first.
        self.held: Deque[int] = deque()
        self.crashes: Dict[int, int] = {}
        self.quarantined: List[QuarantineRecord] = []
        self.timeouts = 0
        self.retries = 0
        self.pool_rebuilds = 0
        self.fallback_inline = False

    # -- the inline transport -----------------------------------------

    def start(self, report) -> str:
        return self.version

    def claim(self) -> Union[List[Tuple[str, TaskSpec]], str]:
        if not self.queue:
            return DRAINED
        self.held = deque(self.queue.popleft())
        return [(self.keys[i], self.tasks[i]) for i in self.held]

    def heartbeat(self, key: str, delay: float = 0.0) -> None:
        # Local workers run no heartbeat thread: a beat is a retry.
        self.retries += 1

    def commit(self, key: str, record: Dict[str, Any]) -> None:
        self.complete(
            self.held.popleft(), record["metrics"], record["wall_time"]
        )

    def quarantine(self, key: str, record: Dict[str, Any]) -> None:
        self.held.popleft()
        self.give_up(QuarantineRecord.from_record(record))

    def stop(self) -> None:
        pass

    # -- what both gears settle through -------------------------------

    def batched(self, unit: Sequence[int]) -> bool:
        """True if ``unit`` runs as one vector-engine batch call."""
        return len(unit) > 1 and self.tasks[unit[0]].engine == "vector"

    def complete(self, index: int, metrics: Dict[str, Any], wall: float):
        if self.policy.timeout is not None and wall > self.policy.timeout:
            self.timeouts += 1  # an overrun nothing preempted
        self.on_complete(index, metrics, wall)

    def give_up(self, record: QuarantineRecord) -> None:
        """Give up on one task — or abort, per policy."""
        if not self.policy.quarantine:
            raise TaskExecutionError(
                f"task {record.label} {record.category} after "
                f"{record.attempts} attempt(s): {record.detail}"
            )
        self.quarantined.append(record)
        self.on_quarantine(record)
        limit = MAX_QUARANTINE_FRACTION * self.pending_total
        if len(self.quarantined) > limit:
            lines = "; ".join(
                f"{q.label} [{q.category}] {q.detail}"
                for q in self.quarantined
            )
            raise TaskExecutionError(
                f"{len(self.quarantined)} of {self.pending_total} tasks "
                f"quarantined (threshold "
                f"{MAX_QUARANTINE_FRACTION:.0%}): {lines}"
            )

    def lost(self, unit: List[int], hung: bool) -> None:
        """Settle the unit of a pool child that died or overran.

        Its head is the task the child was running: quarantined as a
        timeout if it hung; if it crashed, charged one attempt and
        re-queued at once while retries remain.  The rest re-runs
        uncharged, and so does every task of a batch call, because one
        engine call cannot say which of its tasks was at fault.
        """
        if self.batched(unit):
            self.queue.extendleft([index] for index in reversed(unit))
            return
        index, rest = unit[0], unit[1:]
        if rest:
            self.queue.appendleft(rest)
        attempts = self.crashes.get(index, 0) + 1
        spec, key = self.tasks[index], self.keys[index]
        if hung:
            self.timeouts += 1
            self.give_up(QuarantineRecord.for_task(
                spec, key, category="timeout", attempts=attempts,
                detail=(
                    f"exceeded the {self.policy.timeout:g}s wall-clock "
                    "budget"
                ),
            ))
            return
        self.crashes[index] = attempts
        if attempts <= self.policy.max_retries:
            self.retries += 1
            self.queue.appendleft([index])
            return
        self.give_up(QuarantineRecord.for_task(
            spec, key, category="crash", attempts=attempts,
            detail=f"worker process died ({attempts} attempt(s))",
        ))


class _PipeTransport:
    """A pool child's side of the queue: the parent's grid over a pipe.

    The parent already holds every spec and the version, so a unit
    arrives as task indices and a commit leaves as metrics and wall
    time only; the parent pairs each message with the head of the
    child's unit.
    """

    def __init__(self, conn: Connection, tasks, keys, version: str) -> None:
        self.conn = conn
        self.tasks = tasks
        self.keys = keys
        self.version = version

    def start(self, report) -> str:
        return self.version

    def claim(self) -> Union[List[Tuple[str, TaskSpec]], str]:
        self.conn.send(("claim",))
        unit = self.conn.recv()
        if unit == DRAINED:
            return DRAINED
        return [(self.keys[i], self.tasks[i]) for i in unit]

    def heartbeat(self, key: str, delay: float = 0.0) -> None:
        self.conn.send(("beat", delay))

    def commit(self, key: str, record: Dict[str, Any]) -> None:
        self.conn.send(("done", record["metrics"], record["wall_time"]))

    def quarantine(self, key: str, record: Dict[str, Any]) -> None:
        self.conn.send(("quarantine", record))

    def stop(self) -> None:
        self.conn.close()


def _pool_child(conn, tasks, keys, version, policy, run_fn, batch_fn):
    """Pool child entry point: drain the parent's grid over ``conn``."""
    # Ctrl-C reaches the whole process group; the parent handles it and
    # kills its children.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker = DrainWorker(
        _PipeTransport(conn, tasks, keys, version),
        f"pool-{os.getpid()}",
        policy=policy,
        run_fn=run_fn,
        batch_fn=batch_fn,
    )
    try:
        worker.run()
    except (EOFError, OSError):
        pass  # the parent is gone, and with it the queue


@dataclass
class _Child:
    """One pool child as its parent sees it."""

    process: multiprocessing.Process
    conn: Connection
    #: The task indices of its unit not yet settled, head first.
    held: Deque[int] = field(default_factory=deque)
    deadline: Optional[float] = None
    claiming: bool = False


def _spawn_child(tasks, keys, version, policy, run_fn, batch_fn) -> _Child:
    """Start one pool child; raises OSError if the OS refuses."""
    conn, child_conn = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_pool_child,
        args=(child_conn, tasks, keys, version, policy, run_fn, batch_fn),
    )
    process.start()
    child_conn.close()  # so the pipe reads EOF once the child exits
    return _Child(process, conn)


def _deadline(
    policy: FaultPolicy, tasks: int = 1, delay: float = 0.0
) -> Optional[float]:
    """When the attempt starting now (after ``delay``) has overrun."""
    if policy.timeout is None:
        return None
    return time.monotonic() + delay + policy.timeout * tasks + _DEADLINE_GRACE


def _read(grid: _Grid, child: _Child) -> bool:
    """Settle every message ``child`` has sent, in order; False once its
    pipe is closed."""
    try:
        while child.conn.poll():
            message = child.conn.recv()
            kind = message[0]
            if kind == "claim":
                child.claiming = True
                continue
            if kind == "beat":
                grid.retries += 1  # children beat only before a retry
                child.deadline = _deadline(grid.policy, delay=message[1])
                continue
            index = child.held.popleft()
            if kind == "done":
                grid.complete(index, message[1], message[2])
            else:
                grid.give_up(QuarantineRecord.from_record(message[1]))
            child.deadline = _deadline(grid.policy) if child.held else None
    except (EOFError, OSError):
        return False
    return True


def _serve_claims(grid: _Grid, children: List[_Child]) -> None:
    """Answer the pending claims: a unit, or DRAINED once none can come.

    A claim that finds the queue empty while another child still holds
    work waits: that work comes back if its child dies.
    """
    for child in children:
        if not child.claiming or (
            not grid.queue and any(other.held for other in children)
        ):
            continue
        unit = grid.queue.popleft() if grid.queue else DRAINED
        try:
            child.conn.send(unit)
        except OSError:  # it died since it claimed; its sentinel tells
            if unit != DRAINED:
                grid.queue.appendleft(unit)
            continue
        child.claiming = False
        if unit != DRAINED:
            child.held = deque(unit)
            child.deadline = _deadline(
                grid.policy, len(unit) if grid.batched(unit) else 1
            )


def _run_pool(grid: _Grid, workers: int, spawn_args: Tuple) -> None:
    """Drain ``grid`` through up to ``workers`` child processes.

    The parent waits on every child's pipe and process sentinel, with
    the nearest deadline as the timeout.  A child that dies or overruns
    is killed; the messages it sent first are settled, its unit goes to
    :meth:`_Grid.lost` and a replacement starts.  What is left once no
    child is (the OS refused them, or they died holding nothing) runs
    inline.
    """
    children: List[_Child] = []

    def spawn() -> bool:
        try:
            children.append(_spawn_child(*spawn_args))
        except (OSError, ValueError):
            return False
        return True

    for _ in range(min(workers, len(grid.queue))):
        spawn()
    try:
        while children:
            _serve_claims(grid, children)
            deadlines = [
                c.deadline for c in children if c.deadline is not None
            ]
            timeout = (
                max(0.0, min(deadlines) - time.monotonic())
                if deadlines else None
            )
            ready = wait(
                [c.conn for c in children]
                + [c.process.sentinel for c in children],
                timeout,
            )
            for child in list(children):
                closed = child.conn in ready and not _read(grid, child)
                dead = closed or child.process.sentinel in ready
                hung = (
                    not dead
                    and child.deadline is not None
                    and child.deadline <= time.monotonic()
                )
                if not (dead or hung):
                    continue
                child.process.kill()
                child.process.join()
                _read(grid, child)
                children.remove(child)
                if child.held:
                    grid.lost(list(child.held), hung)
                    if spawn():
                        grid.pool_rebuilds += 1
    finally:
        for child in children:
            child.process.kill()
            child.process.join()
    if grid.queue:
        grid.fallback_inline = True
        _drain_inline(grid, *spawn_args[3:])


def _drain_inline(grid: _Grid, policy, run_fn, batch_fn) -> None:
    DrainWorker(
        grid, "inline", policy=policy, run_fn=run_fn, batch_fn=batch_fn
    ).run()


def _coerce(value, cls):
    """``value`` as a ``cls``: None and instances pass, a path opens one."""
    return value if value is None or isinstance(value, cls) else cls(value)


def _shard_batch_groups(
    groups: List[List[int]], workers: int
) -> List[List[int]]:
    """Split vector cell groups into contiguous per-worker sub-batches.

    A batched engine call is pure per replication (each task's coins come
    from its own seed-derived stream), so a cell's task list can split at
    any boundary and every sub-batch stays bit-identical to the unsharded
    run.  Shards are contiguous slices sized so the whole vector workload
    yields about ``2 × workers`` sub-batches (coarse enough to amortize
    per-call setup — topology build, CSR arrays — fine enough that one
    giant cell cannot serialize the pool), and never smaller than one
    task.
    """
    if workers <= 0 or not groups:
        return list(groups)
    total = sum(len(group) for group in groups)
    target_shards = max(workers * 2, len(groups))
    shard_size = max(1, math.ceil(total / target_shards))
    sharded: List[List[int]] = []
    for group in groups:
        for start in range(0, len(group), shard_size):
            sharded.append(group[start:start + shard_size])
    return sharded


def run_tasks(
    tasks: Sequence[TaskSpec],
    run_fn: RunFn,
    *,
    workers: int = 0,
    cache: Union[ResultCache, os.PathLike, str, None] = None,
    telemetry: Union[RunTelemetry, os.PathLike, str, None] = None,
    progress: bool = False,
    version: Optional[str] = None,
    options: Optional[Mapping[str, Any]] = None,
    batch_fn: Optional[BatchFn] = None,
    policy: Optional[FaultPolicy] = None,
) -> RunReport:
    """Execute a task grid and return its :class:`RunReport`.

    ``run_fn`` must be pure in the task spec; for ``workers >= 1`` it
    must also be picklable (a top-level function or a
    ``functools.partial`` over one — registered experiments satisfy this
    by construction).  Cache hits never execute; fresh outcomes are
    stored back as soon as they complete, so an interrupted run resumes
    from wherever it died.  ``telemetry`` names a run directory
    (:class:`~repro.runner.telemetry.RunTelemetry`): its manifest, and a
    journal line per settled task.

    Tasks with ``engine="vector"`` require ``batch_fn``: all pending
    vector tasks of one grid cell are evaluated in a single batched call
    (one NumPy lockstep run over every seed of the cell) rather than
    task by task.  Cached vector outcomes replay like any other — the
    engine is part of the cache key.

    ``policy`` governs the failure behavior (timeouts, retries,
    quarantine — see :class:`~repro.runner.policy.FaultPolicy`; the
    default retries twice and quarantines up to half the grid before
    aborting).
    """
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    policy = policy if policy is not None else FaultPolicy()
    started = time.perf_counter()
    version = version if version is not None else _package_version()
    exp_id = tasks[0].exp_id if tasks else "(empty)"
    cache = _coerce(cache, ResultCache)
    telemetry = _coerce(telemetry, RunTelemetry)
    meter = Progress(len(tasks), enabled=progress)
    if telemetry is not None:
        telemetry.start(
            exp_id=exp_id,
            version=version,
            total_tasks=len(tasks),
            workers=workers,
            options=options,
        )

    corrupt_before = cache.corrupt if cache is not None else 0
    keys = [spec.key(version) for spec in tasks]
    outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)

    def _settle(index: int, metrics, wall: float, cached=False) -> None:
        spec, key = tasks[index], keys[index]
        outcomes[index] = TaskOutcome(
            spec=spec, metrics=metrics, wall_time=wall, cached=cached, key=key
        )
        meter.update()
        store = cache is not None and not cached
        if not store and telemetry is None:
            return
        record = {
            "spec": spec.to_record(),
            "metrics": metrics,
            "wall_time": wall,
            "version": version,
        }
        if store:
            cache.put(key, record)
        if telemetry is not None:
            telemetry.record_outcome(key, record, cached=cached)

    pending: List[int] = []
    for index, key in enumerate(keys):
        record = cache.get(key) if cache is not None else None
        if record is None:
            pending.append(index)
        else:
            _settle(
                index,
                record["metrics"],
                float(record.get("wall_time", 0.0)),
                cached=True,
            )
    cache_hits = len(tasks) - len(pending)

    # Split pending work by engine: vector tasks batch per grid cell.
    scalar_pending: List[int] = []
    vector_by_case: Dict[CaseItems, List[int]] = {}
    for index in pending:
        if tasks[index].engine == "vector":
            vector_by_case.setdefault(tasks[index].case, []).append(index)
        else:
            scalar_pending.append(index)
    batch_groups = list(vector_by_case.values())
    if batch_groups and batch_fn is None:
        raise ConfigurationError("tasks with engine='vector' need a batch_fn")

    def _quarantined(record: QuarantineRecord) -> None:
        if telemetry is not None:
            telemetry.record_quarantine(record.key, record.to_record())
        meter.update()

    inline = workers == 0 or (len(pending) <= 1 and policy.timeout is None)
    if inline:
        units = batch_groups + ([scalar_pending] if scalar_pending else [])
    else:
        # ~4 chunks per worker: coarse enough to amortize IPC, fine
        # enough that a slow shard cannot straggle the run.
        chunk_size = max(1, math.ceil(len(scalar_pending) / (workers * 4)))
        # Vector cells shard into contiguous sub-batches so one cell's
        # replications spread across workers; per-replication coin
        # streams keep every sub-batch bit-identical to the unsharded
        # cell (see repro.vector.collection).
        units = _shard_batch_groups(batch_groups, workers) + [
            scalar_pending[start:start + chunk_size]
            for start in range(0, len(scalar_pending), chunk_size)
        ]
    grid = _Grid(
        tasks=tasks,
        keys=keys,
        units=units,
        policy=policy,
        version=version,
        on_complete=_settle,
        on_quarantine=_quarantined,
    )

    def _finish(status: str) -> RunReport:
        meter.finish()
        report = RunReport(
            exp_id=exp_id,
            version=version,
            workers=workers,
            outcomes=[o for o in outcomes if o is not None],
            executed=sum(
                1 for o in outcomes if o is not None and not o.cached
            ),
            cache_hits=cache_hits,
            wall_time=time.perf_counter() - started,
            timeouts=grid.timeouts,
            retries=grid.retries,
            pool_rebuilds=grid.pool_rebuilds,
            quarantined=grid.quarantined,
            corrupt_cache_entries=(
                cache.corrupt - corrupt_before if cache is not None else 0
            ),
            fallback_inline=grid.fallback_inline,
        )
        if telemetry is not None:
            telemetry.finish(
                executed=report.executed,
                cache_hits=cache_hits,
                failures=report.failure_summary(),
                status=status,
            )
        return report

    try:
        if inline:
            _drain_inline(grid, policy, run_fn, batch_fn)
        else:
            _run_pool(
                grid, workers, (tasks, keys, version, policy, run_fn, batch_fn)
            )
    except BaseException as exc:
        # Ctrl-C is a pause; anything else (the quarantine threshold,
        # --no-quarantine) ends the run.  Either way the telemetry is
        # finalized before the exception propagates.
        _finish(
            "interrupted" if isinstance(exc, KeyboardInterrupt) else "aborted"
        )
        raise
    return _finish("finished")


def experiment_grid(
    exp_id: str,
    *,
    seed: int,
    replications: int,
    engine: str = "scalar",
    quick: bool = False,
) -> Tuple[ExperimentDef, List[TaskSpec], Dict[str, Any]]:
    """A registered experiment's task grid for one engine setting.

    Returns the definition, the grid (with ``engine`` set on every
    task) and the run options that describe it.  Shared by
    :func:`run_experiment`, the queue backends' ``submit`` and the
    scenario compiler's registry twins.
    """
    import dataclasses

    validate_engine(engine)
    defn = get_experiment(exp_id)
    tasks = defn.tasks(seed, replications, quick=quick)
    if engine != "scalar":
        if not defn.supports_vector:
            raise ConfigurationError(
                f"experiment {exp_id!r} has no vector-engine "
                "implementation; run it with engine='scalar'"
            )
        tasks = [dataclasses.replace(spec, engine=engine) for spec in tasks]
    return defn, tasks, {
        "seed": seed,
        "replications": replications,
        "engine": engine,
        "quick": quick,
    }


def run_experiment(
    exp_id: str,
    *,
    seed: int,
    replications: int,
    workers: int = 0,
    cache: Union[ResultCache, os.PathLike, str, None] = None,
    telemetry: Union[RunTelemetry, os.PathLike, str, None] = None,
    progress: bool = False,
    engine: str = "scalar",
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    quarantine: bool = True,
    quick: bool = False,
) -> RunReport:
    """Run one *registered* experiment end to end.

    This is the code path shared by ``python -m repro run``, the migrated
    benches, and tests: the experiment's grid (``quick`` picks its
    miniature form) is expanded with deterministic per-task seeds,
    executed (inline or sharded), cached, and reported.  With
    ``engine="vector"`` every grid cell's seeds are evaluated in one
    NumPy lockstep batch (the experiment must register a ``run_batch``
    function).

    Failure behavior: ``timeout`` (defaulting to the experiment's
    ``default_timeout``), ``retries`` and ``quarantine`` assemble its
    :class:`~repro.runner.policy.FaultPolicy`.
    """
    import functools

    defn, tasks, grid_options = experiment_grid(
        exp_id,
        seed=seed,
        replications=replications,
        engine=engine,
        quick=quick,
    )
    policy = FaultPolicy(
        timeout=timeout if timeout is not None else defn.default_timeout,
        max_retries=(
            retries if retries is not None else FaultPolicy().max_retries
        ),
        quarantine=quarantine,
    )
    batch_fn: Optional[BatchFn] = None
    if defn.supports_vector:
        batch_fn = functools.partial(run_registered_batch, exp_id)
    run_fn = functools.partial(run_registered_task, exp_id)
    return run_tasks(
        tasks,
        run_fn,
        workers=workers,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
        batch_fn=batch_fn,
        policy=policy,
        options=grid_options,
    )
