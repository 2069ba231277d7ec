"""The sharded executor: inline for tests, process-parallel for sweeps.

``run_tasks`` drives a task list through one code path with three gears:

* ``workers=0`` — run every task inline, in task order.  This is what
  unit tests and small benches use; no processes, no pickling.
* ``workers>=1`` — shard cache misses over a ``ProcessPoolExecutor`` in
  chunks (several tasks per round trip, so IPC overhead amortizes), and
  collect results as they complete.
* warm cache — tasks whose content key is already stored replay without
  executing at all, in either gear.

Because every task carries its own pre-derived seed, the three gears
produce *bit-identical* outcome tables; only wall-clock time differs.

Fault tolerance
---------------
The executor survives worker failure end to end, governed by a
:class:`~repro.runner.policy.FaultPolicy`:

* a **watchdog** enforces per-task wall-clock timeouts on worker
  futures (a chunk of ``c`` tasks gets ``c × timeout``); an expired
  chunk's pool is killed and rebuilt, and the chunk is bisected until
  the hanging task is isolated and quarantined;
* **in-band errors** (the task function raised) are returned per task,
  not thrown across the pool, and retried with exponential backoff +
  deterministic jitter up to ``max_retries`` before quarantine;
* a **broken pool** (worker died: segfault, OOM-kill, ``os._exit``) is
  rebuilt; the chunks that were in flight are re-probed serially and
  bisected so only the poison task is quarantined, everything innocent
  re-runs;
* if freshly rebuilt pools keep dying without progress, the executor
  **degrades to inline execution** rather than aborting the sweep;
* quarantined tasks are itemized in the :class:`RunReport` (and in
  ``quarantine.jsonl`` when telemetry is on) instead of crashing the
  run — unless the failure fraction crosses the policy threshold, in
  which case the run aborts loudly.

With a :class:`~repro.runner.checkpoint.SweepCheckpoint`, completed
tasks are journaled as they finish, so an interrupted run (Ctrl-C,
OOM-kill, machine loss) resumes from completed-task state even without
a result cache.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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
from repro.runner.checkpoint import SweepCheckpoint
from repro.runner.policy import FaultPolicy, QuarantineRecord
from repro.runner.registry import (
    ExperimentDef,
    get_experiment,
    run_registered_batch,
    run_registered_task,
)
from repro.runner.task import TaskSpec
from repro.runner.telemetry import Progress, RunTelemetry
from repro.vector.engine import validate_engine

RunFn = Callable[[TaskSpec], Mapping[str, Any]]
BatchFn = Callable[[List[TaskSpec]], List[Mapping[str, Any]]]

#: Slack added to a chunk's watchdog deadline for IPC and pool spin-up.
_DEADLINE_GRACE = 0.5


class TaskExecutionError(ReproError):
    """A task failed fatally (quarantine off or failure threshold hit)."""


def _package_version() -> str:
    import repro

    return repro.__version__


@dataclass(frozen=True)
class TaskOutcome:
    """One finished task: spec, metrics, and how it was obtained.

    ``source`` is ``"fresh"`` (executed this run), ``"cache"`` (replayed
    from the result cache) or ``"checkpoint"`` (restored from the sweep
    checkpoint journal); ``cached`` is True for the latter two.
    """

    spec: TaskSpec
    metrics: Mapping[str, Any]
    wall_time: float
    cached: bool
    key: str
    source: str = "fresh"


@dataclass
class RunReport:
    """All outcomes of one run, in task (grid) order.

    Beyond the outcomes, the report itemizes the run's failure taxonomy:
    ``timeouts`` (watchdog expiries — in the inline gear, advisory
    overruns), ``retries`` (task re-executions after a failure),
    ``pool_rebuilds`` (worker pools killed and rebuilt), ``quarantined``
    (tasks given up on, with category and detail),
    ``corrupt_cache_entries`` (cache files that failed integrity and
    were re-run), ``resumed`` (outcomes restored from a checkpoint),
    ``duplicates_merged`` (records folded last-write-wins when a
    checkpoint or merged fleet journal carried a content key more than
    once) and ``fallback_inline`` (the pool could not be kept alive and
    the run degraded to inline execution).  Fleet runs additionally
    populate ``lease_reclaims`` (orphaned task leases stolen from dead
    hosts), ``hosts_seen`` (distinct worker hosts that journaled) and
    ``host_failures`` (distinct hosts whose leases had to be reclaimed);
    the fields stay zero for single-machine runs.
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
    resumed: int = 0
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
            "resumed": self.resumed,
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

    def metric(
        self, name: str, case_label: Optional[str] = None
    ) -> List[float]:
        """All values of one metric (optionally restricted to a case)."""
        return [
            float(outcome.metrics[name])
            for outcome in self.outcomes
            if name in outcome.metrics
            and (case_label is None or outcome.spec.case_label() == case_label)
        ]

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
# Worker entry points
# ----------------------------------------------------------------------
#
# Failures are returned *in band* — ("err", message, 0.0) per task —
# rather than raised across the pool: raising would poison the whole
# chunk and lose which sibling tasks succeeded.  Only process death
# (BrokenProcessPool) and interrupts cross the boundary as exceptions.

Entry = Tuple[str, Any, float]  # ("ok", metrics, wall) | ("err", msg, 0.0)


def _run_batch_chunk(
    batch_fn: BatchFn, records: List[Dict[str, Any]]
) -> List[Entry]:
    """Worker entry point: one batched (vector-engine) group of records.

    Wall time is amortized evenly over the group — a batch is one engine
    call, so per-task attribution is necessarily approximate.  A batch
    failure fails every task of the group; the executor retries them as
    singleton batches.
    """
    specs = [TaskSpec.from_record(record) for record in records]
    started = time.perf_counter()
    try:
        metrics_list = batch_fn(specs)
    except Exception as exc:
        message = (
            f"batch of {len(specs)} tasks ({specs[0].label()} ...) "
            f"failed: {type(exc).__name__}: {exc}"
        )
        return [("err", message, 0.0)] * len(specs)
    if len(metrics_list) != len(specs):
        message = (
            f"batch function returned {len(metrics_list)} results for "
            f"{len(specs)} tasks"
        )
        return [("err", message, 0.0)] * len(specs)
    wall = (time.perf_counter() - started) / max(1, len(specs))
    return [("ok", dict(metrics), wall) for metrics in metrics_list]


def _run_chunk(
    run_fn: RunFn, records: List[Dict[str, Any]]
) -> List[Entry]:
    """Worker entry point: execute one shard of task records."""
    results: List[Entry] = []
    for record in records:
        spec = TaskSpec.from_record(record)
        started = time.perf_counter()
        try:
            metrics = run_fn(spec)
        except Exception as exc:  # surface which task died, with context
            results.append((
                "err",
                f"task {spec.label()} (seed {spec.seed}) failed: "
                f"{type(exc).__name__}: {exc}",
                0.0,
            ))
        else:
            results.append(
                ("ok", dict(metrics), time.perf_counter() - started)
            )
    return results


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully stop a pool, including hung or wedged workers."""
    # _processes is a CPython internal (pid -> Process); stable across
    # 3.8+ and the only way to reach a *hung* worker, which a plain
    # shutdown would wait on forever.  Read it before shutdown(), which
    # sets it to None.
    process_map = getattr(pool, "_processes", None)
    processes = list(process_map.values()) if process_map else []
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in processes:
        try:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        except Exception:
            pass


@dataclass
class _Chunk:
    """One unit of pool work: task indices plus routing flags."""

    indices: List[int]
    batch: bool = False
    suspect: bool = False

    def halves(self) -> Tuple["_Chunk", "_Chunk"]:
        mid = len(self.indices) // 2
        return (
            _Chunk(self.indices[:mid], batch=self.batch, suspect=True),
            _Chunk(self.indices[mid:], batch=self.batch, suspect=True),
        )


class _Execution:
    """Shared fault-tolerant machinery behind both executor gears."""

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        keys: Sequence[str],
        run_fn: RunFn,
        batch_fn: Optional[BatchFn],
        policy: FaultPolicy,
        workers: int,
        pending_total: int,
        on_complete: Callable[[int, Dict[str, Any], float], None],
        on_quarantine: Callable[[QuarantineRecord], None],
    ) -> None:
        self.tasks = tasks
        self.keys = keys
        self.run_fn = run_fn
        self.batch_fn = batch_fn
        self.policy = policy
        self.workers = workers
        self.pending_total = pending_total
        self.on_complete = on_complete
        self.on_quarantine = on_quarantine
        self.attempts: Dict[int, int] = {}
        self.quarantined: List[QuarantineRecord] = []
        self.timeouts = 0
        self.retries = 0
        self.pool_rebuilds = 0
        self.fallback_inline = False

    # -- shared --------------------------------------------------------

    def _records(self, indices: Sequence[int]) -> List[Dict[str, Any]]:
        return [self.tasks[i].to_record() for i in indices]

    def _note_overrun(self, wall: float) -> None:
        if self.policy.timeout is not None and wall > self.policy.timeout:
            self.timeouts += 1

    def quarantine(self, index: int, category: str, detail: str) -> None:
        """Give up on one task — or abort, per policy."""
        spec = self.tasks[index]
        # attempts[] already counts every failed execution (bumped by
        # _should_retry); a timeout bypasses that path but did execute
        # once before the watchdog killed it.
        attempts = max(1, self.attempts.get(index, 0))
        if not self.policy.quarantine:
            raise TaskExecutionError(
                f"task {spec.label()} {category} after {attempts} "
                f"attempt(s): {detail}"
            )
        record = QuarantineRecord.for_task(
            spec,
            self.keys[index],
            category=category,
            attempts=attempts,
            detail=detail,
        )
        self.quarantined.append(record)
        self.on_quarantine(record)
        limit = self.policy.max_quarantine_fraction * self.pending_total
        if len(self.quarantined) > limit:
            lines = "; ".join(
                f"{q.label} [{q.category}] {q.detail}"
                for q in self.quarantined
            )
            raise TaskExecutionError(
                f"{len(self.quarantined)} of {self.pending_total} tasks "
                f"quarantined (threshold "
                f"{self.policy.max_quarantine_fraction:.0%}): {lines}"
            )

    def _should_retry(self, index: int) -> bool:
        """Record one failed attempt; True if a retry is still budgeted."""
        self.attempts[index] = self.attempts.get(index, 0) + 1
        if self.attempts[index] <= self.policy.max_retries:
            self.retries += 1
            return True
        return False

    # -- inline gear ---------------------------------------------------

    def run_inline(
        self, scalar_indices: Sequence[int], batch_groups: Sequence[List[int]]
    ) -> None:
        for group in batch_groups:
            self._inline_batch_group(group)
        for index in scalar_indices:
            self._inline_task(index, batch=False)

    def _inline_batch_group(self, group: Sequence[int]) -> None:
        entries = _run_batch_chunk(self.batch_fn, self._records(group))
        retry: List[int] = []
        for index, entry in zip(group, entries):
            if entry[0] == "ok":
                self._note_overrun(entry[2])
                self.on_complete(index, entry[1], entry[2])
            elif self._should_retry(index):
                retry.append(index)
            else:
                self.quarantine(index, "error", entry[1])
        for index in retry:
            time.sleep(
                self.policy.backoff_delay(
                    self.keys[index], self.attempts[index]
                )
            )
            self._inline_task(index, batch=True)

    def _inline_task(self, index: int, batch: bool) -> None:
        while True:
            records = self._records([index])
            if batch:
                (entry,) = _run_batch_chunk(self.batch_fn, records)
            else:
                (entry,) = _run_chunk(self.run_fn, records)
            if entry[0] == "ok":
                self._note_overrun(entry[2])
                self.on_complete(index, entry[1], entry[2])
                return
            if not self._should_retry(index):
                self.quarantine(index, "error", entry[1])
                return
            time.sleep(
                self.policy.backoff_delay(
                    self.keys[index], self.attempts[index]
                )
            )

    # -- pool gear -----------------------------------------------------

    def run_pool(
        self,
        scalar_chunks: Sequence[List[int]],
        batch_groups: Sequence[List[int]],
    ) -> None:
        normal: Deque[_Chunk] = deque(
            [_Chunk(list(chunk)) for chunk in scalar_chunks]
            + [_Chunk(list(group), batch=True) for group in batch_groups]
        )
        suspects: Deque[_Chunk] = deque()
        retry_heap: List[Tuple[float, int, _Chunk]] = []
        tiebreak = itertools.count()
        inflight: Dict[Any, _Chunk] = {}
        deadlines: Dict[Any, float] = {}
        pool: Optional[ProcessPoolExecutor] = None
        breaks_since_progress = 0

        def submit(chunk: _Chunk) -> None:
            if chunk.batch:
                future = pool.submit(
                    _run_batch_chunk, self.batch_fn,
                    self._records(chunk.indices),
                )
            else:
                future = pool.submit(
                    _run_chunk, self.run_fn, self._records(chunk.indices)
                )
            inflight[future] = chunk
            if self.policy.timeout is not None:
                deadlines[future] = (
                    time.monotonic()
                    + self.policy.timeout * len(chunk.indices)
                    + _DEADLINE_GRACE
                )

        def requeue_inflight() -> None:
            for chunk in inflight.values():
                (suspects if chunk.suspect else normal).appendleft(chunk)
            inflight.clear()
            deadlines.clear()

        def drop_pool() -> None:
            nonlocal pool
            if pool is not None:
                _kill_pool(pool)
                pool = None

        def remaining_chunks() -> List[_Chunk]:
            chunks = list(suspects) + list(normal)
            chunks += [item[2] for item in retry_heap]
            chunks += list(inflight.values())
            return chunks

        def schedule_retry(index: int, batch: bool, suspect: bool) -> None:
            ready = time.monotonic() + self.policy.backoff_delay(
                self.keys[index], self.attempts[index]
            )
            heapq.heappush(
                retry_heap,
                (ready, next(tiebreak),
                 _Chunk([index], batch=batch, suspect=suspect)),
            )

        def guilty_crash(chunk: _Chunk) -> None:
            """A chunk known (not just suspected) to kill its worker."""
            if len(chunk.indices) > 1:
                first, second = chunk.halves()
                suspects.appendleft(second)
                suspects.appendleft(first)
                return
            index = chunk.indices[0]
            if self._should_retry(index):
                schedule_retry(index, chunk.batch, suspect=True)
            else:
                self.quarantine(
                    index, "crash",
                    f"worker process died "
                    f"({self.attempts[index]} attempt(s))",
                )

        def expire(chunk: _Chunk) -> None:
            self.timeouts += 1
            if len(chunk.indices) > 1:
                first, second = chunk.halves()
                suspects.appendleft(second)
                suspects.appendleft(first)
                return
            index = chunk.indices[0]
            self.quarantine(
                index, "timeout",
                f"exceeded the {self.policy.timeout:g}s wall-clock budget",
            )

        try:
            while normal or suspects or retry_heap or inflight:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, chunk = heapq.heappop(retry_heap)
                    (suspects if chunk.suspect else normal).append(chunk)

                if (normal or suspects) and pool is None:
                    try:
                        pool = ProcessPoolExecutor(max_workers=self.workers)
                    except (OSError, PermissionError, ValueError):
                        self._degrade_inline(remaining_chunks())
                        return

                # Suspect chunks are probed one at a time: if the pool
                # breaks with a single chunk in flight, guilt is certain
                # and bisection can proceed without collateral damage.
                if suspects:
                    if not inflight:
                        submit(suspects.popleft())
                else:
                    while normal and len(inflight) < max(1, self.workers) * 4:
                        submit(normal.popleft())

                if not inflight:
                    if retry_heap:
                        time.sleep(
                            min(0.05, max(0.0, retry_heap[0][0] - now))
                        )
                    continue

                wait_timeout = None
                if deadlines:
                    wait_timeout = max(0.0, min(deadlines.values()) - now)
                if retry_heap:
                    ready = max(0.0, retry_heap[0][0] - now)
                    wait_timeout = (
                        ready if wait_timeout is None
                        else min(wait_timeout, ready)
                    )
                done, _ = wait(
                    set(inflight),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )

                crashed: List[_Chunk] = []
                progressed = False
                for future in done:
                    chunk = inflight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        entries = future.result()
                    except BrokenProcessPool:
                        crashed.append(chunk)
                    except Exception as exc:
                        # Pickling or transport failure: fail the tasks
                        # in band so they retry / quarantine normally.
                        progressed = True
                        for index in chunk.indices:
                            self._pool_task_failed(
                                index, chunk.batch,
                                f"task {self.tasks[index].label()} failed "
                                f"in transit: {type(exc).__name__}: {exc}",
                                schedule_retry,
                            )
                    else:
                        progressed = True
                        for index, entry in zip(chunk.indices, entries):
                            if entry[0] == "ok":
                                self._note_overrun(entry[2])
                                self.on_complete(index, entry[1], entry[2])
                            else:
                                self._pool_task_failed(
                                    index, chunk.batch, entry[1],
                                    schedule_retry,
                                )
                if progressed:
                    breaks_since_progress = 0

                if crashed:
                    self.pool_rebuilds += 1
                    if not progressed:
                        breaks_since_progress += 1
                    if len(crashed) == 1 and not inflight:
                        # Exactly one chunk in flight died: it is guilty.
                        guilty_crash(crashed[0])
                    else:
                        # Ambiguous break: everything that was running
                        # becomes a suspect and is re-probed serially.
                        for chunk in crashed:
                            chunk.suspect = True
                            suspects.appendleft(chunk)
                    requeue_inflight()
                    drop_pool()
                    if breaks_since_progress > self.policy.rebuild_limit:
                        self._degrade_inline(remaining_chunks())
                        return
                    continue

                now = time.monotonic()
                expired = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline <= now and not future.done()
                ]
                if expired:
                    for future in expired:
                        chunk = inflight.pop(future)
                        deadlines.pop(future, None)
                        expire(chunk)
                    # The hung worker holds the pool hostage; innocents
                    # in flight are requeued and re-run on a fresh pool.
                    self.pool_rebuilds += 1
                    requeue_inflight()
                    drop_pool()
        except BaseException:
            drop_pool()
            raise
        else:
            if pool is not None:
                pool.shutdown(wait=True)

    def _pool_task_failed(
        self,
        index: int,
        batch: bool,
        detail: str,
        schedule_retry: Callable[[int, bool, bool], None],
    ) -> None:
        if self._should_retry(index):
            schedule_retry(index, batch, False)
        else:
            self.quarantine(index, "error", detail)

    def _degrade_inline(self, chunks: Sequence[_Chunk]) -> None:
        """Last resort: the pool cannot be kept alive; run in process.

        Loses crash isolation (a task that kills its process would kill
        the run), but a sweep that can still make progress should.
        """
        self.fallback_inline = True
        seen: set = set()
        for chunk in chunks:
            indices = [i for i in chunk.indices if i not in seen]
            seen.update(indices)
            if chunk.batch and len(indices) > 1:
                self._inline_batch_group(indices)
            else:
                for index in indices:
                    self._inline_task(index, batch=chunk.batch)


def _coerce_cache(
    cache: Union[ResultCache, os.PathLike, str, None]
) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _coerce_telemetry(
    telemetry: Union[RunTelemetry, os.PathLike, str, None]
) -> Optional[RunTelemetry]:
    if telemetry is None or isinstance(telemetry, RunTelemetry):
        return telemetry
    return RunTelemetry(telemetry)


def _coerce_checkpoint(
    checkpoint: Union[SweepCheckpoint, os.PathLike, str, None]
) -> Optional[SweepCheckpoint]:
    if checkpoint is None or isinstance(checkpoint, SweepCheckpoint):
        return checkpoint
    return SweepCheckpoint(checkpoint)


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
    checkpoint: Union[SweepCheckpoint, os.PathLike, str, None] = None,
    progress: bool = False,
    version: Optional[str] = None,
    options: Optional[Mapping[str, Any]] = None,
    chunk_size: Optional[int] = None,
    batch_fn: Optional[BatchFn] = None,
    policy: Optional[FaultPolicy] = None,
) -> RunReport:
    """Execute a task grid and return its :class:`RunReport`.

    ``run_fn`` must be pure in the task spec; for ``workers >= 1`` it
    must also be picklable (a top-level function or a
    ``functools.partial`` over one — registered experiments satisfy this
    by construction).  Cache hits never execute; fresh outcomes are
    stored back as soon as they complete, so an interrupted run resumes
    from wherever it died.

    Tasks with ``engine="vector"`` require ``batch_fn``: all pending
    vector tasks of one grid cell are evaluated in a single batched call
    (one NumPy lockstep run over every seed of the cell) rather than
    task by task.  Cached vector outcomes replay like any other — the
    engine is part of the cache key.

    ``policy`` governs the failure behavior (timeouts, retries,
    quarantine — see :class:`~repro.runner.policy.FaultPolicy`; the
    default retries twice and quarantines up to half the grid before
    aborting).  ``checkpoint`` names a
    :class:`~repro.runner.checkpoint.SweepCheckpoint` journal: completed
    tasks are appended as they finish and restored on the next run, so
    interruption (Ctrl-C, OOM-kill) is a pause even without a cache.
    """
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    policy = policy if policy is not None else FaultPolicy()
    started = time.perf_counter()
    version = version if version is not None else _package_version()
    exp_id = tasks[0].exp_id if tasks else "(empty)"
    cache = _coerce_cache(cache)
    telemetry = _coerce_telemetry(telemetry)
    checkpoint = _coerce_checkpoint(checkpoint)
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
    ckpt_completed: Dict[str, Dict] = {}
    ckpt_quarantined: Dict[str, Dict] = {}
    ckpt_duplicates = 0
    if checkpoint is not None:
        ckpt_completed, ckpt_quarantined = checkpoint.load()
        ckpt_duplicates = checkpoint.duplicates

    keys = [spec.key(version) for spec in tasks]
    outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
    pending: List[int] = []
    carryover: List[QuarantineRecord] = []
    cache_hits = 0
    resumed = 0
    for index, (spec, key) in enumerate(zip(tasks, keys)):
        record = cache.get(key) if cache is not None else None
        source = "cache"
        if record is None and key in ckpt_completed:
            record = ckpt_completed[key]
            source = "checkpoint"
        if record is not None:
            outcome = TaskOutcome(
                spec=spec,
                metrics=record["metrics"],
                wall_time=float(record.get("wall_time", 0.0)),
                cached=True,
                key=key,
                source=source,
            )
            outcomes[index] = outcome
            if source == "cache":
                cache_hits += 1
            else:
                resumed += 1
            if telemetry is not None:
                telemetry.record_task(
                    spec.to_record(),
                    outcome.metrics,
                    outcome.wall_time,
                    cached=True,
                    key=key,
                )
            meter.update()
        elif key in ckpt_quarantined and policy.quarantine:
            # A known-poison task from the interrupted run: skip it and
            # carry its record forward rather than re-poisoning the run.
            carried = QuarantineRecord.from_record(ckpt_quarantined[key])
            carryover.append(carried)
            if telemetry is not None:
                telemetry.record_quarantine(carried.to_record())
            meter.update()
        else:
            pending.append(index)

    # Split pending work by engine: vector tasks batch per grid cell.
    scalar_pending: List[int] = []
    batch_groups: List[List[int]] = []
    vector_by_case: Dict[str, List[int]] = {}
    for index in pending:
        if tasks[index].engine == "vector":
            vector_by_case.setdefault(
                tasks[index].case_label(), []
            ).append(index)
        else:
            scalar_pending.append(index)
    if vector_by_case:
        if batch_fn is None:
            raise ConfigurationError(
                "tasks with engine='vector' need a batch_fn"
            )
        batch_groups = list(vector_by_case.values())

    def _complete(index: int, metrics: Dict[str, Any], wall: float) -> None:
        spec, key = tasks[index], keys[index]
        outcomes[index] = TaskOutcome(
            spec=spec, metrics=metrics, wall_time=wall, cached=False, key=key
        )
        record = {
            "spec": spec.to_record(),
            "metrics": metrics,
            "wall_time": wall,
            "version": version,
        }
        if cache is not None:
            cache.put(key, record)
        if checkpoint is not None:
            checkpoint.append_outcome(key, record)
        if telemetry is not None:
            telemetry.record_task(
                spec.to_record(), metrics, wall, cached=False, key=key
            )
        meter.update()

    def _quarantined(record: QuarantineRecord) -> None:
        if telemetry is not None:
            telemetry.record_quarantine(record.to_record())
        if checkpoint is not None:
            checkpoint.append_quarantine(record.key, record.to_record())
        meter.update()

    execution = _Execution(
        tasks=tasks,
        keys=keys,
        run_fn=run_fn,
        batch_fn=batch_fn,
        policy=policy,
        workers=workers,
        pending_total=len(pending),
        on_complete=_complete,
        on_quarantine=_quarantined,
    )

    def _fresh_count() -> int:
        return sum(
            1
            for outcome in outcomes
            if outcome is not None and outcome.source == "fresh"
        )

    interrupted = False
    try:
        if workers == 0 or (
            len(pending) <= 1 and policy.timeout is None
        ):
            execution.run_inline(scalar_pending, batch_groups)
        elif pending:
            if chunk_size is None:
                # ~4 chunks per worker: coarse enough to amortize IPC,
                # fine enough that a slow shard cannot straggle the run.
                chunk_size = max(
                    1, math.ceil(len(scalar_pending) / (workers * 4))
                )
            chunks = [
                scalar_pending[start:start + chunk_size]
                for start in range(0, len(scalar_pending), chunk_size)
            ]
            # Vector cells shard into contiguous sub-batches so one
            # cell's replications spread across workers; per-replication
            # coin streams keep every sub-batch bit-identical to the
            # unsharded cell (see repro.vector.collection).
            execution.run_pool(
                chunks, _shard_batch_groups(batch_groups, workers)
            )
    except KeyboardInterrupt:
        interrupted = True
        raise
    finally:
        meter.finish()
        if checkpoint is not None:
            checkpoint.close()
        if interrupted and telemetry is not None:
            telemetry.interrupt(
                executed=_fresh_count(),
                cache_hits=cache_hits,
                failures={
                    "timeouts": execution.timeouts,
                    "retries": execution.retries,
                    "pool_rebuilds": execution.pool_rebuilds,
                    "quarantined": len(execution.quarantined),
                },
            )

    report = RunReport(
        exp_id=exp_id,
        version=version,
        workers=workers,
        outcomes=[outcome for outcome in outcomes if outcome is not None],
        executed=_fresh_count(),
        cache_hits=cache_hits,
        wall_time=time.perf_counter() - started,
        timeouts=execution.timeouts,
        retries=execution.retries,
        pool_rebuilds=execution.pool_rebuilds,
        quarantined=carryover + execution.quarantined,
        corrupt_cache_entries=(
            cache.corrupt - corrupt_before if cache is not None else 0
        ),
        resumed=resumed,
        fallback_inline=execution.fallback_inline,
        duplicates_merged=ckpt_duplicates,
    )
    if telemetry is not None:
        telemetry.finish(
            executed=report.executed,
            cache_hits=cache_hits,
            failures=report.failure_summary(),
        )
    return report


def experiment_grid(
    exp_id: str,
    *,
    seed: int,
    replications: int,
    engine: str = "scalar",
    reception: str = "auto",
    backend: str = "auto",
    mask: str = "auto",
    **options: Any,
) -> Tuple[ExperimentDef, List[TaskSpec], Dict[str, Any]]:
    """A registered experiment's task grid for one engine setting.

    Returns the definition, the grid (with the vector-engine knobs set
    on every task when ``engine`` is not ``"scalar"``) and the run
    options that describe it.  Shared by :func:`run_experiment` and the
    queue backends' ``submit``.
    """
    import dataclasses

    from repro.vector.engine import (
        validate_backend,
        validate_mask,
        validate_reception,
    )

    validate_engine(engine)
    validate_reception(reception)
    validate_backend(backend)
    validate_mask(mask)
    defn = get_experiment(exp_id)
    tasks = defn.tasks(seed, replications, **options)
    if engine != "scalar":
        if not defn.supports_vector:
            raise ConfigurationError(
                f"experiment {exp_id!r} has no vector-engine "
                "implementation; run it with engine='scalar'"
            )
        tasks = [
            dataclasses.replace(
                spec,
                engine=engine,
                reception=reception,
                backend=backend,
                mask=mask,
            )
            for spec in tasks
        ]
    return defn, tasks, {
        "seed": seed,
        "replications": replications,
        "engine": engine,
        "reception": reception,
        "backend": backend,
        "mask": mask,
        **options,
    }


def run_experiment(
    exp_id: str,
    *,
    seed: int,
    replications: int,
    workers: int = 0,
    cache: Union[ResultCache, os.PathLike, str, None] = None,
    telemetry: Union[RunTelemetry, os.PathLike, str, None] = None,
    checkpoint: Union[SweepCheckpoint, os.PathLike, str, None] = None,
    progress: bool = False,
    engine: str = "scalar",
    reception: str = "auto",
    backend: str = "auto",
    mask: str = "auto",
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    quarantine: bool = True,
    policy: Optional[FaultPolicy] = None,
    **options: Any,
) -> RunReport:
    """Run one *registered* experiment end to end.

    This is the code path shared by ``python -m repro run``, the migrated
    benches, and tests: the experiment's grid is expanded with
    deterministic per-task seeds, executed (inline or sharded), cached,
    and reported.  With ``engine="vector"`` every grid cell's seeds are
    evaluated in one NumPy lockstep batch (the experiment must register
    a ``run_batch`` function); ``reception`` selects that batch's
    reception kernel (``dense``/``sparse``/``auto``), ``backend`` its
    array kernels (``numpy``/``numba``/``auto``) and ``mask`` the
    active-set loop (``on``/``off``/``auto``) — all three join the task
    identity.

    Failure behavior: ``timeout`` (defaulting to the experiment's
    ``default_timeout``), ``retries`` and ``quarantine`` assemble a
    :class:`~repro.runner.policy.FaultPolicy` unless an explicit
    ``policy`` is given; ``checkpoint`` journals completed tasks for
    resumption after an interruption.
    """
    import functools

    defn, tasks, grid_options = experiment_grid(
        exp_id,
        seed=seed,
        replications=replications,
        engine=engine,
        reception=reception,
        backend=backend,
        mask=mask,
        **options,
    )
    if policy is None:
        defaults = FaultPolicy()
        policy = FaultPolicy(
            timeout=timeout if timeout is not None else defn.default_timeout,
            max_retries=(
                retries if retries is not None else defaults.max_retries
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
        checkpoint=checkpoint,
        progress=progress,
        batch_fn=batch_fn,
        policy=policy,
        options=grid_options,
    )
