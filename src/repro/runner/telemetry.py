"""Run telemetry: JSONL task records, a run manifest, live progress.

A run directory holds up to three files:

``manifest.json``
    Written at run start and finalized at run end: experiment id, package
    version, interpreter, worker count, grid size, and (on finish) how
    many tasks executed vs. replayed from cache, the total wall time and
    the failure taxonomy (timeouts, retries, quarantined, pool rebuilds,
    corrupt cache entries).  An interrupted run (Ctrl-C) finalizes with
    ``status: "interrupted"`` and an aborted one (the quarantine
    threshold, ``--no-quarantine``) with ``status: "aborted"``, instead
    of being left as ``"running"``.
``telemetry.jsonl``
    One JSON line per finished task, in completion order: the full task
    spec, its metrics, wall time, whether it was a cache hit, and the
    completion sequence number.  Machine-readable by design — every
    downstream table in this repo is an aggregation of these lines.
``quarantine.jsonl``
    One JSON line per quarantined task: spec, content key, failure
    category (``error`` / ``crash`` / ``timeout``), attempt count, and
    the last error detail.  Only written when the executor gives up on
    a task.

All JSONL writes are line-buffered and flushed per record, so a crashed
run loses at most the line being written; :func:`read_telemetry`
tolerates that torn final line when re-reading a run post-mortem.

:class:`Progress` renders a live ``done/total`` line with tasks/sec and
an ETA to stderr; it is off by default so tests and pipelines stay quiet.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple

from repro.analysis.stats import summarize
from repro.runner.atomicio import atomic_write_json


def median(samples: Sequence[float]) -> float:
    """The sample median (mean of the middle pair for even n)."""
    if not samples:
        raise ValueError("cannot take the median of an empty sample")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class Progress:
    """A single-line live progress meter (tasks/sec + ETA)."""

    def __init__(
        self,
        total: int,
        enabled: bool = True,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.1,
    ) -> None:
        self.total = total
        self.done = 0
        self.enabled = enabled and total > 0
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._started = time.perf_counter()
        self._last_render = 0.0
        self._dirty = False

    def update(self, count: int = 1) -> None:
        self.done += count
        self._dirty = True
        now = time.perf_counter()
        if self.enabled and now - self._last_render >= self.min_interval:
            self._render(now)

    def _render(self, now: float) -> None:
        elapsed = max(now - self._started, 1e-9)
        rate = self.done / elapsed
        if self.done and rate > 0:
            remaining = (self.total - self.done) / rate
            eta = f"ETA {remaining:4.0f}s"
        else:
            eta = "ETA   --"
        self.stream.write(
            f"\r[{self.done}/{self.total}] {rate:6.1f} tasks/s  {eta} "
        )
        self.stream.flush()
        self._last_render = now
        self._dirty = False

    def finish(self) -> None:
        if self.enabled:
            if self._dirty:
                self._render(time.perf_counter())
            self.stream.write("\n")
            self.stream.flush()


class RunTelemetry:
    """Writer for one run's manifest + per-task JSONL records."""

    def __init__(self, run_dir: os.PathLike) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.run_dir / "manifest.json"
        self.tasks_path = self.run_dir / "telemetry.jsonl"
        self.quarantine_path = self.run_dir / "quarantine.jsonl"
        self._tasks_handle: Optional[TextIO] = None
        self._quarantine_handle: Optional[TextIO] = None
        self._manifest: Dict[str, Any] = {}
        self._sequence = 0
        self._quarantined = 0
        self._started = time.perf_counter()

    # -- lifecycle -----------------------------------------------------

    def start(
        self,
        exp_id: str,
        version: str,
        total_tasks: int,
        workers: int,
        options: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self._manifest = {
            "exp_id": exp_id,
            "version": version,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "workers": workers,
            "total_tasks": total_tasks,
            "options": dict(options or {}),
            "started_unix": time.time(),
            "status": "running",
        }
        self._write_manifest()
        # Truncate any previous run's records: a run directory describes
        # exactly one run (resumability lives in the result cache and the
        # sweep checkpoint).  Line buffering keeps every completed record
        # on disk even through a hard kill.
        self._tasks_handle = self.tasks_path.open(
            "w", encoding="utf-8", buffering=1
        )
        try:
            self.quarantine_path.unlink()
        except OSError:
            pass

    def record_task(
        self,
        spec_record: Mapping[str, Any],
        metrics: Mapping[str, Any],
        wall_time: float,
        cached: bool,
        key: str,
    ) -> None:
        if self._tasks_handle is None:
            raise RuntimeError("RunTelemetry.start() was never called")
        line = {
            "sequence": self._sequence,
            "spec": dict(spec_record),
            "metrics": dict(metrics),
            "wall_time": wall_time,
            "cached": cached,
            "key": key,
        }
        self._tasks_handle.write(json.dumps(line, sort_keys=True) + "\n")
        self._tasks_handle.flush()
        self._sequence += 1

    def record_quarantine(self, record: Mapping[str, Any]) -> None:
        """Append one quarantined-task record to ``quarantine.jsonl``."""
        if self._quarantine_handle is None:
            self._quarantine_handle = self.quarantine_path.open(
                "a", encoding="utf-8", buffering=1
            )
        self._quarantine_handle.write(
            json.dumps(dict(record), sort_keys=True) + "\n"
        )
        self._quarantine_handle.flush()
        self._quarantined += 1

    def finish(
        self,
        executed: int,
        cache_hits: int,
        failures: Optional[Mapping[str, Any]] = None,
        status: str = "finished",
    ) -> None:
        """Close both JSONL streams; stamp the manifest with ``status``
        (finished, interrupted or aborted) and the counts reached."""
        if self._tasks_handle is not None:
            self._tasks_handle.close()
            self._tasks_handle = None
        if self._quarantine_handle is not None:
            self._quarantine_handle.close()
            self._quarantine_handle = None
        self._manifest.update(
            {
                "status": status,
                "executed": executed,
                "cache_hits": cache_hits,
                "recorded_tasks": self._sequence,
                "quarantined": self._quarantined,
                "wall_time": time.perf_counter() - self._started,
                "finished_unix": time.time(),
            }
        )
        if failures is not None:
            self._manifest["failures"] = dict(failures)
        self._write_manifest()

    def _write_manifest(self) -> None:
        # Same-directory temp + os.replace (never the system tmpdir):
        # the rename must not cross filesystems when the run dir is on
        # shared/NFS storage.
        atomic_write_json(self.manifest_path, self._manifest, indent=2)


def _read_jsonl(path: Path, strict: bool = True) -> List[Dict[str, Any]]:
    """Parse a JSONL file, tolerating a truncated *final* line.

    A crash (OOM-kill, power loss) can tear the line being appended;
    every earlier line was flushed whole.  With ``strict`` (the default,
    right for single-writer files) a corrupt interior line raises — that
    is damage, not interruption.  ``strict=False`` skips corrupt
    interior lines instead: a stream a killed host was appending to can
    carry its torn line anywhere once merged with others.
    """
    with path.open("r", encoding="utf-8") as handle:
        lines = handle.readlines()
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if number == len(lines) - 1 or not strict:
                continue
            raise ValueError(
                f"corrupt record at {path}:{number + 1}"
            ) from None
    return records


def read_telemetry(
    run_dir: os.PathLike, strict: bool = True
) -> List[Dict[str, Any]]:
    """Parse a run's ``telemetry.jsonl`` back into records."""
    return _read_jsonl(Path(run_dir) / "telemetry.jsonl", strict=strict)


def merge_task_records(
    records: Sequence[Mapping[str, Any]],
) -> Tuple[List[Dict[str, Any]], int]:
    """Deduplicate task records from interleaved multi-writer streams.

    Fleet hosts journal independently, and a task can legitimately be
    recorded twice — a lease reclaimed mid-commit, or a cache hit
    replayed for a dead host's committed task.  Resolution is
    last-write-wins by content ``key`` (records without a key are kept
    verbatim), preserving first-appearance order.  Returns the merged
    records and the number of duplicates folded away — surfaced as
    ``duplicates_merged`` in reports.
    """
    merged: Dict[Any, Dict[str, Any]] = {}
    keyless: List[Dict[str, Any]] = []
    duplicates = 0
    for record in records:
        key = record.get("key")
        if key is None:
            keyless.append(dict(record))
            continue
        if key in merged:
            duplicates += 1
        merged[key] = dict(record)
    return list(merged.values()) + keyless, duplicates


def read_quarantine(run_dir: os.PathLike) -> List[Dict[str, Any]]:
    """Parse a run's ``quarantine.jsonl`` (empty if nothing quarantined)."""
    path = Path(run_dir) / "quarantine.jsonl"
    if not path.exists():
        return []
    return _read_jsonl(path)


def bench_summary(report) -> Dict[str, Any]:
    """The machine-readable ``BENCH_<EXP_ID>.json`` payload for a run.

    Per grid case and per metric: median, mean, the 95% normal CI, and
    the replicate count; plus run-level wall time and cache statistics —
    the repo's perf-trajectory record.
    """
    cases: List[Dict[str, Any]] = []
    for case_label, outcomes in report.grouped().items():
        metrics_summary: Dict[str, Any] = {}
        names = sorted({m for o in outcomes for m in o.metrics})
        for name in names:
            samples = [
                float(o.metrics[name])
                for o in outcomes
                if name in o.metrics
                and isinstance(o.metrics[name], (int, float))
                and not isinstance(o.metrics[name], bool)
                and math.isfinite(float(o.metrics[name]))
            ]
            if not samples:
                continue
            stats = summarize(samples)
            metrics_summary[name] = {
                "median": median(samples),
                "mean": stats.mean,
                "ci95_low": stats.ci_low,
                "ci95_high": stats.ci_high,
                "n": stats.count,
            }
        cases.append(
            {
                "case": dict(outcomes[0].spec.case),
                "label": case_label,
                "replicates": len(outcomes),
                "metrics": metrics_summary,
                "task_wall_time": sum(o.wall_time for o in outcomes),
            }
        )
    return {
        "exp_id": report.exp_id,
        "version": report.version,
        "workers": report.workers,
        "tasks": len(report.outcomes),
        "executed": report.executed,
        "cache_hits": report.cache_hits,
        "wall_time": report.wall_time,
        "cases": cases,
    }


def write_bench_summary(report, path: os.PathLike) -> Dict[str, Any]:
    """Write :func:`bench_summary` to ``path`` and return the payload."""
    payload = bench_summary(report)
    atomic_write_json(path, payload, indent=2)
    return payload
