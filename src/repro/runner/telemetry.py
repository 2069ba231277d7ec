"""Run telemetry: a run directory, live progress, and BENCH summaries.

A run directory (``run --run-dir``, ``scenario --run-dir``) holds two
files:

``manifest.json``
    Written at run start and finalized at run end: experiment id, package
    version, interpreter, worker count, grid size, and (on finish) how
    many tasks executed vs. replayed from cache, the total wall time and
    the failure taxonomy (timeouts, retries, quarantined, pool rebuilds,
    corrupt cache entries).  An interrupted run (Ctrl-C) finalizes with
    ``status: "interrupted"`` and an aborted one (the quarantine
    threshold, ``--no-quarantine``) with ``status: "aborted"``, instead
    of being left as ``"running"``.
``journal.jsonl``
    The run's :mod:`~repro.runner.journal`: one ``outcome`` line per
    finished task (executed or replayed from cache) and one
    ``quarantine`` line per task given up on, in completion order — the
    same line shapes the fleet and coordinator journals carry.  Every
    downstream table in this repo is an aggregation of these lines.

:class:`Progress` renders a live ``done/total`` line with tasks/sec and
an ETA to stderr; it is off by default so tests and pipelines stay quiet.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO

from repro.analysis.stats import summarize
from repro.runner.atomicio import atomic_write_json
from repro.runner.drain import default_host_name
from repro.runner.journal import JOURNAL_NAME, Journal


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
    """Writer for one run directory: its manifest and its journal."""

    def __init__(self, run_dir: os.PathLike) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.run_dir / "manifest.json"
        self.journal = Journal(self.run_dir / JOURNAL_NAME)
        self.host = default_host_name()
        self._manifest: Dict[str, Any] = {}
        self._recorded = 0
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
        # Drop any previous run's journal: a run directory describes
        # exactly one run (resumability lives in the result cache).
        self.journal.path.unlink(missing_ok=True)

    def record_outcome(
        self, key: str, record: Mapping[str, Any], cached: bool
    ) -> None:
        """Journal one finished task (``record`` as the cache stores it)."""
        self.journal.append_outcome(key, record, host=self.host, cached=cached)
        self._recorded += 1

    def record_quarantine(self, key: str, record: Mapping[str, Any]) -> None:
        """Journal one quarantined task."""
        self.journal.append_quarantine(key, record, host=self.host)
        self._quarantined += 1

    def finish(
        self,
        executed: int,
        cache_hits: int,
        failures: Optional[Mapping[str, Any]] = None,
        status: str = "finished",
    ) -> None:
        """Close the journal; stamp the manifest with ``status``
        (finished, interrupted or aborted) and the counts reached."""
        self.journal.close()
        self._manifest.update(
            {
                "status": status,
                "executed": executed,
                "cache_hits": cache_hits,
                "recorded_tasks": self._recorded,
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
