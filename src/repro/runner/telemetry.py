"""Run telemetry: a run directory and live progress.

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
    downstream table in this repo is an aggregation of these lines; the
    run's summary is their KPI fold (:func:`repro.kpi.kpis_from_run_dir`).

:class:`Progress` renders a live ``done/total`` line with tasks/sec and
an ETA to stderr; it is off by default so tests and pipelines stay quiet.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.runner.atomicio import atomic_write_json
from repro.runner.drain import default_host_name
from repro.runner.journal import JOURNAL_NAME, Journal


#: Seconds between two renders of the progress line.
RENDER_INTERVAL_S = 0.1


class Progress:
    """A single-line live progress meter (tasks/sec + ETA) on stderr."""

    def __init__(self, total: int, enabled: bool = True) -> None:
        self.total = total
        self.done = 0
        self.enabled = enabled and total > 0
        self.stream = sys.stderr
        self._started = time.perf_counter()
        self._last_render = 0.0
        self._dirty = False

    def update(self, count: int = 1) -> None:
        self.done += count
        self._dirty = True
        now = time.perf_counter()
        if self.enabled and now - self._last_render >= RENDER_INTERVAL_S:
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
