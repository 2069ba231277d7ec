"""The run journal: one append-only JSONL record of every settled task.

Every execution gear records a settled task in the same two line shapes,
written by :class:`Journal` and read back by :func:`read_journal`:

``{"kind": "outcome", "key", "record", "host", "cached", "time_unix"}``
    A finished task, keyed by its content address.  ``record`` is the
    result-cache record ``{spec, metrics, wall_time, version}``;
    ``cached`` says whether it was replayed from the cache rather than
    executed.
``{"kind": "quarantine", "key", "record", "host", "time_unix"}``
    A task given up on; ``record`` is a
    :class:`~repro.runner.policy.QuarantineRecord`.

Where the journals live:

* a run directory's ``journal.jsonl``, next to its ``manifest.json``
  (inline and pool runs, :class:`~repro.runner.telemetry.RunTelemetry`);
* a fleet host's ``hosts/<host>/journal.jsonl`` (:mod:`repro.runner.fleet`);
* the coordinator's ``coord-journal.jsonl`` (:mod:`repro.runner.coord`);
* a coordinator worker's outbox (:mod:`repro.runner.client`).

Any other kind is an event line (host lifecycle, lease grants and
reclaims, outbox acks); readers skip the kinds they do not know.

A journal is only appended to, and every append is flushed, so a hard
kill loses at most the line being written: :func:`read_journal`
tolerates that torn final line.  Resumption does not read a journal —
an interrupted sweep resumes from its result cache.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple

#: A run directory's and a fleet host's journal file name.
JOURNAL_NAME = "journal.jsonl"


class Journal:
    """An append-only JSONL journal (line shapes in the module docstring).

    ``fsync`` forces every append to stable storage before returning.
    The queue backends journal at their commit points (an outcome is
    journaled before the task is retired), so they pay for durability;
    a run directory keeps the cheap flush-only default — losing its
    final line to a power cut loses one record, never a cached result.
    """

    def __init__(self, path: os.PathLike, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle: Optional[TextIO] = None

    def append_event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one ``kind`` line stamped with the wall clock; returns
        the entry written."""
        entry = {"kind": kind, **fields, "time_unix": time.time()}
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        return entry

    def append_outcome(
        self, key: str, record: Mapping[str, Any], *, host: str, cached: bool
    ) -> Dict[str, Any]:
        return self.append_event(
            "outcome", key=key, record=record, host=host, cached=cached
        )

    def append_quarantine(
        self, key: str, record: Mapping[str, Any], *, host: str
    ) -> Dict[str, Any]:
        return self.append_event(
            "quarantine", key=key, record=record, host=host
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_journal(
    path: os.PathLike, strict: bool = True
) -> List[Dict[str, Any]]:
    """Parse a journal, tolerating a truncated *final* line.

    A crash (OOM-kill, power loss) can tear the line being appended;
    every earlier line was flushed whole.  With ``strict`` (the default,
    right for single-writer files) a corrupt interior line raises — that
    is damage, not interruption.  ``strict=False`` skips corrupt
    interior lines instead: a stream a killed host was appending to can
    carry its torn line anywhere once merged with others.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        lines = handle.readlines()
    entries: List[Dict[str, Any]] = []
    for number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            if number == len(lines) - 1 or not strict:
                continue
            raise ValueError(
                f"corrupt record at {path}:{number + 1}"
            ) from None
    return entries


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
