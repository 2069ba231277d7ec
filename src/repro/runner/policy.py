"""Fault policy for the executor: what happens when a task misbehaves.

The protocols under study are Las-Vegas — always correct, random running
time — but the *infrastructure* that measures them fails like any other
distributed system: worker processes crash, tasks hang, transient
resource errors come and go.  :class:`FaultPolicy` is the executor's
contract for those events:

* **timeouts** — a wall-clock budget per task attempt, enforced by the
  process pool's parent, which kills a child that overruns it;
* **retries** — bounded re-execution for transient failures: a raised
  exception retries after exponential backoff with deterministic
  jitter, a crashed worker's task is re-queued at once;
* **quarantine** — a task that keeps failing is *recorded and skipped*
  (a :class:`QuarantineRecord` in the report and the run journal)
  instead of aborting the whole sweep, up to a failure-fraction
  threshold past which the run aborts anyway (so a systematically
  broken task function still fails loudly).

Retry jitter is derived from the task key with the same sha256 stream
construction as every other random draw in this repo
(:func:`repro.rng.child_rng`), so two resumptions of the same sweep
back off identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigurationError
from repro.rng import child_rng

#: Quarantine categories, by failure mode.
QUARANTINE_CATEGORIES = ("error", "crash", "timeout")

#: Retry ``attempt`` after a raised exception waits
#: ``min(BACKOFF_CAP_S, BACKOFF_BASE_S · 2^(attempt-1))`` seconds, scaled
#: by ``1 + BACKOFF_JITTER·u`` with ``u`` drawn deterministically from the
#: task key.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
BACKOFF_JITTER = 0.5

#: A run aborts once more than this fraction of the tasks pending
#: execution has been quarantined: the failures are systemic, not
#: sporadic.
MAX_QUARANTINE_FRACTION = 0.5


@dataclass(frozen=True)
class FaultPolicy:
    """How the executor treats failing, crashing, and hanging tasks.

    ``timeout``
        Wall-clock budget in seconds of one task attempt, or None for no
        watchdog.  The deadline restarts at every attempt and never
        counts a retry's backoff sleep; a vector batch call gets the
        budget once per task it covers.  Enforced preemptively only
        with ``workers >= 1`` (the pool's parent kills the child and
        starts a replacement); the inline gear and queue workers cannot
        interrupt a running task and only *count* overruns.
    ``max_retries``
        How many times a failed task (raised exception or crashed
        worker) is re-executed before it is quarantined.  Timeouts are
        never retried — a hang is assumed persistent.  A retry after a
        raised exception backs off (see :data:`BACKOFF_BASE_S`); a
        crashed worker's task, like a stolen fleet lease, re-runs at
        once.
    ``quarantine``
        When True (the default), a task that exhausts its retries is
        recorded and skipped, until more than
        :data:`MAX_QUARANTINE_FRACTION` of the pending tasks are; when
        False the first exhausted task aborts the run with
        :class:`~repro.runner.executor.TaskExecutionError`.
    ``seed``
        Root seed of the backoff-jitter stream.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    quarantine: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {self.timeout}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of task ``key``."""
        base = min(
            BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** max(0, attempt - 1))
        )
        u = child_rng(self.seed, "backoff", key, attempt).random()
        return base * (1.0 + BACKOFF_JITTER * u)


@dataclass(frozen=True)
class QuarantineRecord:
    """One task the executor gave up on — recorded, not fatal.

    ``category`` is one of :data:`QUARANTINE_CATEGORIES`:

    * ``"error"``   — the task function raised on every attempt;
    * ``"crash"``   — the worker process died on every attempt;
    * ``"timeout"`` — the task exceeded its wall-clock budget.
    """

    spec: Mapping[str, Any]
    key: str
    label: str
    category: str
    attempts: int
    detail: str

    def to_record(self) -> Dict[str, Any]:
        return {
            "spec": dict(self.spec),
            "key": self.key,
            "label": self.label,
            "category": self.category,
            "attempts": self.attempts,
            "detail": self.detail,
        }

    @classmethod
    def for_task(
        cls, spec, key: str, *, category: str, attempts: int, detail: str
    ) -> "QuarantineRecord":
        """The record for giving up on task ``spec`` (a ``TaskSpec``)."""
        return cls(
            spec=spec.to_record(),
            key=key,
            label=spec.label(),
            category=category,
            attempts=attempts,
            detail=detail,
        )

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "QuarantineRecord":
        return cls(
            spec=dict(record["spec"]),
            key=str(record["key"]),
            label=str(record["label"]),
            category=str(record["category"]),
            attempts=int(record["attempts"]),
            detail=str(record["detail"]),
        )
