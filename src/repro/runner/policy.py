"""Fault policy for the executor: what happens when a task misbehaves.

The protocols under study are Las-Vegas — always correct, random running
time — but the *infrastructure* that measures them fails like any other
distributed system: worker processes crash, tasks hang, transient
resource errors come and go.  :class:`FaultPolicy` is the executor's
contract for those events:

* **timeouts** — a per-task wall-clock budget, enforced by a watchdog
  around worker futures (a chunk of ``c`` tasks gets ``c × timeout``);
* **retries** — bounded re-execution with exponential backoff and
  deterministic jitter for transient failures (raised exceptions and
  crashed workers alike);
* **quarantine** — a task that keeps failing is *recorded and skipped*
  (a :class:`QuarantineRecord` in the report and ``quarantine.jsonl``)
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


@dataclass(frozen=True)
class FaultPolicy:
    """How the executor treats failing, crashing, and hanging tasks.

    ``timeout``
        Per-task wall-clock budget in seconds, or None for no watchdog.
        Enforced preemptively only with ``workers >= 1`` (the watchdog
        kills and rebuilds the pool); the inline gear cannot interrupt a
        running task and only *counts* overruns.
    ``max_retries``
        How many times a failed task (raised exception or crashed
        worker) is re-executed before it is quarantined.  Timeouts are
        never retried — a hang is assumed persistent.
    ``backoff_base`` / ``backoff_cap`` / ``jitter``
        Retry ``attempt`` waits ``min(cap, base · 2^(attempt-1))``
        scaled by ``1 + jitter·u`` with ``u`` drawn deterministically
        from the task key.
    ``quarantine``
        When True (the default), a task that exhausts its retries is
        recorded and skipped; when False the first exhausted task
        aborts the run with :class:`~repro.runner.executor.TaskExecutionError`.
    ``max_quarantine_fraction``
        Abort the run once more than this fraction of the tasks pending
        execution has been quarantined — the failures are systemic, not
        sporadic.
    ``rebuild_limit``
        Consecutive pool breaks without any completed result before the
        executor gives up on process isolation and degrades to inline
        execution.
    ``seed``
        Root seed of the backoff-jitter stream.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.5
    quarantine: bool = True
    max_quarantine_fraction: float = 0.5
    rebuild_limit: int = 5
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
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff must be non-negative")
        if not 0.0 <= self.max_quarantine_fraction <= 1.0:
            raise ConfigurationError(
                "max_quarantine_fraction must be in [0, 1], got "
                f"{self.max_quarantine_fraction}"
            )
        if self.rebuild_limit < 1:
            raise ConfigurationError(
                f"rebuild_limit must be >= 1, got {self.rebuild_limit}"
            )

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of task ``key``."""
        base = min(
            self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1))
        )
        u = child_rng(self.seed, "backoff", key, attempt).random()
        return base * (1.0 + self.jitter * u)


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
