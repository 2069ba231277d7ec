"""The task model: an experiment as a grid of pure, hashable tasks.

A *task* is one cell of an experiment grid: ``(case parameters, replicate
index, root seed)``.  Tasks are pure by contract — a task's outcome is a
function of its spec alone, never of which worker ran it or in which
order — which is what makes the executor free to shard a grid across
processes and the cache free to replay old outcomes verbatim.

Seeds are assigned *per task* at grid-construction time with
:func:`repro.rng.derive_seed` (sha256 of the task's identity), so the same
grid yields the same seeds no matter how it is later chunked, sharded,
resumed or re-run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.rng import content_key, derive_seed

#: The engines a task may select.  ``scalar`` is the reference
#: slot-by-slot interpreter; ``vector`` is the NumPy lockstep batch
#: (:mod:`repro.vector`).
ENGINES: Tuple[str, ...] = ("scalar", "vector")


def validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


#: Parameter values a task case may carry (must survive a JSON round-trip
#: bit-for-bit, which is what the cache key depends on).
CaseValue = Any  # str | int | float | bool | None

CaseItems = Tuple[Tuple[str, CaseValue], ...]


def _canonical_case(case: Mapping[str, CaseValue]) -> CaseItems:
    """Sort and validate a case mapping into the frozen tuple form."""
    items = []
    for name in sorted(case):
        value = case[name]
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise ConfigurationError(
                f"case parameter {name!r} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )
        items.append((name, value))
    return tuple(items)


@dataclass(frozen=True)
class TaskSpec:
    """One pure unit of experiment work.

    ``exp_id``
        The experiment this task belongs to (e.g. ``"E3"``).
    ``case``
        The grid-cell parameters as a sorted ``(name, value)`` tuple.
    ``replicate``
        Replication index within the case (0-based).
    ``seed``
        The task's root seed, derived deterministically from the
        experiment seed and the task identity — never from its position
        in a shard.
    ``engine``
        Which simulation engine evaluates the task: ``"scalar"`` (the
        reference slot loop) or ``"vector"`` (the NumPy lockstep batch).
        Part of the task identity — and hence the cache key — because
        engines are distributionally, not bitwise, equivalent.

    Older records also carry the vector engine's retired knobs:
    ``backend`` (its array kernels, before 1.10.0), ``reception`` and
    ``mask`` (its reception kernel and loop, before 1.9.0).
    :meth:`from_record` ignores them.
    """

    exp_id: str
    case: CaseItems
    replicate: int
    seed: int
    engine: str = "scalar"

    def __post_init__(self):
        validate_engine(self.engine)

    @property
    def params(self) -> Dict[str, CaseValue]:
        return dict(self.case)

    def label(self) -> str:
        """Compact human-readable cell label (stable across runs)."""
        if not self.case:
            return f"{self.exp_id}#{self.replicate}"
        inner = ",".join(f"{k}={v}" for k, v in self.case)
        return f"{self.exp_id}[{inner}]#{self.replicate}"

    def case_label(self) -> str:
        """The grid-cell label shared by all replicates of this case."""
        if not self.case:
            return self.exp_id
        return ",".join(f"{k}={v}" for k, v in self.case)

    def to_record(self) -> Dict[str, Any]:
        return {
            "exp_id": self.exp_id,
            "case": dict(self.case),
            "replicate": self.replicate,
            "seed": self.seed,
            "engine": self.engine,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "TaskSpec":
        return cls(
            exp_id=record["exp_id"],
            case=_canonical_case(record["case"]),
            replicate=int(record["replicate"]),
            seed=int(record["seed"]),
            engine=str(record.get("engine", "scalar")),
        )

    def key(self, version: str) -> str:
        """Content address of this task under one package version.

        The key covers everything the outcome may legitimately depend on:
        experiment id, case parameters, replicate index, seed, engine,
        and the package version (so a new release never replays stale
        results, and the same spec run on a different engine never
        aliases).
        """
        return content_key({"spec": self.to_record(), "version": version})


def task_grid(
    exp_id: str,
    cases: Sequence[Mapping[str, CaseValue]],
    replications: int,
    seed: int,
) -> List[TaskSpec]:
    """Expand ``cases × replications`` into a flat, seeded task list.

    Each task's seed is ``derive_seed(seed, exp_id, case, replicate)`` —
    a pure function of the task's identity, so two runs of the same grid
    agree task by task even if one is sharded over eight processes and
    the other runs inline.
    """
    if replications < 1:
        raise ConfigurationError("need at least one replication")
    if not cases:
        raise ConfigurationError("task grid needs at least one case")
    tasks: List[TaskSpec] = []
    for case in cases:
        canonical = _canonical_case(case)
        case_key = json.dumps(
            dict(canonical), sort_keys=True, separators=(",", ":")
        )
        for replicate in range(replications):
            tasks.append(
                TaskSpec(
                    exp_id=exp_id,
                    case=canonical,
                    replicate=replicate,
                    seed=derive_seed(seed, exp_id, case_key, replicate),
                )
            )
    return tasks
