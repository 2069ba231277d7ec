"""The experiment-definition registry behind ``python -m repro run``.

A *runnable experiment* pairs a grid builder with a pure task function:

* ``make_tasks(seed, replications, quick=False)`` expands the
  experiment into its :class:`~repro.runner.task.TaskSpec` grid
  (``quick`` picks a miniature one);
* ``run_task(spec)`` executes one task and returns its metrics dict;
* ``run_batch(specs)``, when present, executes a whole list of
  same-case tasks in one call — the vector engine's entry point, which
  lets ``--engine vector`` evaluate every seed of a grid cell in a
  single NumPy lockstep batch.

Both are plain top-level functions, so a task can be shipped to a worker
process as ``(exp_id, spec)`` and resolved there by name — no closures
cross the process boundary.  The built-in definitions live in
:mod:`repro.runner.defs` and are loaded on first lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runner.task import TaskSpec

TaskFn = Callable[[TaskSpec], Mapping[str, Any]]
BatchFn = Callable[[List[TaskSpec]], List[Mapping[str, Any]]]
GridFn = Callable[..., List[TaskSpec]]


@dataclass(frozen=True)
class ExperimentDef:
    """One runnable experiment: its grid builder and task function."""

    exp_id: str
    title: str
    make_tasks: GridFn
    run_task: TaskFn
    #: Metric names, in display order, for summary tables.
    summary_metrics: Tuple[str, ...] = field(default_factory=tuple)
    #: Optional vector-engine entry point: evaluates a list of same-case
    #: tasks in one batched call, returning metrics in task order.
    run_batch: Optional[BatchFn] = None
    #: Per-task wall-clock budget in seconds, used as the executor's
    #: watchdog timeout when the caller does not pass one (None = no
    #: watchdog).  Las-Vegas protocols have random running time, so
    #: definitions should budget for the tail, not the mean.
    default_timeout: Optional[float] = None

    @property
    def supports_vector(self) -> bool:
        return self.run_batch is not None

    def tasks(
        self, seed: int, replications: int, quick: bool = False
    ) -> List[TaskSpec]:
        return self.make_tasks(seed, replications, quick=quick)


_REGISTRY: Dict[str, ExperimentDef] = {}
_BOOTSTRAPPED = False


def register(defn: ExperimentDef) -> ExperimentDef:
    """Add ``defn`` to the registry (last registration wins)."""
    _REGISTRY[defn.exp_id] = defn
    return defn


def _bootstrap() -> None:
    global _BOOTSTRAPPED
    if not _BOOTSTRAPPED:
        _BOOTSTRAPPED = True
        import repro.runner.defs  # noqa: F401  (registers on import)


def get_experiment(exp_id: str) -> ExperimentDef:
    """Look up a runnable experiment by id.

    Ids with a ``scenario:`` prefix resolve to the synthetic definition
    the scenario compiler emits, so worker processes (and the fleet
    backend) can execute scenario tasks by name exactly like registered
    experiments — the id itself carries enough identity (the grid hash)
    to dispatch.
    """
    _bootstrap()
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        if exp_id.startswith("scenario:"):
            from repro.scenario.runtime import scenario_experiment

            return scenario_experiment(exp_id)
        raise ConfigurationError(
            f"no runnable experiment {exp_id!r}; known: {registered_ids()}"
        ) from None


def registered_ids() -> List[str]:
    _bootstrap()
    return sorted(_REGISTRY)


def run_registered_task(exp_id: str, spec: TaskSpec) -> Mapping[str, Any]:
    """Execute one task of a registered experiment (worker entry point)."""
    return get_experiment(exp_id).run_task(spec)


def run_registered_batch(
    exp_id: str, specs: List[TaskSpec]
) -> List[Mapping[str, Any]]:
    """Execute a batch of tasks of one experiment (worker entry point).

    The batch must hold one case: one that mixes cases is refused.
    """
    defn = get_experiment(exp_id)
    if defn.run_batch is None:
        raise ConfigurationError(
            f"experiment {exp_id!r} has no batch (vector-engine) "
            "implementation"
        )
    if len({spec.case for spec in specs}) > 1:
        labels = sorted({spec.case_label() for spec in specs})
        raise ConfigurationError(
            f"a batch of {exp_id!r} must hold one case, got {labels}"
        )
    return defn.run_batch(specs)
