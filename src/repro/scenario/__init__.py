"""Declarative scenarios: TOML/JSON specs compiled onto the runner.

A *scenario* is an experiment written as data instead of code: a small
spec file naming a topology, an arrival profile, a fault profile, a
protocol (or a grid of them), the engine, and the replication grid.
The compiler expands it into the exact same
:class:`~repro.runner.task.TaskSpec` grid the registered experiments
use, so scenario runs flow through the existing executor, fault policy,
content-addressed cache, run telemetry and fleet backend unchanged —
and a *registry-twin* scenario (``[registry] experiment = "E3"``)
compiles to literally the same tasks (and hence the same cache keys) as
``python -m repro run E3``.

Entry points
------------
* :func:`parse_scenario` — file → validated :class:`ScenarioSpec`
  (schema errors carry the offending key path).
* :func:`compile_scenario` — spec → :class:`CompiledScenario` (the task
  grid plus its ``scenario:<name>:<hash>`` experiment id).
* :func:`run_scenario` — compile + execute through the runner.
* :func:`discover_scenarios` — enumerate ``scenarios/`` spec files.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "compile": ("CompiledScenario", "compile_scenario", "run_scenario"),
    "discovery": ("discover_scenarios", "unknown_experiment_message"),
    "runtime": ("run_scenario_task", "scenario_experiment"),
    "schema": ("ValidationError",),
    "spec": ("ScenarioSpec", "parse_scenario"),
})
