"""Shared helpers for the experiment benchmarks.

Each ``bench_*.py`` file reproduces one experiment from the DESIGN.md
index (E1–E13).  Running::

    pytest benchmarks/ --benchmark-only

executes every experiment, prints its table (the reproduced "table/figure"
recorded in EXPERIMENTS.md), asserts the paper's qualitative claims
(who wins, which bound holds), and reports wall-clock timings via
pytest-benchmark for a representative kernel of each experiment.

Benchmarks migrated onto the parallel runner (E2, E3, E16, E19, E20)
execute through :func:`run_experiment_for_bench`.  Environment knobs:

``REPRO_BENCH_WORKERS``
    Worker processes for migrated benches (default 0 = inline).
``REPRO_BENCH_CACHE``
    Result-cache directory; set it to make repeat bench runs near-free.
``REPRO_BENCH_RESULTS``
    Where the gated ``BENCH_*.json`` files of the engine, scale,
    scenario and service benches land (default ``benchmarks/results``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, List

from repro.rng import RngFactory

#: Experiment-wide root seed; every benchmark derives from it.
ROOT_SEED = 20260704


def bench_workers() -> int:
    return int(os.environ.get("REPRO_BENCH_WORKERS", "0"))


def bench_results_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_RESULTS")
    if override:
        return Path(override)
    return Path(__file__).parent / "results"


def run_experiment_for_bench(exp_id: str, replications: int, **options: Any):
    """Run a registered experiment the way benches do.

    One code path serves tests (workers=0 inline), benchmarks, and
    large-scale sweeps: this helper only fixes the root seed and reads
    the worker and cache knobs.
    """
    from repro.runner import run_experiment

    return run_experiment(
        exp_id,
        seed=ROOT_SEED,
        replications=replications,
        workers=bench_workers(),
        cache=os.environ.get("REPRO_BENCH_CACHE") or None,
        **options,
    )


def replication_seeds(name: str, count: int) -> List[int]:
    """Independent seeds for one experiment's replications."""
    factory = RngFactory(ROOT_SEED)
    sub = RngFactory(factory.named(name).randrange(2**63))
    return list(sub.replication_seeds(count))


def mean_over_seeds(name: str, count: int, fn: Callable[[int], float]) -> float:
    seeds = replication_seeds(name, count)
    return sum(fn(seed) for seed in seeds) / len(seeds)
