"""The runner's per-layer metrics, probed from the ``stack`` traced run.

The probe runs registered experiment E3 (quick grid: path-12 and
band-6x4 at k = 4) inline into a fresh cache and telemetry directory —
the cold pass, which executes and writes every task — then repeats the
identical call as the warm pass, which replays every task from the
cache; ``OPS`` times, each on fresh coins.  Tasks are a few milliseconds
of protocol work each, so hashing, pickling, cache and telemetry costs
are a visible share of the wall.  It then times the sweep's own records
through hashing, pickling and the cache, and the runner's fixed cost
per task in each gear, from a no-op task function: inline, pool, cache
hit, fleet (a lease-directory queue drained by one in-process worker)
and coord (a loopback TCP coordinator drained by one worker).

The sweep is not a workload with end-to-end metrics: its runs slowed
steadily with the file system's state, from 0.62 to 0.82 s per
rescaled operation over ten consecutive 30-second runs, so no bound
the benchmark may set would hold across two sets of runs.  Every
figure here is raw wall time.
"""

from __future__ import annotations

import pickle
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

from common import median, percentile

from repro.rng import derive_seed
from repro.runner import (
    CoordClient,
    CoordServer,
    CoordWorker,
    FleetQueue,
    FleetWorker,
    ResultCache,
    run_experiment,
    run_tasks,
    submit_tasks,
    task_grid,
)

EXPERIMENT = "E3"
REPLICATIONS = 100
#: Cold + warm sweep passes per probe.
OPS = 5
#: Pool workers of the no-op ``pool`` gear.
POOL_WORKERS = 2
#: No-op tasks timed per gear; the queue backends fsync every commit,
#: so they get fewer.
NOOP_TASKS = {"inline": 400, "pool": 400, "hit": 400, "fleet": 100, "coord": 100}


def runner_layer(seed: int, work: Path) -> Dict[str, float]:
    """Every ``runner.*`` metric; raises if a sweep check fails.

    Checks: the cold pass executes every task; the warm pass executes
    none, hits the cache for every task, and its ``summary_table()`` is
    byte-equal to the cold pass's.
    """
    passes = [
        _sweep(derive_seed(seed, "sweep", index), work / f"sweep-{index}")
        for index in range(OPS)
    ]
    failures = [line for one in passes for line in one["failures"]]
    if failures:
        raise RuntimeError(f"runner probe: {'; '.join(failures[:5])}")
    tasks = passes[0]["tasks"]
    task_walls = [w for one in passes for w in one["task_walls"]]
    layer = {
        "runner.tasks_per_s": tasks / median(p["cold_wall"] for p in passes),
        "runner.replay_tasks_per_s": tasks
        / median(p["warm_wall"] for p in passes),
        "runner.task_share": median(
            sum(p["task_walls"]) / p["cold_wall"] for p in passes
        ),
        "runner.task_p50_ms": percentile(task_walls, 50) * 1e3,
        "runner.task_p99_ms": percentile(task_walls, 99) * 1e3,
        "runner.task_samples": len(task_walls),
        "runner.cache_hit_frac": median(p["cache_hit_frac"] for p in passes),
    }
    layer.update(_record_costs(passes[0], work / "records"))
    layer.update(noop_costs(work / "gears"))
    shutil.rmtree(work, ignore_errors=True)
    return layer


def _run(seed: int, directory: Path, telemetry: str):
    return run_experiment(
        EXPERIMENT,
        seed=seed,
        replications=REPLICATIONS,
        workers=0,
        quick=True,
        cache=directory / "cache",
        telemetry=directory / telemetry,
    )


def _sweep(seed: int, directory: Path) -> Dict[str, Any]:
    """One cold pass and one warm pass, timed and checked."""
    started = time.perf_counter()
    cold = _run(seed, directory, "cold")
    cold_wall = time.perf_counter() - started
    started = time.perf_counter()
    warm = _run(seed, directory, "warm")
    warm_wall = time.perf_counter() - started
    total = len(cold.outcomes)
    failures = [f"cold: quarantined {r.key}" for r in cold.quarantined]
    if cold.executed + len(cold.quarantined) != total:
        failures.append(f"cold: executed {cold.executed} of {total}")
    if warm.executed:
        failures.append(f"warm: re-executed {warm.executed} tasks")
    if warm.cache_hits != total:
        failures.append(f"warm: {warm.cache_hits} of {total} cache hits")
    if warm.summary_table() != cold.summary_table():
        failures.append("warm: summary table differs from the cold pass")
    return {
        "tasks": total,
        "cold_wall": cold_wall,
        "warm_wall": warm_wall,
        "cache_hit_frac": warm.cache_hits / total,
        "task_walls": [o.wall_time for o in cold.outcomes if not o.cached],
        "failures": failures,
        "version": cold.version,
        "records": [
            (o.spec, {"spec": o.spec.to_record(), "metrics": dict(o.metrics),
                      "wall_time": o.wall_time, "version": cold.version})
            for o in cold.outcomes
        ],
    }


def _record_costs(sweep: Dict[str, Any], directory: Path) -> Dict[str, float]:
    """Per-record cost of the sweep's own hashing, pickling and cache I/O."""
    records = sweep["records"]
    version = sweep["version"]
    count = len(records)
    started = time.perf_counter()
    keys = [spec.key(version) for spec, _record in records]
    hashed = time.perf_counter()
    for _spec, record in records:
        pickle.dumps(record)
    pickled = time.perf_counter()
    cache = ResultCache(directory)
    for key, (_spec, record) in zip(keys, records):
        cache.put(key, record)
    put = time.perf_counter()
    missing = sum(cache.get(key) is None for key in keys)
    got = time.perf_counter()
    if missing:
        raise RuntimeError(f"{missing} cache records did not read back")
    return {
        "runner.key_us": (hashed - started) / count * 1e6,
        "runner.pickle_us": (pickled - hashed) / count * 1e6,
        "runner.cache_put_us": (put - pickled) / count * 1e6,
        "runner.cache_get_us": (got - put) / count * 1e6,
    }


def noop(spec) -> Dict[str, Any]:
    """The no-op task: the runner's fixed cost with no protocol work."""
    return {"value": spec.replicate}


def _noop_tasks(gear: str) -> List[Any]:
    return task_grid(
        f"NOOP-{gear}", [{"gear": gear}], NOOP_TASKS[gear], seed=0
    )


def noop_costs(directory: Path) -> Dict[str, float]:
    """Microseconds per no-op task in each execution gear."""
    costs = {}
    for gear, workers in (("inline", 0), ("pool", POOL_WORKERS)):
        tasks = _noop_tasks(gear)
        root = directory / gear
        started = time.perf_counter()
        report = run_tasks(tasks, noop, workers=workers,
                           cache=root / "cache", telemetry=root / "telemetry")
        costs[gear] = (time.perf_counter() - started) / len(tasks)
        _require(report.executed == len(tasks), f"{gear}: {report.executed}")
    tasks = _noop_tasks("inline")
    root = directory / "inline"
    started = time.perf_counter()
    report = run_tasks(tasks, noop, cache=root / "cache",
                       telemetry=root / "replay")
    costs["hit"] = (time.perf_counter() - started) / len(tasks)
    _require(report.cache_hits == len(tasks), f"hit: {report.cache_hits}")
    costs["fleet"] = _fleet_cost(directory / "fleet")
    costs["coord"] = _coord_cost(directory / "coord")
    shutil.rmtree(directory, ignore_errors=True)
    return {f"runner.noop_us.{gear}": s * 1e6 for gear, s in costs.items()}


def _fleet_cost(root: Path) -> float:
    tasks = _noop_tasks("fleet")
    started = time.perf_counter()
    queue = FleetQueue(root)
    queue.submit(tasks, version="perfbench")
    report = FleetWorker(queue, "w0", run_fn=noop, poll_interval=0.01).run()
    seconds = time.perf_counter() - started
    _require(report.executed == len(tasks), f"fleet: {report.executed}")
    return seconds / len(tasks)


def _coord_cost(root: Path) -> float:
    tasks = _noop_tasks("coord")
    server = CoordServer(root / "state", tick=0.05)
    server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = CoordClient(root / "state", timeout=5.0, offline_budget=10.0)
    try:
        started = time.perf_counter()
        submit_tasks(client, tasks, version="perfbench")
        report = CoordWorker(
            root / "state", host="w0", run_fn=noop, poll_interval=0.01,
            outbox_dir=root / "outbox",
        ).run()
        seconds = time.perf_counter() - started
    finally:
        client.request({"op": "stop"})
        client.close()
        thread.join(timeout=10.0)
        server.close()
    _require(not thread.is_alive(), "coord: server thread did not stop")
    _require(report.executed == len(tasks), f"coord: {report.executed}")
    return seconds / len(tasks)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise RuntimeError(f"no-op gear check failed: {message}")
