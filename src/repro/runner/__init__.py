"""The parallel experiment runner.

An experiment is a grid of pure ``(topology × workload × seed)`` tasks
(:mod:`repro.runner.task`); the executor (:mod:`repro.runner.executor`)
runs a grid inline (``workers=0``) or sharded over child processes, with
a content-addressed on-disk result cache (:mod:`repro.runner.cache`)
making interrupted sweeps resumable and repeat runs near-free, and run
telemetry (:mod:`repro.runner.telemetry`) recording a run manifest, the
run's journal and live progress.  Every gear records a settled task in
one journal line shape, written and read by :mod:`repro.runner.journal`.

Each task selects its simulation ``engine``: ``"scalar"`` (the
reference slot loop) or ``"vector"`` (the NumPy lockstep batch of
:mod:`repro.vector`, evaluating every seed of a grid cell in one call).
The engine is part of the task identity and hence the cache key.

Execution is fault tolerant: a :mod:`~repro.runner.policy.FaultPolicy`
sets per-attempt watchdog timeouts, bounded retries with deterministic
backoff, and quarantine of tasks that keep failing (a crashed or hung
pool child is pinned to the task it was running and replaced); an
interrupted sweep resumes from its result cache.  The chaos harness
(:mod:`repro.runner.chaos`) proves all of this on a real grid with
injected crashes, hangs, flaky tasks and corrupt cache entries.

Beyond one machine, the fleet backend (:mod:`repro.runner.fleet`)
drains a shared queue directory from workers on any number of hosts,
coordinated only by atomic lease files (:mod:`repro.runner.lease`) and
the shared result cache; ``run_fleet_chaos`` SIGKILLs an entire worker
host mid-sweep and verifies the survivors converge bit-for-bit to a
single-process control.

Without a shared filesystem, the TCP coordinator backend
(:mod:`repro.runner.coord` serving, :mod:`repro.runner.client` on the
worker side, :mod:`repro.runner.wire` for the frame codec) moves the
same claim → execute → commit protocol onto length-prefixed JSON
frames: one coordinator process holds the queue, persisted through an
append-only fsynced journal so a SIGKILL loses nothing, and workers
anywhere with a TCP route drain it; ``run_coord_chaos`` proves it
under frame-level network faults, a partitioned worker and a
coordinator kill-and-restart.

Both backends run one worker loop (:mod:`repro.runner.drain`): claim,
execute under the fault policy, commit or quarantine, with a heartbeat
thread keeping the lease alive until the attempt outlives its timeout.
The lease directory and the TCP client are its two transports, and
their status views and merged reports are built by the same shared
functions.

The CLI front ends are ``python -m repro run <EXP_ID> --workers N
[--engine vector]``, ``python -m repro fleet submit|worker|status``
and ``python -m repro coord serve|submit|worker|status``; runnable
experiments are registered in :mod:`repro.runner.defs`.
"""

from repro._exports import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "atomicio": ("atomic_write_json", "atomic_write_text"),
    "cache": ("ResultCache",),
    "chaos": (
        "ChaosReport",
        "ChaosVerdict",
        "run_chaos",
        "run_coord_chaos",
        "run_fleet_chaos",
    ),
    "client": (
        "CoordClient",
        "CoordinatorUnreachable",
        "CoordWorker",
        "Outbox",
    ),
    "coord": ("CoordServer", "coord_report", "coord_status", "submit_tasks"),
    "drain": ("WorkerReport",),
    "executor": (
        "RunReport",
        "TaskExecutionError",
        "TaskOutcome",
        "run_experiment",
        "run_tasks",
    ),
    "fleet": (
        "FleetQueue",
        "FleetStatus",
        "FleetWorker",
        "fleet_report",
        "fleet_status",
    ),
    "journal": ("Journal", "merge_task_records", "read_journal"),
    "lease": ("LeaseDir", "LeaseObserver", "LeaseRecord"),
    "policy": ("FaultPolicy", "QuarantineRecord"),
    "registry": (
        "ExperimentDef",
        "get_experiment",
        "register",
        "registered_ids",
        "run_registered_batch",
        "run_registered_task",
    ),
    "task": ("TaskSpec", "task_grid"),
    "telemetry": ("Progress", "RunTelemetry"),
})
