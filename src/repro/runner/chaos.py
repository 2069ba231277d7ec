"""Chaos harness: prove the executor's fault tolerance on a real sweep.

``run_chaos`` runs the E3 quick grid twice with the same seeds — once
clean (the control), once with faults injected — and checks that the
chaotic run converges to the control bit for bit:

* ~10% of the tasks **crash their worker process** on first attempt
  (``os._exit``), exercising crash attribution, child replacement and
  retry;
* one task **hangs** (sleeps far past the watchdog budget), exercising
  deadline expiry, child replacement and quarantine;
* one task raises a **transient exception** on first attempt,
  exercising in-band retry with backoff;
* two pre-seeded **cache entries are corrupted** (one torn file, one
  tampered payload with a stale integrity digest), exercising the
  cache's corrupt-entry detection and re-execution.

Verdicts (all must pass): the control run is clean; the hang — and only
the hang — is quarantined, as a timeout; both corrupt entries are
detected; every surviving metric is byte-identical per content key to
the control; the run recorded at least one pool rebuild (a replacement
child) and one retry; and a final clean replay over the warm chaos
cache executes exactly the hang task and replays everything else from
cache, again matching the control exactly.

Fault injection travels to worker processes via the ``REPRO_CHAOS_DIR``
environment variable (inherited at pool fork): it names a directory
holding ``plan.json`` (which task labels misbehave, and how) and the
marker files that make crash/flaky injections first-attempt-only.  The
task function itself stays pure — :func:`chaos_run_task` is the
registered E3 task wrapped with the injection preamble.

Fleet mode
----------
``run_fleet_chaos`` does the same for the multi-host fleet runner
(:mod:`repro.runner.fleet`): it submits the E3 quick grid to a shared
queue directory, launches several worker *subprocesses* (each its own
fleet host), then

* **SIGKILLs an entire worker host** mid-sweep, while it holds a lease —
  no cleanup, no goodbye, the way a machine loss looks to the others;
* **corrupts one in-flight lease file** with garbage bytes (lease
  ownership is the file's existence, not its content — reclaim must
  survive an unreadable record);
* runs one surviving host with a **skewed clock** (its lease stamps are
  45 s wrong), which must not matter because staleness is judged by
  mtime *movement* against the observer's own monotonic clock.

Verdicts: the survivors drain the queue completely (every task done
exactly once, the dead host's leases reclaimed within a TTL, none
lost, none double-counted), the merged fleet report is bit-for-bit
identical per content key to a single-process clean control, and a
final clean replay over the fleet's shared cache executes zero tasks.

Coordinator mode
----------------
``run_coord_chaos`` proves the TCP coordinator backend
(:mod:`repro.runner.coord` / :mod:`repro.runner.client`) under *network*
faults on top of process death.  Workers reach the coordinator only
through an in-process fault proxy that drops, duplicates, delays and
truncates whole wire frames (and injects garbage bytes between them) on
a deterministic schedule; one worker rides a second proxy that
blackholes it entirely for a window mid-run.  The coordinator itself is
SIGKILLed mid-lease and restarted, recovering from its journal.

Verdicts: the drain completes with every task *executed exactly once*
(counted from the journal's fresh-outcome lines — lease grants are
journaled before they are answered, so not even the coordinator kill
can double-execute), every fault type provably fired, the merged
report matches the clean control bit for bit, and a warm replay over
the coordinator's result cache executes zero tasks.

All three scenarios run in one frame: the clean single-process control
and its ``control_clean`` verdict first, the scenario's own faults and
verdicts next, the warm ``replay`` verdict last.  The fleet and coord
scenarios also share their worker-subprocess environment, drain wait
and ``results_match`` verdict.

CLI front end: ``python -m repro chaos [--quick] [--fleet] [--coord]``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.errors import ConfigurationError
from repro.rng import child_rng
from repro.runner.cache import ResultCache
from repro.runner.executor import RunReport, run_tasks
from repro.runner.policy import FaultPolicy
from repro.runner.registry import get_experiment, run_registered_task
from repro.runner.task import TaskSpec
from repro.runner.telemetry import RunTelemetry

#: Environment variable pointing workers at the fault-injection plan.
ENV_VAR = "REPRO_CHAOS_DIR"

#: The pool scenario's fault mix: cache entries pre-seeded from the
#: control and how many of them are corrupted, the share of the grid
#: whose worker is killed (at least one task), the flaky and hanging
#: tasks, and how long a hanging task sleeps (the watchdog kills it
#: first).
PRESEED_ENTRIES = 4
CORRUPT_ENTRIES = 2
CRASH_FRACTION = 0.10
FLAKY_TASKS = 1
HANG_TASKS = 1
HANG_SECONDS = 120.0

#: The fleet scenario's timing: the lease expiry (short, so reclamation
#: shows in a smoke run; 30 s in production), the per-task throttle that
#: keeps the kill window reliable, the skewed host's clock offset, the
#: workers' queue poll, and the drain deadline.
FLEET_TTL_S = 1.5
FLEET_THROTTLE_S = 0.15
FLEET_SKEW_S = 45.0
FLEET_POLL_S = 0.1
FLEET_DRAIN_TIMEOUT_S = 240.0


# ----------------------------------------------------------------------
# Fault injection (runs inside worker processes)
# ----------------------------------------------------------------------


def _first_attempt(chaos_dir: Path, kind: str, label: str) -> bool:
    """Atomically claim the first attempt of a one-shot injection."""
    marker_dir = chaos_dir / "markers"
    marker_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(f"{kind}:{label}".encode()).hexdigest()[:24]
    marker = marker_dir / f"{kind}-{digest}"
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        return False
    return True


def _inject(spec: TaskSpec, chaos_dir: Path) -> None:
    """Apply the planned fault for ``spec``, if any, before it runs."""
    try:
        plan = json.loads((chaos_dir / "plan.json").read_text("utf-8"))
    except (OSError, json.JSONDecodeError):
        return
    label = spec.label()
    if label in plan.get("hang", ()):
        # Sleep in slices, far past any sane watchdog budget; the
        # executor's deadline fires long before this drains.
        deadline = time.monotonic() + float(plan.get("hang_seconds", 120.0))
        while time.monotonic() < deadline:
            time.sleep(0.1)
        return
    if label in plan.get("crash", ()) and _first_attempt(
        chaos_dir, "crash", label
    ):
        # Die the way a segfault or OOM kill does: no exception, no
        # cleanup, the pool just loses the process.
        os._exit(17)
    if label in plan.get("flaky", ()) and _first_attempt(
        chaos_dir, "flaky", label
    ):
        raise RuntimeError(f"injected transient failure for {label}")


def chaos_run_task(spec: TaskSpec) -> Dict[str, Any]:
    """The registered task function, preceded by planned fault injection.

    Top-level and picklable, so it ships to pool workers like any other
    task function.  With ``REPRO_CHAOS_DIR`` unset this is exactly the
    registered run — the control and replay runs use the same entry
    point as the chaotic one.
    """
    chaos_dir = os.environ.get(ENV_VAR)
    if chaos_dir:
        _inject(spec, Path(chaos_dir))
    return dict(run_registered_task(spec.exp_id, spec))


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosVerdict:
    """One pass/fail check of the chaos run."""

    name: str
    passed: bool
    detail: str


@dataclass
class ChaosReport:
    """Everything the chaos harness measured, plus its verdicts."""

    seed: int
    workers: int
    tasks: int
    plan: Dict[str, Any]
    verdicts: List[ChaosVerdict] = field(default_factory=list)
    control_failures: Dict[str, Any] = field(default_factory=dict)
    chaos_failures: Dict[str, Any] = field(default_factory=dict)
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    control_wall: float = 0.0
    chaos_wall: float = 0.0

    @property
    def ok(self) -> bool:
        return all(verdict.passed for verdict in self.verdicts)

    def summary(self) -> str:
        if self.plan.get("mode") == "coord":
            faults = self.plan.get("faults", {})
            lines = [
                f"coord chaos: E3 quick grid, {self.tasks} tasks, "
                f"seed {self.seed}, {self.workers} workers over TCP",
                f"plan: coordinator SIGKILL + journal restart, partition "
                f"{self.plan.get('partition_host')} for "
                f"{self.plan.get('partition', 0):g}s, frame faults "
                f"(drop {faults.get('drop', 0)}, dup {faults.get('dup', 0)}, "
                f"delay {faults.get('delay', 0)}, "
                f"truncate {faults.get('truncate', 0)}, "
                f"garbage {faults.get('garbage', 0)}), "
                f"ttl {self.plan.get('ttl', 0):g}s",
            ]
        elif self.plan.get("mode") == "fleet":
            lines = [
                f"fleet chaos: E3 quick grid, {self.tasks} tasks, "
                f"seed {self.seed}, {self.workers} worker hosts",
                f"plan: SIGKILL {self.plan.get('victim')}, "
                f"skew {self.plan.get('skew_host')} by "
                f"{self.plan.get('skew', 0):g}s, corrupt lease "
                f"{str(self.plan.get('corrupt_lease'))[:12]}, "
                f"ttl {self.plan.get('ttl', 0):g}s",
            ]
        else:
            lines = [
                f"chaos: E3 quick grid, {self.tasks} tasks, "
                f"seed {self.seed}, {self.workers} workers",
                f"plan: {len(self.plan.get('crash', []))} crash, "
                f"{len(self.plan.get('hang', []))} hang, "
                f"{len(self.plan.get('flaky', []))} flaky, "
                f"{self.plan.get('corrupt_entries', 0)} corrupt cache "
                "entries",
            ]
        lines.append(
            f"wall: control {self.control_wall:.1f}s, "
            f"chaos {self.chaos_wall:.1f}s",
        )
        for verdict in self.verdicts:
            status = "PASS" if verdict.passed else "FAIL"
            lines.append(f"[{status}] {verdict.name}: {verdict.detail}")
        lines.append("chaos verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {**asdict(self), "ok": self.ok}


def _canonical(metrics: Dict[str, Any]) -> str:
    return json.dumps(metrics, sort_keys=True, separators=(",", ":"))


def _mismatches(control_by_key: Dict[str, str], outcomes) -> List[str]:
    """Keys of ``outcomes`` whose metrics differ from the control's."""
    return [
        o.key
        for o in outcomes
        if control_by_key.get(o.key) != _canonical(dict(o.metrics))
    ]


def run_chaos(
    *,
    workers: int,
    seed: int = 7,
    replications: Optional[int] = None,
    quick: bool = False,
    timeout: Optional[float] = None,
    base_dir: Optional[os.PathLike] = None,
    keep: bool = False,
    progress: bool = False,
) -> ChaosReport:
    """Run the chaos scenario end to end and return its verdicts.

    ``workers`` pool processes run both the control and the chaotic
    sweep.  ``quick`` shrinks the grid and the watchdog budget for CI
    smoke use.  ``base_dir`` pins the working directory (caches, run
    telemetry, the injection plan); by default a temporary directory is
    used and removed unless ``keep`` is set.  The fault mix is fixed
    (see :data:`PRESEED_ENTRIES`).
    """
    if workers < 1:
        raise ConfigurationError(
            "the chaos harness needs workers >= 1: crash injection "
            "kills the executing process"
        )
    if timeout is None:
        timeout = 3.0 if quick else 6.0
    return _run_frame(
        "pool",
        lambda run: _pool_faults(run, timeout=timeout),
        seed=seed,
        workers=workers,
        replications=replications,
        quick=quick,
        base_dir=base_dir,
        keep=keep,
        progress=progress,
        control_workers=workers,
    )


def _pool_faults(run: _ChaosRun, *, timeout: float) -> ResultCache:
    # -- 2. pre-seed the chaos cache, then corrupt part of it ----------
    base, keys, total = run.base, run.keys, run.total
    labels = [spec.label() for spec in run.tasks]
    preseed_count = min(PRESEED_ENTRIES, total)
    chaos_cache = ResultCache(base / "chaos-cache")
    ordered = sorted(range(total), key=lambda i: labels[i])
    preseed = ordered[:preseed_count]
    for index in preseed:
        record = run.control_cache.get(keys[index])
        if record is not None:
            chaos_cache.put(keys[index], record)
    for position, index in enumerate(preseed[:CORRUPT_ENTRIES]):
        path = chaos_cache._path(keys[index])
        if position % 2 == 0:
            # A torn write: the file stops mid-JSON.
            path.write_text("{\"spec\": {\"exp", encoding="utf-8")
        else:
            # Valid JSON, tampered payload, stale digest — only the
            # integrity check can catch this one.
            stored = json.loads(path.read_text("utf-8"))
            stored["wall_time"] = float(stored.get("wall_time", 0.0)) + 1.0
            path.write_text(
                json.dumps(stored, sort_keys=True), encoding="utf-8"
            )

    # -- 3. plan the fault mix over the non-preseeded tasks ------------
    eligible = [labels[i] for i in ordered[preseed_count:]]
    crash_count = max(1, round(CRASH_FRACTION * total))
    need = HANG_TASKS + crash_count + FLAKY_TASKS
    if len(eligible) < need:
        raise ConfigurationError(
            f"grid too small for the fault mix: {len(eligible)} eligible "
            f"tasks, {need} faults planned"
        )
    picks = list(eligible)
    child_rng(run.report.seed, "chaos-plan").shuffle(picks)
    hang = picks[:HANG_TASKS]
    crash = picks[HANG_TASKS:HANG_TASKS + crash_count]
    flaky = picks[HANG_TASKS + crash_count:need]
    plan = {
        "hang": hang,
        "hang_seconds": HANG_SECONDS,
        "crash": crash,
        "flaky": flaky,
    }
    inject_dir = base / "inject"
    inject_dir.mkdir(parents=True, exist_ok=True)
    (inject_dir / "plan.json").write_text(
        json.dumps(plan, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # -- 4. the chaotic run --------------------------------------------
    saved = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(inject_dir)
    try:
        chaotic = run_tasks(
            run.tasks,
            chaos_run_task,
            workers=run.report.workers,
            cache=chaos_cache,
            telemetry=RunTelemetry(base / "chaos-run"),
            progress=run.progress,
            policy=FaultPolicy(
                timeout=timeout, max_retries=2, seed=run.report.seed
            ),
        )
    finally:
        if saved is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = saved

    report = run.report
    report.plan.update(plan, corrupt_entries=CORRUPT_ENTRIES)
    report.chaos_failures = chaotic.failure_summary()
    report.chaos_wall = chaotic.wall_time
    report.quarantined = [q.to_record() for q in chaotic.quarantined]

    quarantined_labels = sorted(q.label for q in chaotic.quarantined)
    hang_ok = quarantined_labels == sorted(hang) and all(
        q.category == "timeout" for q in chaotic.quarantined
    )
    report.verdicts.append(
        ChaosVerdict(
            "hang_quarantined",
            hang_ok,
            f"quarantined {quarantined_labels} "
            f"(want {sorted(hang)} as timeout)",
        )
    )
    report.verdicts.append(
        ChaosVerdict(
            "corrupt_detected",
            chaotic.corrupt_cache_entries == CORRUPT_ENTRIES,
            f"{chaotic.corrupt_cache_entries} corrupt cache entries "
            f"detected (want {CORRUPT_ENTRIES})",
        )
    )
    expect_rebuild = bool(crash) or bool(hang)
    expect_retry = bool(flaky)
    recovery_ok = (
        (chaotic.pool_rebuilds >= 1 or not expect_rebuild)
        and (chaotic.retries >= 1 or not expect_retry)
    )
    report.verdicts.append(
        ChaosVerdict(
            "recovery",
            recovery_ok,
            f"{chaotic.pool_rebuilds} pool rebuilds, "
            f"{chaotic.retries} retries, {chaotic.timeouts} timeouts",
        )
    )

    run.rerun = {keys[i] for i in range(total) if labels[i] in hang}
    mismatches = _mismatches(run.control_by_key, chaotic.outcomes)
    expected_outcomes = total - len(run.rerun)
    report.verdicts.append(
        ChaosVerdict(
            "results_match",
            not mismatches and len(chaotic.outcomes) == expected_outcomes,
            f"{len(chaotic.outcomes)}/{expected_outcomes} surviving "
            f"outcomes, {len(mismatches)} metric mismatches vs control",
        )
    )

    return chaos_cache


# ----------------------------------------------------------------------
# The frame every chaos scenario shares
# ----------------------------------------------------------------------


def _worker_env() -> Dict[str, str]:
    """The environment of worker subprocesses: this checkout on
    ``PYTHONPATH`` and no fault injection — queue chaos breaks hosts and
    networks, not tasks."""
    import repro

    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src_root), env.get("PYTHONPATH", "")) if part
    )
    env.pop(ENV_VAR, None)
    return env


@dataclass
class _ChaosRun:
    """One chaos run: its grid, clean control, worker logs and report."""

    base: Path
    tasks: List[TaskSpec]
    keys: List[str]
    version: str
    progress: bool
    report: ChaosReport
    control_cache: ResultCache
    control_by_key: Dict[str, str] = field(default_factory=dict)
    #: Keys the final replay must execute again (the quarantined hang).
    rerun: Set[str] = field(default_factory=set)
    env: Dict[str, str] = field(default_factory=_worker_env)
    logs: Dict[str, Any] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.tasks)

    def spawn(self, args: List[str], log_name: str) -> subprocess.Popen:
        """Start ``python -m repro <args>``, logging to ``<log_name>.log``."""
        log = self.logs.get(log_name)
        if log is None:
            log = self.logs[log_name] = (
                self.base / f"{log_name}.log"
            ).open("w", encoding="utf-8")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=self.env,
            cwd=str(self.base),
            stdout=log,
            stderr=subprocess.STDOUT,
        )

    def record_merge(self, merged: RunReport, started: float) -> None:
        """Record the drained run's merged report and wall time."""
        self.report.chaos_wall = time.monotonic() - started
        self.report.chaos_failures = merged.failure_summary()
        self.report.quarantined = [q.to_record() for q in merged.quarantined]

    def results_match(self, merged: RunReport) -> ChaosVerdict:
        merged_keys = [o.key for o in merged.outcomes]
        mismatches = _mismatches(self.control_by_key, merged.outcomes)
        return ChaosVerdict(
            "results_match",
            not mismatches
            and len(merged_keys) == self.total
            and len(set(merged_keys)) == self.total,
            f"{len(merged_keys)}/{self.total} outcomes "
            f"({len(set(merged_keys))} distinct), "
            f"{len(mismatches)} metric mismatches vs control",
        )

    def replay(self, cache: ResultCache) -> ChaosVerdict:
        """Clean replay over the run's result cache: only ``rerun``
        executes, everything else is a cache hit matching the control."""
        replay = run_tasks(
            self.tasks,
            chaos_run_task,
            workers=0,
            cache=cache,
            telemetry=RunTelemetry(self.base / "replay-run"),
            progress=self.progress,
        )
        mismatches = _mismatches(self.control_by_key, replay.outcomes)
        hits = self.total - len(self.rerun)
        return ChaosVerdict(
            "replay",
            replay.executed == len(self.rerun)
            and replay.cache_hits == hits
            and len(replay.outcomes) == self.total
            and not mismatches
            and not replay.quarantined,
            f"executed {replay.executed} (want {len(self.rerun)}), "
            f"{replay.cache_hits} cache hits (want {hits}), "
            f"{len(mismatches)} mismatches vs control",
        )


def _wait_drained(
    procs: List[subprocess.Popen], timeout: float
) -> List[int]:
    """Exit codes of ``procs``, waited out within ``timeout`` s in all.

    A process still running at the deadline is killed and reported -9.
    """
    deadline = time.monotonic() + timeout
    codes: List[int] = []
    for proc in procs:
        try:
            codes.append(
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            codes.append(-9)
    return codes


def _kill_all(procs: List[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _outcome_count(journal: Path) -> int:
    """Outcome lines in a journal that may be torn or still growing."""
    try:
        return journal.read_text("utf-8").count('"kind": "outcome"')
    except OSError:
        return 0


def _run_frame(
    mode: str,
    scenario,
    *,
    seed: int,
    workers: int,
    replications: Optional[int],
    quick: bool,
    base_dir: Optional[os.PathLike],
    keep: bool,
    progress: bool,
    control_workers: int = 0,
) -> ChaosReport:
    """The frame every chaos scenario runs in.

    Runs the E3 quick grid once clean (the control, with
    ``control_workers`` pool workers, and its ``control_clean``
    verdict), then hands ``scenario`` a :class:`_ChaosRun` to inject
    its faults, run the grid through them and append its own verdicts.
    ``scenario`` returns the result cache the chaotic run filled, which
    the final ``replay`` verdict re-runs the grid against.
    """
    if replications is None:
        replications = 6 if quick else 10

    import repro

    version = repro.__version__
    tasks = get_experiment("E3").tasks(seed, replications, quick=True)
    # Absolute: worker subprocesses run with the base as their cwd.
    base = (
        Path(base_dir).resolve()
        if base_dir is not None
        else Path(tempfile.mkdtemp(prefix=f"repro-{mode}-chaos-"))
    )
    base.mkdir(parents=True, exist_ok=True)
    run = _ChaosRun(
        base=base,
        tasks=tasks,
        keys=[spec.key(version) for spec in tasks],
        version=version,
        progress=progress,
        report=ChaosReport(
            seed=seed, workers=workers, tasks=len(tasks), plan={}
        ),
        control_cache=ResultCache(base / "control-cache"),
    )
    try:
        control = run_tasks(
            tasks,
            chaos_run_task,
            workers=control_workers,
            cache=run.control_cache,
            telemetry=RunTelemetry(base / "control-run"),
            progress=progress,
        )
        run.control_by_key = {
            o.key: _canonical(dict(o.metrics)) for o in control.outcomes
        }
        run.report.control_failures = control.failure_summary()
        run.report.control_wall = control.wall_time
        run.report.verdicts.append(
            ChaosVerdict(
                "control_clean",
                control.executed == run.total
                and not control.quarantined
                and control.retries == 0
                and control.pool_rebuilds == 0,
                f"executed {control.executed}/{run.total}, "
                f"{len(control.quarantined)} quarantined, "
                f"{control.retries} retries, "
                f"{control.pool_rebuilds} pool rebuilds",
            )
        )
        try:
            cache = scenario(run)
        finally:
            for log in run.logs.values():
                log.close()
        run.report.verdicts.append(run.replay(cache))
        return run.report
    finally:
        if base_dir is None and not keep:
            shutil.rmtree(base, ignore_errors=True)


# ----------------------------------------------------------------------
# Fleet chaos: kill a whole worker host mid-sweep
# ----------------------------------------------------------------------


def _wait_stopped(pid: int, budget: float = 0.25) -> None:
    """Wait until a SIGSTOPped process is actually in state T."""
    deadline = time.monotonic() + budget
    stat = Path(f"/proc/{pid}/stat")
    while time.monotonic() < deadline:
        try:
            # Field 3 of /proc/<pid>/stat, after the parenthesized comm.
            state = stat.read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            return  # no procfs (or the process died): fall through
        if state in ("T", "t", "Z"):
            return
        time.sleep(0.005)


def _leases_held_by(queue, host: str) -> List[str]:
    leases = queue.leases()
    held = []
    for key in leases.keys():
        record = leases.read(key)
        if record is not None and record.host == host:
            held.append(key)
    return held


def run_fleet_chaos(
    *,
    workers: int,
    seed: int = 7,
    replications: Optional[int] = None,
    quick: bool = False,
    base_dir: Optional[os.PathLike] = None,
    keep: bool = False,
    progress: bool = False,
) -> ChaosReport:
    """Kill a whole fleet host mid-sweep; verify exact convergence.

    Launches ``workers`` fleet worker subprocesses against one shared
    queue directory, SIGKILLs the first (``host0``) while it holds a
    task lease, corrupts one of its in-flight lease files, and runs the
    last host with a wall clock skewed by :data:`FLEET_SKEW_S` seconds.
    The survivors must drain the queue to the *bit-identical* result
    table of a single-process clean control: every task completed
    exactly once, no duplicates in the merged report beyond those
    folded away and counted, every orphaned lease reclaimed.
    """
    if workers < 2:
        raise ConfigurationError(
            "fleet chaos needs >= 2 worker hosts: one is killed "
            "mid-sweep and the rest must finish the job"
        )
    return _run_frame(
        "fleet",
        _fleet_faults,
        seed=seed,
        workers=workers,
        replications=replications,
        quick=quick,
        base_dir=base_dir,
        keep=keep,
        progress=progress,
    )


def _fleet_faults(run: _ChaosRun) -> ResultCache:
    from repro.runner.fleet import FleetQueue, fleet_report, fleet_status

    # -- 2. submit the grid to a shared queue directory ----------------
    report = run.report
    queue = FleetQueue(run.base / "queue")
    queue.submit(run.tasks, version=run.version, options={"seed": report.seed})

    # -- 3. launch the worker hosts ------------------------------------
    hosts = [f"host{i}" for i in range(report.workers)]
    victim, skew_host = hosts[0], hosts[-1]
    report.plan.update(
        mode="fleet",
        hosts=hosts,
        victim=victim,
        skew_host=skew_host,
        skew=FLEET_SKEW_S,
        ttl=FLEET_TTL_S,
        throttle=FLEET_THROTTLE_S,
        corrupt_lease=None,
    )
    started = time.monotonic()
    procs: List[subprocess.Popen] = []
    for host in hosts:
        args = [
            "fleet", "worker", str(queue.root),
            "--host", host,
            "--ttl", f"{FLEET_TTL_S:g}",
            "--poll", f"{FLEET_POLL_S:g}",
            "--throttle", f"{FLEET_THROTTLE_S:g}",
        ]
        if host == skew_host:
            args += ["--skew", f"{FLEET_SKEW_S:g}"]
        procs.append(run.spawn(args, host))

    killed = False
    try:
        # -- 4. SIGKILL the victim while it holds a lease --------------
        # A naive "saw a lease, pull the trigger" races: if this process
        # is descheduled between sighting and ``os.kill`` (three worker
        # interpreters are busy importing NumPy), the kill can land after
        # the victim retired the task file but before it released the
        # lease, leaving a *moot* lease that is reaped, not reclaimed.
        # So freeze the victim with SIGSTOP first, inspect its state at
        # rest, and only SIGKILL when the lease is provably mid-task
        # (task file still pending).  Otherwise SIGCONT and retry.
        victim_proc = procs[0]
        kill_deadline = time.monotonic() + FLEET_DRAIN_TIMEOUT_S / 2
        while time.monotonic() < kill_deadline:
            if victim_proc.poll() is not None:
                break  # drained its share before we could pull the plug
            warmed = (
                _outcome_count(queue.journal_path(victim)) >= 1
                or time.monotonic() - started > 1.0
            )
            if not warmed:
                time.sleep(0.02)
                continue
            try:
                os.kill(victim_proc.pid, signal.SIGSTOP)
            except ProcessLookupError:
                break
            _wait_stopped(victim_proc.pid)
            held = {
                key
                for key in _leases_held_by(queue, victim)
                if queue.task_path(key).exists()
            }
            if held and victim_proc.poll() is None:
                os.kill(victim_proc.pid, signal.SIGKILL)
                killed = True
                break
            try:
                os.kill(victim_proc.pid, signal.SIGCONT)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        if not killed and victim_proc.poll() is None:
            os.kill(victim_proc.pid, signal.SIGKILL)
            killed = True
        victim_proc.wait()

        # -- 5. corrupt one in-flight lease ----------------------------
        # Prefer one of the dead host's orphans: its reclaim must also
        # survive an unreadable record (ownership is the file, not the
        # bytes inside it).
        leases = queue.leases()
        candidates = _leases_held_by(queue, victim) or list(leases.keys())
        if candidates:
            corrupted = candidates[0]
            leases.path(corrupted).write_bytes(b"\x00\xffgarbage{{{not json")
            report.plan["corrupt_lease"] = corrupted

        # -- 6. let the survivors drain the queue ----------------------
        survivor_rcs = _wait_drained(procs[1:], FLEET_DRAIN_TIMEOUT_S)
    finally:
        _kill_all(procs)

    # -- 7. verdicts over the merged state -----------------------------
    status = fleet_status(queue)
    merged = fleet_report(queue)
    run.record_merge(merged, started)
    leftover_leases = list(queue.leases().keys())
    merged_keys = [o.key for o in merged.outcomes]
    complete_ok = (
        status.pending == 0
        and not leftover_leases
        and not merged.quarantined
        and len(merged_keys) == run.total
        and set(merged_keys) == set(run.keys)
        and all(rc == 0 for rc in survivor_rcs)
    )
    report.verdicts.append(
        ChaosVerdict(
            "fleet_complete",
            complete_ok,
            f"{len(merged_keys)}/{run.total} tasks done "
            f"({len(set(merged_keys))} distinct), {status.pending} "
            f"pending, {len(leftover_leases)} leftover leases, "
            f"{len(merged.quarantined)} quarantined, survivor exit "
            f"codes {survivor_rcs}",
        )
    )
    report.verdicts.append(run.results_match(merged))
    recovery_ok = (
        killed
        and merged.lease_reclaims >= 1
        and merged.host_failures >= 1
        and merged.hosts_seen >= 2
    )
    report.verdicts.append(
        ChaosVerdict(
            "host_recovery",
            recovery_ok,
            f"victim killed: {killed}; {merged.lease_reclaims} lease "
            f"reclaims, {merged.host_failures} host failures, "
            f"{merged.hosts_seen} hosts journaled, "
            f"{merged.duplicates_merged} duplicates merged",
        )
    )
    return queue.cache()


# ----------------------------------------------------------------------
# Coordinator chaos: network faults + coordinator SIGKILL over TCP
# ----------------------------------------------------------------------


def _free_port() -> int:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _drain_frames(buf: bytearray):
    """Yield complete raw wire frames from ``buf`` (consumed in place).

    Endpoints emit aligned frames, so the buffer always starts at a
    frame boundary; if it ever does not (it cannot, from this repo's
    codec), the bytes pass through untouched rather than stalling.
    """
    from repro.runner.wire import HEADER_SIZE, MAGIC

    while True:
        if len(buf) < HEADER_SIZE:
            return
        if not buf.startswith(MAGIC):
            passthrough = bytes(buf)
            del buf[:]
            yield passthrough
            return
        length = int.from_bytes(buf[len(MAGIC):HEADER_SIZE], "big")
        end = HEADER_SIZE + length
        if len(buf) < end:
            return
        frame = bytes(buf[:end])
        del buf[:end]
        yield frame


class _FaultSchedule:
    """Deterministic per-frame fault decisions, shared across pumps.

    Frame ``i`` (a global counter over both directions and every
    connection) gets the fault at ``i mod period`` in the cycle table —
    so given enough traffic every fault type provably fires, and the
    verdict can demand it.
    """

    CYCLE = {3: "drop", 7: "dup", 10: "delay", 13: "truncate", 15: "garbage"}

    def __init__(self, period: int = 17) -> None:
        self.period = period
        self._lock = threading.Lock()
        self._index = 0
        self.counts: Dict[str, int] = {
            "forward": 0, "drop": 0, "dup": 0, "delay": 0,
            "truncate": 0, "garbage": 0,
        }

    def next_action(self) -> str:
        with self._lock:
            index = self._index
            self._index += 1
            action = self.CYCLE.get(index % self.period, "forward")
            self.counts[action] += 1
        return action


class _FaultProxy:
    """A TCP proxy that mangles wire frames between workers and coord.

    Thread-per-connection, two pump threads per connection.  With a
    ``schedule`` it drops/duplicates/delays/truncates whole frames and
    injects garbage between them; without one it forwards cleanly.
    ``partition(seconds)`` blackholes the proxy — existing connections
    are severed, new ones refused — until the window elapses, the way a
    switch failure looks to one side of it.
    """

    def __init__(
        self,
        upstream,
        *,
        schedule: Optional[_FaultSchedule] = None,
        delay: float = 0.25,
        seed: int = 0,
    ) -> None:
        self.upstream = upstream
        self.schedule = schedule
        self.delay = delay
        self.seed = seed
        self.partitions = 0
        self._blackhole_until = 0.0
        self._garbage_counter = 0
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._socks: set = set()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(32)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def partition(self, seconds: float) -> None:
        with self._lock:
            self._blackhole_until = time.monotonic() + seconds
            self.partitions += 1
            severed = list(self._socks)
        for sock in severed:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            severed = list(self._socks)
        for sock in severed:
            try:
                sock.close()
            except OSError:
                pass
        self._thread.join(timeout=2.0)

    def _garbage(self) -> bytes:
        self._garbage_counter += 1
        rng = child_rng(self.seed, "proxy-garbage", self._garbage_counter)
        return bytes(rng.getrandbits(8) for _ in range(12))

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            if (
                self._stop.is_set()
                or time.monotonic() < self._blackhole_until
            ):
                client.close()
                continue
            try:
                up = socket.create_connection(self.upstream, timeout=2.0)
            except OSError:
                client.close()  # coordinator down: look unreachable
                continue
            for sock in (client, up):
                sock.settimeout(0.5)
                with self._lock:
                    self._socks.add(sock)
            for src, dst in ((client, up), (up, client)):
                threading.Thread(
                    target=self._pump, args=(src, dst), daemon=True
                ).start()

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        buf = bytearray()
        try:
            while not self._stop.is_set():
                if time.monotonic() < self._blackhole_until:
                    break
                try:
                    data = src.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                buf.extend(data)
                out = bytearray()
                for raw in _drain_frames(buf):
                    action = (
                        self.schedule.next_action()
                        if self.schedule is not None
                        else "forward"
                    )
                    if action == "drop":
                        continue
                    if action == "dup":
                        out += raw + raw
                    elif action == "truncate":
                        out += raw[: max(1, (2 * len(raw)) // 3)]
                    elif action == "garbage":
                        out += self._garbage() + raw
                    elif action == "delay":
                        if out:
                            dst.sendall(bytes(out))
                            out = bytearray()
                        time.sleep(self.delay)
                        out += raw
                    else:
                        out += raw
                if out:
                    dst.sendall(bytes(out))
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                with self._lock:
                    self._socks.discard(sock)
                try:
                    sock.close()
                except OSError:
                    pass


def run_coord_chaos(
    *,
    seed: int = 7,
    workers: int = 3,
    replications: Optional[int] = None,
    quick: bool = False,
    base_dir: Optional[os.PathLike] = None,
    keep: bool = False,
    progress: bool = False,
    ttl: float = 8.0,
    throttle: float = 0.15,
    partition_seconds: float = 2.0,
    drain_timeout: float = 240.0,
) -> ChaosReport:
    """Torture the TCP coordinator backend; verify exact convergence.

    Starts a coordinator subprocess and ``workers`` worker subprocesses
    that reach it only through fault proxies: all but the last worker
    share a proxy that mangles frames (drop/duplicate/delay/truncate/
    garbage on a deterministic schedule); the last worker's proxy
    blackholes it for ``partition_seconds`` mid-run.  The coordinator is
    SIGKILLed while leases are in flight and restarted against its
    journal.  ``ttl`` stays well above the partition window and the
    restart gap so no lease expires for a live worker — which is what
    lets the harness demand *exactly one* execution per task, not
    merely at-least-one with dedup.
    """
    if workers < 2:
        raise ConfigurationError(
            "coord chaos needs >= 2 workers: one is partitioned and "
            "the rest must keep the queue moving"
        )
    return _run_frame(
        "coord",
        lambda run: _coord_faults(
            run, ttl=ttl, throttle=throttle,
            partition_seconds=partition_seconds,
            drain_timeout=drain_timeout,
        ),
        seed=seed,
        workers=workers,
        replications=replications,
        quick=quick,
        base_dir=base_dir,
        keep=keep,
        progress=progress,
    )


def _coord_faults(
    run: _ChaosRun,
    *,
    ttl: float,
    throttle: float,
    partition_seconds: float,
    drain_timeout: float,
) -> ResultCache:
    from repro.runner.client import CoordClient, CoordinatorUnreachable
    from repro.runner.coord import JOURNAL_NAME, coord_report, coord_status
    from repro.runner.coord import submit_tasks
    from repro.runner.journal import read_journal

    report = run.report
    state = run.base / "coord-state"
    coord_port = _free_port()
    serve = [
        "coord", "serve",
        "--dir", str(state),
        "--port", str(coord_port),
        "--ttl", f"{ttl:g}",
    ]
    hosts = [f"chost{i}" for i in range(report.workers)]
    partition_host = hosts[-1]
    schedule = _FaultSchedule()
    report.plan.update(
        mode="coord",
        hosts=hosts,
        partition_host=partition_host,
        partition=partition_seconds,
        ttl=ttl,
        throttle=throttle,
        coord_port=coord_port,
        faults={},
    )

    started = time.monotonic()
    coord_proc = run.spawn(serve, "coord")
    procs: List[subprocess.Popen] = []
    faulty = partitioned = None
    killed = restarted = False
    try:
        # -- 2. wait for the coordinator, submit the grid --------------
        admin = CoordClient(
            address=("127.0.0.1", coord_port),
            timeout=2.0,
            offline_budget=15.0,
        )
        admin.request({"op": "ping"})
        submit_tasks(
            admin, run.tasks, version=run.version,
            options={"seed": report.seed},
        )

        # -- 3. fault proxies between the workers and the port ---------
        faulty = _FaultProxy(
            ("127.0.0.1", coord_port), schedule=schedule, seed=report.seed
        )
        partitioned = _FaultProxy(("127.0.0.1", coord_port))

        # -- 4. the workers, reachable only through the proxies --------
        for host in hosts:
            proxy = partitioned if host == partition_host else faulty
            procs.append(
                run.spawn(
                    [
                        "coord", "worker",
                        "--addr", f"127.0.0.1:{proxy.port}",
                        "--outbox", str(run.base / "outbox"),
                        "--host", host,
                        "--poll", "0.1",
                        "--heartbeat", "0.5",
                        "--throttle", f"{throttle:g}",
                        "--request-timeout", "1.5",
                        "--offline-budget", "60",
                        "--no-progress",
                    ],
                    host,
                )
            )

        # -- 5. mid-run: partition one worker, SIGKILL the coordinator -
        warm_deadline = time.monotonic() + drain_timeout / 2
        while (
            time.monotonic() < warm_deadline
            and _outcome_count(state / JOURNAL_NAME) < 2
        ):
            time.sleep(0.05)
        partitioned.partition(partition_seconds)
        if coord_proc.poll() is None:
            # Leases are in flight (workers hold throttled tasks): this
            # is the mid-lease kill the journal must survive.
            coord_proc.send_signal(signal.SIGKILL)
            killed = True
        coord_proc.wait()
        time.sleep(0.5)
        coord_proc = run.spawn(serve, "coord")
        try:
            admin.request({"op": "ping"}, offline_budget=20.0)
            restarted = True
        except CoordinatorUnreachable:
            restarted = False

        # -- 6. wait for the drain -------------------------------------
        worker_rcs = _wait_drained(procs, drain_timeout)

        # -- 7. stop the coordinator cleanly ---------------------------
        try:
            admin.request({"op": "stop"}, offline_budget=5.0)
        except (CoordinatorUnreachable, OSError):
            pass
        admin.close()
        _wait_drained([coord_proc], 5.0)
    finally:
        _kill_all([coord_proc] + procs)
        for proxy in (faulty, partitioned):
            if proxy is not None:
                proxy.close()
    report.plan["faults"] = dict(schedule.counts)

    # -- 8. verdicts over the journal ----------------------------------
    status = coord_status(state)
    merged = coord_report(state)
    run.record_merge(merged, started)
    journal_entries = read_journal(state / JOURNAL_NAME, strict=False)
    starts = sum(
        1 for e in journal_entries if e.get("kind") == "coord_start"
    )
    complete_ok = (
        status["pending"] == 0
        and status["done"]
        and not merged.quarantined
        and killed
        and restarted
        and starts >= 2
        and all(rc == 0 for rc in worker_rcs)
    )
    report.verdicts.append(
        ChaosVerdict(
            "coord_complete",
            complete_ok,
            f"{status['completed']}/{run.total} done, {status['pending']} "
            f"pending, {len(merged.quarantined)} quarantined; "
            f"coordinator killed={killed} restarted={restarted} "
            f"({starts} journal starts); worker exit codes {worker_rcs}",
        )
    )

    fresh_counts: Dict[str, int] = {}
    for entry in journal_entries:
        if entry.get("kind") == "outcome" and not entry.get("cached"):
            fresh_counts[entry["key"]] = (
                fresh_counts.get(entry["key"], 0) + 1
            )
    multiples = {k: c for k, c in fresh_counts.items() if c != 1}
    exactly_once = (
        not multiples
        and len(fresh_counts) == run.total
        and set(fresh_counts) == set(run.keys)
    )
    report.verdicts.append(
        ChaosVerdict(
            "exactly_once",
            exactly_once,
            f"{len(fresh_counts)}/{run.total} tasks executed, "
            f"{len(multiples)} executed more than once "
            f"({sum(fresh_counts.values())} fresh outcomes journaled)",
        )
    )

    counts = schedule.counts
    faults_ok = (
        all(
            counts[kind] >= 1
            for kind in ("drop", "dup", "delay", "truncate", "garbage")
        )
        and partitioned.partitions >= 1
    )
    report.verdicts.append(
        ChaosVerdict(
            "faults_injected",
            faults_ok,
            f"frames: {counts['forward']} forwarded, "
            f"{counts['drop']} dropped, {counts['dup']} duplicated, "
            f"{counts['delay']} delayed, {counts['truncate']} truncated, "
            f"{counts['garbage']} garbage-prefixed; "
            f"{partitioned.partitions} partition window(s)",
        )
    )

    report.verdicts.append(run.results_match(merged))
    return ResultCache(state / "results")
