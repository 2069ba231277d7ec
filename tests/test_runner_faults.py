"""Fault tolerance of the executor: crashes, hangs, retries, resumption.

Every scenario here injects a *deterministic* failure into a small task
grid and asserts the executor's contract: transient failures retry and
succeed, persistent failures are quarantined (not fatal) and itemized,
a crashed or hung pool child is pinned to exactly the task it was
running and replaced, interrupted sweeps resume from their result cache,
aborted runs still finalize their telemetry, and corrupt cache entries
are detected, preserved for post-mortem and recomputed.

The task functions are top-level so they pickle to pool workers; their
failure behavior is keyed off case parameters and marker files in a
scratch directory (shipped through the case, which keeps the task spec
pure and the failures first-attempt-only where needed).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.runner import (
    FaultPolicy,
    QuarantineRecord,
    ResultCache,
    TaskExecutionError,
    read_journal,
    run_tasks,
    task_grid,
)
from repro.runner.cache import payload_digest
from repro.runner.chaos import run_chaos
from repro.runner.telemetry import RunTelemetry


def _grid(scratch: Path, n: int = 4, exp_id: str = "EF"):
    cases = [{"scratch": str(scratch), "idx": i} for i in range(n)]
    return task_grid(exp_id, cases, 1, seed=11)


def _value(spec) -> dict:
    return {"value": spec.seed % 97, "idx": spec.params["idx"]}


def _journal(run_dir: Path, kind: str) -> list:
    """The ``kind`` lines of a run directory's journal."""
    return [
        entry
        for entry in read_journal(run_dir / "journal.jsonl")
        if entry["kind"] == kind
    ]


def _marker(spec, kind: str) -> Path:
    scratch = Path(spec.params["scratch"])
    return scratch / f"{kind}-{spec.params['idx']}"


# -- top-level task functions (picklable to pool workers) --------------


def steady_metric(spec):
    return _value(spec)


def flaky_metric(spec):
    """Fails the first attempt of every task, then succeeds."""
    marker = _marker(spec, "flaky")
    if not marker.exists():
        marker.touch()
        raise RuntimeError("injected transient failure")
    return _value(spec)


def poison_metric(spec):
    """Task idx=1 always raises; everything else succeeds."""
    if spec.params["idx"] == 1:
        raise ValueError("permanently broken task")
    return _value(spec)


def crasher_metric(spec):
    """Task idx=1 kills its worker process outright, every attempt."""
    if spec.params["idx"] == 1:
        os._exit(3)
    return _value(spec)


def hang_metric(spec):
    """Task idx=1 sleeps far past any watchdog budget."""
    if spec.params["idx"] == 1:
        time.sleep(60)
    return _value(spec)


def hang_or_poison_metric(spec):
    """Task idx=1 raises at once; every other task sleeps a long time."""
    if spec.params["idx"] == 1:
        raise ValueError("permanently broken task")
    time.sleep(60)
    return _value(spec)


def dead_on_arrival(*args):
    """A pool child entry point that dies before its first claim."""
    os._exit(1)


def interrupting_metric(spec):
    """Simulates Ctrl-C landing while the third task runs."""
    if spec.params["idx"] == 2:
        raise KeyboardInterrupt
    return _value(spec)


# -- policy ------------------------------------------------------------


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPolicy(timeout=0)
        with pytest.raises(ConfigurationError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            FaultPolicy(max_quarantine_fraction=1.5)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = FaultPolicy(backoff_base=0.1, backoff_cap=1.0, jitter=0.5)
        first = policy.backoff_delay("key", 1)
        assert first == policy.backoff_delay("key", 1)
        assert first != policy.backoff_delay("other", 1)
        for attempt in range(1, 8):
            delay = policy.backoff_delay("key", attempt)
            assert 0.0 < delay <= 1.0 * 1.5

    def test_backoff_grows_exponentially(self):
        policy = FaultPolicy(backoff_base=0.1, backoff_cap=100.0, jitter=0.0)
        assert policy.backoff_delay("k", 2) == 2 * policy.backoff_delay("k", 1)

    def test_quarantine_record_round_trip(self):
        record = QuarantineRecord(
            spec={"exp_id": "EF"},
            key="abc",
            label="EF#0",
            category="crash",
            attempts=3,
            detail="worker died",
        )
        assert QuarantineRecord.from_record(record.to_record()) == record


# -- retries and quarantine --------------------------------------------


class TestRetries:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_flaky_tasks_retry_then_succeed(self, tmp_path, workers):
        tasks = _grid(tmp_path)
        policy = FaultPolicy(backoff_base=0.001, seed=3)
        report = run_tasks(
            tasks, flaky_metric, workers=workers, policy=policy
        )
        assert len(report.outcomes) == len(tasks)
        assert report.retries >= len(tasks)
        assert not report.quarantined
        clean = run_tasks(tasks, steady_metric)
        assert [o.metrics for o in report.outcomes] == [
            o.metrics for o in clean.outcomes
        ]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_persistent_failure_is_quarantined(self, tmp_path, workers):
        tasks = _grid(tmp_path)
        policy = FaultPolicy(backoff_base=0.001, max_retries=1)
        report = run_tasks(
            tasks, poison_metric, workers=workers, policy=policy
        )
        assert len(report.outcomes) == len(tasks) - 1
        assert len(report.quarantined) == 1
        record = report.quarantined[0]
        assert record.category == "error"
        assert record.attempts == 2  # initial run + one retry
        assert "permanently broken" in record.detail
        assert {o.spec.params["idx"] for o in report.outcomes} == {0, 2, 3}

    def test_no_quarantine_aborts_with_label(self, tmp_path):
        tasks = _grid(tmp_path)
        policy = FaultPolicy(
            backoff_base=0.001, max_retries=0, quarantine=False
        )
        with pytest.raises(TaskExecutionError, match=r"idx=1"):
            run_tasks(tasks, poison_metric, policy=policy)

    def test_threshold_aborts_on_systemic_failure(self, tmp_path):
        tasks = _grid(tmp_path)

        policy = FaultPolicy(
            backoff_base=0.001, max_retries=0, max_quarantine_fraction=0.5
        )
        with pytest.raises(TaskExecutionError, match="quarantined"):
            run_tasks(
                tasks,
                lambda spec: (_ for _ in ()).throw(ValueError("boom")),
                policy=policy,
            )

    def test_quarantine_recorded_in_telemetry(self, tmp_path):
        tasks = _grid(tmp_path / "scratch")
        run_dir = tmp_path / "run"
        policy = FaultPolicy(backoff_base=0.001, max_retries=0)
        report = run_tasks(
            tasks, poison_metric, telemetry=run_dir, policy=policy
        )
        [line] = _journal(run_dir, "quarantine")
        assert line["key"] == report.quarantined[0].key
        assert line["record"]["category"] == "error"
        assert line["record"]["label"] == report.quarantined[0].label
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["quarantined"] == 1
        assert manifest["failures"]["quarantined"] == 1
        assert manifest["status"] == "finished"

    def test_abort_finalizes_telemetry(self, tmp_path):
        tasks = _grid(tmp_path / "scratch", n=3)
        run_dir = tmp_path / "run"
        policy = FaultPolicy(backoff_base=0.001, max_retries=0)
        with pytest.raises(TaskExecutionError, match="quarantined"):
            run_tasks(
                tasks,
                lambda spec: (_ for _ in ()).throw(ValueError("boom")),
                telemetry=run_dir,
                policy=policy,
            )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "aborted"
        assert manifest["failures"]["quarantined"] == 2
        assert manifest["executed"] == 0
        assert len(_journal(run_dir, "quarantine")) == 2


# -- crashes and hangs (process pool required) -------------------------


class TestCrashRecovery:
    def test_worker_crash_is_bisected_and_quarantined(self, tmp_path):
        tasks = _grid(tmp_path, n=6)
        policy = FaultPolicy(backoff_base=0.001, max_retries=1)
        report = run_tasks(
            tasks, crasher_metric, workers=2, chunk_size=3, policy=policy
        )
        assert len(report.outcomes) == len(tasks) - 1
        # Each death is pinned to idx 1 at once: one retry, two
        # replacement children, and nothing else charged.
        assert report.pool_rebuilds == 2
        assert report.retries == 1
        assert len(report.quarantined) == 1
        record = report.quarantined[0]
        assert record.category == "crash"
        assert record.attempts == 2
        assert "worker process died" in record.detail
        # Every innocent sibling of the crashing chunk still completed.
        assert {o.spec.params["idx"] for o in report.outcomes} == {
            0, 2, 3, 4, 5,
        }

    def test_hang_is_killed_and_quarantined_as_timeout(self, tmp_path):
        tasks = _grid(tmp_path, n=4)
        policy = FaultPolicy(timeout=1.0, backoff_base=0.001)
        started = time.perf_counter()
        report = run_tasks(
            tasks, hang_metric, workers=2, chunk_size=1, policy=policy
        )
        wall = time.perf_counter() - started
        assert wall < 30  # the 60s sleep never ran to completion
        assert report.timeouts >= 1
        assert len(report.quarantined) == 1
        assert report.quarantined[0].category == "timeout"
        assert {o.spec.params["idx"] for o in report.outcomes} == {0, 2, 3}

    def test_hang_inside_a_chunk_is_pinned_exactly(self, tmp_path):
        tasks = _grid(tmp_path, n=4)
        policy = FaultPolicy(timeout=1.0, backoff_base=0.001)
        started = time.perf_counter()
        report = run_tasks(
            tasks, hang_metric, workers=2, chunk_size=2, policy=policy
        )
        wall = time.perf_counter() - started
        assert report.timeouts == 1
        assert report.pool_rebuilds == 1
        assert [(q.spec["case"]["idx"], q.category)
                for q in report.quarantined] == [(1, "timeout")]
        assert {o.spec.params["idx"] for o in report.outcomes} == {0, 2, 3}
        assert wall < 3.0

    def test_backoff_sleep_is_not_charged_to_the_deadline(self, tmp_path):
        # Every task fails its first attempt, then sleeps a backoff three
        # times the timeout before it retries; the retry is fast.
        tasks = _grid(tmp_path, n=3)
        policy = FaultPolicy(
            timeout=0.5, backoff_base=1.5, jitter=0.0, seed=3
        )
        report = run_tasks(tasks, flaky_metric, workers=2, policy=policy)
        assert report.timeouts == 0
        assert not report.quarantined
        assert report.retries == len(tasks)
        assert len(report.outcomes) == len(tasks)

    def test_children_dying_before_claiming_degrade_to_inline(
        self, tmp_path, monkeypatch
    ):
        import repro.runner.executor as executor_module

        monkeypatch.setattr(executor_module, "_pool_child", dead_on_arrival)
        tasks = _grid(tmp_path)
        report = run_tasks(tasks, steady_metric, workers=2)
        assert report.fallback_inline
        assert report.pool_rebuilds == 0
        clean = run_tasks(tasks, steady_metric)
        assert [o.metrics for o in report.outcomes] == [
            o.metrics for o in clean.outcomes
        ]

    def test_aborted_pool_run_leaves_no_child(self, tmp_path):
        before = set(multiprocessing.active_children())
        tasks = _grid(tmp_path, n=6)
        policy = FaultPolicy(
            backoff_base=0.001, max_retries=0, quarantine=False
        )
        with pytest.raises(TaskExecutionError, match=r"idx=1"):
            run_tasks(
                tasks, hang_or_poison_metric, workers=2, chunk_size=1,
                policy=policy,
            )
        assert set(multiprocessing.active_children()) - before == set()

    def test_interrupted_pool_run_leaves_no_child(self, tmp_path):
        before = set(multiprocessing.active_children())
        tasks = _grid(tmp_path, n=4)
        ctrl_c = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT))
        ctrl_c.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_tasks(tasks, hang_metric, workers=2, chunk_size=1)
        finally:
            ctrl_c.cancel()
        assert set(multiprocessing.active_children()) - before == set()

    def test_timed_out_worker_does_not_outlive_run_tasks(self, tmp_path):
        # Quarantining the hung task is not enough: the watchdog must
        # terminate the worker running it, or the worker keeps a core
        # busy until the task ends by itself.
        before = set(multiprocessing.active_children())
        tasks = _grid(tmp_path, n=4)
        policy = FaultPolicy(timeout=1.0, backoff_base=0.001)
        report = run_tasks(
            tasks, hang_metric, workers=2, chunk_size=1, policy=policy
        )
        assert report.timeouts >= 1
        assert set(multiprocessing.active_children()) - before == set()

    def test_pool_construction_failure_degrades_to_inline(
        self, tmp_path, monkeypatch
    ):
        import repro.runner.executor as executor_module

        def exploding_spawn(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(executor_module, "_spawn_child", exploding_spawn)
        tasks = _grid(tmp_path)
        report = run_tasks(tasks, steady_metric, workers=2)
        assert report.fallback_inline
        assert len(report.outcomes) == len(tasks)
        clean = run_tasks(tasks, steady_metric)
        assert [o.metrics for o in report.outcomes] == [
            o.metrics for o in clean.outcomes
        ]


# -- interruption and resumption --------------------------------------


class TestCheckpoint:
    """An interrupted sweep resumes from its result cache, the one
    resume path: there is no separate checkpoint file."""

    def test_interrupt_writes_checkpoint_and_telemetry(self, tmp_path):
        tasks = _grid(tmp_path / "scratch")
        run_dir = tmp_path / "run"
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            run_tasks(
                tasks, interrupting_metric, telemetry=run_dir, cache=cache
            )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"
        assert manifest["executed"] == 2
        keys = [spec.key(repro.__version__) for spec in tasks]
        assert sorted(cache.keys()) == sorted(keys[:2])
        assert [e["key"] for e in _journal(run_dir, "outcome")] == keys[:2]

    def test_resume_skips_completed_tasks(self, tmp_path):
        tasks = _grid(tmp_path / "scratch")
        cache = tmp_path / "cache"
        with pytest.raises(KeyboardInterrupt):
            run_tasks(tasks, interrupting_metric, cache=cache)
        report = run_tasks(tasks, steady_metric, cache=cache)
        assert report.cache_hits == 2
        assert report.executed == 2
        assert len(report.outcomes) == len(tasks)
        assert [o.cached for o in report.outcomes] == [
            True, True, False, False,
        ]
        clean = run_tasks(tasks, steady_metric)
        assert [o.metrics for o in report.outcomes] == [
            o.metrics for o in clean.outcomes
        ]

    def test_checkpoint_keyword_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            run_tasks(
                _grid(tmp_path), steady_metric, checkpoint=tmp_path / "c"
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "E3", "--quick"],
            ["scenario", "scenarios/mixed_traffic.toml"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_checkpoint_flag_exits_2(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--checkpoint", "x", "--no-progress"])
        assert exit_info.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err


# -- cache integrity ---------------------------------------------------


class TestCacheIntegrity:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_corrupt_entry_is_preserved_and_recomputed(
        self, tmp_path, workers
    ):
        tasks = _grid(tmp_path / "scratch")
        cache = ResultCache(tmp_path / "cache")
        first = run_tasks(tasks, steady_metric, cache=cache)
        key = first.outcomes[0].key
        path = cache._path(key)
        path.write_text("{torn", encoding="utf-8")

        report = run_tasks(
            tasks, steady_metric, workers=workers, cache=cache
        )
        assert report.corrupt_cache_entries == 1
        assert report.executed == 1
        assert report.cache_hits == len(tasks) - 1
        assert len(list(cache.corrupt_entries())) == 1
        assert report.outcomes[0].metrics == first.outcomes[0].metrics

    def test_tampered_payload_fails_integrity_check(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"metrics": {"v": 1}, "wall_time": 0.5})
        path = cache._path("a" * 64)
        stored = json.loads(path.read_text())
        stored["metrics"]["v"] = 2  # tamper; sha256 now stale
        path.write_text(json.dumps(stored, sort_keys=True))
        assert cache.get("a" * 64) is None
        assert cache.corrupt == 1
        assert len(list(cache.corrupt_entries())) == 1

    def test_legacy_entry_without_digest_stays_readable(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache._path("b" * 64)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"metrics": {"v": 7}}))
        assert cache.get("b" * 64) == {"metrics": {"v": 7}}
        assert cache.corrupt == 0

    def test_round_trip_preserves_digest_validity(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = {"metrics": {"x": 0.1 + 0.2}, "wall_time": 1e-9}
        cache.put("c" * 64, record)
        assert cache.get("c" * 64) == record
        assert cache.corrupt == 0

    def test_corrupt_sidecar_not_listed_as_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("d" * 64, {"metrics": {}})
        path = cache._path("e" * 64)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{bad")
        assert cache.get("e" * 64) is None
        assert list(cache.keys()) == ["d" * 64]
        assert len(cache) == 1

    def test_payload_digest_is_canonical(self):
        assert payload_digest({"b": 1, "a": 2}) == payload_digest(
            {"a": 2, "b": 1}
        )


# -- telemetry hardening -----------------------------------------------


class TestTelemetryHardening:
    def test_torn_final_telemetry_line_is_tolerated(self, tmp_path):
        telemetry = RunTelemetry(tmp_path)
        telemetry.start(exp_id="EF", version="x", total_tasks=2, workers=0)
        telemetry.record_outcome("k1", {"metrics": {"v": 1}}, cached=False)
        telemetry.record_outcome("k2", {"metrics": {"v": 2}}, cached=False)
        telemetry.finish(executed=2, cache_hits=0)
        with (tmp_path / "journal.jsonl").open("a") as handle:
            handle.write('{"kind": "outcome", "key": "k3", "rec')
        records = _journal(tmp_path, "outcome")
        assert [r["record"]["metrics"]["v"] for r in records] == [1, 2]

    def test_corrupt_interior_telemetry_line_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            '{"kind": "outcome"}\nnot json\n{"kind": "outcome"}\n'
        )
        with pytest.raises(ValueError, match="journal.jsonl:2"):
            read_journal(path)

    def test_empty_quarantine_reads_as_empty(self, tmp_path):
        run_tasks(
            _grid(tmp_path / "scratch"), steady_metric, telemetry=tmp_path
        )
        assert len(_journal(tmp_path, "outcome")) == 4
        assert _journal(tmp_path, "quarantine") == []


# -- the chaos harness, miniaturized -----------------------------------


class TestChaosHarness:
    def test_chaos_scenario_passes_end_to_end(self, tmp_path):
        report = run_chaos(
            seed=5,
            workers=2,
            replications=3,
            timeout=1.5,
            base_dir=tmp_path / "chaos",
            keep=True,
            preseed_count=2,
            corrupt_count=1,
            hang_seconds=30.0,
        )
        failed = [v for v in report.verdicts if not v.passed]
        assert report.ok, f"chaos verdicts failed: {failed}"
        assert report.tasks == 6
        # The working directory survives for post-mortems when kept.
        assert (tmp_path / "chaos" / "inject" / "plan.json").exists()
        assert _journal(tmp_path / "chaos" / "chaos-run", "quarantine")

    def test_chaos_rejects_inline_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_chaos(workers=0)
