"""Fault tolerance of the executor: crashes, hangs, retries, resumption.

Every scenario here injects a *deterministic* failure into a small task
grid and asserts the executor's contract: transient failures retry and
succeed, persistent failures are quarantined (not fatal) and itemized,
crashed workers are rebuilt and bisected down to the poison task, hangs
are killed by the watchdog, interrupted sweeps resume from their
checkpoint, and corrupt cache entries are detected, preserved for
post-mortem and recomputed.

The task functions are top-level so they pickle to pool workers; their
failure behavior is keyed off case parameters and marker files in a
scratch directory (shipped through the case, which keeps the task spec
pure and the failures first-attempt-only where needed).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    FaultPolicy,
    QuarantineRecord,
    ResultCache,
    SweepCheckpoint,
    TaskExecutionError,
    read_quarantine,
    read_telemetry,
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
        with pytest.raises(ConfigurationError):
            FaultPolicy(rebuild_limit=0)

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
        records = read_quarantine(run_dir)
        assert len(records) == 1
        assert records[0]["category"] == "error"
        assert records[0]["label"] == report.quarantined[0].label
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["quarantined"] == 1
        assert manifest["failures"]["quarantined"] == 1
        assert manifest["status"] == "finished"


# -- crashes and hangs (process pool required) -------------------------


class TestCrashRecovery:
    def test_worker_crash_is_bisected_and_quarantined(self, tmp_path):
        tasks = _grid(tmp_path, n=6)
        policy = FaultPolicy(backoff_base=0.001, max_retries=1)
        report = run_tasks(
            tasks, crasher_metric, workers=2, chunk_size=3, policy=policy
        )
        assert len(report.outcomes) == len(tasks) - 1
        assert report.pool_rebuilds >= 1
        assert len(report.quarantined) == 1
        record = report.quarantined[0]
        assert record.category == "crash"
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

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", ExplodingPool
        )
        tasks = _grid(tmp_path)
        report = run_tasks(tasks, steady_metric, workers=2)
        assert report.fallback_inline
        assert len(report.outcomes) == len(tasks)
        clean = run_tasks(tasks, steady_metric)
        assert [o.metrics for o in report.outcomes] == [
            o.metrics for o in clean.outcomes
        ]


# -- checkpointing and interruption ------------------------------------


class TestCheckpoint:
    def test_interrupt_writes_checkpoint_and_telemetry(self, tmp_path):
        tasks = _grid(tmp_path / "scratch")
        run_dir = tmp_path / "run"
        ckpt = tmp_path / "sweep.ckpt"
        with pytest.raises(KeyboardInterrupt):
            run_tasks(
                tasks,
                interrupting_metric,
                telemetry=run_dir,
                checkpoint=ckpt,
            )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"
        assert manifest["executed"] == 2
        completed, quarantined = SweepCheckpoint(ckpt).load()
        assert len(completed) == 2
        assert not quarantined

    def test_resume_skips_completed_tasks(self, tmp_path):
        tasks = _grid(tmp_path / "scratch")
        ckpt = tmp_path / "sweep.ckpt"
        with pytest.raises(KeyboardInterrupt):
            run_tasks(tasks, interrupting_metric, checkpoint=ckpt)
        report = run_tasks(tasks, steady_metric, checkpoint=ckpt)
        assert report.resumed == 2
        assert report.executed == 2
        assert len(report.outcomes) == len(tasks)
        sources = [o.source for o in report.outcomes]
        assert sources == ["checkpoint", "checkpoint", "fresh", "fresh"]
        clean = run_tasks(tasks, steady_metric)
        assert [o.metrics for o in report.outcomes] == [
            o.metrics for o in clean.outcomes
        ]

    def test_checkpointed_quarantine_is_not_rerun(self, tmp_path):
        tasks = _grid(tmp_path / "scratch")
        ckpt = tmp_path / "sweep.ckpt"
        policy = FaultPolicy(backoff_base=0.001, max_retries=0)
        first = run_tasks(
            tasks, poison_metric, checkpoint=ckpt, policy=policy
        )
        assert len(first.quarantined) == 1
        calls = tmp_path / "calls"
        calls.mkdir()

        second = run_tasks(tasks, steady_metric, checkpoint=ckpt)
        assert second.executed == 0
        assert second.resumed == len(tasks) - 1
        assert len(second.quarantined) == 1
        assert second.quarantined[0].label == first.quarantined[0].label

    def test_torn_final_checkpoint_line_is_tolerated(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt"
        ckpt = SweepCheckpoint(ckpt_path)
        ckpt.append_outcome("k1", {"metrics": {"v": 1}})
        ckpt.append_outcome("k2", {"metrics": {"v": 2}})
        ckpt.close()
        with ckpt_path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "outcome", "key": "k3", "rec')
        completed, _ = SweepCheckpoint(ckpt_path).load()
        assert sorted(completed) == ["k1", "k2"]

    def test_corrupt_interior_checkpoint_line_raises(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt"
        ckpt_path.write_text(
            '{"kind": "outcome", "key": "k1", "record": {}}\n'
            "garbage here\n"
            '{"kind": "outcome", "key": "k2", "record": {}}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            SweepCheckpoint(ckpt_path).load()


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
        telemetry.record_task({"exp_id": "EF"}, {"v": 1}, 0.1, False, "k1")
        telemetry.record_task({"exp_id": "EF"}, {"v": 2}, 0.1, False, "k2")
        telemetry.finish(executed=2, cache_hits=0)
        with (tmp_path / "telemetry.jsonl").open("a") as handle:
            handle.write('{"sequence": 2, "spec"')
        records = read_telemetry(tmp_path)
        assert [r["metrics"]["v"] for r in records] == [1, 2]

    def test_corrupt_interior_telemetry_line_raises(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text('{"sequence": 0}\nnot json\n{"sequence": 1}\n')
        with pytest.raises(ValueError, match="telemetry.jsonl:2"):
            read_telemetry(tmp_path)

    def test_empty_quarantine_reads_as_empty(self, tmp_path):
        assert read_quarantine(tmp_path) == []


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
        assert (tmp_path / "chaos" / "chaos-run" / "quarantine.jsonl").exists()

    def test_chaos_rejects_inline_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_chaos(workers=0)
