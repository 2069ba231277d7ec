"""The fleet backend: lease lifecycle, multi-worker draining, merging.

Lease tests exercise the protocol directly (claim races, heartbeat
freshness, expiry reclaim, steal-budget exhaustion, corrupt records);
worker tests run in-process :class:`FleetWorker` instances against one
queue directory for what only the lease directory does: dead-host
reclaim, the steal budget, moot-lease reaping.  The worker-loop
contracts both backends share (exactly-once draining, retry-then-
quarantine, cache replay, ``max_tasks``) live in ``test_drain.py``.
Everything runs with injected task functions; no subprocesses (the
chaos harness covers the real multi-process scenario).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    FaultPolicy,
    FleetQueue,
    FleetWorker,
    Journal,
    LeaseDir,
    LeaseObserver,
    fleet_report,
    fleet_status,
    merge_task_records,
    read_journal,
    run_tasks,
    task_grid,
)
from repro.runner.atomicio import atomic_write_json, atomic_write_text

VERSION = "vtest"


def _grid(n: int = 4, exp_id: str = "EF"):
    cases = [{"idx": i} for i in range(n)]
    return task_grid(exp_id, cases, 1, seed=11)


def _value(spec) -> dict:
    return {"value": spec.seed % 97, "idx": spec.params["idx"]}


def _record(spec) -> dict:
    return {
        "spec": spec.to_record(),
        "metrics": _value(spec),
        "wall_time": 0.0,
        "version": VERSION,
    }


# ----------------------------------------------------------------------
# Atomic writes (same-directory staging)
# ----------------------------------------------------------------------


class TestAtomicWrites:
    def test_json_roundtrip_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "deep" / "out.json"
        atomic_write_json(target, {"b": 2, "a": 1}, indent=2)
        assert json.loads(target.read_text("utf-8")) == {"a": 1, "b": 2}
        assert target.read_text("utf-8").endswith("\n")
        # The staging temp lived next to the target and is gone.
        assert sorted(p.name for p in target.parent.iterdir()) == ["out.json"]

    def test_text_overwrites_atomically(self, tmp_path):
        target = tmp_path / "note.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text("utf-8") == "two"
        assert list(tmp_path.iterdir()) == [target]


# ----------------------------------------------------------------------
# Lease lifecycle
# ----------------------------------------------------------------------


class TestLeases:
    def test_claim_is_exclusive_under_contention(self, tmp_path):
        leases = LeaseDir(tmp_path / "leases")
        wins = []
        barrier = threading.Barrier(8)

        def contender(name):
            barrier.wait()
            if leases.claim("k1", name):
                wins.append(name)

        threads = [
            threading.Thread(target=contender, args=(f"h{i}",))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        record = leases.read("k1")
        assert record is not None and record.host == wins[0]
        assert record.steal_count == 0

    def test_heartbeat_keeps_lease_from_going_stale(self, tmp_path):
        leases = LeaseDir(tmp_path / "leases")
        observer = LeaseObserver(ttl=0.2)
        assert leases.claim("k1", "alpha")
        for _ in range(4):
            time.sleep(0.08)
            assert leases.heartbeat("k1")
            assert not observer.stale("k1", leases.mtime_ns("k1"))
        # Heartbeats stop: one full TTL of unchanged mtime makes it stale.
        observer.stale("k1", leases.mtime_ns("k1"))
        time.sleep(0.25)
        assert observer.stale("k1", leases.mtime_ns("k1"))

    def test_expiry_reclaim_increments_steal_count(self, tmp_path):
        leases = LeaseDir(tmp_path / "leases")
        observer = LeaseObserver(ttl=0.15)
        assert leases.claim("k1", "deadhost")
        assert leases.reclaim("k1", "alpha", observer) is None  # first look
        time.sleep(0.2)
        stolen = leases.reclaim("k1", "alpha", observer)
        assert stolen is not None and stolen.host == "deadhost"
        assert stolen.steal_count == 0
        fresh = leases.read("k1")
        assert fresh.host == "alpha" and fresh.steal_count == 1

    def test_reclaim_is_immune_to_clock_skew(self, tmp_path):
        # The dead host stamped its lease with a clock 10 minutes wrong;
        # staleness is judged by mtime *movement* on the observer's own
        # monotonic clock, so the skew changes nothing.
        skewed = LeaseDir(tmp_path / "leases", clock_skew=600.0)
        assert skewed.claim("k1", "skewhost")
        local = LeaseDir(tmp_path / "leases")
        observer = LeaseObserver(ttl=0.15)
        assert local.reclaim("k1", "alpha", observer) is None
        time.sleep(0.2)
        stolen = local.reclaim("k1", "alpha", observer)
        assert stolen is not None and stolen.host == "skewhost"
        # And a *live* skewed host is never mistaken for dead while it
        # keeps heartbeating.
        assert skewed.claim("k2", "skewhost")
        fresh_obs = LeaseObserver(ttl=0.2)
        for _ in range(3):
            time.sleep(0.08)
            assert skewed.heartbeat("k2")
            assert not fresh_obs.stale("k2", local.mtime_ns("k2"))

    def test_corrupt_lease_reads_none_and_still_reclaims(self, tmp_path):
        leases = LeaseDir(tmp_path / "leases")
        observer = LeaseObserver(ttl=0.15)
        assert leases.claim("k1", "deadhost")
        leases.path("k1").write_bytes(b"\x00garbage{{{not json")
        assert leases.read("k1") is None
        assert leases.reclaim("k1", "alpha", observer) is None
        time.sleep(0.2)
        stolen = leases.reclaim("k1", "alpha", observer)
        assert stolen is not None  # ownership is the file, not its bytes
        fresh = leases.read("k1")
        assert fresh.host == "alpha" and fresh.steal_count == 1

    def test_release_and_tombstones_hidden_from_keys(self, tmp_path):
        leases = LeaseDir(tmp_path / "leases")
        assert leases.claim("k1", "alpha")
        assert leases.keys() == ["k1"]
        leases.release("k1")
        assert leases.keys() == []
        leases.release("k1")  # idempotent


# ----------------------------------------------------------------------
# Queue submit / status
# ----------------------------------------------------------------------


class TestQueue:
    def test_submit_status_roundtrip_and_idempotence(self, tmp_path):
        queue = FleetQueue(tmp_path / "q")
        specs = _grid(4)
        assert queue.submit(specs, version=VERSION) == 4
        assert queue.submit(specs, version=VERSION) == 0  # resubmit: no-op
        status = fleet_status(queue)
        assert status.total == 4 and status.pending == 4
        assert status.completed == 0 and not status.done
        assert status.exp_id == "EF" and status.version == VERSION

    def test_submit_rejects_empty_and_mixed_grids(self, tmp_path):
        queue = FleetQueue(tmp_path / "q")
        with pytest.raises(ConfigurationError):
            queue.submit([], version=VERSION)
        mixed = _grid(2, exp_id="EF") + _grid(2, exp_id="EG")
        with pytest.raises(ConfigurationError):
            queue.submit(mixed, version=VERSION)

    def test_status_rejects_a_non_queue_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            fleet_status(tmp_path)


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------


class TestWorkers:
    def test_fleet_report_matches_inline_run_bitwise(self, tmp_path):
        specs = _grid(6)
        inline = run_tasks(specs, _value, version=VERSION)

        queue = FleetQueue(tmp_path / "q")
        queue.submit(specs, version=VERSION)
        FleetWorker(queue, "solo", run_fn=_value).run()
        merged = fleet_report(queue)

        assert merged.summary_table() == inline.summary_table()
        inline_by_key = {o.key: dict(o.metrics) for o in inline.outcomes}
        merged_by_key = {o.key: dict(o.metrics) for o in merged.outcomes}
        assert merged_by_key == inline_by_key
        # Grid order is restored from the manifest, not journal order.
        assert [o.key for o in merged.outcomes] == [
            o.key for o in inline.outcomes
        ]

    def test_dead_host_lease_reclaimed_and_task_finished(self, tmp_path):
        queue = FleetQueue(tmp_path / "q")
        specs = _grid(3)
        queue.submit(specs, version=VERSION)
        victim_key = specs[0].key(VERSION)
        # A host claimed a task and died without journaling anything.
        queue.leases().claim(victim_key, "deadhost")

        worker = FleetWorker(
            queue, "alpha", run_fn=_value, ttl=0.15, poll_interval=0.03
        )
        stats = worker.run()
        assert stats.executed == 3 and stats.lease_reclaims == 1
        assert queue.pending_keys() == []
        assert queue.leases().keys() == []
        merged = fleet_report(queue)
        assert len(merged.outcomes) == 3
        assert merged.lease_reclaims == 1 and merged.host_failures == 1
        status = fleet_status(queue)
        assert status.lease_reclaims == 1 and status.host_failures == 1

    def test_hung_task_stops_beating_and_is_reclaimed(self, tmp_path):
        # A task past its policy timeout is hung: its worker stops
        # renewing the lease, so another host reclaims and finishes it
        # instead of waiting on a lease kept alive forever.
        queue = FleetQueue(tmp_path / "q")
        specs = _grid(1)
        queue.submit(specs, version=VERSION)
        running, release = threading.Event(), threading.Event()

        def hang(spec):
            running.set()
            release.wait(30.0)
            return _value(spec)

        hung = FleetWorker(
            queue, "hung", run_fn=hang, policy=FaultPolicy(timeout=0.2),
            ttl=0.5, poll_interval=0.03,
        )
        rescuer = FleetWorker(
            queue, "rescuer", run_fn=_value, ttl=0.5, poll_interval=0.03
        )
        hung_thread = threading.Thread(target=hung.run, daemon=True)
        rescue_thread = threading.Thread(target=rescuer.run, daemon=True)
        hung_thread.start()
        try:
            assert running.wait(5.0)
            rescue_thread.start()
            rescue_thread.join(timeout=3.0)
            assert not rescue_thread.is_alive(), (
                "the hung task's lease was still being renewed"
            )
        finally:
            release.set()
            hung_thread.join(timeout=10.0)
        assert rescuer.report.executed == 1
        assert rescuer.report.lease_reclaims == 1
        assert queue.pending_keys() == []
        merged = fleet_report(queue)
        assert [o.key for o in merged.outcomes] == [specs[0].key(VERSION)]

    def test_steal_budget_exhaustion_quarantines(self, tmp_path):
        queue = FleetQueue(tmp_path / "q")
        specs = _grid(1)
        queue.submit(specs, version=VERSION)
        key = specs[0].key(VERSION)
        # The lease has already been stolen max_retries times: hosts
        # keep dying on this task.  The next reclaim exhausts the shared
        # retry budget and quarantines instead of executing.
        policy = FaultPolicy(max_retries=2)
        queue.leases().claim(key, "deadhost", steal_count=2)

        worker = FleetWorker(
            queue, "alpha", run_fn=_value, policy=policy,
            ttl=0.15, poll_interval=0.03,
        )
        stats = worker.run()
        assert stats.executed == 0 and stats.quarantined == 1
        assert stats.lease_reclaims == 1
        assert queue.pending_keys() == [] and queue.leases().keys() == []
        # The host journal is the only record of the quarantine.
        assert not (queue.root / "quarantine").exists()
        merged = fleet_report(queue)
        assert not merged.outcomes
        (record,) = merged.quarantined
        assert record.key == key and record.category == "crash"
        status = fleet_status(queue)
        assert status.quarantined == 1 and status.done
        (payload,) = status.to_json()["quarantine_records"]
        assert payload["key"] == key and payload["category"] == "crash"

    def test_moot_lease_of_retired_task_is_reaped(self, tmp_path):
        # Killed after retiring the task file but before releasing the
        # lease: the work is committed, so the lease is cleared without
        # waiting out a TTL.
        queue = FleetQueue(tmp_path / "q")
        specs = _grid(2)
        queue.submit(specs, version=VERSION)
        key0 = specs[0].key(VERSION)
        queue.cache().put(key0, _record(specs[0]))
        journal = Journal(queue.journal_path("deadhost"))
        journal.append_outcome(
            key0, _record(specs[0]), host="deadhost", cached=False
        )
        journal.close()
        queue.remove_task(key0)
        queue.leases().claim(key0, "deadhost")

        stats = FleetWorker(
            queue, "alpha", run_fn=_value, ttl=30.0, poll_interval=0.03
        ).run()
        # TTL is 30s but the worker finished instantly: moot leases are
        # reaped on sight, not reclaimed on expiry.
        assert stats.wall_time < 5.0
        assert queue.leases().keys() == []
        assert len(fleet_report(queue).outcomes) == 2

    def test_worker_rejects_nonpositive_ttl(self, tmp_path):
        queue = FleetQueue(tmp_path / "q")
        queue.submit(_grid(1), version=VERSION)
        with pytest.raises(ConfigurationError):
            FleetWorker(queue, "alpha", ttl=0.0)


# ----------------------------------------------------------------------
# Multi-writer journal hardening
# ----------------------------------------------------------------------


class TestJournalMerging:
    def test_merge_task_records_last_write_wins(self):
        records = [
            {"key": "a", "metrics": {"v": 1}},
            {"key": "b", "metrics": {"v": 2}},
            {"key": "a", "metrics": {"v": 3}},
            {"sequence": 9},  # keyless records pass through verbatim
        ]
        merged, duplicates = merge_task_records(records)
        assert duplicates == 1
        by_key = {r["key"]: r for r in merged if "key" in r}
        assert by_key["a"]["metrics"] == {"v": 3}
        assert any("sequence" in r for r in merged)

    def test_interleaved_corrupt_interior_line_tolerated_nonstrict(
        self, tmp_path
    ):
        path = tmp_path / "merged.jsonl"
        path.write_text(
            '{"key": "a"}\n{"key": "b", "torn...\n{"key": "c"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError):
            read_journal(path, strict=True)
        records = read_journal(path, strict=False)
        assert [r["key"] for r in records] == ["a", "c"]
