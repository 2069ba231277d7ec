"""The drain loop's contract, run on every transport.

Every test drives real workers — :class:`FleetWorker` over a lease
directory and :class:`CoordWorker` over a loopback TCP coordinator, the
one drain loop of :mod:`repro.runner.drain` with either transport —
with injected task functions, and asserts what both queue backends
promise: concurrent workers drain a queue exactly once, a failing task
is retried and then quarantined, a key already committed is replayed
instead of recomputed, and ``max_tasks`` stops a worker after it has
run that many tasks, cache replays not counted.  The last test runs one
failing grid on all four gears — inline and pool through ``run_tasks``,
fleet and coord through a worker — and asserts the same outcomes,
quarantine record, retry count and journal line shapes on each.
"""

from __future__ import annotations

import functools
import threading
import time
from pathlib import Path

import pytest

from repro.runner import (
    CoordClient,
    CoordWorker,
    FaultPolicy,
    FleetQueue,
    FleetWorker,
    Journal,
    coord_report,
    coord_status,
    fleet_report,
    fleet_status,
    read_journal,
    run_tasks,
    submit_tasks,
    task_grid,
)
from repro.runner import policy as policy_module
from repro.runner.cache import ResultCache
from repro.runner.coord import JOURNAL_NAME
from repro.runner.drain import DRAINED, DrainWorker

VERSION = "vtest"


def _grid(n: int):
    return task_grid("ED", [{"idx": i} for i in range(n)], 1, seed=11)


def _value(spec) -> dict:
    return {"value": spec.seed % 97, "idx": spec.params["idx"]}


def _record(spec) -> dict:
    return {
        "spec": spec.to_record(),
        "metrics": _value(spec),
        "wall_time": 0.0,
        "version": VERSION,
    }


class _Fleet:
    """A lease-directory queue and its workers."""

    name = "fleet"

    def __init__(self, tmp_path, coord_server):
        self.queue = FleetQueue(tmp_path / "q")
        self.ttl = 10.0

    def submit(self, tasks):
        self.queue.submit(tasks, version=VERSION)

    def worker(self, host, run_fn, **kwargs):
        return FleetWorker(
            self.queue, host, run_fn=run_fn, ttl=self.ttl,
            poll_interval=0.01, **kwargs,
        )

    def seed_cache(self, spec):
        """An earlier run committed ``spec``'s outcome to the cache."""
        self.queue.cache().put(spec.key(VERSION), _record(spec))

    def commit_then_crash(self, spec):
        """A host committed ``spec`` (cache, then journal) and died
        holding its lease, before retiring the task file."""
        key = spec.key(VERSION)
        self.seed_cache(spec)
        journal = Journal(self.queue.journal_path("deadhost"))
        journal.append_event("host_start", host="deadhost")
        journal.append_outcome(
            key, _record(spec), host="deadhost", cached=False
        )
        journal.close()
        self.queue.leases().claim(key, "deadhost")
        self.ttl = 0.15  # the dead host's lease must expire in the test

    def report(self):
        return fleet_report(self.queue)

    def status(self):
        return fleet_status(self.queue).to_json()

    def leases_left(self):
        return self.queue.leases().keys()

    def cached_outcome_keys(self):
        return [
            entry["key"]
            for entry in self.journal()
            if entry.get("kind") == "outcome" and entry.get("cached")
        ]

    def journal(self):
        return [
            entry
            for host in self.queue.hosts()
            for entry in read_journal(self.queue.journal_path(host))
        ]


class _Coord:
    """A loopback TCP coordinator and its workers."""

    name = "coord"

    def __init__(self, tmp_path, coord_server):
        self.root = coord_server(tmp_path / "coord").root

    def submit(self, tasks):
        client = CoordClient(self.root, timeout=2.0, offline_budget=10.0)
        try:
            submit_tasks(client, tasks, version=VERSION)
        finally:
            client.close()

    def worker(self, host, run_fn, **kwargs):
        return CoordWorker(
            self.root, host=host, run_fn=run_fn, poll_interval=0.01,
            **kwargs,
        )

    def seed_cache(self, spec):
        """An earlier run committed ``spec``'s outcome to the cache."""
        ResultCache(self.root / "results", fsync=True).put(
            spec.key(VERSION), _record(spec)
        )

    def commit_then_crash(self, spec):
        """The coordinator cached ``spec``'s committed outcome and died
        before journaling it (a commit writes the cache first)."""
        self.seed_cache(spec)

    def report(self):
        return coord_report(self.root)

    def status(self):
        return coord_status(self.root)

    def leases_left(self):
        return list(self.status()["leases"])

    def cached_outcome_keys(self):
        return [
            entry["key"]
            for entry in self.journal()
            if entry.get("kind") == "outcome" and entry.get("cached")
        ]

    def journal(self):
        return read_journal(self.root / JOURNAL_NAME)


@pytest.fixture(params=["fleet", "coord"])
def backend(request, tmp_path, coord_server):
    kind = _Fleet if request.param == "fleet" else _Coord
    return kind(tmp_path, coord_server)


def _run_all(workers):
    threads = [threading.Thread(target=w.run) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)


def test_two_workers_drain_exactly_once(backend):
    tasks = _grid(8)
    backend.submit(tasks)
    keys = [spec.key(VERSION) for spec in tasks]
    executions = []
    lock = threading.Lock()

    def run_fn(spec):
        with lock:
            executions.append(spec.key(VERSION))
        time.sleep(0.01)  # hold the lease long enough to contend
        return _value(spec)

    workers = [backend.worker(host, run_fn) for host in ("alpha", "beta")]
    _run_all(workers)

    # Exactly once: every task executed, none twice, queue empty.
    assert sorted(executions) == sorted(keys)
    assert sum(w.report.executed for w in workers) == 8
    assert sum(w.report.quarantined for w in workers) == 0
    assert backend.leases_left() == []
    status = backend.status()
    assert status["done"] and status["pending"] == 0
    assert status["completed"] == 8
    merged = backend.report()
    # Grid order is restored from the manifest, not journal order.
    assert [o.key for o in merged.outcomes] == keys
    assert merged.executed == 8 and merged.duplicates_merged == 0
    assert merged.hosts_seen == 2 and merged.host_failures == 0
    by_key = {spec.key(VERSION): spec for spec in tasks}
    for outcome in merged.outcomes:
        assert dict(outcome.metrics) == _value(by_key[outcome.key])


def test_failing_task_retries_then_quarantines(backend, monkeypatch):
    monkeypatch.setattr(policy_module, "BACKOFF_BASE_S", 0.0)
    backend.submit(_grid(2))
    attempts = []

    def run_fn(spec):
        if spec.params["idx"] == 0:
            attempts.append(spec.params["idx"])
            raise RuntimeError("permanently broken")
        return _value(spec)

    stats = backend.worker(
        "alpha", run_fn,
        policy=FaultPolicy(max_retries=1),
    ).run()
    assert len(attempts) == 2  # first try + one retry
    assert stats.executed == 1 and stats.quarantined == 1
    assert stats.retries == 1
    merged = backend.report()
    assert len(merged.outcomes) == 1
    assert len(merged.quarantined) == 1
    assert merged.quarantined[0].category == "error"
    status = backend.status()
    assert status["quarantined"] == 1 and status["pending"] == 0


def test_committed_key_replays_as_cache_hit(backend):
    tasks = _grid(4)
    backend.submit(tasks)
    key0 = tasks[0].key(VERSION)
    backend.commit_then_crash(tasks[0])
    executed = []

    def run_fn(spec):
        executed.append(spec.key(VERSION))
        return _value(spec)

    stats = backend.worker("alpha", run_fn).run()
    assert key0 not in executed  # replayed, not recomputed
    assert stats.cache_hits == 1 and stats.executed == 3
    assert backend.cached_outcome_keys() == [key0]
    merged = backend.report()
    assert len(merged.outcomes) == 4
    assert [o.key for o in merged.outcomes].count(key0) == 1
    assert backend.status()["done"]
    if backend.name == "fleet":
        # The dead host journaled the outcome before dying: the replay
        # folds into it — counted, not double-counted.
        assert merged.duplicates_merged == 1
        assert backend.status()["duplicates_merged"] == 1
    else:
        # The coordinator died before journaling: the replay is the
        # only journal record of the key.
        assert merged.duplicates_merged == 0


def test_max_tasks_stops_then_a_second_worker_finishes(backend):
    tasks = _grid(6)
    backend.submit(tasks)
    executions = []

    def run_fn(spec):
        executions.append(spec.key(VERSION))
        return _value(spec)

    first = backend.worker("alpha", run_fn, max_tasks=2).run()
    assert first.executed == 2
    assert backend.status()["pending"] == 4  # the rest is left pending
    assert backend.leases_left() == []

    second = backend.worker("beta", run_fn).run()
    assert second.executed == 4
    # Every task done exactly once across the two workers.
    assert sorted(executions) == sorted(s.key(VERSION) for s in tasks)
    status = backend.status()
    assert status["done"] and status["completed"] == 6
    assert len(backend.report().outcomes) == 6


def test_max_tasks_does_not_count_cache_replays(backend):
    tasks = _grid(3)
    backend.submit(tasks)
    for spec in tasks:
        backend.seed_cache(spec)

    def run_fn(spec):
        raise AssertionError(f"{spec.label()} is cached; it must not run")

    # Replays finish tasks without running them, so a one-task budget
    # is never spent: the worker drains the whole queue.
    stats = backend.worker("alpha", run_fn, max_tasks=1).run()
    assert stats.executed == 0 and stats.cache_hits == 3
    status = backend.status()
    assert status["done"] and status["pending"] == 0


def contract_metric(scratch: str, spec) -> dict:
    """idx 0 always raises; idx 1 fails its first attempt only."""
    idx = spec.params["idx"]
    if idx == 0:
        raise RuntimeError("permanently broken")
    marker = Path(scratch) / f"flaky-{idx}"
    if idx == 1 and not marker.exists():
        marker.touch()
        raise RuntimeError("transient failure")
    return _value(spec)


#: The journal line shapes every gear writes, by kind.
LINE_KEYS = {
    "outcome": {"kind", "key", "record", "host", "cached", "time_unix"},
    "quarantine": {"kind", "key", "record", "host", "time_unix"},
}
OUTCOME_RECORD_KEYS = {"spec", "metrics", "wall_time", "version"}


@pytest.mark.parametrize("gear", ["inline", "pool", "fleet", "coord"])
def test_every_gear_keeps_one_contract(
    gear, tmp_path, coord_server, monkeypatch
):
    monkeypatch.setattr(policy_module, "BACKOFF_BASE_S", 0.0)
    tasks = _grid(4)
    policy = FaultPolicy(max_retries=1)
    scratch = tmp_path / "markers"
    scratch.mkdir()
    run_fn = functools.partial(contract_metric, str(scratch))
    if gear in ("inline", "pool"):
        report = run_tasks(
            tasks, run_fn, workers=0 if gear == "inline" else 2,
            policy=policy, version=VERSION, telemetry=tmp_path / "run",
        )
        retries = report.retries
        journal = read_journal(tmp_path / "run" / "journal.jsonl")
    else:
        backend = (_Fleet if gear == "fleet" else _Coord)(
            tmp_path, coord_server
        )
        backend.submit(tasks)
        worker = backend.worker("alpha", run_fn, policy=policy)
        worker.run()
        report = backend.report()
        retries = worker.report.retries
        journal = backend.journal()
    assert {o.key: dict(o.metrics) for o in report.outcomes} == {
        spec.key(VERSION): _value(spec) for spec in tasks[1:]
    }
    [record] = report.quarantined
    assert (record.label, record.category, record.attempts) == (
        tasks[0].label(), "error", 2,
    )
    assert retries == 2
    settled = [entry for entry in journal if entry["kind"] in LINE_KEYS]
    assert sorted(entry["key"] for entry in settled) == sorted(
        spec.key(VERSION) for spec in tasks
    )
    for entry in settled:
        assert set(entry) == LINE_KEYS[entry["kind"]]
        if entry["kind"] == "outcome":
            assert set(entry["record"]) == OUTCOME_RECORD_KEYS
            assert entry["cached"] is False
        else:
            assert entry["record"]["category"] == "error"


class _OneTask:
    """A transport holding one task that records every lease beat."""

    def __init__(self, spec):
        self.unit = [(spec.key(VERSION), spec)]
        self.beats = []

    def start(self, report):
        return VERSION

    def claim(self):
        unit, self.unit = self.unit, DRAINED
        return unit

    def heartbeat(self, key, delay=0.0):
        self.beats.append(time.monotonic())

    def commit(self, key, record):
        pass

    def quarantine(self, key, record):
        pass

    def stop(self):
        pass


def test_heartbeat_stops_once_an_attempt_outlives_its_timeout(monkeypatch):
    spec = _grid(1)[0]
    transport = _OneTask(spec)
    starts = []

    def run_fn(spec):
        starts.append(time.monotonic())
        if len(starts) == 1:
            raise RuntimeError("the first attempt fails at once")
        time.sleep(0.7)  # the retry hangs past its 0.2 s budget
        return _value(spec)

    monkeypatch.setattr(policy_module, "BACKOFF_BASE_S", 0.4)
    monkeypatch.setattr(policy_module, "BACKOFF_JITTER", 0.0)
    policy = FaultPolicy(timeout=0.2, max_retries=1)
    stats = DrainWorker(
        transport, "alpha", policy=policy, heartbeat_interval=0.02,
        run_fn=run_fn,
    ).run()
    assert stats.executed == 1 and stats.overruns == 1
    first, retry = starts
    # The 0.4 s backoff sleep is not part of an attempt: the lease is
    # still renewed after the first attempt's budget would have run out.
    assert any(first + 0.25 < beat < retry for beat in transport.beats)
    # The retry is: past its budget, nothing renews the lease.
    assert any(retry < beat < retry + 0.2 for beat in transport.beats)
    assert not any(beat > retry + 0.3 for beat in transport.beats)
