"""The TCP coordinator: protocol ops, recovery, exactly-once, outbox.

Runs a real :class:`CoordServer` on a loopback socket (in a thread) and
drives it with real :class:`CoordClient`/:class:`CoordWorker` instances
— injected task functions, no subprocesses (the chaos harness covers
the multi-process scenario with network faults and SIGKILL).  The tests
state the backend's contracts directly: idempotent submit/claim/commit,
journal write-through recovery (including restored in-flight leases),
lease expiry folding into the quarantine budget, the stranded-outcome
outbox, and a server that survives raw garbage on its port.  The
worker-loop contracts both backends share (exactly-once draining,
retry-then-quarantine, cache replay, ``max_tasks``) live in
``test_drain.py``.
"""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    CoordClient,
    CoordWorker,
    FaultPolicy,
    Outbox,
    coord_report,
    coord_status,
    read_journal,
    submit_tasks,
    task_grid,
)
from repro.runner.client import parse_address
from repro.runner.coord import JOURNAL_NAME, format_coord_status
from repro.runner.wire import FrameDecoder, encode_frame

VERSION = "vtest"


def _grid(n: int = 4, exp_id: str = "EC"):
    return task_grid(exp_id, [{"idx": i} for i in range(n)], 1, seed=11)


def _value(spec) -> dict:
    return {"value": spec.seed % 97, "idx": spec.params["idx"]}


def _journal(root: Path, kind: str):
    return [
        e
        for e in read_journal(root / JOURNAL_NAME, strict=False)
        if e.get("kind") == kind
    ]


@pytest.fixture
def served(coord_server, tmp_path):
    return coord_server(tmp_path / "coord")


@pytest.fixture
def client(served):
    handle = CoordClient(served.root, timeout=2.0, offline_budget=10.0)
    try:
        yield handle
    finally:
        handle.close()


# ----------------------------------------------------------------------
# Protocol ops
# ----------------------------------------------------------------------


def test_parse_address():
    assert parse_address("127.0.0.1:9100") == ("127.0.0.1", 9100)
    assert parse_address("host.example:80") == ("host.example", 80)
    with pytest.raises(ConfigurationError):
        parse_address("no-port")
    with pytest.raises(ConfigurationError):
        parse_address("host:notanumber")


def test_ping_and_unknown_op(client):
    assert client.request({"op": "ping"})["ok"] is True
    bad = client.request({"op": "no_such_op"})
    assert bad["ok"] is False and "unknown op" in bad["error"]


def test_submit_is_idempotent(served, client):
    tasks = _grid(4)
    assert submit_tasks(client, tasks, version=VERSION) == 4
    assert submit_tasks(client, tasks, version=VERSION) == 0
    assert len(_journal(served.root, "task")) == 4


def test_submit_rejects_mixed_experiments(client):
    tasks = _grid(2, "EA") + _grid(2, "EB")
    with pytest.raises(ConfigurationError):
        submit_tasks(client, tasks, version=VERSION)


def test_claim_is_idempotent_while_held(served, client):
    submit_tasks(client, _grid(3), version=VERSION)
    first = client.request({"op": "claim", "host": "h1"})
    again = client.request({"op": "claim", "host": "h1"})
    # A resent claim (lost response) re-grants the SAME task, so a
    # flaky link cannot make one host hold two leases.
    assert first["task"]["key"] == again["task"]["key"]
    assert len(_journal(served.root, "lease")) == 1
    other = client.request({"op": "claim", "host": "h2"})
    assert other["task"]["key"] != first["task"]["key"]


def test_commit_is_deduplicated(served, client):
    submit_tasks(client, _grid(1), version=VERSION)
    grant = client.request({"op": "claim", "host": "h1"})
    key = grant["task"]["key"]
    record = {"spec": grant["task"]["spec"], "metrics": {"v": 1},
              "wall_time": 0.0, "version": VERSION}
    first = client.request(
        {"op": "commit", "host": "h1", "key": key, "record": record}
    )
    assert not first.get("duplicate")
    second = client.request(
        {"op": "commit", "host": "h1", "key": key, "record": record}
    )
    assert second["duplicate"] is True
    assert len(_journal(served.root, "outcome")) == 1


def test_release_returns_task_to_queue_without_expiry(served, client):
    submit_tasks(client, _grid(1), version=VERSION)
    key = client.request({"op": "claim", "host": "h1"})["task"]["key"]
    assert client.request(
        {"op": "release", "host": "h1", "key": key}
    )["released"] is True
    # Released is not expired: no failure is counted against the task.
    assert _journal(served.root, "lease_expired") == []
    regrant = client.request({"op": "claim", "host": "h2"})
    assert regrant["task"]["key"] == key
    assert regrant["steal_count"] == 0


def test_heartbeat_reports_lost_lease(served, client):
    submit_tasks(client, _grid(1), version=VERSION)
    key = client.request({"op": "claim", "host": "h1"})["task"]["key"]
    assert client.request(
        {"op": "heartbeat", "host": "h1", "key": key}
    )["held"] is True
    assert client.request(
        {"op": "heartbeat", "host": "h2", "key": key}
    )["held"] is False


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------


def test_journal_recovery_restores_done_and_leases(coord_server, tmp_path):
    root = tmp_path / "coord"
    box = coord_server(root)
    client = CoordClient(root, timeout=2.0, offline_budget=10.0)
    tasks = _grid(3)
    submit_tasks(client, tasks, version=VERSION)
    grant = client.request({"op": "claim", "host": "h1"})
    held = grant["task"]["key"]
    done_key = client.request({"op": "claim", "host": "h2"})["task"]["key"]
    client.request(
        {"op": "commit", "host": "h2", "key": done_key,
         "record": {"spec": {}, "metrics": {"v": 1}, "wall_time": 0.0,
                    "version": VERSION}}
    )
    client.close()
    box.stop()

    revived = coord_server(root)
    try:
        # The committed task stays done, the in-flight lease is restored
        # with a fresh TTL, the third task is still pending.
        assert revived.server.recovered_leases == 1
        assert set(revived.server.state.done) == {done_key}
        assert len(revived.server.state.tasks) == 2
        client = CoordClient(root, timeout=2.0, offline_budget=10.0)
        regrant = client.request({"op": "claim", "host": "h1"})
        assert regrant["task"]["key"] == held
        client.close()
    finally:
        revived.stop()


def test_lease_expiry_requeues_then_quarantines(coord_server, tmp_path):
    root = tmp_path / "coord"
    box = coord_server(root, ttl=0.25, policy=FaultPolicy(max_retries=1))
    client = CoordClient(root, timeout=2.0, offline_budget=10.0)
    try:
        submit_tasks(client, _grid(1), version=VERSION)
        key = client.request({"op": "claim", "host": "dead1"})["task"]["key"]
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not _journal(
            root, "lease_expired"
        ):
            time.sleep(0.05)
        # First expiry: the task goes back in the queue with steals=1.
        regrant = client.request({"op": "claim", "host": "dead2"})
        assert regrant["task"]["key"] == key
        assert regrant["steal_count"] == 1
        while time.monotonic() < deadline and not _journal(
            root, "quarantine"
        ):
            time.sleep(0.05)
        # Second expiry exceeds max_retries=1: quarantined as a crash.
        records = _journal(root, "quarantine")
        assert len(records) == 1
        assert records[0]["record"]["category"] == "crash"
        status = coord_status(root)
        assert status["quarantined"] == 1 and status["pending"] == 0
    finally:
        client.close()
        box.stop()


# ----------------------------------------------------------------------
# Outbox: graceful degradation and flush
# ----------------------------------------------------------------------


def test_outbox_spool_ack_pending(tmp_path):
    path = tmp_path / "outbox" / "w0.jsonl"
    box = Outbox(path, "w0")
    box.spool("k1", {"metrics": {"v": 1}})
    box.spool("k2", {"metrics": {"v": 2}})
    box.ack("k1")
    box.close()
    pending = Outbox.pending_in(path)
    assert set(pending) == {"k2"}
    assert pending["k2"]["metrics"] == {"v": 2}


def test_worker_exits_cleanly_when_coordinator_unreachable(tmp_path):
    dead = ("127.0.0.1", 1)  # nothing listens on port 1
    worker = CoordWorker(
        tmp_path, host="w0", address=dead, run_fn=_value,
        request_timeout=0.2, offline_budget=0.5,
        poll_interval=0.05, progress=False,
    )
    report = worker.run()  # must return, not raise or hang
    assert report.executed == 0


def test_stranded_outbox_is_flushed_by_next_worker(served, client):
    tasks = _grid(2)
    submit_tasks(client, tasks, version=VERSION)
    # A predecessor computed one outcome but died before the commit ack:
    # its spool file (different host name) holds the record.
    key = tasks[0].key(VERSION)
    stranded = Outbox(
        served.root / "outbox" / "deadhost-1-aa.jsonl", "deadhost-1-aa"
    )
    record = {"spec": tasks[0].to_record(), "metrics": _value(tasks[0]),
              "wall_time": 0.0, "version": VERSION}
    stranded.spool(key, record)
    stranded.close()

    worker = CoordWorker(
        served.root, host="w0", run_fn=_value,
        poll_interval=0.05, progress=False,
    )
    report = worker.run()
    # The flush committed the stranded key; the claim loop then replays
    # it from the server cache instead of executing it again.
    assert report.executed == 1
    merged = coord_report(served.root)
    assert len(merged.outcomes) == 2
    assert Outbox.pending_in(
        served.root / "outbox" / "deadhost-1-aa.jsonl"
    ) == {}


# ----------------------------------------------------------------------
# Robustness and status
# ----------------------------------------------------------------------


def test_server_survives_garbage_then_answers(served):
    host, port = served.address
    with socket.create_connection((host, port), timeout=2.0) as sock:
        sock.sendall(b"\x00\xffGET / HTTP/1.0\r\n\r\n" * 3)
        sock.sendall(encode_frame({"op": "ping", "rid": "r1"}))
        sock.settimeout(2.0)
        decoder = FrameDecoder()
        frames = []
        while not frames:
            frames = decoder.feed(sock.recv(65536))
    assert frames[0]["rid"] == "r1" and frames[0]["ok"] is True


def test_server_survives_oversized_header(served):
    host, port = served.address
    from repro.runner.wire import MAGIC

    with socket.create_connection((host, port), timeout=2.0) as sock:
        sock.sendall(MAGIC + (2**31).to_bytes(4, "big"))
        sock.sendall(encode_frame({"op": "ping", "rid": "r2"}))
        sock.settimeout(2.0)
        decoder = FrameDecoder()
        frames = []
        while not frames:
            frames = decoder.feed(sock.recv(65536))
    assert frames[0]["rid"] == "r2"


def test_client_discards_mismatched_rids(served, client):
    # Duplicated responses from an earlier (resent) request must not be
    # taken as the answer to a later one: rid pairing filters them.
    # Exercised indirectly: two sequential requests over one connection
    # get the right answers even after the server echoed earlier rids.
    a = client.request({"op": "ping"})
    b = client.request({"op": "status"})
    assert a["ok"] and "total" in b


def test_status_offline_fallback_and_format(coord_server, tmp_path):
    root = tmp_path / "coord"
    box = coord_server(root)
    client = CoordClient(root, timeout=2.0, offline_budget=10.0)
    submit_tasks(client, _grid(2), version=VERSION)
    live = coord_status(root)
    assert live["reachable"] is True and live["pending"] == 2
    client.close()
    box.stop()
    offline = coord_status(root, timeout=0.5)
    assert offline["reachable"] is False
    assert offline["pending"] == 2 and offline["total"] == 2
    text = format_coord_status(offline)
    assert "offline (journal)" in text
    assert "2" in text


def test_worker_requires_outbox_or_root():
    with pytest.raises(ConfigurationError):
        CoordWorker(None, address=("127.0.0.1", 1), run_fn=_value)
