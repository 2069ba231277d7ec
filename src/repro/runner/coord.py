"""TCP coordinator: the fleet backend for clusters *without* a shared FS.

The fleet runner (:mod:`repro.runner.fleet`) coordinates through files —
which requires every host to mount the same directory.  This module is
the other half of the story: one small coordinator process owns the
queue in memory and speaks a length-prefixed JSON frame protocol
(:mod:`repro.runner.wire`) over a single TCP port, so workers need
nothing but a socket.

The coordinator holds the lease table, pending queue and quarantine
state in memory and *persists every state transition* through an
append-only journal (the same JSONL shape as
:class:`~repro.runner.checkpoint.SweepCheckpoint`, fsynced at each
append).  A SIGKILLed coordinator restarts, replays the journal, and
resumes with zero task loss: completed work stays completed, in-flight
leases are restored with a fresh TTL (their workers reconnect and keep
heartbeating or committing), pending tasks stay pending.

State directory layout:

.. code-block:: text

    state/
      coord.json            discovery file: bound host/port/pid
      coord-journal.jsonl   append-only journal (fsynced per append)
      results/              content-addressed ResultCache (fsync=True)

Journal line kinds (``SweepCheckpoint.load`` reads the first two and
ignores the rest, so the journal doubles as a checkpoint file):

``outcome`` / ``quarantine``
    Task results, exactly the fleet journal shape.
``manifest`` / ``task``
    The submitted grid — replayed so a restart knows what is pending.
``lease`` / ``lease_expired``
    Lease grants and expiries.  Grants are journaled *before* the claim
    response is sent, so a coordinator killed mid-grant restores the
    lease on restart instead of double-granting the task — that single
    ordering decision is what makes execution exactly-once under
    coordinator SIGKILL.
``coord_start`` / ``worker_hello``
    Lifecycle telemetry (restart count, host taxonomy).

Wire protocol: every request is one JSON frame with an ``op`` and a
caller-chosen ``rid``; every response echoes the ``rid``.  All ops are
idempotent — ``claim`` re-grants the task a host already holds,
``commit`` of an already-committed key replies ``duplicate`` without a
second journal line — so a client may blindly resend a request whose
response was lost to the network.  The server never trusts the stream:
frames are decoded through the resyncing :class:`~repro.runner.wire.
FrameDecoder` and a malformed request earns an error reply, not a
crash (``chaos --coord`` holds it to that).

CLI front end: ``python -m repro coord serve|submit|worker|status``.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runner.atomicio import atomic_write_json
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import SweepCheckpoint
from repro.runner.drain import (
    HostStatus,
    build_report,
    check_grid,
    fold_host_entry,
    render_status,
)
from repro.runner.executor import RunReport
from repro.runner.policy import FaultPolicy, QuarantineRecord
from repro.runner.task import TaskSpec
from repro.runner.telemetry import _read_jsonl
from repro.runner.wire import FrameDecoder, encode_frame

DISCOVERY_NAME = "coord.json"
JOURNAL_NAME = "coord-journal.jsonl"
RESULTS_DIR = "results"

#: Default lease TTL: a granted task whose worker neither heartbeats
#: nor commits for this long is returned to the pending queue.
DEFAULT_TTL = 30.0


def read_discovery(root: os.PathLike) -> Optional[Dict[str, Any]]:
    """The coordinator's advertised address, or None if never started."""
    try:
        payload = json.loads(
            (Path(root) / DISCOVERY_NAME).read_text("utf-8")
        )
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


# ----------------------------------------------------------------------
# Journal replay: one reducer shared by recovery and offline status
# ----------------------------------------------------------------------


class _JournalState:
    """The coordinator's durable state, folded from journal lines.

    The live server *writes through* this reducer (journal the entry,
    then ``apply`` it), so recovery is replaying the same function over
    the same lines — there is no second, subtly-different code path for
    "state after a crash".
    """

    def __init__(self) -> None:
        self.manifest: Optional[Dict[str, Any]] = None
        #: Pending tasks (including leased ones): key -> spec record.
        self.tasks: Dict[str, Dict[str, Any]] = {}
        #: Completed: key -> the full journal outcome entry.
        self.done: Dict[str, Dict[str, Any]] = {}
        self.quarantined: Dict[str, Dict[str, Any]] = {}
        #: In-flight grants: key -> (host, steal_count).
        self.leases: Dict[str, Tuple[str, int]] = {}
        #: Next grant's steal count per key (incremented on expiry).
        self.steals: Dict[str, int] = {}
        self.restarts = 0
        self.lease_expiries = 0
        self.hosts: Dict[str, HostStatus] = {}

    def apply(self, entry: Dict[str, Any]) -> None:
        kind = entry.get("kind")
        host = entry.get("host")
        if host:
            name = str(host)
            fold_host_entry(
                self.hosts.setdefault(name, HostStatus(host=name)), entry
            )
        if kind == "manifest":
            self.manifest = {
                k: v for k, v in entry.items() if k != "kind"
            }
        elif kind == "task":
            key = entry["key"]
            if key not in self.done and key not in self.quarantined:
                self.tasks[key] = entry["spec"]
        elif kind == "outcome":
            key = entry["key"]
            self.done[key] = entry
            self.tasks.pop(key, None)
            self.leases.pop(key, None)
        elif kind == "quarantine":
            key = entry["key"]
            self.quarantined[key] = entry["record"]
            self.tasks.pop(key, None)
            self.leases.pop(key, None)
        elif kind == "lease":
            self.leases[entry["key"]] = (
                str(entry.get("host", "?")),
                int(entry.get("steal_count", 0)),
            )
        elif kind == "lease_expired":
            key = entry["key"]
            self.leases.pop(key, None)
            self.steals[key] = int(entry.get("steal_count", 0))
            self.lease_expiries += 1
        elif kind == "lease_released":
            self.leases.pop(entry["key"], None)
        elif kind == "coord_start":
            self.restarts += 1

    @property
    def drained(self) -> bool:
        return self.manifest is not None and not self.tasks

    def status_payload(self, root: os.PathLike) -> Dict[str, Any]:
        manifest = self.manifest or {}
        return {
            "state_dir": str(root),
            "exp_id": str(manifest.get("exp_id", "?")),
            "version": str(manifest.get("version", "?")),
            "total": int(manifest.get("total", 0)),
            "pending": len(self.tasks),
            "in_flight": len(self.leases),
            "completed": len(self.done),
            "quarantined": len(self.quarantined),
            "done": self.drained,
            "restarts": self.restarts,
            "lease_expiries": self.lease_expiries,
            "leases": {
                key: owner for key, (owner, _) in self.leases.items()
            },
            "hosts": [
                self.hosts[name].to_record()
                for name in sorted(self.hosts)
            ],
            "quarantine_records": [
                self.quarantined[key] for key in sorted(self.quarantined)
            ],
        }


def _replay_journal(path: os.PathLike) -> _JournalState:
    state = _JournalState()
    journal = Path(path)
    if journal.exists():
        for entry in _read_jsonl(journal, strict=False):
            state.apply(entry)
    return state


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


@dataclass
class _Lease:
    host: str
    steal_count: int
    deadline: float  # this process's monotonic clock


@dataclass
class _Conn:
    sock: socket.socket
    peer: str
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    out: bytearray = field(default_factory=bytearray)
    closing: bool = False


class CoordServer:
    """The single-process TCP coordinator (see the module docstring).

    Single-threaded ``selectors`` event loop: requests are tiny and the
    work they trigger (a journal append, a cache write) is bounded, so
    one loop serves every worker without locks.  Lease expiry runs on
    the loop's idle tick.
    """

    def __init__(
        self,
        root: os.PathLike,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ttl: float = DEFAULT_TTL,
        policy: Optional[FaultPolicy] = None,
        tick: float = 0.2,
    ) -> None:
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be positive, got {ttl}")
        self.root = Path(root)
        self.host = host
        self.port = port
        self.ttl = ttl
        self.policy = policy if policy is not None else FaultPolicy()
        self.tick = tick
        self.state = _JournalState()
        self._deadlines: Dict[str, _Lease] = {}
        self.journal: Optional[SweepCheckpoint] = None
        self.cache: Optional[ResultCache] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._stopping = False
        self.recovered_leases = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_NAME

    def start(self) -> Tuple[str, int]:
        """Recover state, bind the port, publish the discovery file."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.state = _replay_journal(self.journal_path)
        now = time.monotonic()
        for key, (host, steals) in self.state.leases.items():
            # A restored lease gets one fresh TTL: its worker is either
            # alive (it reconnects and heartbeats or commits) or dead
            # (the lease expires once, exactly as it would have).
            self._deadlines[key] = _Lease(host, steals, now + self.ttl)
        self.recovered_leases = len(self._deadlines)
        self.journal = SweepCheckpoint(self.journal_path, fsync=True)
        self.cache = ResultCache(self.root / RESULTS_DIR, fsync=True)
        self._record("coord_start", pid=os.getpid())
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.setblocking(False)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, None)
        # fsync=True: workers on other machines find the coordinator
        # through a copy of this file; it must not evaporate on reboot.
        atomic_write_json(
            self.root / DISCOVERY_NAME,
            {
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
                "started_unix": time.time(),
            },
            fsync=True,
        )
        return self.host, self.port

    def close(self) -> None:
        if self._selector is not None:
            for key in list(self._selector.get_map().values()):
                if key.data is not None:
                    self._close_conn(key.data)
            self._selector.close()
            self._selector = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    # -- journal write-through -----------------------------------------

    def _record(self, kind: str, **fields: Any) -> None:
        """Journal one ``kind`` entry stamped with the wall clock
        (fsynced), then fold it into live state."""
        entry = {"kind": kind, **fields, "time_unix": time.time()}
        self.journal._append(entry)
        self.state.apply(entry)

    # -- the event loop ------------------------------------------------

    def serve_forever(self) -> None:
        """Serve until a ``stop`` op arrives (replies are flushed first)."""
        if self._selector is None:
            self.start()
        grace: Optional[float] = None
        while True:
            if self._stopping:
                if grace is None:
                    grace = time.monotonic() + 1.0
                flushed = all(
                    not key.data.out
                    for key in self._selector.get_map().values()
                    if key.data is not None
                )
                if flushed or time.monotonic() > grace:
                    break
            for key, events in self._selector.select(timeout=self.tick):
                if key.data is None:
                    self._accept()
                else:
                    self._service(key.data, events)
            self._expire_leases()
        self.close()

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        conn = _Conn(sock=sock, peer=f"{addr[0]}:{addr[1]}")
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _close_conn(self, conn: _Conn) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _want(self, conn: _Conn) -> None:
        events = selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError):
            pass

    def _service(self, conn: _Conn, events: int) -> None:
        if events & selectors.EVENT_READ:
            try:
                data = conn.sock.recv(65536)
            except BlockingIOError:
                data = None
            except OSError:
                self._close_conn(conn)
                return
            if data == b"":
                self._close_conn(conn)
                return
            if data:
                for frame in conn.decoder.feed(data):
                    response = self._dispatch(conn, frame)
                    if response is not None:
                        conn.out.extend(encode_frame(response))
        if events & selectors.EVENT_WRITE and conn.out:
            try:
                sent = conn.sock.send(bytes(conn.out))
                del conn.out[:sent]
            except BlockingIOError:
                pass
            except OSError:
                self._close_conn(conn)
                return
        if conn.closing and not conn.out:
            self._close_conn(conn)
            return
        self._want(conn)

    # -- lease expiry --------------------------------------------------

    def _expire_leases(self) -> None:
        now = time.monotonic()
        for key in [
            k for k, l in self._deadlines.items() if now >= l.deadline
        ]:
            lease = self._deadlines.pop(key)
            steals = lease.steal_count + 1
            self._record(
                "lease_expired", key=key, host=lease.host, steal_count=steals
            )
            if (
                steals > self.policy.max_retries
                and key in self.state.tasks
            ):
                # Same budget the fleet applies to lease steals: a task
                # whose workers keep vanishing is poison, not unlucky.
                spec = self.state.tasks[key]
                try:
                    label = TaskSpec.from_record(spec).label()
                except Exception:
                    label = key[:12]
                record = QuarantineRecord(
                    spec=spec,
                    key=key,
                    label=label,
                    category="crash",
                    attempts=steals,
                    detail=(
                        f"lease expired {steals} times (last holder "
                        f"{lease.host}); workers keep dying on this task"
                    ),
                ).to_record()
                self._record(
                    "quarantine", key=key, record=record, host=lease.host
                )

    # -- request dispatch ----------------------------------------------

    def _dispatch(
        self, conn: _Conn, msg: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        rid = msg.get("rid")
        op = msg.get("op")
        handler = getattr(self, f"_op_{op}", None) if op else None
        if handler is None:
            return {"ok": False, "rid": rid, "error": f"unknown op {op!r}"}
        try:
            response = handler(msg)
        except Exception as exc:  # a bad request must never kill the loop
            return {
                "ok": False,
                "rid": rid,
                "error": f"{type(exc).__name__}: {exc}",
            }
        response.setdefault("ok", True)
        response["rid"] = rid
        if response.pop("_close", False):
            conn.closing = True
        return response

    def _op_ping(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return {"pid": os.getpid()}

    def _op_hello(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        host = str(msg.get("host", "?"))
        self._record("worker_hello", host=host)
        manifest = self.state.manifest or {}
        return {
            "submitted": self.state.manifest is not None,
            "exp_id": manifest.get("exp_id"),
            "version": manifest.get("version", ""),
            "total": manifest.get("total", 0),
        }

    def _op_submit(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        tasks = msg.get("tasks") or []
        if not tasks:
            raise ConfigurationError("cannot submit an empty task grid")
        self._record(
            "manifest",
            exp_id=msg.get("exp_id"),
            version=msg.get("version", ""),
            total=len(tasks),
            keys=[t["key"] for t in tasks],
            options=msg.get("options", {}),
        )
        fresh = 0
        for task in tasks:
            key = task["key"]
            if (
                key in self.state.tasks
                or key in self.state.done
                or key in self.state.quarantined
            ):
                continue  # idempotent resubmit
            self._record("task", key=key, spec=task["spec"])
            fresh += 1
        return {"fresh": fresh, "total": len(tasks)}

    def _pending_order(self) -> List[str]:
        manifest = self.state.manifest or {}
        ordered = [
            str(key)
            for key in manifest.get("keys", [])
            if key in self.state.tasks
        ]
        if len(ordered) < len(self.state.tasks):
            known = set(ordered)
            ordered += sorted(k for k in self.state.tasks if k not in known)
        return ordered

    def _grant(self, key: str, host: str, steals: int) -> Dict[str, Any]:
        return {
            "task": {"key": key, "spec": self.state.tasks[key]},
            "steal_count": steals,
        }

    def _op_claim(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        host = str(msg.get("host", "?"))
        # Idempotent: a host whose claim response was lost resends and
        # gets the very task it already holds, not a second one.
        for key, lease in self._deadlines.items():
            if lease.host == host and key in self.state.tasks:
                lease.deadline = time.monotonic() + self.ttl
                return self._grant(key, host, lease.steal_count)
        replayed = 0
        for key in self._pending_order():
            if key in self._deadlines:
                continue
            cached = self.cache.get(key)
            if cached is not None:
                # Server-side replay: a previous run (or a stranded
                # worker's flushed outbox) already committed this key.
                self._record(
                    "outcome", key=key, record=cached, host=host,
                    cached=True, source="cache",
                )
                replayed += 1
                continue
            steals = self.state.steals.get(key, 0)
            # Journal the grant BEFORE answering: a coordinator killed
            # between the two restores this lease on restart instead of
            # granting the task twice (the exactly-once linchpin).
            self._record("lease", key=key, host=host, steal_count=steals)
            self._deadlines[key] = _Lease(
                host, steals, time.monotonic() + self.ttl
            )
            response = self._grant(key, host, steals)
            response["replayed"] = replayed
            return response
        return {
            "task": None,
            "replayed": replayed,
            "pending": len(self.state.tasks),
            "in_flight": len(self._deadlines),
            "drained": self.state.drained,
        }

    def _op_heartbeat(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        key = str(msg.get("key", ""))
        host = str(msg.get("host", "?"))
        lease = self._deadlines.get(key)
        if lease is None or lease.host != host:
            return {"held": False}
        lease.deadline = time.monotonic() + self.ttl
        return {"held": True}

    def _op_commit(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        key = str(msg.get("key", ""))
        host = str(msg.get("host", "?"))
        if key in self.state.done or key in self.state.quarantined:
            # A resent commit (lost response), an outbox flush racing a
            # lease expiry's second execution — either way the work is
            # already journaled exactly once; say yes and journal nothing.
            return {"duplicate": True}
        record = msg.get("record")
        if not isinstance(record, dict):
            raise ConfigurationError("commit needs a record object")
        # Same order as the fleet worker: cache first, then journal —
        # a crash between the two replays the cache hit, never re-runs.
        self.cache.put(key, record)
        self._record(
            "outcome", key=key, record=record, host=host,
            cached=bool(msg.get("cached", False)),
            source=str(msg.get("source", "fresh")),
        )
        self._deadlines.pop(key, None)
        return {}

    def _op_quarantine(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        key = str(msg.get("key", ""))
        host = str(msg.get("host", "?"))
        if key in self.state.done or key in self.state.quarantined:
            return {"duplicate": True}
        record = msg.get("record")
        if not isinstance(record, dict):
            raise ConfigurationError("quarantine needs a record object")
        self._record("quarantine", key=key, record=record, host=host)
        self._deadlines.pop(key, None)
        return {}

    def _op_release(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        key = str(msg.get("key", ""))
        host = str(msg.get("host", "?"))
        lease = self._deadlines.get(key)
        if lease is None or lease.host != host:
            return {"released": False}
        del self._deadlines[key]
        self._record(
            "lease_released", key=key, host=host,
            steal_count=lease.steal_count,
        )
        return {"released": True}

    def _op_status(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        payload = self.state.status_payload(self.root)
        payload["reachable"] = True
        payload["recovered_leases"] = self.recovered_leases
        return payload

    def _op_stop(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        self._stopping = True
        return {"stopping": True, "_close": True}


# ----------------------------------------------------------------------
# Status and report (offline-capable)
# ----------------------------------------------------------------------


def coord_status(
    root: os.PathLike, *, timeout: float = 2.0
) -> Dict[str, Any]:
    """The coordinator's status: live over TCP, else from the journal.

    Tries the advertised address first (the live server also knows the
    in-flight lease deadlines); when nothing answers — coordinator dead
    or not yet started — the same payload is rebuilt offline by
    replaying the journal, with ``reachable: false``.
    """
    from repro.runner.client import CoordClient, CoordinatorUnreachable

    info = read_discovery(root)
    if info is not None:
        client = CoordClient(
            root, timeout=timeout, offline_budget=timeout
        )
        try:
            payload = client.request({"op": "status"})
            payload.pop("rid", None)
            payload.pop("ok", None)
            return payload
        except (CoordinatorUnreachable, OSError):
            pass
        finally:
            client.close()
    payload = _replay_journal(Path(root) / JOURNAL_NAME).status_payload(root)
    payload["reachable"] = False
    return payload


def format_coord_status(payload: Dict[str, Any]) -> str:
    """Render a status payload the way ``fleet status`` renders its view."""
    reach = "live" if payload.get("reachable") else "offline (journal)"
    return render_status(
        f"coord {payload.get('exp_id', '?')} @ "
        f"{payload.get('state_dir', '?')} [{reach}]",
        total=int(payload.get("total", 0)),
        completed=int(payload.get("completed", 0)),
        quarantined=int(payload.get("quarantined", 0)),
        pending=int(payload.get("pending", 0)),
        in_flight=int(payload.get("in_flight", 0)),
        hosts=[HostStatus(**record) for record in payload.get("hosts", [])],
        reclaims="expiries",
        taxonomy=[
            f"{payload.get('quarantined', 0)} quarantined",
            f"{payload.get('lease_expiries', 0)} lease expiries",
            f"{payload.get('restarts', 0)} coordinator starts",
        ],
        quarantine_records=payload.get("quarantine_records", []),
    )


def coord_report(root: os.PathLike) -> RunReport:
    """The merged :class:`RunReport` of a coordinator run, in grid order.

    Built offline from the journal by the same
    :func:`~repro.runner.drain.build_report` as the fleet's — so chaos
    can compare the two backends' outputs bit for bit against the same
    control.  Every lease expiry counts as a host failure.
    """
    state = _replay_journal(Path(root) / JOURNAL_NAME)
    return build_report(
        state.manifest or {},
        list(state.done.values()),
        state.quarantined.values(),
        list(state.hosts.values()),
        host_failures=state.lease_expiries,
    )


def submit_tasks(
    client, tasks: List[TaskSpec], *, version: str,
    options: Optional[Dict[str, Any]] = None,
) -> int:
    """Submit a grid through an open :class:`~repro.runner.client.
    CoordClient`; returns how many tasks were new to the coordinator."""
    check_grid(tasks)
    response = client.request(
        {
            "op": "submit",
            "exp_id": tasks[0].exp_id,
            "version": version,
            "options": dict(options or {}),
            "tasks": [
                {"key": spec.key(version), "spec": spec.to_record()}
                for spec in tasks
            ],
        }
    )
    if not response.get("ok"):
        raise ConfigurationError(
            f"coordinator rejected the submit: {response.get('error')}"
        )
    return int(response.get("fresh", 0))
