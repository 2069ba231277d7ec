"""Worker-side transport for the TCP coordinator.

:class:`CoordClient` is the request/response layer: it frames one JSON
request (:mod:`repro.runner.wire`), waits for the response that echoes
the request's ``rid``, and on any network failure reconnects with the
same exponential-backoff-plus-deterministic-jitter schedule the
executor uses for task retries (:meth:`~repro.runner.policy.FaultPolicy.
backoff_delay`).  Because every coordinator op is idempotent, a request
whose response was lost is simply *resent* — under frame duplication or
reordering the client discards any response whose ``rid`` it is not
waiting for.  When the coordinator stays unreachable past
``offline_budget`` seconds the client stops retrying and raises
:class:`CoordinatorUnreachable` — the worker's cue to degrade, not a
crash.

:class:`CoordWorker` is the shared drain loop of :mod:`repro.runner.
drain` over this module's :class:`TcpTransport`, with two twists the
shared-filesystem transport never needed:

* **Leases live on the coordinator.**  The worker just heartbeats its
  active key; TTL accounting, expiry, the steal-count retry budget and
  cache replays are server-side, so a clock-skewed worker cannot
  corrupt them.
* **Commits go through a local outbox.**  Each computed outcome is
  spooled (fsynced) to a per-worker JSONL file *before* the commit is
  sent and acknowledged after.  If the coordinator stays unreachable
  past the offline budget, the worker counts the outcome as *stranded*
  and exits cleanly instead of spinning — the work is not lost: the
  next worker run against the same outbox directory flushes every
  unacknowledged entry first (commit is idempotent, so double-flushing
  is free).  That is the coordinator backend's graceful-degradation
  story: quarantine-and-continue at the worker level.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.runner.coord import read_discovery
from repro.runner.drain import (
    DRAINED,
    WAIT,
    DrainWorker,
    QueueUnreachable,
    WorkerReport,
    default_host_name,
)
from repro.runner.policy import FaultPolicy
from repro.runner.task import TaskSpec
from repro.runner.telemetry import _read_jsonl
from repro.runner.wire import FrameDecoder, encode_frame


class CoordinatorUnreachable(QueueUnreachable):
    """The coordinator did not answer within the offline budget."""


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``host:port`` override into an address tuple."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"address must be host:port, got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            f"address must be host:port, got {text!r}"
        ) from None


class CoordClient:
    """One worker's connection to the coordinator (thread-safe).

    ``root`` names the coordinator's state directory; the address is
    re-read from its discovery file on every reconnect, so a restarted
    coordinator that came up on a different port is found without
    restarting the workers.  ``address`` pins an explicit ``(host,
    port)`` instead — for workers with no view of the state directory
    at all, and for the chaos harness's fault proxy.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        *,
        address: Optional[Tuple[str, int]] = None,
        policy: Optional[FaultPolicy] = None,
        timeout: float = 5.0,
        offline_budget: float = 30.0,
    ) -> None:
        if root is None and address is None:
            raise ConfigurationError(
                "CoordClient needs a state dir or an explicit address"
            )
        self.root = Path(root) if root is not None else None
        self.address = address
        self.policy = policy if policy is not None else FaultPolicy()
        self.timeout = timeout
        self.offline_budget = offline_budget
        self._sock: Optional[socket.socket] = None
        self._decoder: Optional[FrameDecoder] = None
        self._lock = threading.Lock()
        self._rid_prefix = f"{os.getpid():x}-{os.urandom(3).hex()}"
        self._rid_counter = itertools.count(1)

    # -- connection management -----------------------------------------

    def _resolve_address(self) -> Tuple[str, int]:
        if self.address is not None:
            return self.address
        info = read_discovery(self.root)
        if info is None:
            raise ConnectionError(
                f"no coordinator discovery file under {self.root} "
                "(is 'coord serve' running?)"
            )
        return str(info["host"]), int(info["port"])

    def _connect(self) -> None:
        host, port = self._resolve_address()
        sock = socket.create_connection((host, port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._sock = sock
        self._decoder = FrameDecoder()

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._decoder = None

    def close(self) -> None:
        with self._lock:
            self._drop()

    # -- request/response ----------------------------------------------

    def request(
        self,
        payload: Dict[str, Any],
        *,
        timeout: Optional[float] = None,
        offline_budget: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Send one op; return its response (resending as needed).

        Any transport failure — refused connection, reset, response
        timeout — closes the socket, backs off, reconnects and resends
        the *same* request (same ``rid``; every op is idempotent) until
        the response arrives or ``offline_budget`` seconds of trying
        are exhausted, which raises :class:`CoordinatorUnreachable`.
        """
        budget = (
            offline_budget
            if offline_budget is not None
            else self.offline_budget
        )
        wait = timeout if timeout is not None else self.timeout
        rid = f"{self._rid_prefix}-{next(self._rid_counter)}"
        frame = encode_frame(dict(payload, rid=rid))
        deadline = time.monotonic() + budget
        attempt = 0
        with self._lock:
            while True:
                try:
                    if self._sock is None:
                        self._connect()
                    self._sock.sendall(frame)
                    return self._await(rid, wait)
                except OSError as exc:
                    self._drop()
                    attempt += 1
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise CoordinatorUnreachable(
                            f"coordinator unreachable after {attempt} "
                            f"attempt(s) over {budget:g}s: "
                            f"{type(exc).__name__}: {exc}"
                        ) from None
                    time.sleep(
                        min(
                            self.policy.backoff_delay("coord", attempt),
                            max(0.0, remaining),
                        )
                    )

    def _await(self, rid: str, timeout: float) -> Dict[str, Any]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout(f"no response for rid {rid}")
            self._sock.settimeout(remaining)
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("coordinator closed the connection")
            for frame in self._decoder.feed(data):
                if frame.get("rid") == rid:
                    return frame
                # A duplicated or delayed response to an earlier rid:
                # not ours, not an error — drop it and keep waiting.


# ----------------------------------------------------------------------
# The outbox: local spool of not-yet-acknowledged commits
# ----------------------------------------------------------------------


class Outbox:
    """A per-worker JSONL spool of commits pending acknowledgement.

    ``commit`` entries are fsynced before the network send — they are
    the worker's local commit point, the one record that must survive
    its own crash.  ``ack`` entries are flushed but not fsynced: losing
    one merely re-flushes an idempotent commit on the next run.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._handle = None

    def _append(self, entry: Dict[str, Any], *, durable: bool) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        if durable:
            os.fsync(self._handle.fileno())

    def spool(self, key: str, record: Dict[str, Any]) -> None:
        self._append(
            {"kind": "commit", "key": key, "record": record,
             "time_unix": time.time()},
            durable=True,
        )

    def ack(self, key: str) -> None:
        self._append({"kind": "ack", "key": key}, durable=False)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def pending_in(path: Path) -> Dict[str, Dict[str, Any]]:
        """Unacknowledged commit records in one outbox file."""
        commits: Dict[str, Dict[str, Any]] = {}
        acked = set()
        for entry in _read_jsonl(path, strict=False):
            kind = entry.get("kind")
            if kind == "commit" and "key" in entry:
                commits[entry["key"]] = entry.get("record", {})
            elif kind == "ack" and "key" in entry:
                acked.add(entry["key"])
        return {k: v for k, v in commits.items() if k not in acked}


# ----------------------------------------------------------------------
# The worker
# ----------------------------------------------------------------------


class TcpTransport:
    """The coordinator transport of the drain loop (one per worker)."""

    def __init__(
        self,
        client: CoordClient,
        host: str,
        *,
        outbox_dir: Path,
        heartbeat_interval: float,
        poll_interval: float,
    ) -> None:
        self.client = client
        self.host = host
        self.outbox_dir = outbox_dir
        self.outbox = Outbox(outbox_dir / f"{host}.jsonl")
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.report: Optional[WorkerReport] = None

    def start(self, report: WorkerReport) -> str:
        """Flush every stranded outbox, then wait for a submitted grid."""
        self.report = report
        self._flush_outboxes()
        while True:
            hello = self.client.request({"op": "hello", "host": self.host})
            if hello.get("submitted"):
                return str(hello.get("version", ""))
            time.sleep(self.poll_interval)

    def stop(self) -> None:
        self.client.close()
        self.outbox.close()

    def heartbeat(self, key: str) -> None:
        try:
            # Best-effort with a short budget: a missed heartbeat is
            # survivable (the TTL is several intervals wide) and must
            # not pin the shared client in a long retry loop.
            self.client.request(
                {"op": "heartbeat", "host": self.host, "key": key},
                offline_budget=self.heartbeat_interval,
            )
        except (CoordinatorUnreachable, OSError):
            pass

    def claim(self) -> Union[Tuple[str, TaskSpec], str]:
        response = self.client.request({"op": "claim", "host": self.host})
        self.report.cache_hits += int(response.get("replayed", 0) or 0)
        task = response.get("task")
        if task is None:
            return DRAINED if response.get("drained") else WAIT
        return str(task["key"]), TaskSpec.from_record(task["spec"])

    def commit(self, key: str, record: Dict[str, Any]) -> None:
        # Spool first: once these bytes are on local disk the outcome
        # survives both our crash and the coordinator's absence.
        self.outbox.spool(key, record)
        try:
            self._send("commit", key, record)
        except CoordinatorUnreachable:
            self.report.stranded += 1
            raise
        self.outbox.ack(key)

    def quarantine(self, key: str, record: Dict[str, Any]) -> None:
        self._send("quarantine", key, record)

    def _send(self, op: str, key: str, record: Dict[str, Any]) -> None:
        self.client.request(
            {"op": op, "host": self.host, "key": key, "record": record}
        )

    def _flush_outboxes(self) -> None:
        """Commit every unacknowledged entry in the outbox directory.

        Scans *all* outbox files, not just this worker's: host names
        carry a per-process nonce, so a crashed predecessor's spool has
        a different filename but the same obligation.  Commits are
        idempotent, so flushing a file twice (or racing another worker
        over it) is harmless.
        """
        for path in sorted(self.outbox_dir.glob("*.jsonl")):
            pending = Outbox.pending_in(path)
            if not pending:
                continue
            spool = Outbox(path)
            try:
                for key in sorted(pending):
                    self._send("commit", key, pending[key])
                    spool.ack(key)
            finally:
                spool.close()


class CoordWorker(DrainWorker):
    """One worker draining a coordinator over TCP (no shared FS needed).

    The drain loop is :class:`~repro.runner.drain.DrainWorker`'s — same
    retry policy, same quarantine categories, same record shape as
    :class:`~repro.runner.fleet.FleetWorker` — so ``coord_report`` and
    ``fleet_report`` are interchangeable.  The worker only needs the
    coordinator's address (via ``root``'s discovery file or an explicit
    ``address``) and a *local* directory for its outbox spool.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        host: Optional[str] = None,
        *,
        address: Optional[Tuple[str, int]] = None,
        policy: Optional[FaultPolicy] = None,
        heartbeat_interval: float = 2.0,
        poll_interval: float = 0.5,
        throttle: float = 0.0,
        request_timeout: float = 5.0,
        offline_budget: float = 30.0,
        outbox_dir: Optional[os.PathLike] = None,
        run_fn=None,
        max_tasks: Optional[int] = None,
        progress: bool = False,
    ) -> None:
        host = host if host is not None else default_host_name()
        policy = policy if policy is not None else FaultPolicy()
        client = CoordClient(
            root,
            address=address,
            policy=policy,
            timeout=request_timeout,
            offline_budget=offline_budget,
        )
        if outbox_dir is None:
            if root is None:
                raise ConfigurationError(
                    "an outbox directory is required when the worker "
                    "has no view of the coordinator state dir"
                )
            outbox_dir = Path(root) / "outbox"
        super().__init__(
            TcpTransport(
                client,
                host,
                outbox_dir=Path(outbox_dir),
                heartbeat_interval=heartbeat_interval,
                poll_interval=poll_interval,
            ),
            host,
            policy=policy,
            heartbeat_interval=heartbeat_interval,
            poll_interval=poll_interval,
            throttle=throttle,
            run_fn=run_fn,
            max_tasks=max_tasks,
            progress=progress,
        )
