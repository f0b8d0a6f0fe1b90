"""Client for the ``repro serve`` job service.

:class:`ServeClient` is synchronous and holds one *persistent*
connection per thread: requests reuse the socket, a dead peer is
detected on EOF and the client transparently reconnects and resends.
The connection is thread-local so one client shared across a thread
pool never interleaves frames — each thread speaks over its own
socket.  Retries are safe by construction — ``run_id`` is content-addressed, so replaying a
submit can only hit the cache or coalesce, never double-execute.
Backoff between attempts uses decorrelated jitter so a thundering herd
of clients re-approaching a restarted server spreads out instead of
stampeding in lockstep.

It speaks :mod:`repro.serve.protocol` and returns :class:`SubmitReply`
for the job-shaped verbs.

    >>> with ServeClient(socket_path=".repro/serve.sock") as c:
    ...     r = c.submit(JobSpec(app="hello", nvp=2))
    ...     r.cache, r.run_id[:12]          # 'miss' first, 'hit' after
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ReproError
from repro.harness.jobspec import JobSpec
from repro.provenance.record import RunRecord
from repro.serve import protocol

#: default retry envelope: attempts = retries + 1
DEFAULT_RETRIES = 2
#: reconnect backoff: the first delay's floor and every delay's cap
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


class ServeConnectionError(ReproError):
    """The service is unreachable or hung up mid-reply."""


@dataclass
class SubmitReply:
    """One submit/await outcome as the client sees it."""

    ok: bool
    run_id: str | None = None
    #: ``hit`` | ``miss`` | ``coalesced`` | ``inflight`` (wait=False)
    cache: str | None = None
    record: dict[str, Any] | None = None
    error: str | None = None
    #: structured-failure code (``busy``, ``deadline-exceeded``, ...)
    reason: str | None = None
    #: the submission was shed before acceptance; retry is always safe
    retryable: bool = False
    #: position in the request batch (``submit_many`` replies only)
    index: int | None = None
    #: client-side wall seconds for the round trip
    wall_s: float = 0.0

    @property
    def hit(self) -> bool:
        return self.cache == protocol.CACHE_HIT

    def run_record(self) -> RunRecord:
        if self.record is None:
            raise ReproError(f"no record in reply: {self.error or self}")
        return RunRecord.from_dict(self.record)

    @classmethod
    def from_reply(cls, reply: dict[str, Any],
                   wall_s: float = 0.0) -> "SubmitReply":
        return cls(ok=bool(reply.get("ok")),
                   run_id=reply.get("run_id"),
                   cache=reply.get("cache"),
                   record=reply.get("record"),
                   error=reply.get("error"),
                   reason=reply.get("reason"),
                   retryable=bool(reply.get("retryable")),
                   index=reply.get("index"),
                   wall_s=wall_s)


class _Backoff:
    """Decorrelated-jitter backoff (`sleep = U(base, prev*3)` capped).
    Each client gets its own RNG so a fleet re-approaching a restarted
    server spreads out instead of retrying in lockstep."""

    def __init__(self) -> None:
        self.base_s, self.cap_s = BACKOFF_BASE_S, BACKOFF_CAP_S
        self._rng = random.Random()  # repro: allow(det-unseeded-random) backoff jitter must differ across clients; never touches simulation state
        self._prev = self.base_s

    def next_delay(self) -> float:
        self._prev = min(self.cap_s,
                         self._rng.uniform(self.base_s, self._prev * 3))
        return self._prev

    def reset(self) -> None:
        self._prev = self.base_s


@dataclass
class _Conn:
    """One thread's connection: its socket, read buffer and backoff."""

    backoff: _Backoff
    sock: socket.socket | None = None
    buf: bytes = b""


class ServeClient:
    """Synchronous client over persistent, self-healing sockets.

    The connection (and its read buffer, and its backoff state) is
    *thread-local*: one client instance shared across a thread pool
    gives each thread its own socket, so concurrent requests never
    interleave frames or steal each other's replies.
    """

    def __init__(self, socket_path: str | Path | None = None, *,
                 host: str | None = None, port: int | None = None,
                 timeout: float | None = None,
                 retries: int = DEFAULT_RETRIES):
        if socket_path is None and host is None:
            raise ReproError("need a socket_path or a host/port")
        self.socket_path = str(socket_path) if socket_path else None
        self.host, self.port = host, port
        self.timeout = timeout
        self.retries = retries
        self._local = threading.local()

    # -- per-thread connection state ----------------------------------------

    def _conn(self) -> _Conn:
        """The calling thread's connection state, made on first use."""
        try:
            return self._local.conn
        except AttributeError:
            conn = self._local.conn = _Conn(_Backoff())
            return conn

    @property
    def _sock(self) -> socket.socket | None:
        return self._conn().sock

    # -- transport ----------------------------------------------------------

    def _connect(self, conn: _Conn) -> None:
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            else:
                sock = socket.create_connection(
                    (self.host, self.port or 0), timeout=self.timeout)
        except OSError as e:
            raise ServeConnectionError(
                f"cannot reach serve at "
                f"{self.socket_path or f'{self.host}:{self.port}'}: {e}"
            ) from None
        conn.sock = sock
        conn.buf = b""

    def close(self) -> None:
        """Close the *calling thread's* connection (other threads'
        sockets close when their thread exits or on their next EOF)."""
        conn = self._conn()
        if conn.sock is not None:
            try:
                conn.sock.close()
            except OSError:
                pass
            conn.sock = None
        conn.buf = b""

    def _send(self, conn: _Conn, msg: dict[str, Any]) -> None:
        try:
            conn.sock.sendall(protocol.encode(msg))
        except OSError as e:
            raise ServeConnectionError(
                f"serve connection lost on send: {e}") from None

    def _read_line(self, conn: _Conn) -> bytes:
        sock, buf = conn.sock, conn.buf
        while b"\n" not in buf:
            try:
                chunk = sock.recv(65536)
            except OSError as e:
                raise ServeConnectionError(
                    f"serve connection lost: {e}") from None
            if not chunk:
                raise ServeConnectionError("serve hung up (EOF)")
            buf += chunk
            if len(buf) > protocol.MAX_LINE:
                raise protocol.ProtocolError(
                    f"reply exceeds {protocol.MAX_LINE} bytes")
        line, _, conn.buf = buf.partition(b"\n")
        return line + b"\n"

    def _with_retry(self, exchange: Callable[[_Conn], Any]) -> Any:
        """Run one request/reply exchange; on a connection failure,
        reconnect and replay it (idempotent: run ids are content-
        addressed), with decorrelated-jitter backoff between attempts."""
        conn = self._conn()
        conn.backoff.reset()
        last: ServeConnectionError | None = None
        for attempt in range(self.retries + 1):
            try:
                if conn.sock is None:
                    self._connect(conn)
                return exchange(conn)
            except ServeConnectionError as e:
                last = e
                self.close()
                if attempt < self.retries:
                    time.sleep(conn.backoff.next_delay())  # repro: allow(det-wallclock) client retry pacing against a real server
        assert last is not None
        raise last

    def _request(self, msg: dict[str, Any]) -> dict[str, Any]:
        def exchange(conn: _Conn) -> dict[str, Any]:
            self._send(conn, msg)
            return protocol.decode(self._read_line(conn))
        return self._with_retry(exchange)

    # -- verbs --------------------------------------------------------------

    def submit(self, spec: JobSpec | dict[str, Any], *,
               wait: bool = True,
               deadline_ms: float | None = None,
               chaos: dict[str, Any] | None = None) -> SubmitReply:
        """Submit one spec; a :class:`JobSpec` is sent as the
        ``canonical()`` it keeps (:func:`protocol.encode`)."""
        msg: dict[str, Any] = {"op": protocol.OP_SUBMIT,
                               "spec": spec, "wait": wait}
        if deadline_ms is not None:
            msg["deadline_ms"] = deadline_ms
        if chaos is not None:
            msg["chaos"] = chaos
        t0 = time.perf_counter()  # repro: allow(det-wallclock) client-observed host latency, reported not simulated
        reply = self._request(msg)
        return SubmitReply.from_reply(reply, time.perf_counter() - t0)  # repro: allow(det-wallclock) client-observed host latency, reported not simulated

    def submit_many(self, specs: Sequence[JobSpec | dict[str, Any]], *,
                    wait: bool = True,
                    deadline_ms: float | None = None
                    ) -> list[SubmitReply]:
        """Batch submit: one request, replies streamed back per job.
        Returned list is in *request order* (the wire order is
        completion order; the client reorders by ``index``)."""
        msg: dict[str, Any] = {"op": protocol.OP_SUBMIT_MANY,
                               "specs": list(specs),
                               "wait": wait}
        if deadline_ms is not None:
            msg["deadline_ms"] = deadline_ms
        n = len(specs)

        def exchange(conn: _Conn) -> list[SubmitReply]:
            t0 = time.perf_counter()  # repro: allow(det-wallclock) client-observed host latency, reported not simulated
            self._send(conn, msg)
            out: list[SubmitReply | None] = [None] * n
            while True:
                reply = protocol.decode(self._read_line(conn))
                if reply.get("op") == protocol.OP_SUBMIT_MANY_DONE:
                    break
                wall = time.perf_counter() - t0  # repro: allow(det-wallclock) client-observed host latency, reported not simulated
                sr = SubmitReply.from_reply(reply, wall)
                if isinstance(sr.index, int) and 0 <= sr.index < n:
                    out[sr.index] = sr
            return [r if r is not None
                    else SubmitReply(ok=False, index=i,
                                     error="no reply for this index")
                    for i, r in enumerate(out)]

        return self._with_retry(exchange)

    def await_result(self, run_id: str, *,
                     deadline_ms: float | None = None) -> SubmitReply:
        msg: dict[str, Any] = {"op": protocol.OP_AWAIT, "run_id": run_id}
        if deadline_ms is not None:
            msg["deadline_ms"] = deadline_ms
        t0 = time.perf_counter()  # repro: allow(det-wallclock) client-observed host latency, reported not simulated
        reply = self._request(msg)
        return SubmitReply.from_reply(reply, time.perf_counter() - t0)  # repro: allow(det-wallclock) client-observed host latency, reported not simulated

    def status(self, run_id: str) -> str:
        reply = self._request({"op": protocol.OP_STATUS, "run_id": run_id})
        return reply.get("state", "unknown")

    def stats(self) -> dict[str, Any]:
        reply = self._request({"op": protocol.OP_STATS})
        if not reply.get("ok"):
            raise ReproError(f"stats failed: {reply.get('error')}")
        return reply["stats"]

    def health(self) -> dict[str, Any]:
        return self._request({"op": protocol.OP_HEALTH})

    def ping(self) -> dict[str, Any]:
        return self._request({"op": protocol.OP_PING})

    def drain(self) -> dict[str, Any]:
        return self._request({"op": protocol.OP_DRAIN})

    def shutdown(self) -> dict[str, Any]:
        return self._request({"op": protocol.OP_SHUTDOWN})

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
