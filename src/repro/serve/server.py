"""The multi-tenant job service: async edge, simulated time inside.

:class:`JobService` accepts concurrent :class:`JobSpec` submissions
over the line protocol (:mod:`repro.serve.protocol`), executes misses
on a :class:`~repro.serve.pool.WorkerPool`, and serves hits straight
from the content-addressed :class:`~repro.serve.cache.ResultCache`
(i.e. the provenance store).  The doeff runtime split, applied: the
edge is a real asyncio event loop doing real I/O; every job runs in
deterministic simulated time inside a worker process.

Single-flight coalescing: submissions are keyed by ``run_id =
sha256(spec.canonical + code_version)``.  While a run_id is executing,
every identical submission *attaches to the same execution* — an
:class:`asyncio.Future` per in-flight id — instead of re-running; all
attached clients receive the one stored record, byte-identical.  With
results deterministic by contract, deduplicating in-flight requests is
as much of the "millions of users" story as the cache itself (cf. the
request-cloning reproduction in PAPERS.md: identical concurrent
requests are the common case under real traffic, not the corner case).

The resilience layer (every accepted submission *resolves* — to a
record or a structured failure — and the service survives its own
components dying):

- **Admission control**: at most ``max_queue`` executions may be
  in flight; past the watermark new work is shed with a retryable
  ``busy`` reply instead of building an unbounded backlog (hits and
  coalesced attaches are always admitted — they cost no queue slot).
- **Deadlines**: a submission may carry ``deadline_ms``; it is the
  waiter's own — the awaiting client gets a structured
  ``deadline-exceeded`` reply when its clock runs out, and nobody
  else does.  The execution itself is shielded, so a late result still
  fills the cache and reaches every other waiter coalesced onto it.
- **Worker-crash retry / poison quarantine** (in the pool): a job
  whose worker dies is retried on a fresh worker; a repeat offender
  resolves as a ``poison-job`` structured failure, which the service
  *remembers* — resubmitting a quarantined run_id is answered
  instantly without feeding it more workers.
- **Cross-server leases**: when several servers mount one store root,
  a per-run_id lease file held under ``flock`` makes execution
  exactly-once *across servers*; the kernel drops the lock of a server
  that crashes mid-run, and a peer takes the lease over and re-executes.
- **Graceful drain**: the ``drain`` op (and shutdown) flips the
  service into a mode that refuses new submissions (``draining``
  reply) while in-flight jobs run to completion.
- **Health**: the ``health`` op is the probe endpoint — readiness,
  worker liveness, queue depth, quarantine size.

The service may also run its own janitor (``gc_every_s``): periodic
``store.gc`` under the configured age/size budget, off the event loop.
The janitor *never dies*: an unexpected store exception is counted,
logged, and the loop continues — a misbehaving filesystem must not
silently disable eviction for the rest of the server's life.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.harness.jobspec import JobSpec
from repro.provenance.store import ProvenanceStore, touch_file
from repro.serve import protocol
from repro.serve.cache import ResultCache, file_identity, hit_reply
from repro.serve.pool import WorkerPool

_log = logging.getLogger(__name__)

#: default Unix socket path, relative to the working directory
DEFAULT_SOCKET = ".repro/serve.sock"

#: request-line and reply-line bytes the hit memo may hold; past it the
#: least recently repeated lines are dropped first
HIT_MEMO_BYTES = 16 << 20

#: seconds between a waiter's looks at the store while a peer server
#: holds the run's lease
LEASE_POLL_S = 0.1


@dataclass
class ServeStats:
    """Service-lifetime counters (``stats`` op / load-gen reporting)."""

    submissions: int = 0
    hits: int = 0           #: submit/await replies served from the store
    misses: int = 0         #: other submit/await replies that looked there
    executed: int = 0       #: dispatched to the worker pool
    coalesced: int = 0      #: attached to an identical in-flight run
    errors: int = 0         #: executions that died unstructured
    invalid: int = 0        #: submissions rejected before keying
    shed: int = 0           #: submissions refused (busy / draining)
    deadline_exceeded: int = 0  #: replies that ran out of deadline
    quarantined: int = 0    #: run_ids condemned as poison jobs
    lease_waits: int = 0    #: executions that waited on a peer's lease
    lease_takeovers: int = 0  #: stale leases broken (peer crashed)
    gc_cycles: int = 0
    gc_errors: int = 0
    started_at: float = field(default_factory=time.time)

    def to_dict(self) -> dict[str, Any]:
        """Every counter, plus the two values derived from them."""
        out = asdict(self)
        looked = self.hits + self.misses
        out["hit_rate"] = round(self.hits / looked, 4) if looked else 0.0
        out["uptime_s"] = round(time.time() - out.pop("started_at"), 3)  # repro: allow(det-wallclock) operator-facing uptime metric, host-side
        return out


class JobService:
    """Asyncio front-end + worker pool + result cache, one object.

    Lifecycle: ``await start()`` binds the socket and spawns workers;
    ``await run()`` serves until :meth:`request_shutdown` (also
    reachable as the ``shutdown`` op); ``await close()`` drains.  For
    synchronous hosts (tests, the host benchmark) use :class:`ServiceThread`.

    Every execution takes the run's cross-server lease.
    ``enable_chaos`` unlocks the protocol-level fault-injection
    envelope used by the service chaos campaign — never enable it on a
    real deployment.

    Every job runs in a worker process.  ``worker_mode`` accepts only
    ``"process"`` and selects nothing; the keyword is kept because
    ``benchmarks/host`` passes it by name.
    """

    def __init__(self, store: ProvenanceStore | str | Path | None = None,
                 *,
                 workers: int = 2,
                 socket_path: str | Path | None = None,
                 host: str | None = None,
                 port: int = 0,
                 worker_mode: str = "process",
                 max_queue: int | None = 256,
                 retries: int = 2,
                 enable_chaos: bool = False,
                 gc_every_s: float | None = None,
                 gc_max_age_s: float | None = None,
                 gc_max_bytes: int | None = None,
                 gc_keep: frozenset[str] = frozenset()):
        if worker_mode != "process":
            raise ValueError(f"unknown worker mode {worker_mode!r}: every "
                             f"job runs in a worker process")
        self.store = (store if isinstance(store, ProvenanceStore)
                      else ProvenanceStore(store))
        self.cache = ResultCache(self.store)
        self.workers = workers
        self.max_queue = max_queue
        self.retries = retries
        self.enable_chaos = enable_chaos
        if socket_path is None and host is None:
            socket_path = DEFAULT_SOCKET
        self.socket_path = Path(socket_path) if socket_path else None
        self.host = host
        self.port = port
        self.gc_every_s = gc_every_s
        self.gc_max_age_s = gc_max_age_s
        self.gc_max_bytes = gc_max_bytes
        self.gc_keep = gc_keep
        self.stats = ServeStats()
        self._pool: WorkerPool | None = None
        self._server: asyncio.base_events.Server | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._poison: dict[str, dict[str, Any]] = {}
        #: submit line -> (run_id, record file, its identity, hit reply
        #: line, touch file) for each line whose reply was a store hit,
        #: least recently repeated first
        self._memo: dict[bytes, tuple] = {}
        self._memo_size = 0
        self._draining = False
        self._shutdown: asyncio.Event | None = None
        self._gc_task: asyncio.Task | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def endpoint(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self._pool = WorkerPool(self.workers, retries=self.retries)
        if self.socket_path is not None:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.suppress(OSError):
                self.socket_path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=str(self.socket_path),
                limit=protocol.MAX_LINE)
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=self.host, port=self.port,
                limit=protocol.MAX_LINE)
            self.port = self._server.sockets[0].getsockname()[1]
        if self.gc_every_s is not None:
            self._gc_task = asyncio.get_running_loop().create_task(
                self._gc_loop())

    def request_shutdown(self) -> None:
        # Shutdown implies drain: between the request and the socket
        # closing, new submissions are refused while in-flight ones
        # finish.
        self._draining = True
        if self._shutdown is not None:
            self._shutdown.set()

    async def run(self) -> None:
        """Serve until shutdown is requested, then drain and close."""
        if self._server is None:
            await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._gc_task is not None:
            self._gc_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._gc_task
            self._gc_task = None
        # Drain in-flight executions so attached waiters resolve and
        # completed results still land in the store.
        if self._inflight:
            await asyncio.gather(*list(self._inflight.values()),
                                 return_exceptions=True)
        if self._pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.close)
            self._pool = None
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                self.socket_path.unlink()

    # -- the janitor --------------------------------------------------------

    async def _gc_loop(self) -> None:
        """Periodic store gc.  Log-and-continue on *any* store failure:
        one bad cycle (ENOSPC, a corrupt shard, a racing actor) must
        not silently end eviction for the rest of the server's life."""
        assert self.gc_every_s is not None
        loop = asyncio.get_running_loop()
        while True:
            try:
                await asyncio.sleep(self.gc_every_s)
                await loop.run_in_executor(
                    None, lambda: self.store.gc(
                        keep=self.gc_keep,
                        max_age_s=self.gc_max_age_s,
                        max_bytes=self.gc_max_bytes))
                self.stats.gc_cycles += 1
            except asyncio.CancelledError:
                raise
            except Exception:
                self.stats.gc_errors += 1
                _log.exception("serve gc cycle failed; janitor continues")

    # -- connection handling ------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await protocol.read_line(reader)
                    if line is None:
                        break
                    hit = self._repeat(line)
                    if hit is not None:     # neither decoded nor keyed
                        writer.write(hit)
                        await writer.drain()
                        continue
                    msg = protocol.decode(line)
                except protocol.ProtocolError as e:
                    await protocol.write_message(
                        writer, protocol.error_reply(str(e)))
                    break
                if msg.get("op") == protocol.OP_SUBMIT_MANY:
                    await self._submit_many(msg, writer)
                    continue
                else:
                    reply = await self._dispatch(msg, line)
                await protocol.write_message(writer, reply)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels handlers parked in readline; close the
            # socket quietly instead of surfacing a cancellation
            # traceback through the stream-protocol callback.
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, msg: dict[str, Any],
                        line: bytes | None = None) -> dict[str, Any]:
        op = msg.get("op")
        if op == protocol.OP_PING:
            return {"ok": True, "op": "pong",
                    "code_version": self.cache.code_version}
        if op == protocol.OP_STATS:
            pool = (self._pool.pool_stats() if self._pool is not None
                    else {})
            return {"ok": True,
                    "stats": {**self.stats.to_dict(),
                              "inflight": self.inflight,
                              "draining": self._draining,
                              "max_queue": self.max_queue,
                              "workers": self.workers,
                              "endpoint": self.endpoint,
                              "pool": pool,
                              **self.cache.stats()}}
        if op == protocol.OP_HEALTH:
            return self.health()
        if op == protocol.OP_SUBMIT:
            return await self.submit(msg.get("spec"),
                                     wait=bool(msg.get("wait", True)),
                                     deadline_ms=msg.get("deadline_ms"),
                                     chaos=msg.get("chaos"), line=line)
        if op == protocol.OP_AWAIT:
            return await self.await_result(
                str(msg.get("run_id", "")),
                deadline_ms=msg.get("deadline_ms"))
        if op == protocol.OP_STATUS:
            return self.status(str(msg.get("run_id", "")))
        if op == protocol.OP_DRAIN:
            self._draining = True
            return {"ok": True, "op": "drain", "inflight": self.inflight}
        if op == protocol.OP_SHUTDOWN:
            self.request_shutdown()
            return {"ok": True, "op": "shutdown"}
        return protocol.error_reply(f"unknown op {op!r}")

    # -- probes -------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Readiness/liveness probe payload (the ``health`` op)."""
        pool = self._pool
        alive = pool.alive_workers() if pool is not None else 0
        pool_dead = pool.dead if pool is not None else True
        ready = (self._server is not None and not self._draining
                 and not pool_dead and alive > 0)
        return {"ok": True, "op": "health",
                "ready": ready,
                "draining": self._draining,
                "pool_dead": pool_dead,
                "workers_alive": alive,
                "worker_pids": (pool.worker_pids()
                                if pool is not None else []),
                "inflight": self.inflight,
                "max_queue": self.max_queue,
                "quarantined": len(self._poison),
                "leases": True}

    # -- the submit path ----------------------------------------------------

    async def submit(self, spec_dict: Any, wait: bool = True,
                     deadline_ms: float | None = None,
                     chaos: dict[str, Any] | None = None, *,
                     line: bytes | None = None) -> dict[str, Any]:
        """Submit one spec: hit, coalesce, shed, or execute.

        ``line`` is the request line the submission arrived as.  A line
        without ``chaos`` whose reply is a store hit enters the hit
        memo, which answers its exact bytes again (:meth:`_repeat`).
        """
        self.stats.submissions += 1
        if self._draining:
            self.stats.shed += 1
            return protocol.shed_reply(
                protocol.REASON_DRAINING,
                "service is draining; not accepting new submissions")
        if not isinstance(spec_dict, dict):
            self.stats.invalid += 1
            return protocol.error_reply("submit needs a spec object")
        if chaos is not None and not self.enable_chaos:
            self.stats.invalid += 1
            return protocol.error_reply(
                "chaos envelope rejected: server started without "
                "chaos hooks")
        refused = self._refuse_deadline(deadline_ms)
        if refused is not None:
            return refused
        try:
            spec = JobSpec.from_dict(dict(spec_dict))
            spec.validate()     # before it is keyed, admitted or leased
        except (ReproError, TypeError, ValueError) as e:
            self.stats.invalid += 1
            return protocol.error_reply(f"bad spec: {e}")
        run_id = self.cache.key(spec)

        poison = self._poison.get(run_id)
        if poison is not None:
            # Quarantined: answer from memory, never feed it workers.
            return dict(poison)

        reply = self._stored_reply(run_id,
                                   line=line if chaos is None else None)
        if reply is not None:
            return reply

        fut = self._inflight.get(run_id)
        if fut is not None:
            self.stats.coalesced += 1
            cache = protocol.CACHE_COALESCED
        else:
            # Admission control: only a *new* execution occupies a
            # queue slot; hits and coalesced attaches above are free.
            depth = len(self._inflight)
            if self.max_queue is not None and depth >= self.max_queue:
                self.stats.shed += 1
                return protocol.shed_reply(
                    protocol.REASON_BUSY,
                    f"queue full ({depth} in flight >= "
                    f"watermark {self.max_queue})",
                    queue_depth=depth)
            fut = self._launch(run_id, spec, chaos)
            cache = protocol.CACHE_MISS
        if not wait:
            return {"ok": True, "run_id": run_id,
                    "cache": protocol.CACHE_INFLIGHT}
        return await self._await_reply(fut, run_id, cache, deadline_ms)

    def _refuse_deadline(self, deadline_ms: Any) -> dict[str, Any] | None:
        """The ``invalid`` reply to a ``deadline_ms`` that is neither
        absent nor a non-negative number of milliseconds (a bool is not
        one), counted; None for one that is."""
        if deadline_ms is None or (type(deadline_ms) in (int, float)
                                   and deadline_ms >= 0):
            return None
        self.stats.invalid += 1
        return protocol.error_reply(
            f"deadline_ms must be a non-negative number, "
            f"got {deadline_ms!r:.40}")

    async def _await_reply(self, fut: asyncio.Future, run_id: str,
                           cache: str, deadline_ms: float | None
                           ) -> dict[str, Any]:
        """Await a resolution with the caller's deadline.  The
        execution itself is shielded — a slow job still completes and
        fills the cache for the next caller even when this one gives
        up."""
        if deadline_ms:
            try:
                reply = dict(await asyncio.wait_for(
                    asyncio.shield(fut), deadline_ms / 1000.0))
            except asyncio.TimeoutError:
                self.stats.deadline_exceeded += 1
                return protocol.error_reply(
                    f"deadline exceeded after {deadline_ms} ms",
                    reason=protocol.REASON_DEADLINE, run_id=run_id,
                    retryable=False)
        else:
            reply = dict(await fut)
        if reply.get("ok"):
            reply["cache"] = cache
        return reply

    def _launch(self, run_id: str, spec: JobSpec,
                chaos: dict[str, Any] | None) -> asyncio.Future:
        """Register the single-flight future and start the execution
        task (lease acquisition + pool dispatch + settlement)."""
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._inflight[run_id] = fut
        loop.create_task(self._execute(run_id, spec, chaos, fut))
        return fut

    async def _execute(self, run_id: str, spec: JobSpec,
                       chaos: dict[str, Any] | None,
                       fut: asyncio.Future) -> None:
        try:
            lease = await self._acquire_lease_or_result(run_id, fut)
            if lease is None:
                return      # resolved from a peer's execution
            with lease:
                self.stats.executed += 1
                out = await self._run_on_pool(run_id, spec, chaos)
                if not lease.renew():   # filed anyway: put is append-only
                    _log.warning("lease lost for %s (its file was "
                                 "removed)", run_id[:12])
                self._settle(run_id, fut,
                             self._reply_from_pool(run_id, out))
        finally:
            self._inflight.pop(run_id, None)
            if not fut.done():      # belt and braces: never hang a waiter
                fut.set_result(protocol.error_reply(
                    "execution task died unexpectedly", run_id=run_id))

    async def _acquire_lease_or_result(self, run_id: str,
                                       fut: asyncio.Future):
        """Cross-server single-flight: either win the lease (we
        execute) or wait the peer out — serving its stored record when
        it lands, or taking over its lease when it dies."""
        waited = False
        while True:
            lease = self.store.acquire_lease(run_id)
            # Looked up after the lease is won: an owner files its
            # record before it releases, so a peer's run that finished
            # since our submit missed is served, not executed again.
            reply = self._stored_reply(run_id, counted=False)
            if reply is not None:
                if lease is not None:
                    lease.release()
                self._settle(run_id, fut, reply)
                return None
            if lease is not None:
                if lease.takeover:
                    self.stats.lease_takeovers += 1
                return lease
            if not waited:
                waited = True
                self.stats.lease_waits += 1
            await asyncio.sleep(LEASE_POLL_S)

    async def _run_on_pool(self, run_id: str, spec: JobSpec,
                           chaos: dict[str, Any] | None) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        assert self._pool is not None
        try:
            pool_fut = asyncio.wrap_future(
                self._pool.submit(spec.to_dict(), chaos=chaos), loop=loop)
        except RuntimeError as e:
            return {"record": None, "timeline_z": None, "error": str(e)}
        try:
            return await pool_fut
        except Exception as e:   # wrap_future surfaced a pool failure
            return {"record": None, "timeline_z": None,
                    "error": f"{type(e).__name__}: {e}"}

    def _reply_from_pool(self, run_id: str,
                         out: dict[str, Any]) -> dict[str, Any]:
        if out.get("error") is not None or out.get("record") is None:
            reply = protocol.error_reply(
                out.get("error") or "worker returned no record",
                run_id=run_id)
            for key in ("reason", "unrecoverable_reason", "attempts"):
                if key in out:
                    reply[key] = out[key]
            reason = out.get("reason")
            if reason == protocol.REASON_POISON:
                # Remember the verdict: identical future submissions
                # are answered from quarantine, not retried on workers.
                self.stats.quarantined += 1
                self._poison[run_id] = {**reply, "quarantined": True}
            else:
                self.stats.errors += 1
            return reply
        # The worker's encoding is filed and replied as it is.  File
        # before resolving: every waiter observes a stored, re-readable
        # record.  The store write is tiny; doing it on the loop keeps
        # put-then-resolve atomic wrt new submits.
        record = protocol.EncodedRecord(out["record"], out["record_json"])
        self.cache.put(run_id, record, out.get("timeline_z"))
        return {"ok": True, "run_id": run_id, "record": record}

    def _stored_reply(self, run_id: str, *, counted: bool = True,
                      line: bytes | None = None) -> dict[str, Any] | None:
        """The reply serving ``run_id`` from the store, or None.  A
        submit/await lookup counts one hit or one miss; a lease poll,
        whose waiters were counted when they submitted, counts none.
        A hit memoises the submit ``line`` it answers."""
        got = self.cache.get(run_id)
        if got is None:
            self.stats.misses += counted
            return None
        self.stats.hits += counted
        record, ident = got
        reply = hit_reply(run_id, record)
        if line is not None:
            self._remember(line, run_id, ident, protocol.encode(reply))
        return reply

    def _settle(self, run_id: str, fut: asyncio.Future,
                reply: dict[str, Any]) -> None:
        self._inflight.pop(run_id, None)
        if not fut.done():
            fut.set_result(reply)

    # -- the hit memo -------------------------------------------------------

    def _repeat(self, line: bytes) -> bytes | None:
        """The reply line of a memoised submit line, after
        :meth:`submit`'s checks and counters: not draining, not
        poisoned, one stat finding the record file unchanged, one
        touch.  Else None, and the entry is dropped: the line is
        decoded and takes the full path."""
        entry = self._memo.get(line)
        if entry is None:
            return None
        run_id, path, ident, reply, touch = entry
        if (self._draining or run_id in self._poison
                or file_identity(path) != ident):
            self._forget(line)
            return None
        touch_file(touch)
        self.stats.submissions += 1
        self.stats.hits += 1
        self._memo[line] = self._memo.pop(line)
        return reply

    def _remember(self, line: bytes, run_id: str,
                  ident: tuple[int, int, int], reply: bytes) -> None:
        """Memoise a submit line whose ``reply`` line served ``run_id``
        from a record file of identity ``ident``; past
        :data:`HIT_MEMO_BYTES` of lines and replies, the least recently
        repeated go first."""
        self._forget(line)
        self._memo[line] = (run_id, self.store._record_path(run_id), ident,
                            reply, self.store._touch_path(run_id))
        self._memo_size += len(line) + len(reply)
        while self._memo_size > HIT_MEMO_BYTES:
            self._forget(next(iter(self._memo)))

    def _forget(self, line: bytes) -> None:
        entry = self._memo.pop(line, None)
        if entry is not None:
            self._memo_size -= len(line) + len(entry[3])

    # -- batch submission ---------------------------------------------------

    async def _submit_many(self, msg: dict[str, Any],
                           writer: asyncio.StreamWriter) -> None:
        """One request, N specs: replies stream back per job in
        completion order (each tagged ``index``), then a terminator."""
        specs = msg.get("specs")
        if not isinstance(specs, list):
            await protocol.write_message(
                writer, protocol.error_reply(
                    "submit_many needs a list of specs"))
            await protocol.write_message(
                writer, {"ok": False, "op": protocol.OP_SUBMIT_MANY_DONE,
                         "n": 0})
            return
        wait = bool(msg.get("wait", True))
        deadline_ms = msg.get("deadline_ms")

        async def one(i: int, sd: Any) -> dict[str, Any]:
            reply = await self.submit(sd, wait=wait,
                                      deadline_ms=deadline_ms)
            return {**reply, "index": i}

        tasks = [asyncio.ensure_future(one(i, sd))
                 for i, sd in enumerate(specs)]
        try:
            for next_done in asyncio.as_completed(tasks):
                await protocol.write_message(writer, await next_done)
            await protocol.write_message(
                writer, {"ok": True, "op": protocol.OP_SUBMIT_MANY_DONE,
                         "n": len(specs)})
        except (ConnectionResetError, BrokenPipeError):
            # Client hung up mid-stream: let the remaining submissions
            # finish server-side (they fill the cache), stop writing.
            for t in tasks:
                if not t.done():
                    await t
            raise

    # -- status / await -----------------------------------------------------

    async def await_result(self, run_id: str, *,
                           deadline_ms: float | None = None
                           ) -> dict[str, Any]:
        """Block until ``run_id`` resolves (submitted earlier with
        ``wait=false``), or serve it from the store."""
        refused = self._refuse_deadline(deadline_ms)
        if refused is not None:
            return refused
        fut = self._inflight.get(run_id)
        if fut is not None:
            return await self._await_reply(
                fut, run_id, protocol.CACHE_COALESCED, deadline_ms)
        poison = self._poison.get(run_id)
        if poison is not None:
            return dict(poison)
        reply = self._stored_reply(run_id)
        if reply is not None:
            return reply
        return protocol.error_reply(f"unknown run id {run_id[:12]!r}",
                                    run_id=run_id)

    def status(self, run_id: str) -> dict[str, Any]:
        if run_id in self._inflight:
            state = "inflight"
        elif run_id in self._poison:
            state = "quarantined"
        elif run_id in self.store:
            state = "done"
        else:
            state = "unknown"
        return {"ok": True, "run_id": run_id, "state": state}


class ServiceThread:
    """Run a :class:`JobService` on a private event loop in a daemon
    thread — the bridge for synchronous hosts (the host benchmark, tests, the
    smoke script's subprocess-free mode)."""

    def __init__(self, service: JobService):
        self.service = service
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as e:  # surface startup/serve failures
            self._error = e
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.service.start()
        self._ready.set()
        await self.service.run()

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=60.0)
        if self._error is not None:
            raise RuntimeError(
                f"serve thread failed to start: {self._error}"
            ) from self._error
        if not self._ready.is_set():
            raise RuntimeError("serve thread did not come up in 60s")
        return self

    def stop(self, *, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            # The loop may close between the liveness check and the
            # call (a client sent the shutdown op): already stopped.
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(
                    self.service.request_shutdown)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
