"""The multiprocess worker pool that executes submitted specs.

The doeff-style runtime split: the service edge is real-async
(:mod:`repro.serve.server` on asyncio), while every job runs entirely
in *simulated* time inside a worker.  Workers are OS processes, so N
jobs really execute in parallel and a crashing simulation cannot take
the front-end down; each worker runs one job at a time, start to
finish — the simulator's process-wide state (pooled ULT backend, loader
namespaces) is never shared between concurrently running jobs.

Crash resilience (the serving-layer contract: every submitted future
*resolves*, to a result or a structured failure — never hangs):

- Each worker is a spawned process with one duplex pipe and at most
  one assigned task, so the pool always knows exactly which job a dead
  worker was holding.  Liveness is the kernel's answer, not a poll:
  one supervisor thread waits on every worker's pipe and process
  sentinel at once, and a worker reads EOF the moment its pool is gone.
  No lock or queue is shared between processes, so a worker killed at
  any instant cannot leave the others unable to reply.
- A worker that dies mid-job (segfault, OOM kill, operator SIGKILL) is
  replaced by a fresh process (same slot, fresh pipe — no stale
  message can reach the replacement) and its job is *retried*, up to
  ``retries`` times; an idle live worker takes the retry before the
  replacement is spawned.
- A job that keeps killing workers is **quarantined**: its future
  resolves to a structured ``poison-job`` failure
  (``unrecoverable_reason="poison-job"``) instead of grinding the pool
  down worker by worker.
- When every worker is dead and the respawn budget is spent (e.g. the
  spawn bootstrap cannot re-import the host program), all pending
  futures fail with a typed ``pool-dead`` reply — a hung client is
  worse than an error.

Workers :func:`~repro.harness.jobspec.build_job` and run a job
themselves rather than through ``run_spec_job``, so its result hooks
never fire for a service job: recording is explicit per job, and a
process-global ``--provenance`` auto-recorder in the host process can
never double-record (or cross-record) one.  ``strict=False``: a
deterministic unrecoverable run is a *result* (with
``unrecoverable_reason`` set), and results are cacheable.

Chaos hook: a task may carry ``chaos={"kill_worker_attempts": N}``
(injected via the server's ``enable_chaos`` flag, never from specs) —
a worker then ``os._exit``\\ s on its first N delivery attempts, which
is how the service fault campaign provokes real worker crashes
deterministically.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait
from typing import Any

from repro.harness.jobspec import JobSpec, build_job
from repro.provenance.record import RunRecord
from repro.trace.stream import compress_timeline

#: exit status a worker uses when the chaos kill hook fires
CHAOS_EXIT = 86

def execute_spec(spec_dict: dict[str, Any]) -> dict[str, Any]:
    """Run one spec dict to completion; never raises.

    Returns ``{"record": RunRecord.to_dict(), "timeline_z": bytes,
    "error": None}`` on success (including structured-unrecoverable
    runs), or ``{"record": None, "timeline_z": None, "error": str}``
    when the job cannot be built or dies unstructured.
    """
    try:
        spec = JobSpec.from_dict(dict(spec_dict))
        job = build_job(spec)
        record = RunRecord.from_run(spec, job, job.run(strict=False))
        encoded = record._take_encoding(job.scheduler.timeline)
        return {"record": record.to_dict(),
                "timeline_z": compress_timeline(encoded),
                "error": None}
    except Exception as e:
        return {"record": None, "timeline_z": None,
                "error": f"{type(e).__name__}: {e}"}


def _worker_main(conn: Any) -> None:
    """Worker loop: run tasks off the pipe until ``None``.

    Each item is ``(task_id, spec_dict, attempt, chaos)`` and is
    answered by ``(task_id, reply)``; the chaos kill hook terminates the
    process abruptly (``os._exit``) to model a segfaulting/OOM-killed
    worker — no cleanup, no reply.

    The pool's end of the pipe exists only in the pool's process, so
    EOF means the pool is gone (a SIGKILLed server included) and the
    worker exits at once, with no poll — a leaked worker holds
    inherited pipes open, which can hang the parent's own parent (CI
    steps, shells) waiting for EOF.
    """
    with conn:
        while True:
            try:
                item = conn.recv()
            except (EOFError, OSError):
                return
            if item is None:
                return
            task_id, spec_dict, attempt, chaos = item
            if chaos and attempt <= int(chaos.get("kill_worker_attempts", 0)):
                os._exit(CHAOS_EXIT)
            try:
                conn.send((task_id, execute_spec(spec_dict)))
            except OSError:
                return


@dataclass
class _Task:
    """One submission's pool-side state."""

    task_id: int
    spec_dict: dict[str, Any]
    fut: Future
    chaos: dict[str, Any] | None = None
    attempts: int = 0       #: dispatches so far (== worker deaths + 1)


@dataclass
class _Slot:
    """One worker slot: a process and the pool's end of its pipe, both
    replaced when the process dies."""

    proc: Any = None
    conn: Any = None
    task: _Task | None = None   #: the one task the worker is holding


@dataclass
class PoolStats:
    """Lifetime resilience counters, surfaced through ``stats``."""

    retries: int = 0        #: jobs re-dispatched after a worker death
    quarantined: int = 0    #: jobs resolved as poison after max retries
    respawns: int = 0       #: replacement workers spawned

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


class WorkerPool:
    """Fixed pool of spec executors with a Future-based submit API.

    ``submit`` returns a :class:`concurrent.futures.Future` resolving
    to :func:`execute_spec`'s reply dict — the asyncio server wraps it
    with :func:`asyncio.wrap_future`.  Thread-safe.  ``retries`` is the
    number of *re*-dispatches a job gets after killing a worker before
    it is quarantined; ``max_respawns`` bounds replacement workers over
    the pool's lifetime (budget spent + all workers dead = pool-dead).
    """

    def __init__(self, workers: int = 2, *, retries: int = 2,
                 max_respawns: int | None = None):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.retries = retries
        self.max_respawns = (workers * 8 if max_respawns is None
                             else max_respawns)
        self.stats = PoolStats()
        self._seq = 0
        self._lock = threading.Lock()
        self._tasks: dict[int, _Task] = {}
        self._closed = False
        self._pool_dead = False
        # Only "spawn" is safe: a fork()ed worker would inherit a ULT
        # pool without its threads.
        self._ctx = multiprocessing.get_context("spawn")
        self._queued: deque[_Task] = deque()
        self._slots = [_Slot() for _ in range(workers)]
        for slot in self._slots:
            self._spawn(slot)
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-pool-supervisor",
            daemon=True)
        self._supervisor.start()

    # -- introspection ------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Unresolved tasks (queued + executing)."""
        with self._lock:
            return len(self._tasks)

    @property
    def dead(self) -> bool:
        """True once every worker died and the respawn budget is spent."""
        return self._pool_dead

    def _live(self) -> list[Any]:
        """Worker processes still running."""
        with self._lock:
            return [s.proc for s in self._slots
                    if s.proc is not None and s.proc.is_alive()]

    def alive_workers(self) -> int:
        return len(self._live())

    def worker_pids(self) -> list[int]:
        """Live worker pids — lets operators and the chaos campaign aim
        kill signals at real workers."""
        return [proc.pid for proc in self._live()]

    def pool_stats(self) -> dict[str, Any]:
        return {"workers": self.workers,
                "workers_alive": self.alive_workers(),
                "backlog": self.backlog, "dead": self.dead,
                "retries_allowed": self.retries,
                **self.stats.to_dict()}

    # -- submission ---------------------------------------------------------

    def submit(self, spec_dict: dict[str, Any], *,
               chaos: dict[str, Any] | None = None) -> Future:
        if self._closed:
            raise RuntimeError("worker pool is closed")
        fut: Future = Future()
        with self._lock:
            if not self._pool_dead:
                self._seq += 1
                task = _Task(task_id=self._seq, spec_dict=spec_dict,
                             fut=fut, chaos=chaos)
                self._tasks[task.task_id] = task
                self._queued.append(task)
                self._dispatch()
                return fut
        fut.set_result(_pool_dead_reply())
        return fut

    def _resolve(self, task: _Task, out: dict[str, Any]) -> None:
        with self._lock:
            self._tasks.pop(task.task_id, None)
        if not task.fut.done():
            task.fut.set_result(out)

    # -- dispatch and supervision -------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        """Populate a slot with a fresh process and a fresh pipe — a
        stale message sent to a dead worker can never reach its
        replacement.  The worker's end is closed here once the worker
        holds it."""
        slot.conn, theirs = self._ctx.Pipe()
        slot.proc = self._ctx.Process(target=_worker_main, args=(theirs,),
                                      daemon=True)
        slot.proc.start()
        theirs.close()

    def _dispatch(self) -> None:
        """Send queued tasks down idle live workers' pipes (pool lock
        held).  A send to a worker that died meanwhile fails quietly:
        the worker keeps the task, and its sentinel retries it.  A
        closed pool dispatches nothing: :meth:`close` resolves the
        queue."""
        for slot in self._slots:
            if self._closed or not self._queued:
                return
            if slot.proc is None or slot.task is not None:
                continue
            task = slot.task = self._queued.popleft()
            task.attempts += 1
            with contextlib.suppress(OSError):
                slot.conn.send((task.task_id, task.spec_dict,
                                task.attempts, task.chaos))

    def _supervise(self) -> None:
        """The pool's one thread: wait on every live worker's pipe and
        process sentinel at once.  A reply frees its slot; EOF or a
        ready sentinel means the worker died.  Returns once no slot has
        a process left (pool closed or dead)."""
        while True:
            with self._lock:
                live = [s for s in self._slots if s.proc is not None]
            if not live:
                return
            ready = wait([x for s in live for x in (s.conn, s.proc.sentinel)])
            for slot in live:
                if slot.conn in ready or slot.proc.sentinel in ready:
                    self._service(slot)

    def _service(self, slot: _Slot) -> None:
        """Take the reply a worker sent, or handle its death.  A dead
        worker's pipe reads its last reply, if any, and then EOF."""
        try:
            reply = slot.conn.recv() if slot.conn.poll() else None
        except (EOFError, OSError):
            reply = None
        if reply is None:
            self._on_death(slot)
            return
        with self._lock:
            task, slot.task = slot.task, None   # the one task it was sent
            self._dispatch()
        self._resolve(task, reply[1])

    def _on_death(self, slot: _Slot) -> None:
        """Reap a dead worker; retry or quarantine its task, hand queued
        work to an idle live worker, *then* respawn within budget (a
        retry never waits for a new process's bootstrap), and declare
        the pool dead — failing every pending future with a typed reply
        — when no slot has a process left.  Once closed, only reap:
        :meth:`close` resolves what is left."""
        poisoned = None
        doomed: list[_Task] = []
        with self._lock:
            slot.proc.join()
            slot.conn.close()
            task, slot.proc, slot.conn, slot.task = slot.task, None, None, None
            if self._closed:
                return
            if task is not None and task.attempts > self.retries:
                self.stats.quarantined += 1
                poisoned = task
            elif task is not None:
                self.stats.retries += 1
                self._queued.append(task)
                self._dispatch()
            if self.stats.respawns < self.max_respawns:
                self.stats.respawns += 1
                self._spawn(slot)
                self._dispatch()
            elif all(s.proc is None for s in self._slots):
                self._pool_dead = True
                doomed = list(self._tasks.values())
                self._tasks.clear()
                self._queued.clear()
        if poisoned is not None:
            self._resolve(poisoned, {
                "record": None, "timeline_z": None,
                "error": (f"poison job: killed {poisoned.attempts} "
                          f"worker(s); quarantined"),
                "unrecoverable_reason": "poison-job",
                "reason": "poison-job",
                "attempts": poisoned.attempts})
        for task in doomed:
            if not task.fut.done():
                task.fut.set_result(_pool_dead_reply())

    # -- teardown -----------------------------------------------------------

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop accepting work and reap the workers.  Futures still
        pending afterwards resolve to a structured pool-closed error
        (the server drains in-flight jobs before closing, so in
        practice there are none)."""
        if self._closed:
            return
        self._closed = True
        # The supervisor reaps each worker as it exits and returns once
        # none is left; it is the only thread that joins them.
        with self._lock:
            for slot in self._slots:
                if slot.conn is not None:
                    with contextlib.suppress(OSError):
                        slot.conn.send(None)
        self._supervisor.join(timeout=timeout)
        with self._lock:
            for slot in self._slots:
                if slot.proc is not None:
                    slot.proc.terminate()
        self._supervisor.join(timeout=timeout)
        with self._lock:
            pending = list(self._tasks.values())
            self._tasks.clear()
        for task in pending:
            if not task.fut.done():
                task.fut.set_result({"record": None, "timeline_z": None,
                                     "error": "worker pool closed"})

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _pool_dead_reply() -> dict[str, Any]:
    return {"record": None, "timeline_z": None,
            "error": "all pool workers died and the respawn budget "
                     "is spent",
            "unrecoverable_reason": "pool-dead",
            "reason": "pool-dead"}
