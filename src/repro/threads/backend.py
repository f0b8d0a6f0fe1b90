"""Pluggable execution backends for user-level threads.

A :class:`UserLevelThread` needs a real OS stack to park blocked user
code on, but *how* that stack is provided is an implementation detail
the rest of the simulator never sees.  Two backends exist:

``thread``
    One OS thread per ULT, created at :meth:`UserLevelThread.start` and
    joined at teardown — the original, simple fallback.  Costs one
    thread create + join per virtual rank per job, which dominates
    sweeps at paper scale (hundreds–thousands of VPs per job).

``pooled``
    A process-wide pool of persistent worker threads.  A worker is
    bound to a ULT lazily at its first quantum and recycled the moment
    the ULT finishes or is killed, so ranks and whole jobs reuse the
    same OS threads: after the pool has warmed up to a job's high-water
    mark, running another job of the same scale performs **zero**
    thread creates/joins.  Baton handoff uses raw locks, the cheapest
    cross-thread wakeup CPython offers.

A backend hands each ULT a *runner* (:class:`UltRunner`).  Its two
primitives are one-way: ``wake()`` makes the ULT's stack runnable and
returns at once, ``wait()`` parks the calling ULT until it is woken.
They are all the baton ring needs — a ULT that stops running wakes its
successor's runner (or the :class:`Baton` the ``JobScheduler.run``
caller is parked on) and waits on its own.  The round-trip pair a
stand-alone ULT is driven with, ``resume()`` (caller side) and
``park()`` (ULT side), is the same two primitives plus a caller-side
token.

Determinism contract: backends only decide which OS stack runs a ULT's
body; they never touch simulated clocks, the run queue, or scheduling
order.  The same seed + workload therefore produces byte-identical
simulated timelines under either backend (enforced by tests).

Orphan accounting: an OS thread that outlives its join timeout (user
code swallowing :class:`~repro.threads.ult.UltKilled`, a wedged worker)
is *surfaced* instead of silently leaked — a warning is emitted and the
module-wide counter returned by :func:`orphan_count` grows, so sweeps
can assert they shut down clean.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import TYPE_CHECKING, Callable, Protocol

from _thread import allocate_lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.ult import UserLevelThread

#: default seconds to wait for a dying ULT thread before declaring it
#: orphaned (kept short in tests via the ``join_timeout`` argument)
JOIN_TIMEOUT_S = 5.0

_orphans = 0
_orphan_lock = threading.Lock()


def orphan_count() -> int:
    """OS threads that failed to terminate within their join timeout."""
    return _orphans


def consume_orphan_count() -> int:
    """Return the orphan count and reset it (shutdown-check idiom)."""
    global _orphans
    with _orphan_lock:
        n = _orphans
        _orphans = 0
    return n


def _record_orphan(name: str, context: str) -> None:
    global _orphans
    with _orphan_lock:
        _orphans += 1
    warnings.warn(
        f"ULT thread {name!r} did not terminate within its join timeout "
        f"({context}); {_orphans} orphan OS thread(s) now outstanding",
        ResourceWarning,
        stacklevel=3,
    )


class Wakeable(Protocol):
    """Something the baton can be handed to."""

    def wake(self) -> None:
        """Make the owner runnable; never blocks."""

    def wait(self) -> None:
        """Owner side: block until the next :meth:`wake`."""


class UltRunner(Wakeable, Protocol):
    """The OS stack of one ULT, as :class:`UserLevelThread` drives it."""

    def resume(self) -> None:
        """Caller side: wake the ULT, block until it parks or finishes."""

    def park(self) -> None:
        """ULT side: release the :meth:`resume` caller, then wait."""


class Baton:
    """Where a thread that is not a ULT waits for the baton — the
    ``JobScheduler.run`` caller, while its ULTs dispatch each other."""

    __slots__ = ("wake", "wait")

    def __init__(self) -> None:
        lock = allocate_lock()
        lock.acquire()
        self.wake = lock.release
        self.wait = lock.acquire


class ExecutionBackend:
    """Interface a ULT uses to obtain and release its OS stack.

    ``attach`` is called from :meth:`UserLevelThread.start`; ``bind``
    the first time the ULT is given the baton and must return its
    :class:`UltRunner`.  ``reap`` releases whatever ``attach``/``bind``
    allocated once the ULT has finished.

    A runner's thread, once ``ult._main()`` returns, hands the baton to
    ``ult.dispatcher()`` if the ULT has a dispatcher and to the
    ``resume()`` caller otherwise.
    """

    name = "abstract"

    def attach(self, ult: "UserLevelThread") -> None:
        raise NotImplementedError

    def bind(self, ult: "UserLevelThread") -> UltRunner:
        raise NotImplementedError

    def reap(self, ult: "UserLevelThread", timeout: float | None = None) -> bool:
        """Release ``ult``'s OS resources; True if anything leaked."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# thread backend: one OS thread per ULT (the fallback)
# ---------------------------------------------------------------------------


class _ThreadRunner:
    """Event-baton runner owning a dedicated OS thread."""

    __slots__ = ("_my_turn", "_caller_turn", "thread", "_ult")

    def __init__(self, ult: "UserLevelThread"):
        self._my_turn = threading.Event()
        self._caller_turn = threading.Event()
        self._ult = ult
        self.thread = threading.Thread(
            target=self._bootstrap, name=f"ult-{ult.name}", daemon=True
        )
        self.thread.start()

    def _bootstrap(self) -> None:
        self.wait()
        ult = self._ult
        try:
            ult._main()
        finally:
            dispatch = ult.dispatcher
            if dispatch is None:
                self._caller_turn.set()
            else:
                dispatch().wake()

    def wake(self) -> None:
        self._my_turn.set()

    def wait(self) -> None:
        # Cleared after the wait, not before it: a wake that arrives
        # before this thread gets here must not be lost.
        self._my_turn.wait()
        self._my_turn.clear()

    def resume(self) -> None:
        self.wake()
        self._caller_turn.wait()
        self._caller_turn.clear()

    def park(self) -> None:
        self._caller_turn.set()
        self.wait()


class ThreadBackend(ExecutionBackend):
    """One OS thread per ULT, spawned eagerly at ``start()``."""

    name = "thread"

    def attach(self, ult: "UserLevelThread") -> None:
        ult._runner = _ThreadRunner(ult)

    def bind(self, ult: "UserLevelThread") -> _ThreadRunner:
        # attach() already bound a runner; bind is only reached when a
        # ULT was constructed without start() being called through the
        # normal path, which start() forbids.
        return ult._runner

    def reap(self, ult: "UserLevelThread", timeout: float | None = None) -> bool:
        runner = ult._runner
        if runner is None or runner.thread is None:
            return False
        t = runner.thread
        t.join(timeout=JOIN_TIMEOUT_S if timeout is None else timeout)
        # Drop the reference either way: a thread that survived its join
        # timeout is recorded as an orphan exactly once, then abandoned
        # (daemonized) rather than re-joined 5s at a time forever.
        runner.thread = None
        if t.is_alive():
            _record_orphan(t.name, "thread backend reap")
            return True
        return False


# ---------------------------------------------------------------------------
# pooled backend: persistent workers, recycled across ULTs and jobs
# ---------------------------------------------------------------------------


class _PoolWorker:
    """A persistent OS thread that hosts one ULT at a time.

    The two raw locks form the baton: ``_resume`` is the ULT side's
    token, ``_yield`` the caller side's.  Both start held, so either
    party blocks until the other hands over.  One worker services many
    ULT lifetimes; binding costs two attribute writes.
    """

    __slots__ = ("_resume", "_yield", "_pool", "_ult", "thread")

    def __init__(self, pool: "PooledBackend", index: int):
        self._resume = allocate_lock()
        self._resume.acquire()
        self._yield = allocate_lock()
        self._yield.acquire()
        self._pool = pool
        self._ult: "UserLevelThread | None" = None
        self.thread = threading.Thread(
            target=self._loop, name=f"ult-pool-w{index}", daemon=True
        )
        self.thread.start()

    def _loop(self) -> None:
        while True:
            self.wait()                # first wake of a bound ULT
            ult = self._ult
            if ult is None:            # shutdown sentinel
                return
            ult._main()
            # Unbind and recycle BEFORE passing the baton on: whoever
            # holds it next may rebind this worker immediately.  That
            # includes the dispatcher below — a successor that has no
            # stack yet gets this one, and its body starts on this very
            # thread without any OS handoff.
            self._ult = None
            self._pool._recycle(self)
            dispatch = ult.dispatcher
            if dispatch is None:
                self._yield.release()  # resume() returns with DONE/ERROR
            else:
                dispatch().wake()

    # -- runner protocol -----------------------------------------------------

    def wake(self) -> None:
        self._resume.release()

    def wait(self) -> None:
        self._resume.acquire()

    def resume(self) -> None:
        self.wake()
        self._yield.acquire()

    def park(self) -> None:
        self._yield.release()
        self.wait()


class PooledBackend(ExecutionBackend):
    """Fixed pool of worker threads reused across ULT lifetimes and jobs.

    The pool starts empty (or at ``prewarm``) and grows on demand to the
    high-water mark of simultaneously-live ULTs; workers are never
    destroyed until :meth:`close`.  ``kill()`` on a ULT unwinds its user
    stack and recycles the worker instead of joining an OS thread.
    """

    name = "pooled"

    def __init__(self, prewarm: int = 0):
        self._free: list[_PoolWorker] = []
        self._lock = threading.Lock()
        self.created = 0       #: workers ever created (== high-water mark)
        self.binds = 0         #: ULT lifetimes served
        self.closed = False
        if prewarm:
            self.prewarm(prewarm)

    # -- worker management ---------------------------------------------------

    def _new_worker(self) -> _PoolWorker:
        w = _PoolWorker(self, self.created)
        self.created += 1
        return w

    def prewarm(self, n: int) -> None:
        """Grow the free list to at least ``n`` idle workers."""
        with self._lock:
            while len(self._free) < n:
                self._free.append(self._new_worker())

    def _recycle(self, worker: _PoolWorker) -> None:
        with self._lock:
            if self.closed:
                worker._ult = None
                worker._resume.release()   # let the loop exit
                return
            self._free.append(worker)

    def idle_workers(self) -> int:
        with self._lock:
            return len(self._free)

    # -- backend interface ---------------------------------------------------

    def attach(self, ult: "UserLevelThread") -> None:
        # Lazy: no OS resources until the ULT first runs, so ranks that
        # are killed before their first quantum never consume a worker.
        return

    def bind(self, ult: "UserLevelThread") -> _PoolWorker:
        with self._lock:
            if self.closed:
                raise RuntimeError("pooled ULT backend is closed")
            self.binds += 1
            worker = self._free.pop() if self._free else self._new_worker()
        worker._ult = ult
        return worker

    def reap(self, ult: "UserLevelThread", timeout: float | None = None) -> bool:
        # Workers persist by design; a finished ULT's worker is already
        # back in the pool.  A ULT still bound after kill() means user
        # code swallowed UltKilled and wedged the worker — surface it.
        runner = ult._runner
        if runner is not None and runner._ult is ult and not ult.finished:
            if not getattr(ult, "_orphan_recorded", False):
                ult._orphan_recorded = True
                _record_orphan(runner.thread.name, "pooled worker wedged")
                return True
        return False

    def close(self) -> int:
        """Terminate idle workers (tests / interpreter teardown).

        Returns the number of workers told to exit.  Workers currently
        bound to live ULTs are left alone and counted as leaked by
        their owner's shutdown path.
        """
        with self._lock:
            self.closed = True
            idle = self._free
            self._free = []
        for w in idle:
            w._ult = None
            w._resume.release()
        for w in idle:
            w.thread.join(timeout=JOIN_TIMEOUT_S)
        return len(idle)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, Callable[[], ExecutionBackend]] = {
    "thread": ThreadBackend,
    "pooled": PooledBackend,
}

_instances: dict[str, ExecutionBackend] = {}
_default: ExecutionBackend | None = None


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def get_backend(spec: "str | ExecutionBackend | None") -> ExecutionBackend:
    """Resolve a backend name/instance/None to a live backend.

    Names resolve to process-wide shared instances so the pooled
    backend's workers are reused across jobs, which is the point.
    ``None`` resolves to the default backend (the ``REPRO_ULT_BACKEND``
    environment variable, else ``thread``).
    """
    if spec is None:
        return default_backend()
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        factory = _BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown ULT backend {spec!r}; known: {backend_names()}"
        ) from None
    inst = _instances.get(spec)
    if inst is None or getattr(inst, "closed", False):
        inst = _instances[spec] = factory()
    return inst


def default_backend() -> ExecutionBackend:
    global _default
    if _default is None:
        _default = get_backend(os.environ.get("REPRO_ULT_BACKEND", "thread"))
    elif getattr(_default, "closed", False):
        # Someone closed the shared pool (a test, `repro bench`); follow
        # get_backend(name) to its replacement instead of handing out a
        # backend that can never bind again.
        _default = get_backend(_default.name)
    return _default


def set_default_backend(spec: "str | ExecutionBackend | None") -> ExecutionBackend:
    """Set (and return) the process-wide default ULT backend."""
    global _default
    _default = None if spec is None else get_backend(spec)
    return default_backend()
