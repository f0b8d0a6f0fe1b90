"""The OS stacks plain-function ULTs run on: one persistent worker pool.

A :class:`UserLevelThread` whose target is a plain function needs a real
OS stack to park blocked user code on (a generator target is stepped on
its caller's and needs none).  :class:`PooledBackend` provides it: a pool
of persistent worker threads, one bound to a ULT lazily at its first
quantum and recycled the moment the ULT finishes or is killed, so ranks
and whole jobs reuse the same OS threads — after the pool has warmed up
to a job's high-water mark, running another job of the same scale
performs **zero** thread creates/joins.  Handoff uses raw locks, the
cheapest cross-thread wakeup CPython offers.

The pool hands each ULT a *runner*: a :class:`Wakeable`, whose two
one-way primitives are the whole provider contract.  ``wake()`` makes
the ULT's stack runnable and returns at once, ``wait()`` parks the
calling ULT until it is woken.  A quantum is a round trip:
``UserLevelThread.step`` wakes the runner and waits on the ULT's own
:class:`Baton`; the ULT, when it yields, wakes that baton and waits on
its runner — and when its body returns, the worker wakes it instead.

:func:`get_backend` resolves ``None`` to the process-wide shared pool;
tests and probes pass a private :class:`PooledBackend` instance instead
(``UserLevelThread(backend=...)``, ``AmpiJob(ult_backend=...)``).  That
is the whole seam: the target's shape decides whether a ULT takes a
stack at all, and nothing selects a provider beside this one.

Determinism contract: the pool only decides which OS stack runs a ULT's
body; it never touches simulated clocks, the run queue, or scheduling
order.  The same seed + workload therefore produces byte-identical
simulated timelines whatever state the pool is in (enforced by tests).

Orphan accounting: a worker whose ULT outlives its kill (user code
swallowing :class:`~repro.threads.ult.UltKilled`) is *surfaced* instead
of silently leaked — a warning is emitted and the module-wide counter
returned by :func:`orphan_count` grows, so sweeps can assert they shut
down clean.
"""

from __future__ import annotations

import threading
import warnings
from typing import TYPE_CHECKING, Protocol

from _thread import allocate_lock

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.ult import UserLevelThread

#: seconds :meth:`PooledBackend.close` waits for each idle worker to exit
JOIN_TIMEOUT_S = 5.0

_orphans = 0
_orphan_lock = threading.Lock()


def orphan_count() -> int:
    """Pool workers lost to ULTs that did not terminate when killed."""
    return _orphans


def consume_orphan_count() -> int:
    """Return the orphan count and reset it (shutdown-check idiom)."""
    global _orphans
    with _orphan_lock:
        n = _orphans
        _orphans = 0
    return n


def _record_orphan(name: str) -> None:
    global _orphans
    with _orphan_lock:
        _orphans += 1
        outstanding = _orphans
    warnings.warn(
        f"ULT thread {name!r} did not terminate when its ULT was killed "
        f"(pooled worker wedged); {outstanding} orphan OS thread(s) now "
        f"outstanding",
        ResourceWarning,
        stacklevel=3,
    )


class Wakeable(Protocol):
    """Something the baton can be handed to — the provider contract."""

    def wake(self) -> None:
        """Make the owner runnable; never blocks."""

    def wait(self) -> None:
        """Owner side: block until the next :meth:`wake`."""


class Baton:
    """A raw lock, born held, that its owner waits on.

    On its own it is where the caller of ``UserLevelThread.step`` waits
    for a plain-function ULT's quantum to end.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = allocate_lock()
        self._lock.acquire()

    def wake(self) -> None:
        self._lock.release()

    def wait(self) -> None:
        self._lock.acquire()


# ---------------------------------------------------------------------------
# persistent workers, recycled across ULTs and jobs
# ---------------------------------------------------------------------------


class _PoolWorker(Baton):
    """A persistent OS thread that hosts one ULT at a time: a baton
    with a stack behind it.  One worker services many ULT lifetimes;
    binding costs two attribute writes."""

    __slots__ = ("_pool", "_ult", "thread")

    def __init__(self, pool: "PooledBackend", index: int):
        super().__init__()
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
            # Unbind and recycle BEFORE waking whoever stepped the ULT:
            # they may rebind this worker immediately.  And park holding
            # nothing: a local left bound here would keep the finished
            # ULT — its rank, job, heaps and segments — reachable until
            # this worker's next bind, so the previous job's memory
            # would overlap the next job's start-up.
            self._ult = None
            self._pool._recycle(self)
            back, ult = ult._back, None
            back.wake()


class PooledBackend:
    """Pool of worker threads reused across ULT lifetimes and jobs.

    The pool starts empty (or at ``prewarm``) and grows on demand to the
    high-water mark of simultaneously-live ULTs; workers are never
    destroyed until :meth:`close`.  ``kill()`` on a ULT unwinds its user
    stack and recycles the worker instead of joining an OS thread.

    A plain-function ULT takes a worker with :meth:`bind` at its first
    quantum — never-run ULTs cost nothing.  The worker, once
    ``ult._main()`` returns, wakes the ``step()`` caller.
    """

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
                worker.wake()              # unbound: lets the loop exit
                return
            self._free.append(worker)

    def idle_workers(self) -> int:
        with self._lock:
            return len(self._free)

    # -- ULT interface -------------------------------------------------------

    def bind(self, ult: "UserLevelThread") -> _PoolWorker:
        with self._lock:
            if self.closed:
                raise RuntimeError("pooled ULT backend is closed")
            self.binds += 1
            worker = self._free.pop() if self._free else self._new_worker()
        worker._ult = ult
        return worker

    def reap(self, ult: "UserLevelThread") -> bool:
        """True if ``ult`` leaked its worker (reported exactly once).

        Workers persist by design; a finished ULT's worker is already
        back in the pool.  A ULT still bound after kill() means user
        code swallowed UltKilled and wedged the worker — surface it.
        """
        runner = ult._runner
        if (isinstance(runner, _PoolWorker) and runner._ult is ult
                and not ult.finished and not ult._orphan_recorded):
            ult._orphan_recorded = True
            _record_orphan(runner.thread.name)
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
            w.wake()
        for w in idle:
            w.thread.join(timeout=JOIN_TIMEOUT_S)
        return len(idle)


_shared: PooledBackend | None = None


def get_backend(spec: "str | PooledBackend | None") -> PooledBackend:
    """Resolve ``None``/``"pooled"``/a pool instance to a live pool.

    ``None`` and ``"pooled"`` resolve to the process-wide shared pool
    (re-created if someone closed it), so its workers are reused across
    jobs, which is the point.
    """
    global _shared
    if isinstance(spec, PooledBackend):
        return spec
    if spec is not None and spec != "pooled":
        raise ValueError(
            f"unknown ULT backend {spec!r}; the only stack provider is "
            f"'pooled' (or pass a PooledBackend instance)"
        )
    if _shared is None or _shared.closed:
        _shared = PooledBackend()
    return _shared
