"""Baton-passing user-level threads.

Each :class:`UserLevelThread` runs its user code on a real OS stack: a
recycled worker of a :class:`~repro.threads.backend.PooledBackend`.  The
stack spends almost all of its life blocked on a private baton.  At any
instant exactly one thread holds the baton and is runnable, so no
user-visible locking is needed and execution is fully deterministic
whatever state the pool is in.

The baton moves in one way.  A ULT that yields or finishes asks its
:attr:`~UserLevelThread.dispatcher`, on its own stack, who runs next,
wakes that successor directly and parks: one OS-thread handoff per
quantum, none when the ULT is its own successor.  ``JobScheduler.run``
installs its loop body as the dispatcher of every rank; its caller waits
on a :class:`~repro.threads.backend.Baton` until the ring hands it back.
A stand-alone ULT (probes, tests, forced shutdown) rides the same ring
with a one-party successor: :meth:`UserLevelThread.switch_in` and
:meth:`UserLevelThread.kill` install a dispatcher that names the
caller's own ``Baton``, wake the ULT and wait there.  ``kill`` thereby
takes a ULT out of whatever ring it was in, so unwinding a stack is
always done by — and returns to — the thread that asked for it.

Simulated time lives in ``ult.clock`` (a :class:`~repro.perf.clock.SimClock`);
the real threads exist only to give user code an ordinary blocking call
stack, like AMPI gives legacy MPI code.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.errors import ReproError
from repro.perf.clock import SimClock
from repro.threads.backend import (
    Baton,
    PooledBackend,
    Wakeable,
    get_backend,
)


class UltState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    ERROR = "error"


class UltKilled(BaseException):
    """Raised inside a ULT to unwind its stack at forced shutdown.

    Derives from BaseException so user ``except Exception`` blocks cannot
    swallow it.
    """


class UserLevelThread:
    """One cooperative thread of execution with its own simulated clock."""

    __slots__ = ("tid", "name", "target", "args", "stack_bytes", "backend",
                 "clock", "state", "block_reason", "result", "exception",
                 "dispatcher", "_kill", "_runner", "_orphan_recorded")

    _id_counter = 0

    def __init__(
        self,
        name: str,
        target: Callable[..., Any],
        args: tuple = (),
        stack_bytes: int = 1 << 20,
        backend: "PooledBackend | str | None" = None,
    ):
        UserLevelThread._id_counter += 1
        self.tid = UserLevelThread._id_counter
        self.name = name
        self.target = target
        self.args = args
        self.stack_bytes = stack_bytes  #: simulated ULT stack reservation
        self.backend = get_backend(backend)
        self.clock = SimClock()
        self.state = UltState.NEW
        self.block_reason: str = ""
        self.result: Any = None
        self.exception: BaseException | None = None

        #: called on this ULT's stack when it yields or finishes;
        #: returns whom to wake next — a ULT's runner (this ULT's own:
        #: keep running) or a waiting thread's baton.  Must not raise.
        #: Installed by whoever gives this ULT the baton, before it does
        #: (``switch_in``/``kill``, ``JobScheduler.run``): there is no
        #: default, a ULT never runs without one.
        self.dispatcher: Callable[[], Wakeable]

        self._kill = False
        #: the provider's stack for this ULT, bound at its first quantum
        self._runner: Wakeable | None = None
        #: set once the pool has reported this ULT's worker as wedged
        self._orphan_recorded = False

    # -- lifecycle (scheduler side) ---------------------------------------------

    def start(self) -> None:
        """Make the ULT runnable, paused before user code runs.

        No OS resource is taken here: a pool worker is bound at the
        first :meth:`activate`, so never-run ULTs cost nothing.
        """
        if self.state is not UltState.NEW:
            raise ReproError(f"ULT {self.name} already started")
        self.state = UltState.READY

    def activate(self) -> Wakeable:
        """Mark the ULT running and return the runner that will run it
        (bound on first use); whoever holds the baton passes it with
        ``wake()``."""
        if self.state not in (UltState.READY, UltState.BLOCKED):
            raise ReproError(
                f"cannot switch to ULT {self.name} in state {self.state.value}"
            )
        runner = self._runner
        if runner is None:
            runner = self._runner = self.backend.bind(self)
        self.state = UltState.RUNNING
        return runner

    def _run_until_back(self, runner: Wakeable) -> None:
        """Pass the baton to ``runner`` (this ULT's) and wait for it:
        the ring with the calling thread as the only successor."""
        back = Baton()
        self.dispatcher = lambda: back
        runner.wake()
        back.wait()

    def switch_in(self) -> UltState:
        """Hand the baton to this ULT; returns when it yields or finishes."""
        self._run_until_back(self.activate())
        return self.state

    def kill(self) -> None:
        """Force the ULT to unwind (used at abnormal shutdown).

        The unwound ULT's pool worker is recycled; a ULT whose user code
        swallowed :class:`UltKilled` keeps its worker, which
        :meth:`join_thread` surfaces through the orphan counter instead
        of silently ignoring it.
        """
        if self.state in (UltState.DONE, UltState.ERROR, UltState.NEW):
            return
        self._kill = True
        if self._runner is None:
            # Started but never ran: no user stack exists to unwind.
            self.state = UltState.ERROR
            self.exception = UltKilled(self.name)
            return
        # Returns only once the ULT has unwound (or yielded again, if
        # user code swallowed UltKilled) — to this caller, not onward
        # round whatever ring the ULT was in.  Leak detection happens in
        # join_thread()/backend.reap so a wedged stack is reported
        # exactly once.
        self._run_until_back(self._runner)

    def join_thread(self) -> bool:
        """Check the ULT gave its pool worker back; True if it leaked."""
        return self.backend.reap(self)

    # -- ULT side -----------------------------------------------------------------

    def yield_(self, reason: str = "yield") -> None:
        """Suspend; returns when this ULT is given the baton again."""
        self.block_reason = reason
        self.state = UltState.BLOCKED
        runner = self._runner
        assert runner is not None  # yield_ is called on the runner's stack
        successor = self.dispatcher()
        if successor is not runner:
            successor.wake()
            runner.wait()
        if self._kill:
            raise UltKilled(self.name)
        self.block_reason = ""

    def _main(self) -> None:
        """Body executed on the backing OS stack (worker-invoked).

        The first wake has already been consumed by the pool worker
        before this runs.  Never raises: all outcomes are captured in
        ``state``/``result``/``exception`` for the scheduler.
        """
        if self._kill:
            self.state = UltState.ERROR
            self.exception = UltKilled(self.name)
            return
        try:
            self.result = self.target(*self.args)
            self.state = UltState.DONE
        except UltKilled as e:
            self.state = UltState.ERROR
            self.exception = e
        except BaseException as e:  # noqa: BLE001 - reported to the scheduler
            self.state = UltState.ERROR
            self.exception = e

    # -- introspection --------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in (UltState.DONE, UltState.ERROR)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ULT({self.name}, {self.state.value}, t={self.clock.now}ns"
            + (f", blocked on {self.block_reason}" if self.block_reason else "")
            + ")"
        )
