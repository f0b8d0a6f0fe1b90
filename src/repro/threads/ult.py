"""User-level threads: generator targets stepped in place, plain targets
passing a baton between OS stacks.

A target that is a *generator function* suspends by yielding the reason
it blocks on, so it needs no stack of its own:
:meth:`UserLevelThread.step` resumes it on the caller's (a job of such
ULTs never leaves ``JobScheduler.run``'s thread) and ``kill()`` throws
:class:`UltKilled` in at the ``yield``.  The generator is made at the
first quantum and never copied: a restarted rank gets a fresh ULT.

A *plain function* blocks in the middle of an ordinary call stack, so it
runs on a real OS stack: a recycled worker of a
:class:`~repro.threads.backend.PooledBackend`.  The stack spends almost
all of its life blocked on a private baton.  At any instant exactly one
thread holds the baton and is runnable, so no user-visible locking is
needed and execution is fully deterministic whatever state the pool is
in.  :func:`drive` adapts the first shape to the second.

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
from inspect import isgeneratorfunction
from typing import Any, Callable, Generator

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
                 "dispatcher", "stackless", "gen", "_kill", "_runner",
                 "_orphan_recorded")

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

        #: the target is a generator function (:meth:`start` looks)
        self.stackless = False
        #: the generator whose ``yield from`` chain the code on this ULT
        #: blocks through: the target's, once :meth:`step` has made it,
        #: else the one :func:`drive` is running; None under plain code
        self.gen: Generator[str, None, Any] | None = None
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
        self.stackless = isgeneratorfunction(self.target)
        self.state = UltState.READY

    def _enter(self) -> None:
        if self.state not in (UltState.READY, UltState.BLOCKED):
            raise ReproError(
                f"cannot switch to ULT {self.name} in state {self.state.value}"
            )
        self.state = UltState.RUNNING

    def activate(self) -> Wakeable:
        """Mark the ULT running and return the runner that will run it
        (bound on first use); whoever holds the baton passes it with
        ``wake()``."""
        self._enter()
        runner = self._runner
        if runner is None:
            runner = self._runner = self.backend.bind(self)
        return runner

    def step(self) -> None:
        """One quantum of a stackless ULT, on the calling stack: resume
        its generator until it yields the next reason or finishes.  Never
        raises; the outcome is in ``state`` and what goes with it."""
        self._enter()
        try:
            gen = self.gen
            if gen is None:
                gen = self.gen = self.target(*self.args)
            if self._kill:
                reason = gen.throw(UltKilled(self.name))
            else:
                reason = gen.send(None)
        except StopIteration as stop:
            self.result = stop.value
            self.state = UltState.DONE
        except BaseException as e:  # noqa: BLE001 - reported to the scheduler
            self.state = UltState.ERROR
            self.exception = e
        else:
            self.block_reason = reason
            self.state = UltState.BLOCKED

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
        of silently ignoring it.  A stepped generator gets the same
        :class:`UltKilled` at its ``yield``; one that swallows it and
        yields again is closed — there is no worker to wedge.
        """
        if self.state in (UltState.DONE, UltState.ERROR, UltState.NEW):
            return
        self._kill = True
        if self._runner is not None:
            # Returns only once the ULT has unwound (or yielded again, if
            # user code swallowed UltKilled) — to this caller, not onward
            # round whatever ring the ULT was in.  Leak detection happens
            # in join_thread()/backend.reap so a wedged stack is reported
            # exactly once.
            self._run_until_back(self._runner)
            return
        if self.gen is not None:
            self.step()
            if self.finished:
                return
            try:
                self.gen.close()
            except RuntimeError:    # swallowed GeneratorExit as well
                pass
        # Else started but never ran: no user stack exists to unwind.
        self.state = UltState.ERROR
        self.exception = UltKilled(self.name)

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
            result = self.target(*self.args)
            if self.stackless:
                result = drive(self, result)
            self.result = result
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


def drive(ult: UserLevelThread, gen: Generator[str, None, Any]) -> Any:
    """The one adapter from generator-form code to a plain caller: run
    ``gen`` to completion on ``ult``'s own OS stack, parking in
    :meth:`UserLevelThread.yield_` at each reason it yields (the kill
    that raises is thrown in there).  Returns what ``gen`` returns."""
    outer, ult.gen = ult.gen, gen
    try:
        reason = gen.send(None)
        while True:
            try:
                ult.yield_(reason)
            except BaseException as e:  # noqa: BLE001 - the generator's to handle
                reason = gen.throw(e)
            else:
                reason = gen.send(None)
    except StopIteration as stop:
        return stop.value
    finally:
        ult.gen = outer
