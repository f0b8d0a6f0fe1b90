"""User-level threads: one ``step()`` per quantum, whatever the body.

:meth:`UserLevelThread.step` runs one quantum and returns to its caller
with the outcome in ``state``; the target's shape decides how.

A *generator function* suspends by yielding the reason it blocks on, so
it needs no stack of its own: ``step()`` resumes it on the calling stack
and ``kill()`` throws :class:`UltKilled` in at the ``yield``.  The
generator is made at the first quantum and never copied: a restarted
rank gets a fresh ULT.

A *plain function* blocks in the middle of an ordinary call stack, so it
runs on a real OS stack: a worker of the
:class:`~repro.threads.backend.PooledBackend`, bound at the first
quantum.  ``step()`` wakes the worker and waits on the ULT's own
:class:`~repro.threads.backend.Baton`, which :meth:`~UserLevelThread.yield_`
and the worker (once the body has returned) wake: a round trip, two OS
handoffs per quantum.  Exactly one thread is runnable at any instant, so
no user-visible locking is needed and execution is deterministic
whatever state the pool is in.  :func:`drive` lets plain code call
generator-form code.

Simulated time lives in ``ult.clock`` (a :class:`~repro.perf.clock.SimClock`);
the real threads exist only to give user code an ordinary blocking call
stack, like AMPI gives legacy MPI code.
"""

from __future__ import annotations

import enum
from inspect import CO_GENERATOR, isgeneratorfunction
from typing import Any, Callable, Generator

from repro.errors import ReproError
from repro.perf.clock import SimClock
from repro.threads.backend import Baton, PooledBackend, Wakeable, get_backend


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


class _Unplaced:
    """The owner of a ULT nothing has placed, and its PE: one that is never
    busy, so a bare run queue orders such ULTs by ready time alone."""
    __slots__ = ()
    busy_until = 0


UNPLACED = _Unplaced.pe = _Unplaced()


class UserLevelThread:
    """One cooperative thread of execution with its own simulated clock."""

    __slots__ = ("tid", "name", "target", "args", "stack_bytes", "backend",
                 "owner", "clock", "state", "block_reason", "result",
                 "exception", "stackless", "gen", "_kill", "_runner", "_back",
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
        #: what runs on this ULT: the run queue buckets it on
        #: ``owner.pe``; a job's scheduler makes it the rank it registers
        self.owner: Any = UNPLACED
        self.clock = SimClock()
        self.state = UltState.NEW
        self.block_reason: str = ""
        self.result: Any = None
        self.exception: BaseException | None = None

        #: the target is a generator function (:meth:`start` looks)
        self.stackless = False
        #: the generator whose ``yield from`` chain the code on this ULT
        #: blocks through: the target's, once :meth:`step` has made it,
        #: else the one :func:`drive` is running; None under plain code
        self.gen: Generator[str, None, Any] | None = None
        self._kill = False
        #: the provider's stack for a plain target, bound at its first
        #: quantum together with the baton ``step()``'s caller waits on
        self._runner: Wakeable | None = None
        self._back: Baton
        #: set once the pool has reported this ULT's worker as wedged
        self._orphan_recorded = False

    # -- lifecycle (scheduler side) ---------------------------------------------

    def start(self) -> None:
        """Make the ULT runnable, paused before user code runs.

        No OS resource is taken here: a pool worker is bound at the
        first :meth:`step`, so never-run ULTs cost nothing.
        """
        if self.state is not UltState.NEW:
            raise ReproError(f"ULT {self.name} already started")
        # isgeneratorfunction's answer, read off the code object (a bound
        # method forwards ``__code__``); inspect unwraps anything else
        try:
            self.stackless = self.target.__code__.co_flags & CO_GENERATOR != 0
        except AttributeError:
            self.stackless = isgeneratorfunction(self.target)
        self.state = UltState.READY

    def step(self) -> None:
        """One quantum, back on the calling stack when it is over: a
        generator target is resumed right here until it yields the next
        reason or finishes, a plain one is woken on its pool worker
        while the caller waits.  Never raises what the body raised; the
        outcome is in ``state`` and what goes with it."""
        if self.state not in (UltState.READY, UltState.BLOCKED):
            raise ReproError(
                f"cannot switch to ULT {self.name} in state {self.state.value}"
            )
        self.state = UltState.RUNNING
        if not self.stackless:
            runner = self._runner
            if runner is None:
                self._back = Baton()
                runner = self._runner = self.backend.bind(self)
            runner.wake()
            self._back.wait()
            return
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

    def switch_in(self) -> UltState:
        """:meth:`step`, returning the state it left the ULT in."""
        self.step()
        return self.state

    def kill(self) -> None:
        """Force the ULT to unwind (used at abnormal shutdown): one more
        :meth:`step`, in which the body gets :class:`UltKilled` where it
        is suspended — raised by ``yield_`` or thrown in at the ``yield``.

        The unwound ULT's pool worker is recycled; a plain body that
        swallowed the kill and yielded again keeps its worker, which
        :meth:`join_thread` surfaces through the orphan counter instead
        of silently ignoring it.  A generator that does so is closed —
        there is no worker to wedge.
        """
        if self.state in (UltState.DONE, UltState.ERROR, UltState.NEW):
            return
        self._kill = True
        if self._runner is not None or self.gen is not None:
            self.step()
            if self.finished or not self.stackless:
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
        """Suspend (plain targets; called on the runner's stack): hand
        back to :meth:`step`'s caller, return at the next ``step()``."""
        self.block_reason = reason
        self.state = UltState.BLOCKED
        self._back.wake()
        self._runner.wait()
        if self._kill:
            raise UltKilled(self.name)
        self.block_reason = ""

    def _main(self) -> None:
        """A plain target's body, executed on the backing OS stack
        (worker-invoked; the worker wakes ``_back`` afterwards).

        The first wake has already been consumed by the pool worker
        before this runs.  Never raises: all outcomes are captured in
        ``state``/``result``/``exception`` for the scheduler.
        """
        try:
            self.result = self.target(*self.args)
            self.state = UltState.DONE
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
