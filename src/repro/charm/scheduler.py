"""The global message-driven scheduler.

One sequential event loop simulates every PE in the job.  It always
resumes the ULT with the smallest *effective start time*
(``max(ready_time, its PE's busy_until)``), which preserves causality:
a running rank can only influence simulated times at or after its own
clock, and nothing with an earlier effective start exists when it runs.

Per context switch the scheduler charges the baseline switch cost plus
the active privatization method's surcharge (TLS pointer swap, GOT swap)
— the quantity Figure 6 measures.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable, Generator

from repro.errors import DeadlockError, ReproError
from repro.perf.costs import CostModel
from repro.perf.counters import CounterSet, EV_CTX_SWITCH
from repro.threads.runqueue import RunQueue
from repro.threads.ult import UltState

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.vrank import VirtualRank
    from repro.trace.recorder import TraceRecorder


class JobScheduler:
    """Runs all virtual ranks of a job to completion."""

    def __init__(self, costs: CostModel, ctx_switch_extra_ns: int = 0,
                 trace: TraceRecorder | None = None,
                 trace_pid_base: int = 0, trace_label: str = "",
                 counters: CounterSet | None = None):
        self.costs = costs
        self.ctx_switch_extra_ns = ctx_switch_extra_ns
        self.trace = trace
        self.trace_pid_base = trace_pid_base
        self.trace_label = trace_label
        #: the job's set when the runtime passes one (there is one
        #: tally per job, not one per component to merge afterwards)
        self.counters = counters if counters is not None else CounterSet()
        self.current: "VirtualRank | None" = None
        self._all_ranks: list["VirtualRank"] = []
        #: ULTs that kept their pool worker past the kill at shutdown
        self.orphaned = 0
        self.runq = RunQueue()
        #: (pe index, vp, start ns) per scheduling quantum, in order —
        #: consumed by the instruction-cache study to reconstruct the
        #: interleaving of rank code on each PE.
        self.timeline: list[tuple[int, int, int]] = []
        #: called after each rank finishes (runtime hooks e.g. finalize)
        self.on_rank_done: Callable[["VirtualRank"], None] | None = None
        #: fault-injection hook, called with each quantum's effective
        #: start time before it runs; returning True means a fault fired
        #: and rolled the job back — the popped quantum is stale
        self.fault_check: Callable[[int], bool] | None = None
        #: sanitizer epoch hook, called once per scheduling quantum;
        #: ``None`` (the default) keeps the hot loop untouched
        self.on_quantum: Callable[[], None] | None = None
        #: simulated-time timer heap ``(at_ns, seq, callback)`` — used by
        #: the reliable transport for retransmission timeouts and by the
        #: message log for replay wakeups.  Empty (and therefore free in
        #: the hot loop) unless a subsystem schedules one.
        self._timers: list[tuple[int, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()

    # -- setup ------------------------------------------------------------------

    def register(self, rank: "VirtualRank", start_time: int) -> None:
        ult = rank.ult
        if ult is None:
            raise ReproError(f"rank {rank.vp} has no ULT")
        ult.owner = rank
        self._all_ranks.append(rank)
        ult.start()
        self.runq.push(ult, start_time)

    def reregister(self, rank: "VirtualRank", start_time: int) -> None:
        """Re-admit a rank after fault recovery gave it a fresh ULT.

        The rank stays in ``_all_ranks``.  A quantum still queued for its
        dead ULT generation is skipped when popped: that ULT's owner has
        moved on to another ULT.
        """
        ult = rank.ult
        if ult is None:
            raise ReproError(f"rank {rank.vp} has no ULT")
        ult.owner = rank
        if ult.state is UltState.NEW:
            ult.start()
        self.runq.push(ult, start_time)

    def flush(self) -> None:
        """Drop every queued quantum and pending timer (fault rollback)."""
        self.runq.drain()
        self._timers.clear()

    # -- simulated-time timers ------------------------------------------------------

    def add_timer(self, at_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` at simulated time ``at_ns``.

        Timers fire *between* scheduling quanta: before any quantum whose
        effective start is at or after ``at_ns``, and whenever the run
        queue is empty.  Ties are broken by insertion order, so timer
        firing is deterministic.  ``flush()`` (global rollback) discards
        pending timers along with the timeline they belong to.
        """
        heapq.heappush(self._timers, (int(at_ns), next(self._timer_seq), fn))

    @property
    def pending_timers(self) -> int:
        return len(self._timers)

    # -- blocking / waking (called by the MPI layer) ---------------------------------

    def block_current(self, reason: str) -> Generator[str, None, None]:
        """Suspend the running rank: a generator that yields the reason
        to whoever steps the rank's ULT (delegate with ``yield from``)."""
        rank = self.current
        if rank is None or rank.ult is None:
            raise ReproError("block_current outside a running rank")
        tr = self.trace
        if tr is not None:
            tr.instant(f"block:{reason}", "sched", rank.clock.now,
                       pid=self.trace_pid_base + rank.pe.index, tid=rank.vp)
        yield reason

    def wake(self, rank: "VirtualRank", at_time: int) -> None:
        """Make a blocked rank runnable no earlier than ``at_time``."""
        if rank is self.current or rank.finished:
            return
        ult = rank.ult
        if ult is None:
            # Post-recovery window: the rank's dead ULT is gone and its
            # replacement has not been reregistered yet.  Recovery will
            # requeue it; waking a ghost here would be an AttributeError.
            return
        now = ult.clock.now
        self.runq.push(ult, at_time if at_time > now else now)

    def yield_current(self, resume_at: int) -> Generator[str, None, None]:
        """Suspend the running rank and requeue it at ``resume_at`` —
        used after self-migration so it resumes on its *new* PE.
        Delegate with ``yield from``, like :meth:`block_current`."""
        rank = self.current
        if rank is None or rank.ult is None:
            raise ReproError("yield_current outside a running rank")
        self.runq.push(rank.ult, max(resume_at, rank.ult.clock.now))
        yield "reschedule"

    # -- the event loop ------------------------------------------------------------------

    def run(self) -> None:
        # The loop body runs once per scheduling quantum — hundreds of
        # thousands of times for paper-scale sweeps — so everything
        # invariant across quanta is hoisted into locals, including the
        # trace/timeline/fault guards (all decided before run() and fixed
        # for its duration).
        #
        # The body is the closure ``next_quantum`` (pop + pre-switch
        # accounting of the quantum to run), ``step()``, and the charge
        # for the quantum that just ended, written inline.  ``step()``
        # returns when the rank has yielded or finished — resumed right
        # here if its body is a generator, on its pool worker while this
        # thread waits if it is a plain function — so the loop only ever
        # runs on this thread with every rank parked: a fault's rollback,
        # a timer, ``on_rank_done``, ``on_quantum``, a deadlock report
        # and a rank's re-raised exception all happen in place.
        ctx_switch_ns = self.costs.context_switch_ns + self.ctx_switch_extra_ns
        tr = self.trace
        if tr is not None:      # a recorder exists, so its module is loaded
            from repro.trace.recorder import PE_TID
        pid_base = self.trace_pid_base
        runq_pop = self.runq.pop
        counts = self.counters._counts
        fault_check = self.fault_check
        on_quantum = self.on_quantum
        timeline_append = self.timeline.append
        timers = self._timers
        heappop = heapq.heappop
        DONE = UltState.DONE
        ERROR = UltState.ERROR

        def next_quantum() -> tuple | None:
            """Pop the next quantum, fire the timers due before it and do
            its pre-switch accounting; return (rank, ult, the PE it starts
            on, start ns), or None when nothing is runnable.  A rank may
            migrate itself mid-quantum, and the quantum is charged to the
            PE that ran it."""
            while True:
                item = runq_pop()
                if item is None:
                    if timers:
                        # Nothing runnable but a timeout is pending (e.g.
                        # a retransmission whose receiver blocks on it).
                        # The fault check runs *before* the pop: a crash
                        # firing here may roll the job back, and under
                        # local recovery a survivor's timer must stay in
                        # the heap and fire after the outage — popping
                        # first would silently drop it (a lost
                        # retransmission deadlocks its receiver).
                        at = timers[0][0]
                        if fault_check is not None and fault_check(at):
                            continue
                        at, _, fn = heappop(timers)
                        fn()
                        continue
                    return None
                ult, ready_time = item
                rank = ult.owner
                if rank.ult is not ult:
                    # Stale quantum of a rolled-back ULT generation
                    # (local recovery does not flush survivors' queues).
                    continue
                pe = rank.pe
                busy_until = pe.busy_until
                eff_start = ready_time if ready_time > busy_until \
                    else busy_until

                if timers and timers[0][0] <= eff_start:
                    # Timers due before this quantum may deliver messages
                    # (or fire a crash) that change who should run next:
                    # fire them, requeue the popped quantum, re-pop.
                    while timers and timers[0][0] <= eff_start:
                        at = timers[0][0]
                        if fault_check is not None and fault_check(at):
                            continue  # rollback may have cleared timers
                        at, _, fn = heappop(timers)
                        fn()
                    if rank.ult is ult:
                        self.runq.push(ult, ready_time)
                    continue

                if fault_check is not None and fault_check(eff_start):
                    # A fault fired and the job rolled back.  Under
                    # global recovery the popped quantum belongs to a
                    # killed ULT generation; under local recovery a
                    # survivor's quantum stays valid and is requeued.
                    if rank.ult is ult:
                        self.runq.push(ult, ready_time)
                    continue

                if ready_time > busy_until:
                    if tr is not None:
                        tr.span("idle", "sched-idle", busy_until,
                                ready_time - busy_until,
                                pid=pid_base + pe.index,
                                tid=PE_TID)
                    pe.idle_ns += ready_time - busy_until
                    switch_at = ready_time
                else:
                    switch_at = busy_until
                start = switch_at + ctx_switch_ns
                pe.ctx_switches += 1
                # CounterSet.incr and SimClock.advance_to, inline
                counts[EV_CTX_SWITCH] = counts.get(EV_CTX_SWITCH, 0) + 1
                if start > ult.clock.now:
                    ult.clock.now = start
                if tr is not None:
                    tr.span("ctx-switch", "sched-overhead", switch_at,
                            ctx_switch_ns,
                            pid=pid_base + pe.index, tid=rank.vp,
                            args={"method": self.trace_label,
                                  "surcharge_ns": self.ctx_switch_extra_ns})

                timeline_append((pe.index, rank.vp, start))
                if on_quantum is not None:
                    on_quantum()
                self.current = rank
                return rank, ult, pe, start

        try:
            while (quantum := next_quantum()) is not None:
                rank, ult, pe, start = quantum
                ult.step()
                # charge the quantum to the PE it started on
                self.current = None
                now = ult.clock.now
                ran_ns = now - start
                if ran_ns < 0:
                    ran_ns = 0
                rank.load_ns += ran_ns      # VirtualRank.record_run, inline
                rank.total_cpu_ns += ran_ns
                pe.busy_ns += ran_ns
                pe.busy_until = now
                pe.last_rank = rank
                if tr is not None and ran_ns > 0:
                    tr.span(f"vp{rank.vp}", "exec", start, ran_ns,
                            pid=pid_base + pe.index, tid=rank.vp)

                state = ult.state
                if state is DONE:
                    rank.finished = True
                    rank.exit_value = ult.result
                    if self.on_rank_done is not None:
                        self.on_rank_done(rank)
                elif state is ERROR:
                    raise ult.exception
            if not all(r.finished for r in self._all_ranks):
                self._report_deadlock()
        finally:
            # Leave no orphan OS threads behind on any exit path.
            self.shutdown()

    def _report_deadlock(self) -> None:
        blocked = []
        for r in self._all_ranks:
            if r.finished:
                continue
            if r.ult is None:
                # Post-recovery window: don't let a secondary error here
                # (no ULT means no clock either) mask the DeadlockError
                # we are trying to raise.
                blocked.append(f"vp {r.vp} (no ULT (awaiting recovery))")
            else:
                reason = r.ult.block_reason or "blocked"
                blocked.append(f"vp {r.vp} ({reason}) at t={r.clock.now}")
        raise DeadlockError(
            "no runnable rank but the job is not finished; blocked: "
            + "; ".join(blocked)
        )

    def shutdown(self) -> None:
        """Force-unwind every live ULT, returning its worker to the pool.

        Idempotent.  A ULT that swallows the kill and keeps its worker
        is counted in :attr:`orphaned` (and in the process-wide
        :func:`repro.threads.orphan_count`) instead of being silently
        leaked across sweeps.
        """
        for rank in self._all_ranks:
            ult = rank.ult
            if ult is None:
                continue
            if not ult.finished:
                ult.kill()
            if ult.join_thread():
                self.orphaned += 1

    # -- reporting ------------------------------------------------------------------------

    def makespan_ns(self) -> int:
        """Job completion time: the latest rank clock."""
        return max((r.clock.now for r in self._all_ranks), default=0)

    def ranks(self) -> list["VirtualRank"]:
        return list(self._all_ranks)
