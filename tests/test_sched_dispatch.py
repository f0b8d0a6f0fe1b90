"""Direct ULT->ULT dispatch in ``JobScheduler.run`` (the baton ring).

A quantum costs one OS-thread handoff (none when a rank succeeds
itself); the loop body runs on the stack of the ULT whose quantum just
ended, and everything that can unwind a stack still happens on the
``run()`` caller's.  Every test runs on a private worker pool.
"""

import threading

import pytest

from repro.charm.node import JobLayout
from repro.errors import DeadlockError
from repro.ft import FaultPlan, NodeCrash
from repro.harness.jobspec import JobSpec, build_job
from repro.perf.counters import EV_CTX_SWITCH
from repro.threads import (
    PooledBackend,
    consume_orphan_count,
    orphan_count,
)
from repro.threads.ult import UltKilled
from test_charm_scheduler import make_ranks


# One param, kept so the test ids stay ``...[pooled]``.
@pytest.fixture(params=["pooled"])
def backend():
    consume_orphan_count()
    b = PooledBackend()
    yield b
    b.close()
    consume_orphan_count()


def all_workers_idle(backend):
    return backend.idle_workers() == backend.created


def make_sched(backend, bodies):
    """One PE; every rank registered ready at t=0."""
    sched, ranks, _ = make_ranks(len(bodies), JobLayout(1, 1, 1), bodies,
                                 backend=backend)
    for rank in ranks:
        sched.register(rank, 0)
    return sched, ranks


def pingpong(nvp, **kw):
    return JobSpec(app="pingpong", nvp=nvp,
                   app_config={"yields_per_rank": 200}, method="none",
                   machine="generic-linux", layout=(1, 1, 1),
                   slot_size=1 << 26, **kw)


def run_spec(spec, backend):
    job = build_job(spec, ult_backend=backend)
    job.run()
    return job.scheduler


class TestHandoffCount:
    def test_one_handoff_per_quantum(self, backend):
        """64 ranks x 200 yields on one PE: every quantum hands the baton
        to a different rank, plus one hop into and one out of the ring
        (the first quantum's is the hop in)."""
        first = run_spec(pingpong(64), backend)
        quanta = len(first.timeline)
        assert quanta == 64 * 201
        assert first.os_handoffs == quanta + 1
        again = run_spec(pingpong(64), backend)
        assert again.os_handoffs == first.os_handoffs
        assert again.timeline == first.timeline

    def test_rank_that_succeeds_itself_pays_nothing(self, backend):
        sched = run_spec(pingpong(1), backend)
        assert len(sched.timeline) == 201
        assert sched.os_handoffs == 2       # into the ring and out of it

    def test_fault_checked_job_keeps_the_round_trip(self, backend):
        """A rollback kills ULTs, so with a fault_check every loop step
        stays on the caller's stack: two handoffs per quantum."""
        spec = JobSpec(app="jacobi3d", nvp=8,
                       app_config={"n": 12, "iters": 4, "reduce_every": 2,
                                   "ckpt_period": 2},
                       layout=(4, 1, 2), ft_interval_ns=0,
                       fault_plan=FaultPlan(seed=3, node_crashes=(
                           NodeCrash(at_ns=10**12, node=2),)).to_dict())
        sched = run_spec(spec, backend)
        assert sched.fault_check is not None
        quanta = sched.counters.snapshot()[EV_CTX_SWITCH]
        assert quanta > 8
        assert sched.os_handoffs == 2 * quanta


class TestFailuresSurfaceOnTheCaller:
    def test_rank_exception_propagates_and_cleans_up(self, backend):
        def boom():
            raise ValueError("app bug")

        def waits():
            sched.block_current("waiting")

        sched, ranks = make_sched(backend, [waits, waits, boom])
        with pytest.raises(ValueError, match="app bug"):
            sched.run()
        assert all(r.ult.finished for r in ranks)
        assert isinstance(ranks[0].ult.exception, UltKilled)
        assert sched.orphaned == 0 and orphan_count() == 0
        assert all_workers_idle(backend)

    def test_deadlock_message_unchanged(self, backend):
        def recv():
            ranks[0].ult.clock.advance(40)
            sched.block_current("recv from 1")

        sched, ranks = make_sched(backend, [recv, lambda: None])
        with pytest.raises(DeadlockError) as exc:
            sched.run()
        at = ranks[0].clock.now
        assert str(exc.value) == (
            "no runnable rank but the job is not finished; blocked: "
            f"vp 0 (recv from 1) at t={at}")
        assert ranks[1].finished and ranks[0].ult.finished
        assert all_workers_idle(backend)

    def test_swallowed_kill_reported_once(self, backend):
        def stubborn():
            while True:
                try:
                    ranks[0].ult.yield_("stuck")
                except BaseException:
                    pass

        sched, ranks = make_sched(backend, [stubborn, lambda: None])
        with pytest.warns(ResourceWarning, match="did not terminate"):
            with pytest.raises(DeadlockError):
                sched.run()
        assert sched.orphaned == 1
        sched.shutdown()                    # idempotent: not counted twice
        assert sched.orphaned == 1
        assert consume_orphan_count() == 1

    def test_timer_error_never_reaches_user_code(self, backend):
        caller = threading.current_thread()
        fired_on = []
        seen_by_user = []

        def timer():
            fired_on.append(threading.current_thread())
            raise RuntimeError("timer boom")

        def body():
            try:
                # the timer is due before this rank's next quantum, so it
                # fires from this rank's own yield, on this stack
                sched.yield_current(ranks[0].clock.now + 1000)
            except BaseException as e:
                seen_by_user.append(e)
                raise

        sched, ranks = make_sched(backend, [body])
        sched.add_timer(500, timer)
        with pytest.raises(RuntimeError, match="timer boom"):
            sched.run()
        assert fired_on and fired_on[0] is not caller
        # user code saw only the forced unwind of shutdown()
        assert [type(e) for e in seen_by_user] == [UltKilled]
        assert all_workers_idle(backend)

    def test_on_rank_done_error_raised_from_run(self, backend):
        caller = threading.current_thread()
        called_on = []
        seen_by_user = []

        def on_rank_done(rank):
            called_on.append(threading.current_thread())
            raise RuntimeError(f"hook boom vp{rank.vp}")

        def waits():
            try:
                sched.block_current("waiting")
            except BaseException as e:
                seen_by_user.append(e)
                raise

        sched, ranks = make_sched(backend, [waits, lambda: None])
        sched.on_rank_done = on_rank_done
        with pytest.raises(RuntimeError, match="hook boom vp1"):
            sched.run()
        assert called_on and called_on[0] is not caller
        assert [type(e) for e in seen_by_user] == [UltKilled]
        assert sched.orphaned == 0
        assert all_workers_idle(backend)
