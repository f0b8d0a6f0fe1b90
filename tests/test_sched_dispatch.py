"""Who runs ``JobScheduler.run``'s loop: the caller, or the baton ring.

Plain-function bodies ride the ring: a quantum costs one OS-thread
handoff (none when a rank succeeds itself), fault-injected jobs
included; the loop body runs on the stack of the ULT whose quantum just
ended, and everything that can unwind a stack — a fault's rollback too —
still happens on the ``run()`` caller's.  The in-tree apps are written in
generator form, so the ring tests run their ``plain_bodies`` twins.  A
generator job never leaves the caller's stack: no handoff, no worker.
Every test runs on a private worker pool.
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
from repro.threads.ult import UltKilled, drive
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


def crashing_jacobi(iters, crash_at, recovery="global"):
    """8 ranks on 4 nodes; ``crash_at[i]`` kills node 2, then node 0.
    Start-up ends at ~61.07 ms, the fault-free 12-iteration job at
    ~61.36 ms."""
    crashes = tuple(NodeCrash(at_ns=at, node=node)
                    for at, node in zip(crash_at, (2, 0)))
    return JobSpec(app="jacobi3d", nvp=8,
                   app_config={"n": 12, "iters": iters, "reduce_every": 2,
                               "ckpt_period": 2},
                   layout=(4, 1, 2), ft_interval_ns=0, recovery=recovery,
                   transport="reliable" if recovery == "local" else "priced",
                   fault_plan=FaultPlan(seed=3,
                                        node_crashes=crashes).to_dict())


def run_spec(spec, backend):
    job = build_job(spec, ult_backend=backend)
    job.run()
    return job.scheduler


def block(sched, reason):
    """A plain body blocking: the driver parks its ULT at the reason."""
    drive(sched.current.ult, sched.block_current(reason))


#: the test runs the in-tree apps' plain twins, on the baton ring
on_the_ring = pytest.mark.usefixtures("plain_bodies")


class TestHandoffCount:
    @on_the_ring
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

    @on_the_ring
    def test_rank_that_succeeds_itself_pays_nothing(self, backend):
        sched = run_spec(pingpong(1), backend)
        assert len(sched.timeline) == 201
        assert sched.os_handoffs == 2       # into the ring and out of it

    @on_the_ring
    def test_fault_checked_job_rides_the_ring(self, backend):
        """A node-crash plan does not take the job off the ring: while
        no crash is due, every loop step runs on a ULT's stack."""
        sched = run_spec(crashing_jacobi(iters=4, crash_at=(10**12,)),
                         backend)
        assert sched.fault_check is not None
        quanta = sched.counters.snapshot()[EV_CTX_SWITCH]
        assert quanta > 8
        assert sched.os_handoffs == quanta + 1

    def test_generator_job_pays_no_handoff(self, backend):
        """The same 64 x 200 pingpong in the form it is written in:
        stepped on this thread from start to end."""
        threads = threading.active_count()
        sched = run_spec(pingpong(64), backend)
        assert len(sched.timeline) == 64 * 201
        assert sched.os_handoffs == 0
        assert backend.created == backend.binds == 0
        assert threading.active_count() == threads


@pytest.mark.parametrize("recovery", ["global", "local"])
class TestFaultsFireOnTheCaller:
    """Two crashes land mid-run.  A rollback unwinds stacks, so the ULT
    that finds one due hands the baton back and ``run()``'s caller fires
    it; the respawned ranks then ride the ring like the first ones.  A
    generator job's caller is already the one running the loop."""

    CRASH_AT = (61_100_000, 61_800_000)

    def _run(self, backend, recovery):
        job = build_job(crashing_jacobi(12, self.CRASH_AT, recovery),
                        ult_backend=backend)
        job.start()
        sched = job.scheduler
        poll, fired = sched.fault_check, []

        def recording_poll(at_ns):
            hit = poll(at_ns)
            if hit:
                fired.append((threading.get_ident(), len(sched.timeline),
                              sched.os_handoffs))
            return hit

        sched.fault_check = recording_poll
        return job, job.run(), fired

    def test_generator_job_fires_in_place_and_recovers(self, backend,
                                                       recovery):
        """The respawned ranks are fresh ULTs with fresh generators, and
        nothing ever leaves this thread."""
        threads = threading.active_count()
        job, result, fired = self._run(backend, recovery)
        sched = job.scheduler
        assert result.recoveries == 2 and len(fired) == 2
        assert all(r.finished for r in sched.ranks())
        assert {ident for ident, _, _ in fired} == {threading.get_ident()}
        assert all(quanta_so_far > 0 for _, quanta_so_far, _ in fired)
        assert sched.os_handoffs == 0 and backend.binds == 0
        assert sched.orphaned == 0 and orphan_count() == 0
        assert threading.active_count() == threads

    @on_the_ring
    def test_handed_back_fired_and_recovered(self, backend, recovery):
        job, result, fired = self._run(backend, recovery)
        sched = job.scheduler
        assert result.recoveries == 2 and len(fired) == 2
        assert all(r.finished for r in sched.ranks())
        assert {ident for ident, _, _ in fired} == {threading.get_ident()}
        # Both were handed back by a ULT mid-ring: quanta had run, and at
        # the firing every one of them had cost one pass (the last one's
        # being the pass back to the caller) on top of the hop in and one
        # restart of the ring per earlier firing.
        for nth, (_, quanta_so_far, handoffs) in enumerate(fired):
            assert quanta_so_far > 0
            assert handoffs == quanta_so_far + 1 + nth
        # A hand-back is two passes (ULT -> caller -> ULT) where the
        # uninterrupted ring pays one; the respawned generation is back
        # to one pass per quantum.
        quanta = len(sched.timeline)
        assert quanta > fired[-1][1] + 8
        assert sched.os_handoffs == quanta + 1 + len(fired)
        assert sched.orphaned == 0 and orphan_count() == 0
        assert all_workers_idle(backend)

    @on_the_ring
    def test_timeline_independent_of_pool_state(self, backend, recovery):
        def history(pool):
            job, result, _ = self._run(pool, recovery)
            return (job.scheduler.timeline, result.makespan_ns,
                    result.exit_values)

        fresh = history(backend)
        run_spec(pingpong(5), backend)          # recycle with another shape
        used = history(backend)
        warm = PooledBackend(prewarm=32)
        try:
            prewarmed = history(warm)
            assert warm.created == 32           # never grew
        finally:
            warm.close()
        assert len(fresh[0]) > 100
        assert fresh == used == prewarmed


class TestFailuresSurfaceOnTheCaller:
    def test_rank_exception_propagates_and_cleans_up(self, backend):
        def boom():
            raise ValueError("app bug")

        def waits():
            block(sched, "waiting")

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
            block(sched, "recv from 1")

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

    def test_generator_that_swallows_the_kill_has_no_worker_to_wedge(
            self, backend):
        def stubborn():
            while True:
                try:
                    yield "stuck"
                except UltKilled:
                    pass

        def done():
            return
            yield

        sched, ranks = make_sched(backend, [stubborn, done])
        with pytest.raises(DeadlockError, match=r"vp 0 \(stuck\)"):
            sched.run()
        assert isinstance(ranks[0].ult.exception, UltKilled)
        assert all(r.ult.finished for r in ranks)
        assert sched.orphaned == 0 and orphan_count() == 0
        assert sched.os_handoffs == 0 and backend.binds == 0

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
                drive(ranks[0].ult,
                      sched.yield_current(ranks[0].clock.now + 1000))
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
                block(sched, "waiting")
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
