"""Tests for the global discrete-event scheduler."""

import pytest

from repro.charm.node import JobLayout, build_topology
from repro.charm.scheduler import JobScheduler
from repro.charm.vrank import VirtualRank
from repro.errors import DeadlockError
from repro.machine import TEST_MACHINE
from repro.mem.isomalloc import IsomallocArena
from repro.perf.costs import TEST_COSTS
from repro.threads.ult import UltState, UserLevelThread

CS = TEST_COSTS.context_switch_ns


def make_ranks(n, pes_layout=JobLayout(1, 1, 2), bodies=None, backend=None):
    arena = IsomallocArena(max(n, 1), 1 << 20)
    _, _, pes = build_topology(pes_layout, TEST_MACHINE, arena)
    sched = JobScheduler(TEST_COSTS)
    ranks = []
    for vp in range(n):
        rank = VirtualRank(vp, pes[vp % len(pes)])
        body = bodies[vp] if bodies else (lambda: vp)
        rank.ult = UserLevelThread(f"vp{vp}", body, backend=backend)
        ranks.append(rank)
    return sched, ranks, pes


class TestBasicRun:
    def test_single_rank_completes(self):
        sched, (r,), _ = make_ranks(1)
        sched.register(r, start_time=0)
        sched.run()
        assert r.finished

    def test_exit_values_captured(self):
        sched, ranks, _ = make_ranks(2, bodies=[lambda: "a", lambda: "b"])
        for r in ranks:
            sched.register(r, 0)
        sched.run()
        assert ranks[0].exit_value == "a"
        assert ranks[1].exit_value == "b"

    def test_context_switch_charged(self):
        sched, (r,), _ = make_ranks(1)
        sched.register(r, start_time=100)
        sched.run()
        assert r.clock.now == 100 + CS

    def test_pe_serializes_coresident_ranks(self):
        def work(rank_holder=[]):
            pass

        sched, ranks, pes = make_ranks(
            2, JobLayout(1, 1, 1),
            bodies=[lambda: None, lambda: None],
        )
        for r in ranks:
            sched.register(r, 0)
        sched.run()
        # Second rank started only after the first's switch completed.
        assert ranks[1].clock.now >= 2 * CS

    def test_parallel_pes_run_concurrently_in_simtime(self):
        sched, ranks, pes = make_ranks(2, JobLayout(1, 1, 2))

        def make_body(rank):
            def body():
                rank.ult.clock.advance(1000)
            return body

        for r in ranks:
            r.ult.target = make_body(r)
            sched.register(r, 0)
        sched.run()
        # Both finish at ~CS+1000: simulated concurrency across PEs.
        assert ranks[0].clock.now == ranks[1].clock.now == CS + 1000

    def test_makespan(self):
        sched, ranks, _ = make_ranks(2)
        for r in ranks:
            sched.register(r, 0)
        sched.run()
        assert sched.makespan_ns() == max(r.clock.now for r in ranks)

    def test_timeline_recorded(self):
        sched, ranks, _ = make_ranks(2)
        for r in ranks:
            sched.register(r, 0)
        sched.run()
        assert len(sched.timeline) >= 2
        assert {vp for _, vp, _ in sched.timeline} == {0, 1}


class TestBlockingAndWaking:
    def test_block_then_wake(self):
        sched, ranks, _ = make_ranks(2, JobLayout(1, 1, 2))
        log = []

        def blocker():
            log.append("blocking")
            yield from sched.block_current("wait-x")
            log.append("resumed")
            return "ok"

        def waker():
            sched.wake(ranks[0], at_time=500)
            return "woke"

        ranks[0].ult.target = blocker
        ranks[1].ult.target = waker
        sched.register(ranks[0], 0)
        sched.register(ranks[1], 10)
        sched.run()
        assert log == ["blocking", "resumed"]
        assert ranks[0].clock.now >= 500

    def test_wake_respects_rank_clock(self):
        """Waking at a time before the rank blocked cannot rewind it."""
        sched, ranks, _ = make_ranks(2, JobLayout(1, 1, 2))

        def blocker():
            ranks[0].ult.clock.advance(1000)
            yield from sched.block_current("x")

        def waker():
            sched.wake(ranks[0], at_time=5)

        ranks[0].ult.target = blocker
        ranks[1].ult.target = waker
        sched.register(ranks[0], 0)
        sched.register(ranks[1], 0)
        sched.run()
        assert ranks[0].clock.now >= 1000

    def test_yield_current_reschedules(self):
        sched, ranks, _ = make_ranks(1)
        hits = []

        def body():
            hits.append(ranks[0].clock.now)
            yield from sched.yield_current(ranks[0].clock.now + 100)
            hits.append(ranks[0].clock.now)

        ranks[0].ult.target = body
        sched.register(ranks[0], 0)
        sched.run()
        assert hits[1] >= hits[0] + 100


class TestSelfMigratingQuantum:
    def test_quantum_charged_to_the_pe_it_started_on(self):
        """AMPI_Migrate_to re-homes the rank in the middle of a quantum;
        that quantum ran on the PE it started on, and that PE — not
        ``rank.pe`` as read afterwards — is the one kept busy by it."""
        from repro.ampi.runtime import AmpiJob
        from repro.program.source import Program

        p = Program("selfmig")

        @p.function()
        def main(ctx):
            ctx.compute(5_000)
            ctx.mpi.migrate_to(1)
            ctx.compute(3_000)

        job = AmpiJob(p.build(), 1, method="pieglobals", machine=TEST_MACHINE,
                      layout=JobLayout(1, 1, 2), slot_size=1 << 24)
        result = job.run()
        sched = job.scheduler
        (rank,) = sched.ranks()
        pe0, pe1 = job.pes
        cs = sched.costs.context_switch_ns + sched.ctx_switch_extra_ns
        (mig,) = result.migrations
        assert mig.ns > 0

        (at0, vp0, start0), (at1, vp1, start1) = sched.timeline
        assert (at0, vp0, at1, vp1) == (0, 0, 1, 0)
        left_pe0 = start1 - cs - mig.ns     # the clock at the yield
        assert left_pe0 >= start0 + 5_000
        assert (pe0.busy_until, pe0.busy_ns) == (left_pe0, left_pe0 - start0)
        assert pe0.last_rank is rank
        end = result.makespan_ns
        assert end >= start1 + 3_000
        assert (pe1.busy_until, pe1.busy_ns) == (end, end - start1)
        assert pe1.idle_ns == left_pe0 + mig.ns
        assert pe1.last_rank is rank
        assert (pe0.ctx_switches, pe1.ctx_switches) == (1, 1)


class TestFailureModes:
    def test_deadlock_detected(self):
        sched, ranks, _ = make_ranks(1)

        def forever():
            yield from sched.block_current("never woken")

        ranks[0].ult.target = forever
        sched.register(ranks[0], 0)
        with pytest.raises(DeadlockError, match="never woken"):
            sched.run()

    def test_user_exception_propagates_and_cleans_up(self):
        sched, ranks, _ = make_ranks(2, JobLayout(1, 1, 2))

        def boom():
            raise ValueError("app bug")

        def innocent():
            yield from sched.block_current("waiting")

        ranks[0].ult.target = innocent
        ranks[1].ult.target = boom
        sched.register(ranks[0], 0)
        sched.register(ranks[1], 5)
        with pytest.raises(ValueError, match="app bug"):
            sched.run()
        # The blocked ULT was force-unwound: no orphan threads.
        assert ranks[0].ult.finished

    def test_rank_load_recorded(self):
        sched, ranks, _ = make_ranks(1)

        def body():
            ranks[0].ult.clock.advance(777)

        ranks[0].ult.target = body
        sched.register(ranks[0], 0)
        sched.run()
        assert ranks[0].total_cpu_ns == 777

    def test_ctx_switch_extra_charged(self):
        arena = IsomallocArena(1, 1 << 20)
        _, _, pes = build_topology(JobLayout(1, 1, 1), TEST_MACHINE, arena)
        sched = JobScheduler(TEST_COSTS, ctx_switch_extra_ns=7)
        r = VirtualRank(0, pes[0])
        r.ult = UserLevelThread("vp0", lambda: None)
        sched.register(r, 0)
        sched.run()
        assert r.clock.now == CS + 7


class TestRecoveryWindowGuards:
    """Ranks can transiently have ``ult is None`` between a crash and
    recovery re-registering them; the scheduler must tolerate that."""

    def test_wake_ignores_rank_without_ult(self):
        sched, (r,), _ = make_ranks(1)
        sched.register(r, 0)
        sched.run()
        r.finished = False
        r.ult = None                    # post-crash, pre-recovery window
        sched.wake(r, 100)              # used to AttributeError
        assert len(sched.runq) == 0

    def test_deadlock_report_names_rank_awaiting_recovery(self):
        sched, ranks, _ = make_ranks(2, JobLayout(1, 1, 1))
        r0, r1 = ranks

        def blocker():
            r0.ult.yield_("recv")

        r0.ult.target = blocker
        sched.register(r0, 0)
        # r1 lost its ULT to a crash and recovery has not requeued it.
        r1.ult = None
        sched._all_ranks.append(r1)
        with pytest.raises(DeadlockError) as exc:
            sched.run()
        assert "no ULT (awaiting recovery)" in str(exc.value)
        assert "recv" in str(exc.value)

    def test_a_dead_generations_quantum_is_skipped(self):
        sched, (r,), _ = make_ranks(1)
        sched.register(r, 0)
        dead = r.ult                    # queued at 0, never run
        # Fault recovery hands the rank a fresh ULT generation.
        r.ult = UserLevelThread("vp0-gen2", lambda: "again")
        sched.reregister(r, 5)
        sched.run()
        assert r.exit_value == "again"
        assert dead.owner is r and dead.state is UltState.READY
        assert len(sched.timeline) == 1

    def test_recoveries_keep_no_per_generation_state(self):
        def sizes():
            return {name: len(value) for name, value in vars(sched).items()
                    if isinstance(value, (dict, list, set))
                    and name != "timeline"}

        sched, (r,), _ = make_ranks(1)
        sched.register(r, 0)
        sched.run()
        after_one = sizes()
        for gen in range(5):
            r.finished = False
            r.ult = UserLevelThread(f"vp0-g{gen}", lambda: gen)
            sched.reregister(r, 0)
            sched.run()
            assert r.exit_value == gen
        assert sizes() == after_one
        assert len(sched.runq) == 0 and not sched.runq._buckets


class TestShutdownLeakSurfacing:
    def test_shutdown_counts_wedged_ult(self, monkeypatch):
        import repro.threads.backend as backend_mod
        from repro.threads import consume_orphan_count

        monkeypatch.setattr(backend_mod, "JOIN_TIMEOUT_S", 0.05)
        consume_orphan_count()
        sched, (r,), _ = make_ranks(1)

        def stubborn():
            # Swallows UltKilled: the thread can never be joined.
            while True:
                try:
                    r.ult.yield_("stuck")
                except BaseException:
                    pass

        r.ult.target = stubborn
        sched.register(r, 0)
        with pytest.warns(ResourceWarning, match="did not terminate"):
            with pytest.raises(DeadlockError):
                sched.run()
        assert sched.orphaned == 1
        assert consume_orphan_count() == 1

    def test_clean_job_leaves_no_orphans(self):
        from repro.threads import consume_orphan_count

        consume_orphan_count()
        sched, ranks, _ = make_ranks(4)
        for r in ranks:
            sched.register(r, 0)
        sched.run()
        assert sched.orphaned == 0
        assert consume_orphan_count() == 0


class TestTimers:
    """Simulated-time timers (the reliable transport's RTO mechanism)."""

    def test_fire_in_time_order_with_insertion_ties(self):
        sched, (r,), _ = make_ranks(1)
        fired = []
        sched.add_timer(300, lambda: fired.append("late"))
        sched.add_timer(100, lambda: fired.append("a"))
        sched.add_timer(100, lambda: fired.append("b"))
        assert sched.pending_timers == 3
        sched.register(r, 0)
        sched.run()
        assert fired == ["a", "b", "late"]
        assert sched.pending_timers == 0

    def test_timers_fire_when_runq_is_empty(self):
        """A timer past every rank's finish still fires (a blocked
        receiver waiting on a retransmission depends on this)."""
        sched, (r,), _ = make_ranks(1)
        fired = []
        sched.register(r, 0)
        sched.add_timer(10**9, lambda: fired.append("rto"))
        sched.run()
        assert r.finished and fired == ["rto"]

    def test_timer_can_chain_another_timer(self):
        sched, (r,), _ = make_ranks(1)
        fired = []

        def first():
            fired.append(1)
            sched.add_timer(2_000, lambda: fired.append(2))

        sched.add_timer(1_000, first)
        sched.register(r, 0)
        sched.run()
        assert fired == [1, 2]

    def test_flush_discards_pending_timers(self):
        sched, (r,), _ = make_ranks(1)
        sched.add_timer(100, lambda: None)
        sched.flush()
        assert sched.pending_timers == 0
