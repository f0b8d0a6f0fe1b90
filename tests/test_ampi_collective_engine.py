"""Unit-level tests of the collective engine's cost model and guards
(semantics are covered end-to-end in test_ampi_collectives.py)."""

import pytest

from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.errors import MpiError
from repro.machine import TEST_MACHINE
from repro.program.source import Program
from repro.threads.ult import drive

from conftest import make_hello, run_job


def started_job(nvp=4, layout=None):
    job = AmpiJob(make_hello(), nvp, method="pieglobals",
                  machine=TEST_MACHINE,
                  layout=layout or JobLayout.single(2), slot_size=1 << 24)
    job.start()
    return job


class TestRegimeLatency:
    def test_single_process_regime_is_zero(self):
        job = started_job(4, JobLayout.single(2))
        try:
            assert job.collectives._regime_latency(job.world) == 0
        finally:
            job.scheduler.shutdown()

    def test_multi_process_regime_uses_intranode(self):
        job = started_job(4, JobLayout(1, 2, 1))
        try:
            assert job.collectives._regime_latency(job.world) == \
                TEST_MACHINE.costs.net_latency_intra_ns
        finally:
            job.scheduler.shutdown()

    def test_multi_node_regime_uses_internode(self):
        job = started_job(4, JobLayout(2, 1, 1))
        try:
            assert job.collectives._regime_latency(job.world) == \
                TEST_MACHINE.costs.net_latency_inter_ns
        finally:
            job.scheduler.shutdown()

    def test_step_cost_grows_with_payload(self):
        job = started_job(4, JobLayout(2, 1, 1))
        try:
            small = job.collectives._step_ns(job.world, 0)
            big = job.collectives._step_ns(job.world, 1 << 20)
            assert big > small
        finally:
            job.scheduler.shutdown()


class TestSequencing:
    def test_collectives_complete_counter(self):
        def main(ctx):
            ctx.mpi.barrier()
            ctx.mpi.barrier()
            ctx.mpi.allreduce(1)
            return 0

        p = Program("seq")
        p.add_global("x", 0)
        p.add_function(main, name="main")
        job = AmpiJob(p.build(), 3, method="pieglobals",
                      machine=TEST_MACHINE, layout=JobLayout.single(2),
                      slot_size=1 << 24)
        job.run()
        assert job.collectives.completed == 3

    def test_double_entry_same_collective_rejected(self):
        """One rank entering the same collective instance twice means
        program order diverged — flagged immediately."""
        # Constructed artificially through the engine.
        job = started_job(2, JobLayout.single(2))
        try:
            rank = job.rank_of(0)

            class _Fake:
                pass

            from repro.ampi.collectives import CollectiveState

            state = CollectiveState(kind="barrier", comm=job.world, seq=0)
            state.arrivals[0] = (0, None)
            job.collectives._states[(job.world.cid, 0)] = state
            job.collectives._seq[(0, job.world.cid)] = 0
            with pytest.raises(MpiError, match="twice"):
                drive(rank.ult, job.collectives.enter("barrier", rank,
                                                      job.world))
        finally:
            job.scheduler.shutdown()

    def test_unknown_kind_rejected(self):
        job = started_job(1, JobLayout(1, 1, 1))
        try:
            with pytest.raises(MpiError, match="unknown collective"):
                rank = job.rank_of(0)
                drive(rank.ult, job.collectives.enter("teleport", rank,
                                                      job.world))
        finally:
            job.scheduler.shutdown()


class TestReleaseTimes:
    def test_barrier_release_at_least_max_arrival(self):
        def main(ctx):
            ctx.compute(100 * (ctx.mpi.rank() + 1))
            arrive = ctx.clock.now
            ctx.mpi.barrier()
            return (arrive, ctx.clock.now)

        p = Program("rel")
        p.add_global("x", 0)
        p.add_function(main, name="main")
        r = run_job(p.build(), 3)
        max_arrival = max(a for a, _ in r.exit_values.values())
        for arrive, release in r.exit_values.values():
            assert release >= max_arrival

    def test_reduce_nonroot_leaves_early(self):
        def main(ctx):
            ctx.mpi.reduce(1, root=0)
            return ctx.clock.now

        p = Program("early")
        p.add_global("x", 0)
        p.add_function(main, name="main")
        r = run_job(p.build(), 4)
        root_t = r.exit_values[0]
        # At least one non-root is released before the root (they
        # contribute and leave; the root waits for the tree).
        assert min(r.exit_values[vp] for vp in (1, 2, 3)) <= root_t
