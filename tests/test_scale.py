"""Moderate-scale smoke tests: many ranks, many PEs, many messages —
catching bookkeeping that only breaks past toy sizes."""

import gc

from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.harness.jobspec import JobSpec, build_job
from repro.machine import TEST_MACHINE
from repro.program.source import Program

from conftest import make_hello

BIG = TEST_MACHINE.copy_with(cores_per_node=64)


class TestManyRanks:
    def test_128_ranks_on_16_pes(self):
        job = AmpiJob(make_hello(), 128, method="pieglobals", machine=BIG,
                      layout=JobLayout.single(16), slot_size=1 << 21)
        result = job.run()
        assert sorted(result.exit_values.values()) == list(range(128))

    def test_many_ranks_across_processes_and_nodes(self):
        job = AmpiJob(make_hello(), 64, method="pieglobals", machine=BIG,
                      layout=JobLayout(nodes=2, processes_per_node=2,
                                       pes_per_process=4),
                      slot_size=1 << 21)
        result = job.run()
        assert len(result.exit_values) == 64
        # ranks actually spread over all 16 PEs
        assert all(len(pe.resident) > 0 for pe in job.pes)

    def test_allreduce_over_96_ranks(self):
        p = Program("wide")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            return ctx.mpi.allreduce(ctx.mpi.rank())

        job = AmpiJob(p.build(), 96, method="manual", machine=BIG,
                      layout=JobLayout.single(12), slot_size=1 << 21)
        result = job.run()
        assert set(result.exit_values.values()) == {sum(range(96))}

    def test_heavy_message_volume(self):
        """~1500 point-to-point messages through one mailbox."""
        p = Program("firehose")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            me, n = ctx.mpi.rank(), ctx.mpi.size()
            if me == 0:
                total = 0
                for _ in range(100 * (n - 1)):
                    total += ctx.mpi.recv()
                return total
            for i in range(100):
                ctx.mpi.send(i, dest=0, tag=i % 7)
            return None

        job = AmpiJob(p.build(), 16, method="manual", machine=BIG,
                      layout=JobLayout.single(4), slot_size=1 << 21)
        result = job.run()
        assert result.exit_values[0] == 15 * sum(range(100))

    def test_repeated_lb_rounds_many_ranks(self):
        p = Program("lbscale")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            me = ctx.mpi.rank()
            for _ in range(4):
                ctx.compute(100 * (me % 7 + 1))
                ctx.mpi.migrate()
            return ctx.mpi.rank()

        job = AmpiJob(p.build(), 64, method="pieglobals", machine=BIG,
                      layout=JobLayout.single(8), slot_size=1 << 21,
                      lb_strategy="greedyrefine")
        result = job.run()
        assert len(result.lb_reports) == 4
        assert sorted(result.exit_values.values()) == list(range(64))


class TestStartupAllocations:
    """Allocation count at start-up is a first-class host cost: a
    per-name or per-slot structure per rank (49 152 ``AccessRoute``s
    once) costs a generation-2 collection at 1024 ranks long before any
    single call looks slow."""

    #: GC-tracked objects ``build_job`` + ``start()`` add per rank of a
    #: ``pieglobals`` Jacobi job (was 32, then 29), with 10 % headroom
    PER_RANK = 26
    BUDGET = PER_RANK * 1.1

    @staticmethod
    def _tracked_objects_added(nvp: int) -> int:
        spec = JobSpec(app="jacobi3d", nvp=nvp,
                       app_config={"n": 16, "iters": 1, "reduce_every": 1},
                       method="pieglobals", layout=(2, 2, 4))
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            job = build_job(spec)
            job.start()
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        job.scheduler.shutdown()
        return added

    def test_gc_tracked_objects_per_rank(self):
        self._tracked_objects_added(8)     # imports, lazy module state
        small, large = map(self._tracked_objects_added, (128, 256))
        per_rank = (large - small) / 128   # per-job constants cancel
        assert per_rank <= self.BUDGET, (
            f"start-up now builds {per_rank:.1f} GC-tracked objects per "
            f"rank (budget {self.BUDGET:.0f}): something is being made "
            f"per rank that is a property of the image or the process")
