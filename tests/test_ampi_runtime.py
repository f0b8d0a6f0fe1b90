"""Tests for the AMPI job runtime: lifecycle, placement, results."""

import pytest

from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.errors import MpiAbort, MpiError, ReproError
from repro.machine import TEST_MACHINE
from repro.perf.counters import EV_CTX_SWITCH, EV_MSG_SENT
from repro.program.source import Program

from conftest import make_hello, run_job


class TestLifecycle:
    def test_run_returns_result(self):
        result = run_job(make_hello(), 4)
        assert result.nvp == 4
        assert sorted(result.exit_values.values()) == [0, 1, 2, 3]

    def test_cannot_start_twice(self):
        job = AmpiJob(make_hello(), 2, machine=TEST_MACHINE,
                      slot_size=1 << 24)
        job.start()
        with pytest.raises(ReproError):
            job.start()
        job.scheduler.shutdown()

    def test_zero_ranks_rejected(self):
        with pytest.raises(ReproError):
            AmpiJob(make_hello(), 0, machine=TEST_MACHINE)

    def test_init_finalize_protocol(self):
        p = Program("proto")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            assert not ctx.mpi.initialized()
            ctx.mpi.init()
            assert ctx.mpi.initialized()
            ctx.mpi.finalize()
            return "done"

        result = run_job(p.build(), 2)
        assert set(result.exit_values.values()) == {"done"}

    def test_double_init_rejected(self):
        p = Program("dbl")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            ctx.mpi.init()
            ctx.mpi.init()

        with pytest.raises(MpiError, match="twice"):
            run_job(p.build(), 1, layout=JobLayout(1, 1, 1))

    def test_abort_propagates(self):
        p = Program("abort")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            if ctx.mpi.rank() == 1:
                ctx.mpi.abort(errorcode=3)
            ctx.mpi.barrier()

        with pytest.raises(MpiAbort) as e:
            run_job(p.build(), 2)
        assert e.value.errorcode == 3

    def test_wtime_reports_simulated_seconds(self):
        p = Program("wtime")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            t0 = ctx.mpi.wtime()
            ctx.compute(2_000_000_000)  # 2 simulated seconds
            return ctx.mpi.wtime() - t0

        result = run_job(p.build(), 1, layout=JobLayout(1, 1, 1))
        assert result.exit_values[0] == pytest.approx(2.0)


class TestPlacement:
    def test_block_placement(self):
        job = AmpiJob(make_hello(), 8, machine=TEST_MACHINE,
                      layout=JobLayout.single(2), placement="block",
                      slot_size=1 << 24)
        job.start()
        try:
            assert sorted(job.pes[0].resident) == [0, 1, 2, 3]
            assert sorted(job.pes[1].resident) == [4, 5, 6, 7]
        finally:
            job.scheduler.shutdown()

    def test_roundrobin_placement(self):
        job = AmpiJob(make_hello(), 8, machine=TEST_MACHINE,
                      layout=JobLayout.single(2), placement="roundrobin",
                      slot_size=1 << 24)
        job.start()
        try:
            assert sorted(job.pes[0].resident) == [0, 2, 4, 6]
        finally:
            job.scheduler.shutdown()

    def test_unknown_placement_rejected(self):
        with pytest.raises(ReproError):
            AmpiJob(make_hello(), 2, machine=TEST_MACHINE,
                    placement="zigzag")

    def test_default_layout_uses_available_cores(self):
        job = AmpiJob(make_hello(), 2, machine=TEST_MACHINE,
                      slot_size=1 << 24)
        assert job.layout.total_pes == 2


class TestResults:
    def test_counters_merged(self):
        result = run_job(make_hello(), 4)
        assert result.counters[EV_CTX_SWITCH] > 0

    def test_pe_stats_cover_all_pes(self):
        result = run_job(make_hello(), 4)
        assert len(result.pe_stats) == result.layout.total_pes

    def test_startup_per_process(self):
        result = run_job(make_hello(), 4, layout=JobLayout(1, 2, 2))
        assert len(result.startup_per_process) == 2
        assert result.startup_ns == max(result.startup_per_process)

    def test_makespan_at_least_startup(self):
        result = run_job(make_hello(), 2)
        assert result.makespan_ns >= result.startup_ns
        assert result.app_ns >= 0

    def test_rank_cpu_recorded(self):
        result = run_job(make_hello(), 2)
        assert set(result.rank_cpu_ns) == {0, 1}

    def test_message_counter(self):
        p = Program("msgs")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            if ctx.mpi.rank() == 0:
                ctx.mpi.send("x", dest=1)
            else:
                ctx.mpi.recv(source=0)

        result = run_job(p.build(), 2)
        assert result.counters[EV_MSG_SENT] == 1


class TestUserOpsThroughRuntime:
    def test_user_op_allreduce(self):
        p = Program("userop")
        p.add_global("x", 0)

        @p.function()
        def combine(ctx, a, b):
            return max(a, b) * 2 if False else a + b

        @p.function()
        def main(ctx):
            op = ctx.mpi.op_create("combine")
            return ctx.mpi.allreduce(ctx.mpi.rank() + 1, op=op)

        result = run_job(p.build(), 4)
        assert set(result.exit_values.values()) == {10}

    def test_user_op_under_pie_uses_offsets(self):
        p = Program("pieop")
        p.add_global("x", 0)

        @p.function()
        def combine(ctx, a, b):
            return a + b

        @p.function()
        def main(ctx):
            op = ctx.mpi.op_create("combine")
            assert op.fn_offset is not None   # stored as offset, not addr
            return ctx.mpi.allreduce(1, op=op)

        result = run_job(p.build(), 3, method="pieglobals")
        assert set(result.exit_values.values()) == {3}

    def test_user_op_under_shared_code_uses_address(self):
        p = Program("tlsop")
        p.add_global("x", 0)

        @p.function()
        def combine(ctx, a, b):
            return a + b

        @p.function()
        def main(ctx):
            op = ctx.mpi.op_create("combine")
            assert op.fn_addr is not None and op.fn_offset is None
            return ctx.mpi.allreduce(1, op=op)

        result = run_job(p.build(), 3, method="tlsglobals")
        assert set(result.exit_values.values()) == {3}
