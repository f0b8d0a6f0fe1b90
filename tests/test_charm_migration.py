"""Tests for the migration engine (uses live jobs for realistic state)."""

import pytest

from repro.ampi.runtime import AmpiJob
from repro.charm.node import JobLayout
from repro.errors import MigrationUnsupportedError
from repro.machine import TEST_MACHINE
from repro.program.source import Program


def migrating_program(dest_pe=1, check_value=True):
    p = Program("mig")
    p.add_global("x", 0)

    @p.function()
    def main(ctx):
        me = ctx.mpi.rank()
        ctx.g.x = me * 100
        a = ctx.malloc(8192, data=list(range(8)), tag="state")
        ctx.mpi.barrier()
        if me == 0:
            ctx.mpi.migrate_to(dest_pe)
        ctx.mpi.barrier()
        return (ctx.g.x, ctx.heap.allocations[a.addr].data, ctx.mpi.my_pe())

    return p.build()


def run_job(source, nvp=2, method="pieglobals",
            layout=JobLayout(1, 2, 1), **kw):
    kw.setdefault("slot_size", 1 << 24)
    return AmpiJob(source, nvp, method=method, machine=TEST_MACHINE,
                   layout=layout, **kw)


class TestCrossProcessMigration:
    def test_state_preserved_across_migration(self):
        job = run_job(migrating_program())
        result = job.run()
        x, heap_data, pe = result.exit_values[0]
        assert x == 0 and heap_data == list(range(8))
        assert pe == 1

    def test_memory_actually_moved(self):
        job = run_job(migrating_program())
        result = job.run()
        rec = next(m for m in result.migrations if m.cross_process)
        assert rec.vp == 0 and rec.nbytes > 0
        # Rank 0 owns nothing in process 0 anymore, everything in 1.
        assert job.processes[0].vm.mappings_of_rank(0) == []
        assert job.processes[1].vm.mappings_of_rank(0) != []

    def test_isomalloc_addresses_stable(self):
        """The Isomalloc guarantee: same virtual addresses after moving."""
        job = run_job(migrating_program())
        job.run()
        slot = job.processes[1].isomalloc.arena.slot(0)
        for m in job.processes[1].vm.mappings_of_rank(0):
            assert slot.start <= m.start and m.end <= slot.end

    def test_heap_rebinds_to_destination_allocator(self):
        p = Program("mig2")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            ctx.mpi.barrier()
            if ctx.mpi.rank() == 0:
                ctx.mpi.migrate_to(1)
                a = ctx.malloc(4096, data="after-move")
                return a.addr
            ctx.mpi.barrier()
            return None

        # note: second barrier only on rank 1; rank 0 returns first —
        # use a 2-phase barrier for both to be safe
        q = Program("mig2b")
        q.add_global("x", 0)

        @q.function()
        def main(ctx):  # noqa: F811
            ctx.mpi.barrier()
            addr = None
            if ctx.mpi.rank() == 0:
                ctx.mpi.migrate_to(1)
                addr = ctx.malloc(4096, data="after-move").addr
            ctx.mpi.barrier()
            return addr

        job = run_job(q.build())
        result = job.run()
        addr = result.exit_values[0]
        m = job.processes[1].vm.find(addr)
        assert m is not None and m.owner_rank == 0 and m.via_isomalloc

    def test_migration_cost_scales_with_memory(self):
        def mk(kb):
            p = Program(f"m{kb}")
            p.add_global("x", 0)

            @p.function()
            def main(ctx):
                if ctx.mpi.rank() == 0:
                    ctx.malloc(kb * 1024, data=None)
                    t0 = ctx.clock.now
                    ctx.mpi.migrate_to(1)
                    return ctx.clock.now - t0
                ctx.mpi.barrier()  # hold rank 1 alive? not needed
                return 0

            return p.build()

        # Avoid the barrier pattern (rank 0 skips it); simpler: measure
        # engine-level records.
        small = run_job(migrating_program()).run()
        ns_small = next(m for m in small.migrations if m.cross_process).ns

        # Build a variant with a much bigger heap:
        pb = Program("mig_big")
        pb.add_global("x", 0)

        @pb.function()
        def main(ctx):  # noqa: F811
            me = ctx.mpi.rank()
            if me == 0:
                ctx.malloc(4 << 20, data=None, tag="big")
            ctx.mpi.barrier()
            if me == 0:
                ctx.mpi.migrate_to(1)
            ctx.mpi.barrier()
            return 0

        big = run_job(pb.build()).run()
        ns_big = next(m for m in big.migrations if m.cross_process).ns
        assert ns_big > ns_small

    def test_same_pe_migration_is_noop_record(self):
        p = Program("selfmig")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            ctx.mpi.migrate_to(ctx.mpi.my_pe())
            return ctx.mpi.my_pe()

        result = run_job(p.build(), nvp=1, layout=JobLayout(1, 1, 1)).run()
        assert result.exit_values[0] == 0
        assert all(m.ns == 0 or m.src_pe == m.dst_pe
                   for m in result.migrations)


class TestUnsupportedMethods:
    @pytest.mark.parametrize("method", ["pipglobals", "fsglobals"])
    def test_loader_backed_methods_cannot_migrate(self, method):
        job = run_job(migrating_program(), method=method)
        with pytest.raises(MigrationUnsupportedError, match="mmap"):
            job.run()

    def test_mpc_reports_not_implemented(self, tm_mpc):
        job = AmpiJob(migrating_program(), 2, method="mpc", machine=tm_mpc,
                      layout=JobLayout(1, 2, 1), slot_size=1 << 24)
        with pytest.raises(MigrationUnsupportedError, match="possible"):
            job.run()

    @pytest.mark.parametrize("method", ["tlsglobals", "manual", "none"])
    def test_supported_methods_migrate(self, method):
        job = run_job(migrating_program(), method=method)
        result = job.run()
        assert any(m.cross_process for m in result.migrations)


class TestIntraProcessMigration:
    def test_between_pes_same_process_moves_no_memory(self):
        job = run_job(migrating_program(), layout=JobLayout(1, 1, 2))
        result = job.run()
        rec = next(m for m in result.migrations if m.src_pe != m.dst_pe)
        assert not rec.cross_process
        assert rec.nbytes == 0
        assert result.exit_values[0][2] == 1  # landed on PE 1


class TestMigrationFailureRecovery:
    """A failed cross-process migration must leave the rank consistent:
    mappings back at the source, heap bound to the source allocator, and
    the rank still migratable afterwards."""

    def _finished_job(self):
        p = Program("migfail")
        p.add_global("x", 0)

        @p.function()
        def main(ctx):
            ctx.malloc(8192, data=list(range(8)), tag="state")
            return ctx.mpi.rank()

        job = run_job(p.build())
        job.run()
        return job

    def test_failed_install_restores_source_mappings(self, monkeypatch):
        job = self._finished_job()
        rank = job.rank_of(0)
        src, dst = job.processes
        before = src.vm.mappings_of_rank(0)
        assert before and rank.pe is job.pes[0]

        real_install = dst.isomalloc.install_rank
        calls = {"n": 0}

        def flaky_install(vp, mappings):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("destination install failed")
            return real_install(vp, mappings)

        monkeypatch.setattr(dst.isomalloc, "install_rank", flaky_install)
        with pytest.raises(RuntimeError, match="destination install"):
            job.migration_engine.migrate(rank, job.pes[1])

        # Everything is back where it started ...
        assert src.vm.mappings_of_rank(0) == before
        assert dst.vm.mappings_of_rank(0) == []
        assert rank.pe is job.pes[0]
        assert rank.heap.isomalloc is src.isomalloc
        # ... and the rank is still migratable (the regression: the old
        # code left the extracted pages nowhere, stranding the rank).
        rec = job.migration_engine.migrate(rank, job.pes[1])
        assert rec.cross_process and dst.vm.mappings_of_rank(0) != []

    def test_failed_move_to_rolls_back_transfer(self, monkeypatch):
        job = self._finished_job()
        rank = job.rank_of(0)
        src, dst = job.processes
        before = src.vm.mappings_of_rank(0)

        def boom(self, pe):
            raise RuntimeError("move_to failed")

        # on the class: a rank has __slots__, no per-instance methods
        monkeypatch.setattr(type(rank), "move_to", boom)
        with pytest.raises(RuntimeError, match="move_to failed"):
            job.migration_engine.migrate(rank, job.pes[1])

        assert src.vm.mappings_of_rank(0) == before
        assert dst.vm.mappings_of_rank(0) == []
        assert rank.heap.isomalloc is src.isomalloc
