"""Unit-level tests of the collective engine's cost model and guards
(semantics are covered end-to-end in test_ampi_collectives.py)."""

import pytest

from repro.ampi.collectives import CollectiveEngine, _copy_payload
from repro.ampi.datatypes import payload_nbytes
from repro.ampi.runtime import AmpiJob
from repro.charm.reduction import tree_depth
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


class PerRankPricing(CollectiveEngine):
    """The previous completion rules of reduce/gather/scatter, verbatim:
    a regime scan per priced step, so one per rank."""

    def _step_ns(self, comm, nbytes: int = 0) -> int:
        costs = self.job.costs
        lat = self._regime_latency(comm)
        bw = (costs.net_bandwidth_inter_bpns if lat >= costs.net_latency_inter_ns
              else costs.net_bandwidth_intra_bpns)
        ser = int(nbytes / bw) if nbytes else 0
        return costs.collective_step_ns + lat + ser

    def _finish_reduce(self, state) -> None:
        comm = state.comm
        root = state.params["root"]
        result, ops = self._reduce_result(state)
        nbytes = payload_nbytes(result)
        depth = tree_depth(len(self.job.pes))
        T = self._max_arrival(state)
        root_release = (T + depth * self._step_ns(comm, nbytes)
                        + ops * self.job.costs.reduction_op_ns)
        state.releases = {}
        for r, (t, _) in state.arrivals.items():
            if r == root:
                state.releases[r] = (root_release, result)
            else:
                # Non-roots contribute and leave.
                state.releases[r] = (t + self._step_ns(comm), None)

    def _finish_gather(self, state) -> None:
        comm = state.comm
        root = state.params["root"]
        values = [state.arrivals[r][1] for r in range(comm.size)]
        total = sum(payload_nbytes(v) for v in values)
        depth = tree_depth(comm.size)
        T = self._max_arrival(state)
        root_release = T + depth * self._step_ns(comm) + int(
            total / self.job.costs.net_bandwidth_inter_bpns
        )
        state.releases = {}
        for r, (t, _) in state.arrivals.items():
            if r == root:
                state.releases[r] = (root_release,
                                     [_copy_payload(v) for v in values])
            else:
                state.releases[r] = (t + self._step_ns(comm), None)

    def _finish_scatter(self, state) -> None:
        comm = state.comm
        root = state.params["root"]
        root_time, seq = state.arrivals[root]
        if seq is None or len(seq) != comm.size:
            raise MpiError(
                f"scatter root must contribute exactly {comm.size} items"
            )
        depth = tree_depth(comm.size)
        state.releases = {}
        for r, (t, _) in state.arrivals.items():
            chunk = seq[r]
            ready = root_time + depth * self._step_ns(
                comm, payload_nbytes(chunk)
            )
            if r == root:
                state.releases[r] = (max(t, root_time), _copy_payload(chunk))
            else:
                state.releases[r] = (max(t, ready), _copy_payload(chunk))


_regime_latency = CollectiveEngine._regime_latency
_finish = CollectiveEngine._finish


def rooted_collectives(engine_cls, monkeypatch) -> list:
    """(kind, regime scans, releases) of each reduce/gather/scatter of a
    64-rank job on two nodes, its collectives run by ``engine_cls``."""
    def main(ctx):
        me = ctx.mpi.rank()
        ctx.compute(37 * (me % 7))
        # a tuple sum concatenates: the root's step pays for its bytes
        total = yield from ctx.mpi.reduce((me,) * 50, root=3)
        rows = yield from ctx.mpi.gather([me] * (me % 5), root=5)
        mine = yield from ctx.mpi.scatter(
            [list(range(i % 9)) for i in range(64)] if me == 7 else None,
            root=7)
        return total, rows, mine

    p = Program("rooted")
    p.add_global("x", 0)
    p.add_function(main, name="main")
    job = AmpiJob(p.build(), 64, method="none", machine=TEST_MACHINE,
                  layout=JobLayout(2, 2, 2), slot_size=1 << 24)
    job.collectives = engine_cls(job)
    seen = []
    scans = [0]
    def counted(engine, comm):
        scans[0] += 1
        return _regime_latency(engine, comm)

    def recorded(engine, state):
        scans[0] = 0
        _finish(engine, state)
        seen.append((state.kind, scans[0], dict(state.releases)))

    monkeypatch.setattr(CollectiveEngine, "_regime_latency", counted)
    monkeypatch.setattr(CollectiveEngine, "_finish", recorded)
    job.run()
    return seen


class TestRootedCollectivesPriceTheRegimeOnce:
    """MPI_Reduce/Gather/Scatter scan the members' placement once per
    collective, not once per rank, and release every rank when the
    per-rank pricing did."""

    def test_one_scan_same_releases(self, monkeypatch):
        now = rooted_collectives(CollectiveEngine, monkeypatch)
        before = rooted_collectives(PerRankPricing, monkeypatch)
        assert [(kind, scans) for kind, scans, _ in now] == [
            ("reduce", 1), ("gather", 1), ("scatter", 1)]
        assert [scans for _, scans, _ in before] == [64, 64, 64]
        assert [r for *_, r in now] == [r for *_, r in before]
