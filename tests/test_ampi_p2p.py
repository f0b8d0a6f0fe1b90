"""Point-to-point MPI semantics, exercised through real jobs."""

import numpy as np
import pytest

from repro.ampi.comm import ANY_SOURCE, ANY_TAG
from repro.ampi.requests import Status
from repro.charm.node import JobLayout
from repro.errors import MpiError
from repro.program.source import Program

from conftest import run_job


def program(body, name="p2p", n_globals=0):
    p = Program(name)
    p.add_global("pad", 0)
    p.add_function(body, name="main")
    return p.build()


class TestSendRecv:
    def test_basic_roundtrip(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                ctx.mpi.send({"a": 7}, dest=1, tag=11)
                return None
            return ctx.mpi.recv(source=0, tag=11)

        r = run_job(program(main), 2)
        assert r.exit_values[1] == {"a": 7}

    def test_numpy_payload(self):
        def main(ctx):
            if ctx.mpi.rank() == 0:
                ctx.mpi.send(np.arange(10.0), dest=1)
                return 0
            data = ctx.mpi.recv(source=0)
            return float(data.sum())

        r = run_job(program(main), 2)
        assert r.exit_values[1] == 45.0

    def test_recv_blocks_until_send(self):
        """Receiver posts first; message-driven scheduling resumes it."""
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 1:
                return ctx.mpi.recv(source=0)   # blocks
            ctx.compute(10_000)                 # sender is late
            ctx.mpi.send("late", dest=1)
            return None

        r = run_job(program(main), 2)
        assert r.exit_values[1] == "late"

    def test_any_source_any_tag(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                got = [ctx.mpi.recv(source=ANY_SOURCE, tag=ANY_TAG)
                       for _ in range(2)]
                return sorted(got)
            ctx.mpi.send(me, dest=0, tag=me)
            return None

        r = run_job(program(main), 3)
        assert r.exit_values[0] == [1, 2]

    def test_status_filled(self):
        def main(ctx):
            if ctx.mpi.rank() == 0:
                ctx.mpi.send(b"xyz", dest=1, tag=42)
                return None
            status = Status()
            ctx.mpi.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
            return (status.source, status.tag, status.nbytes)

        r = run_job(program(main), 2)
        assert r.exit_values[1] == (0, 42, 3)

    def test_tag_selectivity(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                ctx.mpi.send("one", dest=1, tag=1)
                ctx.mpi.send("two", dest=1, tag=2)
                return None
            second = ctx.mpi.recv(source=0, tag=2)
            first = ctx.mpi.recv(source=0, tag=1)
            return (first, second)

        r = run_job(program(main), 2)
        assert r.exit_values[1] == ("one", "two")

    def test_non_overtaking_order(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                for i in range(5):
                    ctx.mpi.send(i, dest=1, tag=9)
                return None
            return [ctx.mpi.recv(source=0, tag=9) for _ in range(5)]

        r = run_job(program(main), 2)
        assert r.exit_values[1] == [0, 1, 2, 3, 4]

    def test_self_send(self):
        def main(ctx):
            ctx.mpi.send("me", dest=ctx.mpi.rank(), tag=0)
            return ctx.mpi.recv(source=ctx.mpi.rank(), tag=0)

        r = run_job(program(main), 1, layout=JobLayout(1, 1, 1))
        assert r.exit_values[0] == "me"

    def test_sendrecv_exchange(self):
        def main(ctx):
            me = ctx.mpi.rank()
            other = 1 - me
            return ctx.mpi.sendrecv(me, dest=other, source=other)

        r = run_job(program(main), 2)
        assert r.exit_values == {0: 1, 1: 0}


class TestNonblocking:
    def test_isend_irecv_wait(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                req = ctx.mpi.isend([1, 2], dest=1)
                ctx.mpi.wait(req)
                return None
            req = ctx.mpi.irecv(source=0)
            return ctx.mpi.wait(req)

        r = run_job(program(main), 2)
        assert r.exit_values[1] == [1, 2]

    def test_waitall_multiple_sources(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                reqs = [ctx.mpi.irecv(source=s, tag=5) for s in (1, 2, 3)]
                return ctx.mpi.waitall(reqs)
            ctx.mpi.send(me * 10, dest=0, tag=5)
            return None

        r = run_job(program(main), 4)
        assert r.exit_values[0] == [10, 20, 30]

    def test_test_polls_without_blocking(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 1:
                req = ctx.mpi.irecv(source=0)
                polls = 0
                while True:
                    done, payload = ctx.mpi.test(req)
                    if done:
                        return (polls > 0, payload)
                    polls += 1
                    ctx.mpi.yield_()
            ctx.compute(5_000)
            ctx.mpi.send("eventually", dest=1)
            return None

        r = run_job(program(main), 2, layout=JobLayout(1, 1, 2))
        polled, payload = r.exit_values[1]
        assert payload == "eventually"

    def test_wait_on_foreign_request_rejected(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                req = ctx.mpi.irecv(source=1)
                ctx.mpi.send(req, dest=1)
                ctx.mpi.send("x", dest=1, tag=3)
                return None
            foreign = ctx.mpi.recv(source=0)
            try:
                ctx.mpi.wait(foreign)
            except MpiError:
                ctx.mpi.send("ok", dest=0, tag=9)  # unblock rank 0's irecv? no
                return "raised"
            return "no-error"

        # rank 0's irecv never completes -> it would deadlock; instead
        # structure so rank 0 doesn't wait on it.
        def main2(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                req = ctx.mpi.irecv(source=ANY_SOURCE, tag=1)
                ctx.mpi.send(req, dest=1, tag=2)
                ctx.mpi.send("fill", dest=0, tag=1)  # self-complete it
                return ctx.mpi.wait(req)
            foreign = ctx.mpi.recv(source=0, tag=2)
            try:
                ctx.mpi.wait(foreign)
                return "no-error"
            except MpiError:
                return "raised"

        r = run_job(program(main2), 2)
        assert r.exit_values[1] == "raised"


class TestRankRange:
    """A peer rank outside the communicator is refused with one wording
    on either side: a receive (or probe) from it used to wait forever and
    end in a DeadlockError, or, nonblocking, to return as if posted."""

    @pytest.mark.parametrize("call", [
        "send", "isend", "recv", "irecv", "probe", "iprobe", "sendrecv"])
    @pytest.mark.parametrize("peer", [5, 2, -2])
    def test_out_of_range_peer_is_an_mpi_error(self, call, peer):
        def main(ctx):
            mpi = ctx.mpi
            if mpi.rank() == 0:
                if call == "sendrecv":
                    mpi.sendrecv("x", dest=1, source=peer)
                elif call in ("send", "isend"):
                    getattr(mpi, call)("x", dest=peer)
                else:
                    getattr(mpi, call)(source=peer)
            return None

        with pytest.raises(MpiError) as err:
            run_job(program(main), 2)
        assert str(err.value) == \
            f"rank {peer} out of range for MPI_COMM_WORLD (size 2)"

    def test_any_source_is_still_any_source(self):
        def main(ctx):
            mpi = ctx.mpi
            if mpi.rank() == 1:
                mpi.send("hi", dest=0, tag=4)
                return None
            status = mpi.probe(source=ANY_SOURCE, tag=ANY_TAG)
            return status.source, mpi.recv(source=ANY_SOURCE)

        assert run_job(program(main), 2).exit_values[0] == (1, "hi")


class TestProbe:
    def test_iprobe_none_when_empty(self):
        def main(ctx):
            if ctx.mpi.rank() == 0:
                return ctx.mpi.iprobe(source=ANY_SOURCE)
            return None

        r = run_job(program(main), 2)
        assert r.exit_values[0] is None

    def test_probe_blocks_then_reports(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                status = ctx.mpi.probe(source=ANY_SOURCE)
                payload = ctx.mpi.recv(source=status.source,
                                       tag=status.tag)
                return (status.source, payload)
            ctx.compute(2_000)
            ctx.mpi.send("probed", dest=0, tag=6)
            return None

        r = run_job(program(main), 2)
        assert r.exit_values[0] == (1, "probed")

    def test_iprobe_sees_delivered_message(self):
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 1:
                ctx.mpi.send("here", dest=0, tag=2)
                return None
            ctx.mpi.barrier()
            # after barrier the message must have arrived
            st = ctx.mpi.iprobe(source=1, tag=2)
            got = ctx.mpi.recv(source=1, tag=2)
            return (st is not None, got)

        # both ranks must hit the barrier
        def main2(ctx):
            me = ctx.mpi.rank()
            if me == 1:
                ctx.mpi.send("here", dest=0, tag=2)
                ctx.mpi.barrier()
                return None
            ctx.mpi.barrier()
            st = ctx.mpi.iprobe(source=1, tag=2)
            got = ctx.mpi.recv(source=1, tag=2)
            return (st is not None, got)

        r = run_job(program(main2), 2)
        assert r.exit_values[0] == (True, "here")


class TestTiming:
    def test_message_latency_charged(self):
        """Cross-process messages take network time; receiver cannot see
        data earlier than sender time + latency."""
        def main(ctx):
            me = ctx.mpi.rank()
            if me == 0:
                ctx.mpi.send("x", dest=1)
                return ctx.clock.now
            ctx.mpi.recv(source=0)
            return ctx.clock.now

        r = run_job(program(main), 2, layout=JobLayout(1, 2, 1))
        send_done, recv_done = r.exit_values[0], r.exit_values[1]
        assert recv_done >= send_done

    def test_large_message_costs_more(self):
        def mk(size):
            def main(ctx):
                me = ctx.mpi.rank()
                if me == 0:
                    ctx.mpi.send(np.zeros(size), dest=1)
                    return 0
                ctx.mpi.recv(source=0)
                return ctx.clock.now
            return main

        small = run_job(program(mk(10), "s"), 2,
                        layout=JobLayout(1, 2, 1)).exit_values[1]
        large = run_job(program(mk(100_000), "l"), 2,
                        layout=JobLayout(1, 2, 1)).exit_values[1]
        assert large > small
