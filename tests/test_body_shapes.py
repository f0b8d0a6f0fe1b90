"""The body's shape selects the stack, and nothing else.

A generator-form rank body is stepped on the ``JobScheduler.run``
caller's stack; the same body behind a plain function
(:func:`conftest.on_pool_threads`) runs on a pool worker per rank.
The differential holds the two to one simulated history — the
transparency oracle applied to *how a body is run* — and the rest pins
what each shape costs and how a forgotten ``yield from`` fails.
"""

import dataclasses
import threading

import pytest

from repro.ampi.runtime import AmpiJob, jsonable
from repro.charm.node import JobLayout
from repro.errors import MpiError
from repro.harness.jobspec import JobSpec, build_job
from repro.machine import TEST_MACHINE
from repro.program.source import Program
from repro.threads import PooledBackend, consume_orphan_count

from conftest import run_job
from test_sched_dispatch import CRASH_AT, crashing_jacobi, pingpong

SPECS = {
    "startup": JobSpec(app="startup", nvp=8, method="pieglobals",
                       machine="bridges2", layout=(1, 2, 2)),
    "pingpong": pingpong(6),
    "hello": JobSpec(app="hello", nvp=3, method="pieglobals",
                     layout=(1, 1, 2), slot_size=1 << 24),
    "jacobi3d": JobSpec(app="jacobi3d", nvp=8, layout=(1, 2, 2),
                        app_config={"n": 12, "iters": 6, "reduce_every": 2,
                                    "lb_period": 3}),
    "jacobi3d-crash-global": crashing_jacobi(12, CRASH_AT, "global"),
    "jacobi3d-crash-local": crashing_jacobi(12, CRASH_AT, "local"),
    "adcirc-greedyrefine": JobSpec(
        app="adcirc", nvp=8, layout=(1, 1, 4), lb_strategy="greedyrefine",
        app_config={"height": 64, "width": 32, "steps": 12,
                    "lb_period": 4}),
    "memhog-migrate-to": JobSpec(
        app="memhog", nvp=2, layout=(1, 2, 1),
        app_config={"heap_mb": 2, "chunk_mb": 1, "code_bytes": 1 << 20}),
}


@pytest.fixture
def pool():
    consume_orphan_count()
    p = PooledBackend()
    yield p
    p.close()
    assert consume_orphan_count() == 0


def history(spec, pool):
    """(threads it left behind, everything it simulated): the result
    carries makespan, exit values, counters, per-PE stats, migrations,
    LB steps, rollbacks and crashes, here all compared by value."""
    threads = threading.active_count()
    job = build_job(spec, ult_backend=pool)
    result = job.run()
    report = dataclasses.replace(
        result, counters=result.counters.snapshot(),
        exit_values={vp: jsonable(v) for vp, v in result.exit_values.items()})
    return (threading.active_count() - threads,
            (job.scheduler.timeline, report))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_same_history_on_either_stack(name, pool, request):
    grew, stepped = history(SPECS[name], pool)
    assert grew == 0 and pool.binds == pool.created == 0

    request.getfixturevalue("plain_bodies")     # from here on: the twin
    _, pooled = history(SPECS[name], pool)
    assert pooled == stepped
    assert pool.binds >= SPECS[name].nvp


# ---------------------------------------------------------------------------
# A forgotten ``yield from`` fails loudly
# ---------------------------------------------------------------------------

def generator_program(body, helper=None):
    p = Program("shapes")
    p.add_global("x", 0)
    if helper is not None:
        p.add_function(helper, name="helper")
    p.add_function(body, name="main")
    return p.build()


def irecv_then_wait(ctx):
    """A generator-form helper: blocks until rank 1's message is in."""
    return (yield from ctx.mpi.wait(ctx.mpi.irecv(source=1)))


class TestForgottenYieldFrom:
    def test_barrier_caught_at_the_next_mpi_call(self):
        def main(ctx):
            ctx.mpi.barrier()                   # not delegated to
            yield from ctx.mpi.barrier()

        with pytest.raises(MpiError, match=r"vp \d: MPI_barrier was called "
                           r"but not delegated to \(missing 'yield from'\)"):
            run_job(generator_program(main), 2)

    def test_wait_caught_by_a_nonblocking_call(self):
        def main(ctx):
            peer = 1 - ctx.mpi.rank()
            req = ctx.mpi.irecv(source=peer)
            ctx.mpi.isend("x", dest=peer)
            got = ctx.mpi.wait(req)             # a generator, not "x"
            ctx.mpi.wtime()
            return got
            yield                               # (generator form)

        with pytest.raises(MpiError, match="MPI_wait was called but not "
                                           "delegated to"):
            run_job(generator_program(main), 2)

    def test_ctx_call_of_a_generator_function_caught_at_exit(self):
        """Nothing follows the undelegated call: the rank's exit is the
        end of the quantum it was made in."""
        def main(ctx):
            yield from ctx.mpi.barrier()
            ctx.call("helper")                  # the last thing it does

        with pytest.raises(MpiError, match=r"vp \d: helper\(\) was called "
                                           "but not delegated to"):
            run_job(generator_program(main, irecv_then_wait), 2)

    def test_delegated_twin_is_clean(self):
        def main(ctx):
            if ctx.mpi.rank() == 1:
                ctx.mpi.send("x", dest=0)
                got = None
            else:
                got = yield from ctx.call("helper")
            yield from ctx.mpi.barrier()
            return got

        result = run_job(generator_program(main, irecv_then_wait), 2)
        assert result.exit_values == {0: "x", 1: None}


class TestMixedShapes:
    def test_plain_body_calls_a_generator_helper(self, pool):
        """``ctx.call`` of a generator function from plain code returns
        its result: the same driver as a blocking MPI call."""
        def main(ctx):
            if ctx.mpi.rank() == 1:
                ctx.mpi.send("x", dest=0)
                return None
            return ctx.call("helper")

        job = AmpiJob(generator_program(main, irecv_then_wait), 2,
                      machine=TEST_MACHINE, layout=JobLayout(1, 1, 2),
                      slot_size=1 << 24, ult_backend=pool)
        assert job.run().exit_values == {0: "x", 1: None}
        assert pool.binds == 2
