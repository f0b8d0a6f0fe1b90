"""``JobScheduler.run``'s loop runs on its caller's thread, whatever the
bodies: a quantum is one ``step()`` — a generator body resumed right
there (no worker, no OS thread), a plain body woken on its pool worker
while the caller waits.  So every hook of the loop fires on the caller's
thread with all ranks parked, and what a hook raises surfaces from
``run()``, never inside user code.  The in-tree apps are written in
generator form; their ``plain_bodies`` twins are the plain case.
Every test runs on a private worker pool.
"""

import dataclasses
import threading

import pytest

from repro.charm.node import JobLayout
from repro.errors import DeadlockError
from repro.ft import FaultPlan, NodeCrash
from repro.harness.jobspec import JobSpec, build_job
from repro.threads import (
    PooledBackend,
    consume_orphan_count,
    orphan_count,
)
from repro.threads.ult import UltKilled, UltState, drive
from counted import SWITCH_STORM
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
    """The ``switch_storm`` shape at ``nvp`` ranks."""
    return dataclasses.replace(SWITCH_STORM, nvp=nvp, **kw)


#: both land mid-run (see :func:`crashing_jacobi`)
CRASH_AT = (61_100_000, 61_800_000)


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


def done_generator():
    """A generator body that finishes in its first quantum."""
    return
    yield


def block(sched, reason):
    """A plain body blocking: the driver parks its ULT at the reason."""
    drive(sched.current.ult, sched.block_current(reason))


class TestHandoffCount:
    def test_generator_job_pays_no_handoff(self, backend):
        """64 ranks x 200 yields on one PE, in the form the app is
        written in: stepped on this thread from start to end."""
        threads = threading.active_count()
        sched = run_spec(SWITCH_STORM, backend)
        assert len(sched.timeline) == 64 * 201
        assert backend.created == backend.binds == 0
        assert threading.active_count() == threads

    def test_each_rank_runs_its_own_shapes_way(self, backend):
        """One generator body and one plain body in one job: only the
        plain one takes a worker."""
        ran_on = {}

        def stepped():
            ran_on["generator"] = threading.get_ident()
            yield from sched.yield_current(ranks[0].clock.now)
            return "g"

        def pooled():
            ran_on["plain"] = threading.get_ident()
            drive(ranks[1].ult, sched.yield_current(ranks[1].clock.now))
            return "p"

        sched, ranks = make_sched(backend, [stepped, pooled])
        sched.run()
        assert [r.exit_value for r in ranks] == ["g", "p"]
        assert len(sched.timeline) == 4
        assert ran_on["generator"] == threading.get_ident() != ran_on["plain"]
        assert backend.binds == 1 and all_workers_idle(backend)


@pytest.mark.parametrize("recovery", ["global", "local"])
class TestFaultsFireOnTheCaller:
    """Two crashes land mid-run and ``run()``'s caller fires both: it is
    the one running the loop, and the ranks a rollback kills are parked."""

    def _run(self, backend, recovery):
        job = build_job(crashing_jacobi(12, CRASH_AT, recovery),
                        ult_backend=backend)
        job.start()
        sched = job.scheduler
        poll, fired = sched.fault_check, []

        def recording_poll(at_ns):
            hit = poll(at_ns)
            if hit:
                fired.append((threading.get_ident(), len(sched.timeline)))
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
        assert {ident for ident, _ in fired} == {threading.get_ident()}
        assert all(quanta_so_far > 0 for _, quanta_so_far in fired)
        assert backend.binds == 0
        assert sched.orphaned == 0 and orphan_count() == 0
        assert threading.active_count() == threads

    @pytest.mark.usefixtures("plain_bodies")
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

        sched, ranks = make_sched(backend, [stubborn, done_generator])
        with pytest.raises(DeadlockError, match=r"vp 0 \(stuck\)"):
            sched.run()
        assert isinstance(ranks[0].ult.exception, UltKilled)
        assert all(r.ult.finished for r in ranks)
        assert sched.orphaned == 0 and orphan_count() == 0
        assert backend.binds == 0


#: scheduler-level hooks: which call of each is the first that finds a
#: rank suspended mid-body
RAISES_AT = {"timer": 1, "on_rank_done": 1, "on_quantum": 2}


@pytest.mark.parametrize(
    "hook", ["fault_check-global", "fault_check-local", *RAISES_AT])
@pytest.mark.parametrize("shape", ["generator", "plain"])
def test_hook_fires_on_the_run_caller(backend, shape, hook, request):
    """And what it raises surfaces from ``run()``; user code sees only
    the forced unwind of the shutdown that follows."""
    called_on = []
    seen_by_user = []

    def boom(*_):
        called_on.append(threading.get_ident())
        if len(called_on) == raises_at:
            raise RuntimeError("hook boom")

    def waits_plain():
        try:
            block(sched, "waiting")
        except BaseException as e:
            seen_by_user.append(e)
            raise

    def waits_generator():
        try:
            yield from sched.block_current("waiting")
        except BaseException as e:
            seen_by_user.append(e)
            raise

    if hook in RAISES_AT:
        raises_at = RAISES_AT[hook]
        sched, _ = make_sched(backend, {
            "generator": [waits_generator, done_generator],
            "plain": [waits_plain, lambda: None]}[shape])
        if hook == "timer":
            sched.add_timer(5, boom)
        else:
            setattr(sched, hook, boom)
        run = sched.run
    else:
        # a real job: the second crash fires among respawned ranks
        if shape == "plain":
            request.getfixturevalue("plain_bodies")
        job = build_job(crashing_jacobi(12, CRASH_AT,
                                        hook.split("-")[1]),
                        ult_backend=backend)
        job.start()
        sched, run, raises_at = job.scheduler, job.run, 2
        poll = sched.fault_check

        def fires(at_ns):
            hit = poll(at_ns)
            if hit:
                boom()
            return hit

        sched.fault_check = fires

    with pytest.raises(RuntimeError, match="hook boom"):
        run()
    assert called_on == [threading.get_ident()] * raises_at
    assert [type(e) for e in seen_by_user] == (
        [UltKilled] if hook in RAISES_AT else [])
    assert all(r.ult.state is UltState.DONE
               or isinstance(r.ult.exception, UltKilled)
               for r in sched.ranks())
    assert sched.orphaned == 0 and orphan_count() == 0
    assert all_workers_idle(backend)
    if shape == "generator":
        assert backend.binds == 0
