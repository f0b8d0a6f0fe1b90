"""Tests for the pluggable ULT execution backends.

Covers the backend registry, pooled-worker reuse/recycling, orphan
(thread-leak) surfacing, and the determinism contract: the same job
must produce byte-identical simulated timelines under either backend.
"""

import time

import pytest

import repro.threads.backend as backend_mod
from repro.threads import (
    PooledBackend,
    ThreadBackend,
    backend_names,
    consume_orphan_count,
    default_backend,
    get_backend,
    set_default_backend,
)
from repro.threads.ult import UltKilled, UltState, UserLevelThread


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
    def test_both_backends_registered(self):
        assert set(backend_names()) >= {"thread", "pooled"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown ULT backend"):
            get_backend("greenlet")

    def test_names_resolve_to_shared_instances(self):
        assert get_backend("pooled") is get_backend("pooled")
        assert get_backend("thread") is get_backend("thread")

    def test_closed_shared_pool_is_replaced(self):
        pool = get_backend("pooled")
        pool.close()
        fresh = get_backend("pooled")
        assert fresh is not pool and not fresh.closed

    def test_instance_passes_through(self):
        mine = PooledBackend()
        assert get_backend(mine) is mine
        mine.close()

    def test_default_backend_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ULT_BACKEND", "pooled")
        try:
            set_default_backend(None)  # re-resolve from the environment
            assert default_backend().name == "pooled"
        finally:
            monkeypatch.delenv("REPRO_ULT_BACKEND")
            set_default_backend(None)

    def test_set_default_backend(self):
        try:
            assert set_default_backend("pooled").name == "pooled"
            u = UserLevelThread("d", lambda: None)
            assert u.backend.name == "pooled"
        finally:
            set_default_backend(None)

    def test_closed_default_pool_is_replaced(self):
        """REPRO_ULT_BACKEND=pooled + anyone closing the shared pool used
        to leave every later default-backend ULT unable to bind."""
        try:
            pool = set_default_backend("pooled")
            pool.close()
            fresh = default_backend()
            assert fresh is get_backend("pooled") and not fresh.closed
            u = UserLevelThread("d", lambda: "ran")
            u.start()
            u.switch_in()
            assert u.result == "ran"
        finally:
            get_backend("pooled").close()
            set_default_backend(None)


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

    def test_close_returns_idle_worker_count(self):
        pool = PooledBackend(prewarm=3)
        assert pool.close() == 3
        with pytest.raises(RuntimeError, match="closed"):
            pool.bind(UserLevelThread("x", lambda: None, backend=pool))


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
    def fast_join(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "JOIN_TIMEOUT_S", 0.05)
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

    def test_thread_backend_counts_orphan(self):
        u = self._wedge(ThreadBackend())
        with pytest.warns(ResourceWarning, match="did not terminate"):
            assert u.join_thread() is True
        assert consume_orphan_count() == 1
        # Reported exactly once: the dead-end thread is then abandoned.
        assert u.join_thread() is False

    def test_pooled_backend_counts_wedged_worker(self):
        pool = PooledBackend()
        u = self._wedge(pool)
        with pytest.warns(ResourceWarning, match="did not terminate"):
            assert u.join_thread() is True
        assert consume_orphan_count() == 1
        assert u.join_thread() is False     # recorded exactly once
        assert pool.idle_workers() == 0     # the worker is lost, not reused
        pool.close()

    def test_clean_exit_records_nothing(self):
        for backend in (ThreadBackend(), PooledBackend()):
            ults = make_ults(4, backend)
            run_to_completion(ults)
            assert all(not u.join_thread() for u in ults)
        assert consume_orphan_count() == 0


class TestDeterminismContract:
    """Same workload, either backend => byte-identical simulated history."""

    @staticmethod
    def _run(backend):
        from repro.ampi.runtime import AmpiJob
        from repro.apps.jacobi3d import JacobiConfig, build_jacobi_program
        from repro.charm.node import JobLayout

        source = build_jacobi_program(JacobiConfig(n=8, iters=3,
                                                   reduce_every=2))
        job = AmpiJob(source, 8, method="pieglobals",
                      layout=JobLayout(1, 2, 2), ult_backend=backend)
        result = job.run()
        return (result.makespan_ns, result.exit_values,
                list(job.scheduler.timeline))

    def test_identical_timelines_across_backends(self):
        thread_run = self._run("thread")
        pooled_run = self._run("pooled")
        assert thread_run == pooled_run
        get_backend("pooled").close()
