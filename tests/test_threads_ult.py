"""Tests for user-level threads: one ``step()`` per quantum — plain
targets on a pool stack, generator targets on the caller's."""

import threading

import pytest

from repro.errors import ReproError
from repro.threads import PooledBackend
from repro.threads.ult import UltKilled, UltState, UserLevelThread


class TestLifecycle:
    def test_runs_to_completion(self):
        ult = UserLevelThread("t", lambda: 42)
        ult.start()
        state = ult.switch_in()
        assert state is UltState.DONE
        assert ult.result == 42
        ult.join_thread()

    def test_exception_captured(self):
        def boom():
            raise ValueError("nope")

        ult = UserLevelThread("t", boom)
        ult.start()
        assert ult.switch_in() is UltState.ERROR
        assert isinstance(ult.exception, ValueError)

    def test_args_passed(self):
        ult = UserLevelThread("t", lambda a, b: a + b, (2, 3))
        ult.start()
        ult.switch_in()
        assert ult.result == 5

    def test_cannot_start_twice(self):
        ult = UserLevelThread("t", lambda: 0)
        ult.start()
        with pytest.raises(ReproError):
            ult.start()
        ult.switch_in()

    def test_cannot_switch_to_unstarted(self):
        ult = UserLevelThread("t", lambda: 0)
        with pytest.raises(ReproError):
            ult.switch_in()

    def test_cannot_switch_to_done(self):
        ult = UserLevelThread("t", lambda: 0)
        ult.start()
        ult.switch_in()
        with pytest.raises(ReproError):
            ult.switch_in()


class TestYielding:
    def test_yield_suspends_and_resumes(self):
        log = []

        def body(self_ref=[]):
            log.append("a")
            ult.yield_("waiting")
            log.append("b")
            return "done"

        ult = UserLevelThread("t", body)
        ult.start()
        state = ult.switch_in()
        assert state is UltState.BLOCKED
        assert ult.block_reason == "waiting"
        assert log == ["a"]
        state = ult.switch_in()
        assert state is UltState.DONE
        assert log == ["a", "b"]

    def test_two_ults_interleave_deterministically(self):
        log = []

        def make(name):
            def body():
                for i in range(3):
                    log.append(f"{name}{i}")
                    (a if name == "a" else b).yield_()
            return body

        a = UserLevelThread("a", make("a"))
        b = UserLevelThread("b", make("b"))
        a.start()
        b.start()
        for _ in range(4):
            if not a.finished:
                a.switch_in()
            if not b.finished:
                b.switch_in()
        assert log == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_clock_owned_per_ult(self):
        def body():
            ult.clock.advance(100)

        ult = UserLevelThread("t", body)
        ult.start()
        ult.switch_in()
        assert ult.clock.now == 100


class TestKill:
    def test_kill_unwinds_blocked_ult(self):
        cleanup = []

        def body():
            try:
                ult.yield_("block forever")
            finally:
                cleanup.append("unwound")

        ult = UserLevelThread("t", body)
        ult.start()
        ult.switch_in()
        ult.kill()
        assert cleanup == ["unwound"]
        assert ult.state is UltState.ERROR
        assert isinstance(ult.exception, UltKilled)

    def test_kill_not_swallowed_by_except_exception(self):
        """UltKilled derives from BaseException so user code's broad
        `except Exception` cannot eat it."""
        swallowed = []

        def body():
            try:
                ult.yield_("x")
            except Exception:          # noqa: BLE001 - the point of the test
                swallowed.append(True)

        ult = UserLevelThread("t", body)
        ult.start()
        ult.switch_in()
        ult.kill()
        assert not swallowed

    def test_kill_finished_is_noop(self):
        ult = UserLevelThread("t", lambda: 1)
        ult.start()
        ult.switch_in()
        ult.kill()
        assert ult.result == 1

    def test_kill_unstarted_is_noop(self):
        UserLevelThread("t", lambda: 1).kill()


class TestGeneratorTarget:
    """A generator function needs no stack of its own: ``step`` runs it
    right here, and ``kill`` throws in at its ``yield``."""

    @staticmethod
    def make(body, *args):
        ult = UserLevelThread("g", body, args)
        ult.start()
        assert ult.stackless and ult.gen is None    # made at first quantum
        return ult

    def test_stepped_on_the_callers_thread(self):
        ran_on = []

        def body(n):
            for i in range(n):
                ran_on.append(threading.get_ident())
                yield f"wait-{i}"
            return "done"

        ult = self.make(body, 2)
        binds = ult.backend.binds
        ult.step()
        assert ult.state is UltState.BLOCKED
        assert ult.block_reason == "wait-0" and ult.gen is not None
        ult.step()
        ult.step()
        assert ult.state is UltState.DONE and ult.result == "done"
        assert set(ran_on) == {threading.get_ident()}
        assert ult.backend.binds == binds and not ult.join_thread()
        with pytest.raises(ReproError):
            ult.step()

    def test_switch_in_steps_it_on_the_callers_stack(self):
        ran_on = []

        def body():
            ran_on.append(threading.get_ident())
            yield "once"
            return "done"

        pool = PooledBackend()
        ult = UserLevelThread("g", body, backend=pool)
        ult.start()
        assert ult.switch_in() is UltState.BLOCKED
        assert ult.block_reason == "once"
        assert ult.switch_in() is UltState.DONE and ult.result == "done"
        assert ran_on == [threading.get_ident()]
        assert pool.binds == 0
        pool.close()

    def test_exception_captured(self):
        def boom():
            yield "once"
            raise ValueError("nope")

        ult = self.make(boom)
        ult.step()
        ult.step()
        assert ult.state is UltState.ERROR
        assert isinstance(ult.exception, ValueError)

    def test_kill_throws_at_the_suspension_point(self):
        seen = []

        def body():
            try:
                yield "blocked"
            except Exception:                   # must not catch the kill
                seen.append("except Exception")
            finally:
                seen.append("finally")

        ult = self.make(body)
        ult.step()
        ult.kill()
        assert seen == ["finally"]
        assert ult.state is UltState.ERROR
        assert isinstance(ult.exception, UltKilled)
        assert not ult.join_thread()

    def test_swallowed_kill_ends_in_error_with_nothing_to_leak(self):
        def stubborn():
            for _ in "the kill", "the close() after it":
                try:
                    yield "stuck"
                except BaseException:
                    pass
            yield "stuck"

        ult = self.make(stubborn)
        ult.step()
        ult.kill()
        assert ult.state is UltState.ERROR
        assert isinstance(ult.exception, UltKilled)
        assert not ult.join_thread()

    def test_kill_before_the_first_quantum_creates_no_generator(self):
        ult = self.make(lambda: (yield "never"))
        ult.kill()
        assert ult.state is UltState.ERROR and ult.gen is None


class TestIds:
    def test_tids_unique(self):
        a = UserLevelThread("a", lambda: 0)
        b = UserLevelThread("b", lambda: 0)
        assert a.tid != b.tid
