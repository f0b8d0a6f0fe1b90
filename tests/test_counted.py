"""The counting module every structural guard uses (``tests/counted.py``)."""

import gc

from counted import paused_gc, python_calls


def churn():
    """Allocates enough reference cycles to trigger collections."""
    for _ in range(2000):
        cycle: list = []
        cycle.append(cycle)


class TestPausedGc:
    def test_a_python_gc_callback_does_not_change_a_count(self):
        """Hypothesis's shape: a Python hook on every collection."""
        bare = python_calls(churn).total
        fired: list = []
        threshold = gc.get_threshold()
        gc.callbacks.append(lambda phase, info: fired.append(phase))
        gc.set_threshold(10)
        try:
            churn()
            assert fired                # the window would see collections
            assert python_calls(churn).total == bare
        finally:
            gc.callbacks.pop()
            gc.set_threshold(*threshold)

    def test_the_state_it_found_is_put_back(self):
        assert gc.isenabled()
        with paused_gc():
            with paused_gc():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()
        gc.disable()
        try:
            with paused_gc():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()

