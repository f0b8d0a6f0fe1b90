"""Micro-probes that call one layer directly (traced pass only).

They give the floor a workload-level number can be compared with:
``threads.raw_handoff_us`` is the ROADMAP's "~18 us per switch".
"""

from __future__ import annotations

import os
import time

_now = time.perf_counter


def _pingpong_us(switches: int) -> float:
    """One ULT yielding ``switches`` times to a caller that switches
    straight back in: bare ``switch_in``/``yield_`` cost per switch."""
    from repro.threads import PooledBackend, UserLevelThread

    backend = PooledBackend(prewarm=1)
    holder: list[UserLevelThread] = []

    def body() -> None:
        ult = holder[0]
        for _ in range(switches):
            ult.yield_()

    ult = UserLevelThread("probe", body, backend=backend)
    holder.append(ult)
    ult.start()
    ult.switch_in()                 # binds the worker; first yield
    t0 = _now()
    while not ult.finished:
        ult.switch_in()
    us = (_now() - t0) * 1e6 / switches
    backend.close()
    return us


def raw_handoff_us(switches: int = 4000) -> float:
    return min(_pingpong_us(switches) for _ in range(3))


def raw_handoff_unpinned_us(allowed: set[int], switches: int = 4000) -> float:
    """The same ping-pong with the affinity mask released: the kernel is
    free to place the two sides of a handoff on different cores.  The
    probe's worker thread is created while unpinned, so it inherits the
    wide mask; the bench's pin is restored afterwards."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, allowed)
    try:
        return min(_pingpong_us(switches) for _ in range(3))
    finally:
        os.sched_setaffinity(0, pinned)


def lifecycle_us(n: int = 512) -> float:
    """create -> run to completion -> reap, per ULT, pooled backend."""
    from repro.threads import PooledBackend, UserLevelThread

    backend = PooledBackend(prewarm=1)
    best = float("inf")
    for _ in range(3):
        t0 = _now()
        for i in range(n):
            ult = UserLevelThread(f"p{i}", int, backend=backend)
            ult.start()
            ult.switch_in()
            ult.join_thread()
        best = min(best, (_now() - t0) * 1e6 / n)
    backend.close()
    return best


def runqueue_op_us(entries: int = 1024, ops: int = 20000) -> float:
    """push+pop pair on a queue holding ``entries`` ready ULTs over 8
    PE buckets (never run: the queue only needs their tids)."""
    from repro.threads import RunQueue, UserLevelThread

    ults = [UserLevelThread(f"q{i}", int) for i in range(entries)]
    pe = {u.tid: i % 8 for i, u in enumerate(ults)}
    rq = RunQueue(lambda u: 0, pe_of=lambda u: pe[u.tid])
    for i, u in enumerate(ults):
        rq.push(u, i)
    best = float("inf")
    t = entries
    for _ in range(3):
        t0 = _now()
        for _ in range(ops):
            u, _ready = rq.pop()
            rq.push(u, t)
            t += 1
        best = min(best, (_now() - t0) * 1e6 / ops)
    return best


def run_all(allowed: set[int]) -> dict[str, float]:
    return {
        "threads.raw_handoff_us": raw_handoff_us(),
        "threads.raw_handoff_unpinned_us": raw_handoff_unpinned_us(allowed),
        "threads.lifecycle_us": lifecycle_us(),
        "runqueue.op_us": runqueue_op_us(),
    }
