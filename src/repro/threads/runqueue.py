"""Global run queue for the discrete-event ULT scheduler.

The simulator runs every PE of the whole job from a single sequential
event loop.  Correct parallel timing requires always resuming the ULT
with the globally smallest *effective start time*:

    effective_start(ult) = max(ult ready time, busy_until of its PE)

because a PE serializes its resident ranks.

The queue is two-level: a per-PE min-heap of ``(ready_time, seq, ult)``
plus one global min-heap over PEs keyed by each PE's effective start
(``max(pe busy_until, its earliest ready time)``).  Since every rank on
a PE shares the same ``busy_until``, a PE getting busier invalidates
exactly one global entry instead of every queued entry of that PE — the
single-heap predecessor re-pushed the whole resident set each quantum,
which at 64 ranks/PE meant ~45 stale heap operations per pop.  Both
levels are lazy: stale entries (superseded wake times, migrated ranks,
outdated PE keys) are dropped or re-routed at pop time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable

from repro.threads.ult import UserLevelThread


class RunQueue:
    """Priority queue of (ULT, ready_time) honouring per-PE serialization.

    ``pe_busy_until`` maps a ULT to its PE's current ``busy_until`` time;
    it is supplied by the owner (the charm scheduler) so this module stays
    free of runtime dependencies.  ``pe_of`` (optional) maps a ULT to a
    stable PE identity used to bucket entries; without it every ULT gets
    its own bucket, which degenerates to the classic single-heap queue.
    """

    def __init__(
        self,
        pe_busy_until: Callable[[UserLevelThread], int],
        pe_of: Callable[[UserLevelThread], object] | None = None,
    ):
        self._pe_busy_until = pe_busy_until
        self._pe_of = pe_of
        self._seq = itertools.count()
        #: authoritative ready time per queued ULT (tid -> time); a ULT not
        #: present here is not ready, whatever stale heap entries say.
        self._ready_time: dict[int, int] = {}
        self._ults: dict[int, UserLevelThread] = {}
        #: bucket key -> heap of (ready_time, seq, ult)
        self._buckets: dict = {}
        #: heap of (effective_start, version, key); one *live* entry per
        #: non-empty bucket, identified by ``_bucket_ver[key]``
        self._global: list[tuple[int, int, object]] = []
        self._bucket_ver: dict = {}

    def __len__(self) -> int:
        return len(self._ready_time)

    def __contains__(self, ult: UserLevelThread) -> bool:
        return ult.tid in self._ready_time

    def _key_of(self, ult: UserLevelThread):
        return self._pe_of(ult) if self._pe_of is not None else ult.tid

    def push(self, ult: UserLevelThread, ready_time: int) -> None:
        """Mark ``ult`` ready at ``ready_time`` (idempotent; earliest wins)."""
        prev = self._ready_time.get(ult.tid)
        if prev is not None and prev <= ready_time:
            return
        self._ready_time[ult.tid] = ready_time
        self._ults[ult.tid] = ult
        key = self._key_of(ult)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
        heapq.heappush(bucket, (ready_time, next(self._seq), ult))
        self._repost(key)

    # -- bucket maintenance ------------------------------------------------------

    def _clean_top(self, key):
        """Drop stale entries off bucket ``key``'s top; return the live
        top ``(ready, seq, ult)`` or None if the bucket emptied."""
        bucket = self._buckets.get(key)
        if bucket is None:
            return None
        ready_times = self._ready_time
        while bucket:
            top = bucket[0]
            ready, _, ult = top
            current = ready_times.get(ult.tid)
            if current is None or current != ready:
                heapq.heappop(bucket)      # popped or re-pushed earlier
                continue
            actual_key = self._key_of(ult)
            if actual_key != key:
                # Rank migrated while queued: route to its current PE.
                heapq.heappop(bucket)
                nb = self._buckets.get(actual_key)
                if nb is None:
                    nb = self._buckets[actual_key] = []
                heapq.heappush(nb, top)
                self._repost(actual_key)
                continue
            return top
        del self._buckets[key]
        self._bucket_ver.pop(key, None)
        return None

    def _repost(self, key) -> None:
        """Refresh bucket ``key``'s single live entry in the global heap."""
        top = self._clean_top(key)
        if top is None:
            return
        ready, _, ult = top
        eff = self._pe_busy_until(ult)
        if ready > eff:
            eff = ready
        ver = next(self._seq)
        self._bucket_ver[key] = ver
        heapq.heappush(self._global, (eff, ver, key))

    # -- consuming ---------------------------------------------------------------

    def pop(self) -> tuple[UserLevelThread, int] | None:
        """Remove and return (ULT, ready_time) with the smallest effective
        start, or None when empty."""
        g = self._global
        while g:
            eff, ver, key = g[0]
            if self._bucket_ver.get(key) != ver:
                heapq.heappop(g)           # superseded by a newer repost
                continue
            top = self._clean_top(key)
            if top is None:
                heapq.heappop(g)
                continue
            ready, _, ult = top
            true_eff = self._pe_busy_until(ult)
            if ready > true_eff:
                true_eff = ready
            if true_eff > eff:
                # PE got busier since this entry was posted; refresh.
                heapq.heappop(g)
                self._repost(key)
                continue
            heapq.heappop(g)
            heapq.heappop(self._buckets[key])
            del self._ready_time[ult.tid]
            del self._ults[ult.tid]
            self._repost(key)
            return ult, ready
        return None

    def peek_effective(self) -> int | None:
        """Smallest effective start currently queued (None when empty)."""
        g = self._global
        while g:
            eff, ver, key = g[0]
            if self._bucket_ver.get(key) != ver:
                heapq.heappop(g)
                continue
            top = self._clean_top(key)
            if top is None:
                heapq.heappop(g)
                continue
            ready, _, ult = top
            true_eff = self._pe_busy_until(ult)
            if ready > true_eff:
                true_eff = ready
            if true_eff > eff:
                heapq.heappop(g)
                self._repost(key)
                continue
            return eff
        return None

    def discard(self, ult: UserLevelThread) -> None:
        """Forget ``ult`` if queued (no-op otherwise).

        Heap entries are left behind and dropped lazily at pop time, the
        same way superseded wake times are.  Local fault recovery uses
        this to retract exactly the dead ranks' quanta while survivors'
        queues stay intact.
        """
        self._ready_time.pop(ult.tid, None)
        self._ults.pop(ult.tid, None)

    def drain(self) -> Iterable[UserLevelThread]:
        """Remove and yield everything (shutdown / fault rollback)."""
        out = list(self._ults.values())
        self._ready_time.clear()
        self._ults.clear()
        self._buckets.clear()
        self._global.clear()
        self._bucket_ver.clear()
        return out
