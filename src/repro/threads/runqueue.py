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
exactly one global entry instead of every queued entry of that PE.  Both
levels are lazy: stale entries (superseded wake times, discarded or
migrated ranks, outdated PE keys) are dropped or re-routed at pop time.

The tie-break is behaviour.  A global entry is ``(effective start,
version, PE)`` with the version drawn from one sequence, so among PEs
with equal effective start the PE re-keyed earliest runs first.  Every
push, commit, stale refresh and migration reroute re-keys its PE — even
when the key's value does not change — and changing when a re-key
happens changes timelines.  The hot paths re-key inline from a bucket
top they have checked is live on its PE; ``_clean_top``/``_repost`` are
only the slow path for superseded, discarded and migrated entries.

The batch rule: where start-up or a collective's release admits N ranks
at once (:meth:`RunQueue.batch`), the global heap gets one entry per PE.
Pushes inside a batch re-key exactly as outside it — the same keys, the
same versions, drawn in the same order — but post to a side list, and on
exit only the entries still live (each PE's last re-key) enter the heap:
the others would only have been popped as stale.  A batch must end
before the next pop, which it asserts: a PE whose quantum just ended
gets busier and is re-keyed lazily at that pop, so it must find every
PE woken during the quantum already in the heap.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Callable, Iterator

from repro.threads.ult import UserLevelThread

#: a bucket entry: (ready time, sequence number, ULT)
_Entry = tuple[int, int, UserLevelThread]


class _Posted(list):
    """Where a batch's pushes post their global entries.  ``pop`` starts
    with ``while g:``, so popping inside a batch asks this for its truth
    value — and fails."""

    def __bool__(self) -> bool:
        raise AssertionError("pop inside a run-queue batch")


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
        #: bucket key -> heap of entries; never left empty
        self._buckets: dict[object, list[_Entry]] = {}
        #: heap of (effective_start, version, key); one *live* entry per
        #: non-empty bucket, identified by ``_bucket_ver[key]``
        self._global: list[tuple[int, int, object]] = []
        self._bucket_ver: dict[object, int] = {}

    def __len__(self) -> int:
        return len(self._ready_time)

    def __contains__(self, ult: UserLevelThread) -> bool:
        return ult.tid in self._ready_time

    def push(self, ult: UserLevelThread, ready_time: int) -> None:
        """Mark ``ult`` ready at ``ready_time`` (idempotent; earliest wins)."""
        ready_times = self._ready_time
        prev = ready_times.get(ult.tid)
        if prev is not None and prev <= ready_time:
            return
        ready_times[ult.tid] = ready_time
        pe_of = self._pe_of
        key = ult.tid if pe_of is None else pe_of(ult)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
        entry = (ready_time, next(self._seq), ult)
        heappush(bucket, entry)
        ready, _, top = bucket[0]
        # Re-key from the new entry or from an older top still live on
        # this PE; any other top needs the cleanup first.
        if bucket[0] is not entry and (
                ready_times.get(top.tid) != ready
                or (pe_of is not None and pe_of(top) != key)):
            self._repost(key)
            return
        eff = self._pe_busy_until(top)
        if ready > eff:
            eff = ready
        ver = next(self._seq)
        self._bucket_ver[key] = ver
        heappush(self._global, (eff, ver, key))

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Admit many pushes with one global-heap entry per PE (the batch
        rule, module docstring); nothing may pop inside."""
        heap = self._global
        assert type(heap) is list, "run-queue batches do not nest"
        self._global = posted = _Posted()
        try:
            yield
        finally:
            self._global = heap
            live = set(self._bucket_ver.values())   # versions are unique
            for entry in posted:
                if entry[1] in live:
                    heappush(heap, entry)

    # -- the slow path -----------------------------------------------------------

    def _clean_top(self, key: object) -> _Entry | None:
        """Drop stale entries off bucket ``key``'s top; return the live
        top ``(ready, seq, ult)`` or None if the bucket emptied."""
        bucket = self._buckets[key]
        ready_times = self._ready_time
        pe_of = self._pe_of
        while bucket:
            top = bucket[0]
            ready, _, ult = top
            current = ready_times.get(ult.tid)
            if current is None or current != ready:
                heappop(bucket)  # popped or re-pushed earlier
                continue
            actual_key = ult.tid if pe_of is None else pe_of(ult)
            if actual_key != key:
                # Rank migrated while queued: route to its current PE.
                heappop(bucket)
                nb = self._buckets.get(actual_key)
                if nb is None:
                    nb = self._buckets[actual_key] = []
                heappush(nb, top)
                self._repost(actual_key)
                continue
            return top
        del self._buckets[key]
        self._bucket_ver.pop(key, None)
        return None

    def _repost(self, key: object) -> None:
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
        heappush(self._global, (eff, ver, key))

    # -- consuming ---------------------------------------------------------------

    def pop(self) -> tuple[UserLevelThread, int] | None:
        """Remove and return (ULT, ready_time) with the smallest effective
        start, or None when empty."""
        g = self._global
        ready_times = self._ready_time
        pe_of = self._pe_of
        while g:
            eff, ver, key = g[0]
            if self._bucket_ver.get(key) != ver:
                heappop(g)  # superseded by a newer re-key
                continue
            bucket = self._buckets[key]
            ready, _, ult = bucket[0]
            if ready_times.get(ult.tid) != ready or (
                    pe_of is not None and pe_of(ult) != key):
                # A superseded, discarded or migrated top.
                top = self._clean_top(key)
                if top is None:
                    heappop(g)
                    continue
                ready, _, ult = top
            true_eff = self._pe_busy_until(ult)
            if ready > true_eff:
                true_eff = ready
            heappop(g)
            if true_eff > eff:
                # PE got busier since this entry was posted: re-key it.  Its
                # version is the newest, so unless another entry starts no
                # later it would be the next one popped: commit it unpushed.
                ver = next(self._seq)
                self._bucket_ver[key] = ver
                if g and g[0][0] <= true_eff:
                    heappush(g, (true_eff, ver, key))
                    continue
            heappop(bucket)
            del ready_times[ult.tid]
            if not bucket:
                del self._buckets[key]
                self._bucket_ver.pop(key, None)
                return ult, ready
            nready, _, top_ult = bucket[0]
            if ready_times.get(top_ult.tid) != nready or (
                    pe_of is not None and pe_of(top_ult) != key):
                self._repost(key)
                return ult, ready
            eff = self._pe_busy_until(top_ult)
            if nready > eff:
                eff = nready
            ver = next(self._seq)
            self._bucket_ver[key] = ver
            heappush(g, (eff, ver, key))
            return ult, ready
        return None

    def discard(self, ult: UserLevelThread) -> None:
        """Forget ``ult`` if queued (no-op otherwise).

        Heap entries are left behind and dropped lazily at pop time, the
        same way superseded wake times are.  Local fault recovery uses
        this to retract exactly the dead ranks' quanta while survivors'
        queues stay intact.
        """
        self._ready_time.pop(ult.tid, None)

    def drain(self) -> list[UserLevelThread]:
        """Remove and return every queued ULT, in bucket order (shutdown /
        fault rollback)."""
        ready_times = self._ready_time
        live = {ult.tid: ult for bucket in self._buckets.values()
                for ready, _, ult in bucket if ready_times.get(ult.tid) == ready}
        ready_times.clear()
        self._buckets.clear()
        self._global.clear()
        self._bucket_ver.clear()
        return list(live.values())
