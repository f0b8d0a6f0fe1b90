"""Global run queue for the discrete-event ULT scheduler.

The simulator runs every PE of the whole job from a single sequential
event loop.  Correct parallel timing requires always resuming the ULT
with the globally smallest *effective start time*:

    effective_start(ult) = max(ult ready time, busy_until of its PE)

because a PE serializes its resident ranks.

A queued ULT's PE is ``ult.owner.pe`` — the scheduler makes each rank
its ULT's owner when it registers it — and the queue reads the PE's
``busy_until`` itself: it calls nothing back to learn where a ULT lives.

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
Rerouting a migrated rank re-keys its new PE, possibly ahead of the
entry ``pop`` was examining, so ``pop`` then starts over from the
heap's top.

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
from typing import Iterator

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

    A ULT is bucketed on its owner's PE, ``ult.owner.pe``: anything with
    a ``busy_until`` time, so this module stays free of runtime
    dependencies.  The constructor's two parameters are accepted and
    ignored, so code written for the queue that took ``pe_busy_until``
    and ``pe_of`` callables still builds one; its ULTs sit where their
    owners say, an unplaced one on the idle PE of
    :data:`~repro.threads.ult.UNPLACED`.
    """

    def __init__(self, pe_busy_until: object = None, pe_of: object = None):
        self._seq = itertools.count()
        #: authoritative ready time per queued ULT (tid -> time); a ULT not
        #: present here is not ready, whatever stale heap entries say.
        self._ready_time: dict[int, int] = {}
        #: PE -> heap of entries; never left empty
        self._buckets: dict[object, list[_Entry]] = {}
        #: heap of (effective_start, version, PE); one *live* entry per
        #: non-empty bucket, identified by ``_bucket_ver[pe]``
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
        pe = ult.owner.pe
        bucket = self._buckets.get(pe)
        if bucket is None:
            bucket = self._buckets[pe] = []
        entry = (ready_time, next(self._seq), ult)
        heappush(bucket, entry)
        ready, _, top = bucket[0]
        # Re-key from the new entry or from an older top still live on
        # this PE; any other top needs the cleanup first.
        if bucket[0] is not entry and (ready_times.get(top.tid) != ready
                                       or top.owner.pe is not pe):
            self._repost(pe)
            return
        eff = pe.busy_until
        if ready > eff:
            eff = ready
        ver = next(self._seq)
        self._bucket_ver[pe] = ver
        heappush(self._global, (eff, ver, pe))

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

    def _clean_top(self, pe: object) -> _Entry | None:
        """Drop stale entries off bucket ``pe``'s top; return the live
        top ``(ready, seq, ult)`` or None if the bucket emptied."""
        bucket = self._buckets[pe]
        ready_times = self._ready_time
        while bucket:
            top = bucket[0]
            ready, _, ult = top
            current = ready_times.get(ult.tid)
            if current is None or current != ready:
                heappop(bucket)  # popped or re-pushed earlier
                continue
            actual = ult.owner.pe
            if actual is not pe:
                # Rank migrated while queued: route to its current PE.
                heappop(bucket)
                nb = self._buckets.get(actual)
                if nb is None:
                    nb = self._buckets[actual] = []
                heappush(nb, top)
                self._repost(actual)
                continue
            return top
        del self._buckets[pe]
        self._bucket_ver.pop(pe, None)
        return None

    def _repost(self, pe: object) -> None:
        """Refresh bucket ``pe``'s single live entry in the global heap."""
        top = self._clean_top(pe)
        if top is None:
            return
        ready = top[0]
        eff = pe.busy_until
        if ready > eff:
            eff = ready
        ver = next(self._seq)
        self._bucket_ver[pe] = ver
        heappush(self._global, (eff, ver, pe))

    # -- consuming ---------------------------------------------------------------

    def pop(self) -> tuple[UserLevelThread, int] | None:
        """Remove and return (ULT, ready_time) with the smallest effective
        start, or None when empty."""
        g = self._global
        ready_times = self._ready_time
        bucket_ver = self._bucket_ver
        while g:
            entry = g[0]
            eff, ver, pe = entry
            if bucket_ver.get(pe) != ver:
                heappop(g)  # superseded by a newer re-key
                continue
            bucket = self._buckets[pe]
            ready, _, ult = bucket[0]
            if ready_times.get(ult.tid) != ready or ult.owner.pe is not pe:
                # A superseded, discarded or migrated top.  Rerouting a
                # migrated rank re-keys its new PE, which may now start
                # first: then, or once the bucket emptied (its entry is
                # stale now), look at the heap's top afresh.
                top = self._clean_top(pe)
                if top is None or g[0] is not entry:
                    continue
                ready, _, ult = top
            true_eff = pe.busy_until
            if ready > true_eff:
                true_eff = ready
            heappop(g)
            if true_eff > eff:
                # PE got busier since this entry was posted: re-key it.  Its
                # version is the newest, so unless another entry starts no
                # later it would be the next one popped: commit it unpushed.
                ver = next(self._seq)
                bucket_ver[pe] = ver
                if g and g[0][0] <= true_eff:
                    heappush(g, (true_eff, ver, pe))
                    continue
            heappop(bucket)
            del ready_times[ult.tid]
            if not bucket:
                del self._buckets[pe]
                bucket_ver.pop(pe, None)
                return ult, ready
            nready, _, top_ult = bucket[0]
            if ready_times.get(top_ult.tid) != nready \
                    or top_ult.owner.pe is not pe:
                self._repost(pe)
                return ult, ready
            eff = pe.busy_until
            if nready > eff:
                eff = nready
            ver = next(self._seq)
            bucket_ver[pe] = ver
            heappush(g, (eff, ver, pe))
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
