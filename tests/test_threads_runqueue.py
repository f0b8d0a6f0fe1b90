"""Tests for the discrete-event run queue."""

import heapq
import itertools
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace
from typing import Callable, Iterable

from hypothesis import Phase, find, given, settings, strategies as st

from repro.harness.jobspec import build_job
from repro.threads import PooledBackend, runqueue
from repro.threads.runqueue import RunQueue
from repro.threads.ult import UserLevelThread

from counted import JACOBI_1K, METHOD_SWEEP, SWITCH_STORM, counting


class FakePe:
    def __init__(self, busy=0):
        self.busy_until = busy


def placed(name, pe):
    """A ULT whose owner (a stand-in rank) lives on ``pe``."""
    ult = UserLevelThread(name, lambda: 0)
    ult.owner = SimpleNamespace(pe=pe)
    return ult


def make(n=3):
    """A queue and ``n`` ULTs, each on a PE of its own."""
    ults = [placed(f"u{i}", FakePe()) for i in range(n)]
    pes = {u.tid: u.owner.pe for u in ults}
    return RunQueue(), ults, pes


class TestOrdering:
    def test_pop_min_ready_time(self):
        q, (a, b, c), _ = make()
        q.push(a, 30)
        q.push(b, 10)
        q.push(c, 20)
        assert q.pop()[0] is b
        assert q.pop()[0] is c
        assert q.pop()[0] is a

    def test_empty_pop_returns_none(self):
        q, _, _ = make()
        assert q.pop() is None

    def test_push_idempotent_earliest_wins(self):
        q, (a, _, _), _ = make()
        q.push(a, 50)
        q.push(a, 20)   # earlier wake supersedes
        q.push(a, 80)   # later wake ignored
        ult, ready = q.pop()
        assert ready == 20
        assert q.pop() is None

    def test_pe_busy_raises_effective_start(self):
        q, (a, b, _), pes = make()
        pes[a.tid].busy_until = 100
        q.push(a, 10)   # effective 100
        q.push(b, 50)   # effective 50
        assert q.pop()[0] is b

    def test_pe_busier_after_push_requeues(self):
        q, (a, b, _), pes = make()
        q.push(a, 10)
        q.push(b, 20)
        pes[a.tid].busy_until = 500  # a's PE got busy after the push
        assert q.pop()[0] is b
        ult, ready = q.pop()
        assert ult is a and ready == 10

    def test_contains_and_len(self):
        q, (a, b, _), _ = make()
        q.push(a, 1)
        assert a in q and b not in q
        assert len(q) == 1
        q.pop()
        assert len(q) == 0

    def test_unplaced_ults_share_one_idle_pe(self):
        """As ``benchmarks/host/probes.py`` builds a queue: with the
        callables the constructor once took (ignored) and ULTs no
        scheduler placed, which pop in ready-time order."""
        a, b, c = (UserLevelThread(f"q{i}", int) for i in range(3))
        q = RunQueue(lambda u: 0, pe_of=lambda u: u.tid % 2)
        q.push(a, 30)
        q.push(b, 10)
        q.push(c, 20)
        assert [q.pop(), q.pop(), q.pop(), q.pop()] == [(b, 10), (c, 20),
                                                        (a, 30), None]

    def test_drain(self):
        q, (a, b, _), _ = make()
        q.push(a, 1)
        q.push(b, 2)
        drained = list(q.drain())
        assert set(drained) == {a, b}
        assert q.pop() is None


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1000),
                              st.integers(0, 1000)),
                    min_size=1, max_size=30))
    def test_pop_order_never_decreases_effective_start(self, entries):
        """With static PE business, pops come out in effective-start
        order (the causality requirement)."""
        ults = {}
        q = RunQueue()
        for idx, (slot, ready, busy) in enumerate(entries):
            u = ults.get(slot)
            if u is None:
                u = ults[slot] = placed(f"p{slot}", FakePe(busy))
            q.push(u, ready)
        seq = []
        while True:
            item = q.pop()
            if item is None:
                break
            ult, ready = item
            seq.append(max(ready, ult.owner.pe.busy_until))
        assert seq == sorted(seq)


class TestStalePaths:
    """Lazy-invalidation branches of the two-level queue."""

    def test_drain_during_in_flight_pops(self):
        q, (a, b, c), _ = make()
        for u, t in ((a, 10), (b, 20), (c, 30)):
            q.push(u, t)
        assert q.pop()[0] is a          # pop mid-stream, then drain
        drained = list(q.drain())
        assert set(drained) == {b, c}
        assert q.pop() is None and len(q) == 0
        # the queue stays usable after a drain (fault rollback reuses it)
        q.push(b, 5)
        assert q.pop() == (b, 5)
        assert q.pop() is None and len(q) == 0

    def test_contains_tracks_pop_and_drain(self):
        q, (a, b, _), _ = make()
        q.push(a, 1)
        q.push(b, 2)
        assert a in q and b in q
        q.pop()
        assert a not in q and b in q
        q.drain()
        assert b not in q

    def test_migrated_ult_rerouted_to_new_bucket(self):
        """A rank that migrates while queued pops from its *new* PE's
        bucket with that PE's business applied."""
        p0, p1 = FakePe(), FakePe()
        a, b = placed("ma", p0), placed("mb", p0)
        q = RunQueue()
        q.push(a, 10)
        q.push(b, 20)
        a.owner.pe = p1                 # a migrated after being queued
        p1.busy_until = 1000            # and its new PE is busy
        assert q.pop() == (b, 20)       # b overtakes on the old PE
        assert q.pop() == (a, 10)       # a pops with effective start 1000
        assert q.pop() is None


# -- the reference -----------------------------------------------------------------


class ReferenceRunQueue:
    """The two-level lazy queue as it was before its hot paths re-keyed
    inline: every re-key goes through ``_repost`` → ``_clean_top``.  Kept
    verbatim as the oracle, less a peek method that had no caller, and
    with one fix: ``pop`` no longer drops whatever a reroute put at the
    global heap's top (``test_a_rerouted_rank_is_not_lost``).  The tie
    order among PEs is behaviour, so ``RunQueue`` must agree with it on
    every pop, not just on effective starts."""

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
            entry = g[0]
            eff, ver, key = entry
            if self._bucket_ver.get(key) != ver:
                heapq.heappop(g)           # superseded by a newer repost
                continue
            top = self._clean_top(key)
            if top is None or g[0] is not entry:
                # The fix: a reroute may have re-keyed another PE ahead
                # of this entry, which was popped in its place.
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


class SkipUnchangedTopRekey(RunQueue):
    """The mutant: ``push`` leaves the PE's global entry as it was when the
    bucket's top did not change (restoring the old version supersedes the
    new entry), instead of re-keying the PE as every push must."""

    def push(self, ult, ready_time):
        key = ult.owner.pe
        bucket = self._buckets.get(key)
        top = bucket[0] if bucket else None
        ver = self._bucket_ver.get(key)
        super().push(ult, ready_time)
        if top is not None and ver is not None and bucket and bucket[0] is top:
            self._bucket_ver[key] = ver


class FlushInFirstPushOrder(RunQueue):
    """The mutant: a batch re-keys each PE once on exit, with its last
    push's effective start but in the order of the PE's *first* push
    into the batch, instead of posting the pushes' own live entries."""

    @contextmanager
    def batch(self):
        heap, self._global = self._global, []
        try:
            yield
        finally:
            posted, self._global = self._global, heap
            posted.sort(key=lambda entry: entry[1])     # push order
            live = {key: eff for eff, ver, key in posted
                    if self._bucket_ver.get(key) == ver}
            for key in dict.fromkeys(key for _, _, key in posted
                                     if key in live):
                ver = self._bucket_ver[key] = next(self._seq)
                heapq.heappush(heap, (live[key], ver, key))


#: operation kinds, weighted: pops and pushes dominate, as in a job
KINDS = ("push",) * 6 + ("pop",) * 6 + ("busy", "discard", "migrate", "drain",
                                        "batch", "batch")
#: what a batch is made of: a run of pushes, some superseding, with
#: discards and migrations among them (no pop, no PE getting busier)
BATCH_KINDS = ("push",) * 6 + ("discard", "migrate")


@st.composite
def scenarios(draw):
    """(PE of each ULT, operations): the ULTs share 1–6 PEs or, half the
    time, each has a PE of its own.  Ready times and every business
    increment are 0 or 10 ns, so equal effective starts — ties — are the
    common case.  The operations come from a Random that hypothesis
    controls (and shrinks): its list strategies favour runs of one
    operation, and a tie needs interleavings."""
    rng = draw(st.randoms(use_true_random=False))
    npes, nults = rng.randint(1, 6), rng.randint(1, 8)

    def op(kind):
        if kind == "push":
            return (kind, rng.randrange(nults), rng.choice((0, 10)))
        if kind == "pop":
            return (kind, rng.choice((0, 10)), rng.random() < 0.8)
        if kind == "busy":
            return (kind, rng.randrange(npes), 10)
        if kind == "discard":
            return (kind, rng.randrange(nults))
        if kind == "migrate":
            return (kind, rng.randrange(nults), rng.randrange(npes))
        if kind == "batch":
            return (kind, tuple(op(rng.choice(BATCH_KINDS))
                                for _ in range(rng.randint(1, 10))))
        return (kind,)

    ops = [op(rng.choice(KINDS)) for _ in range(rng.randint(8, 60))]
    placement = [rng.randrange(npes) for _ in range(nults)]
    if rng.random() < 0.5:
        placement = list(range(nults))      # every ULT on a PE of its own
    return placement, ops


def reference():
    """The oracle, told where a ULT lives by the owner ``RunQueue`` reads."""
    return ReferenceRunQueue(lambda u: u.owner.pe.busy_until,
                             pe_of=lambda u: u.owner.pe)


def replay(make_queue, scenario):
    """Run ``scenario`` on a fresh ``make_queue()``; return every result
    of ``pop``, ``drain``, ``len`` and ``in``, ULTs as their indices.

    ``("pop", run_ns, requeue)`` is a quantum: its PE's ``busy_until``
    becomes the effective start plus ``run_ns``, and with ``requeue`` the
    ULT is pushed again at that time.  ``busy`` adds to one PE (so
    business only grows), ``migrate`` re-maps a ULT — queued or not — to
    another PE, ``batch`` runs its operations inside ``q.batch()`` (as
    plain operations on a queue without one), and the queue is popped
    empty at the end.  A pop that finds nothing must leave the queue
    empty: a queued ULT no pop returns is a rank nobody runs."""
    placement, ops = scenario
    pes = [FakePe() for _ in range(8)]
    ults = [placed(f"o{i}", pes[p]) for i, p in enumerate(placement)]
    index = {u.tid: i for i, u in enumerate(ults)}
    q = make_queue()
    seen: list = []

    def pop(run_ns=0, requeue=False):
        item = q.pop()
        if item is None:
            assert len(q) == 0, f"pop() found nothing, {len(q)} queued"
        else:
            i, ready = index[item[0].tid], item[1]
            pe = ults[i].owner.pe
            pe.busy_until = max(pe.busy_until, ready) + run_ns
            if requeue:
                q.push(ults[i], pe.busy_until)
            item = (i, ready)
        seen.append(("pop", item))
        return item

    def apply(op):
        if op[0] == "push":
            q.push(ults[op[1]], op[2])
        elif op[0] == "pop":
            pop(op[1], op[2])
        elif op[0] == "busy":
            pes[op[1]].busy_until += op[2]
        elif op[0] == "discard":
            q.discard(ults[op[1]])
        elif op[0] == "migrate":
            ults[op[1]].owner.pe = pes[op[2]]
        elif op[0] == "batch":
            with getattr(q, "batch", nullcontext)():
                for inner in op[1]:
                    apply(inner)
        else:
            seen.append(("drain", sorted(index[u.tid] for u in q.drain())))

    for op in ops:
        apply(op)
        seen.append(("state", len(q), [u in q for u in ults]))
    while pop() is not None:
        pass
    return seen


def pops(seen):
    return [s[1] for s in seen if s[0] == "pop"]


class TestAgainstReference:
    """``RunQueue`` and the verbatim reference give the same answers to
    the same operations — the tie order included."""

    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_same_results_as_the_reference(self, scenario):
        assert replay(RunQueue, scenario) == replay(reference, scenario)

    def test_ties_go_to_the_pe_rekeyed_earliest(self):
        """PE 0 and PE 1 both start at 10.  ULT 2's push re-keys PE 0
        after PE 1 was keyed, so PE 1 runs first — although PE 0's top
        (ULT 0) was keyed before it and did not change."""
        scenario = ([0, 1, 0], [("push", 0, 10), ("push", 1, 10),
                                ("push", 2, 20)])
        seen = replay(RunQueue, scenario)
        assert seen == replay(reference, scenario)
        assert pops(seen) == [(1, 10), (0, 10), (2, 20), None]
        assert pops(replay(SkipUnchangedTopRekey, scenario))[0] == (0, 10)

    def test_migrated_while_queued(self):
        """ULT 0, queued on PE 0 at t=10, moves to PE 1, busy until 300:
        it is found there and starts at 300, after ULT 1 (PE 0, t=200)."""
        scenario = ([0, 0], [("push", 0, 10), ("push", 1, 200),
                             ("busy", 1, 300), ("migrate", 0, 1)])
        seen = replay(RunQueue, scenario)
        assert seen == replay(reference, scenario)
        assert pops(seen) == [(1, 200), (0, 10), None]

    def test_a_rerouted_rank_is_not_lost(self):
        """ULT 0 runs on PE 1 (busy until 10), is requeued at 10, woken
        earlier at 0, then moves to PE 0.  Popping PE 1's entry reroutes
        it and re-keys PE 0 at 0, ahead of that entry: the pop must take
        PE 0's new entry as the next top, not drop it as PE 1's."""
        scenario = ([1], [("push", 0, 0), ("pop", 10, True),
                          ("push", 0, 0), ("migrate", 0, 0)])
        seen = replay(RunQueue, scenario)
        assert seen == replay(reference, scenario)
        assert pops(seen) == [(0, 0), (0, 0), None]

    def test_a_batch_rekeys_in_last_push_order(self):
        """In one batch PE 0 is pushed (ULT 0), then PE 1 (ULT 2), then
        PE 0 again (ULT 1), all at 10: PE 1's last push comes first, so
        it runs first — as when the three are pushed one by one."""
        scenario = ([0, 0, 1], [("batch", (
            ("push", 0, 10), ("push", 2, 10), ("push", 1, 10)))])
        seen = replay(RunQueue, scenario)
        assert seen == replay(reference, scenario)
        assert pops(seen) == [(2, 10), (0, 10), (1, 10), None]
        assert pops(replay(FlushInFirstPushOrder, scenario))[0] == (0, 10)

    @staticmethod
    def caught(mutant):
        find(scenarios(),
             lambda s: replay(mutant, s) != replay(reference, s),
             settings=settings(max_examples=300, derandomize=True,
                               database=None, phases=[Phase.generate]))

    def test_the_oracle_catches_a_skipped_rekey(self):
        """Skipping ``push``'s re-key when the bucket's top is unchanged
        keeps every effective start right and only moves ties — the
        oracle must still tell (the scenarios hold batches too)."""
        self.caught(SkipUnchangedTopRekey)

    def test_the_oracle_catches_a_first_push_order_flush(self):
        """Flushing a batch in first-push order also only moves ties."""
        self.caught(FlushInFirstPushOrder)


# -- the slow path stays cold -------------------------------------------------------


#: (quanta, global-heap pushes, global-heap pops, ``_clean_top`` calls)
#: over ``run()`` of each benchmark shape
GLOBAL_HEAP_ROWS = {"switch_storm": (12864, 25663, 25664, 0),
                    "jacobi_1k": (4090, 8868, 8884, 0)}


def clean_top_quanta(spec, **kw):
    """Run ``spec``; return the quantum index at each ``_clean_top`` call
    and the number of quanta."""
    job = build_job(spec, **kw)
    job.start()
    with counting((RunQueue, "_clean_top"),
                  where=lambda q, key: len(job.scheduler.timeline)) as at:
        job.run()
    return at, len(job.scheduler.timeline)


class TestSlowPathStaysCold:
    """Structural, not timed: a steady-state quantum re-keys inline and
    never enters ``_clean_top``."""

    def test_switch_storm_shape(self, request):
        """As written, then as its plain-body twin (one pool worker bound
        per rank)."""
        pool = PooledBackend()
        try:
            for binds in (0, 64):
                if binds:
                    request.getfixturevalue("plain_bodies")
                at, quanta = clean_top_quanta(SWITCH_STORM, ult_backend=pool)
                assert quanta == 64 * 201 and pool.binds == binds
                assert [i for i in at if i >= 64] == []
        finally:
            pool.close()

    def test_jacobi_1k_shape(self):
        pool = PooledBackend()
        at, quanta = clean_top_quanta(JACOBI_1K, ult_backend=pool)
        assert quanta > 1024
        assert pool.created == 0        # 1 024 generator ranks, no thread
        assert len(at) <= 0.05 * quanta

    def test_global_heap_rows(self):
        """Global-heap pushes and pops and slow-path entries over
        ``run()``, exact, so a change that moves a re-key shows here
        (start-up's batch is not counted)."""
        rows = {}
        for shape, spec in (("switch_storm", SWITCH_STORM),
                            ("jacobi_1k", JACOBI_1K)):
            job = build_job(spec)
            job.start()
            g = job.scheduler.runq._global
            with counting((runqueue, "heappush"),
                          only=lambda heap, entry: heap is g) as pushes, \
                    counting((runqueue, "heappop"),
                             only=lambda heap: heap is g) as pops, \
                    counting((RunQueue, "_clean_top")) as slow:
                job.run()
            rows[shape] = (len(job.scheduler.timeline), len(pushes),
                           len(pops), len(slow))
        assert rows == GLOBAL_HEAP_ROWS


# -- ranks enter and leave in bulk -------------------------------------------------

#: PEs holding ranks in each ``method_sweep`` shape, then in ``jacobi_1k``
PES_HOLDING = [8, 8, 32, 8, 8, 16]


class TestBulkAdmission:
    """Structural, not timed: start-up and a collective's release push
    one global-heap entry per PE, not one per rank."""

    def test_startup_pushes_one_global_entry_per_pe(self):
        for spec, npes in zip(METHOD_SWEEP + [JACOBI_1K], PES_HOLDING):
            job = build_job(spec)
            job.start()
            holding = {rank.pe.index for rank in job.scheduler.ranks()}
            # nothing has been popped yet: every push is still in the heap
            assert len(job.scheduler.runq._global) == len(holding) == npes

    def test_a_256_rank_barrier_releases_one_entry_per_pe(self, monkeypatch):
        spec, npes = METHOD_SWEEP[0], PES_HOLDING[0]
        job = build_job(spec)
        job.start()
        g = job.scheduler.runq._global
        pushed = []
        step = UserLevelThread.step

        def counted(ult):
            # no pop inside a quantum: the heap only grows by its pushes
            n = len(g)
            step(ult)
            pushed.append(len(g) - n)

        monkeypatch.setattr(UserLevelThread, "step", counted)
        job.run()
        # a quantum to the barrier and one from it, but the last arriver
        # runs on: its quantum wakes the other 255
        assert len(pushed) == 2 * 256 - 1
        assert 0 < max(pushed) <= npes

