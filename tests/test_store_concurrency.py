"""Concurrency hardening of the provenance store.

Covers the contract the ``repro serve`` worker pool relies on: gc
degrades (never raises) under concurrent mutation, a tmp file is swept
exactly when no writer holds its lock, concurrent puts of one run_id
file it once, and usage recency (the ``.touch`` sidecar) keeps hot
cache entries alive without falsifying ``created_at``.
"""

import contextlib
import dataclasses
import fcntl
import itertools
import json
import multiprocessing
import os
import socket
import time
from pathlib import Path

import pytest

from repro.harness.jobspec import JobSpec
from repro.provenance import ProvenanceStore, RunRecord, run_id_for


def _fake_record(i: int, code_ver: str = "v-test") -> RunRecord:
    """A structurally valid record without running a simulation."""
    spec = JobSpec(app="hello", nvp=2, method="none",
                   app_config={"seq": i})
    return RunRecord(
        spec=spec, run_id=run_id_for(spec, code_ver),
        spec_digest=spec.digest(), code_version=code_ver,
        timeline_sha256="0" * 64, events=0, makespan_ns=0, startup_ns=0,
        counters={}, pe_stats=[], rollbacks={}, recoveries=0,
        unrecoverable_reason=None, migrations=0, lb_moves=0,
        exit_values={})


def _age_record(store: ProvenanceStore, record: RunRecord,
                age_s: float) -> None:
    """Rewrite a stored record's created_at to ``age_s`` seconds ago."""
    path = Path(store._record_path(record.run_id))
    data = json.loads(path.read_text())
    data["created_at"] = time.time() - age_s
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


@pytest.fixture
def store(tmp_path):
    return ProvenanceStore(tmp_path / "store")


# ---------------------------------------------------------------------------
# gc vs. concurrent mutation
# ---------------------------------------------------------------------------

class TestGcSkips:
    def test_corrupt_record_is_skipped_not_fatal(self, store):
        store.put(_fake_record(0))
        shard = store.records_dir / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        bad = shard / ("ab" + "0" * 62 + ".json")
        bad.write_text("{half-written json")
        report = store.gc(max_age_s=3600.0)
        assert report.skipped == 1
        assert report.scanned == 1      # only readable entries judged
        assert report.deleted == 0
        assert bad.exists()             # not ours to judge this cycle

    def test_vanished_record_is_skipped(self, store, monkeypatch):
        store.put(_fake_record(0))
        listed = store.ids() + ["cd" + "1" * 62]   # listed, then deleted
        monkeypatch.setattr(store, "ids", lambda: sorted(listed))
        report = store.gc()
        assert report.skipped == 1
        assert report.scanned == 1

    def test_skipped_lands_in_report_dict(self, store):
        d = store.gc().to_dict()
        assert d["skipped"] == 0 and d["swept_tmp"] == 0


# ---------------------------------------------------------------------------
# stale tmp files
# ---------------------------------------------------------------------------

def _shard(store: ProvenanceStore) -> "os.PathLike":
    shard = store.records_dir / "aa"
    shard.mkdir(parents=True, exist_ok=True)
    return shard


def _dead_pid() -> int:
    """A pid that provably no longer exists (a reaped child's)."""
    ctx = multiprocessing.get_context("fork")
    p = ctx.Process(target=lambda: None)
    p.start()
    p.join()
    return p.pid


@contextlib.contextmanager
def _held(path):
    """Hold ``flock`` on ``path`` as a live writer holds its tmp."""
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


#: tmp names the lock rule must judge alike: pid 1 (what a recycled
#: pid looks like), no pid, and the current ``<name>.*.tmp`` form
TMP_NAMES = [pytest.param("aa77.json.tmp1", id="tmp1"),
             pytest.param("aa44.json.tmpgarbage", id="tmpgarbage"),
             pytest.param("aa55.json.k3j_x9.tmp", id="new")]


class TestTmpSweep:
    """A tmp file is judged by its lock, never by its name or age."""

    def test_ids_never_list_tmp_files(self, store):
        record = _fake_record(0)
        store.put(record)
        (_shard(store) / "aa11.json.tmp12345").write_bytes(b"{}")
        (_shard(store) / "aa11.json.k3j_x9.tmp").write_bytes(b"{}")
        assert store.ids() == [record.run_id]

    @pytest.mark.parametrize("name", [
        pytest.param(None, id="dead-pid"), *TMP_NAMES])
    def test_locked_tmp_survives_sweep_and_gc(self, store, name):
        tmp = _shard(store) / (name or f"aa22.json.tmp{_dead_pid()}")
        tmp.write_bytes(b"inflight")
        week_ago = time.time() - 7 * 86400
        os.utime(tmp, (week_ago, week_ago))
        with _held(tmp):
            assert store.sweep_tmp() == (0, 0)
            report = store.gc()
            assert report.swept_tmp == 0 and report.freed_bytes == 0
            assert tmp.exists()

    def test_dead_writer_tmp_is_swept(self, store):
        tmp = _shard(store) / f"aa22.json.tmp{_dead_pid()}"
        tmp.write_bytes(b"partial")
        swept, nbytes = store.sweep_tmp()
        assert (swept, nbytes) == (1, len(b"partial"))
        assert not tmp.exists()

    @pytest.mark.parametrize("name", TMP_NAMES)
    def test_unlocked_tmp_is_swept_at_once(self, store, name):
        tmp = _shard(store) / name
        tmp.write_bytes(b"partial")
        swept, nbytes = store.sweep_tmp()
        assert (swept, nbytes) == (1, len(b"partial"))
        assert not tmp.exists()

    def test_own_inflight_tmp_survives(self, store):
        """A put of this very process, caught between its tmp and its
        link, keeps its tmp: the put holds the lock."""
        seen = []

        def hook(real):
            def sweep_then_name(src, dst, *args, **kwargs):
                seen.append(store.sweep_tmp())
                return real(src, dst, *args, **kwargs)
            return sweep_then_name

        record = _fake_record(0)
        with pytest.MonkeyPatch.context() as m:
            for name in ("link", "replace"):
                m.setattr(os, name, hook(getattr(os, name)))
            assert store.put(record) == (record.run_id, False)
        assert seen == [(0, 0)]
        assert store.get(record.run_id).run_id == record.run_id
        assert not list(store.records_dir.rglob("*.tmp*"))

    def test_gc_sweeps_and_reports(self, store):
        store.put(_fake_record(0))
        tmp = _shard(store) / f"aa55.json.tmp{_dead_pid()}"
        tmp.write_bytes(b"xxxx")
        report = store.gc()
        assert report.swept_tmp == 1
        assert report.freed_bytes == 4
        assert report.deleted == 0 and report.remaining == 1

    def test_gc_dry_run_keeps_tmp(self, store):
        tmp = _shard(store) / f"aa66.json.tmp{_dead_pid()}"
        tmp.write_bytes(b"x")
        report = store.gc(dry_run=True)
        assert report.swept_tmp == 1 and report.freed_bytes == 0
        assert tmp.exists()


class TestConcurrentPuts:
    def test_one_run_id_is_filed_once_and_neither_put_raises(self, store):
        """B's whole put of the same run_id runs inside A's, at the
        call that gives A's record its name: the record is filed once,
        with B's bytes untouched, and A reports a cache hit."""
        a = _fake_record(0)
        b = dataclasses.replace(a, created_at=a.created_at + 1.0)
        path = store._record_path(a.run_id)
        inner = []

        def hook(real):
            def naming_call(src, dst, *args, **kwargs):
                if str(dst) == path and not inner:
                    inner.append("B runs")
                    inner[0] = store.put(b)
                    inner.append(Path(store._record_path(a.run_id)).read_bytes())
                return real(src, dst, *args, **kwargs)
            return naming_call

        with pytest.MonkeyPatch.context() as m:
            for name in ("link", "replace"):
                m.setattr(os, name, hook(getattr(os, name)))
            outer = store.put(a)
        assert inner[0] == (a.run_id, False)
        assert outer == (a.run_id, True)
        assert Path(store._record_path(a.run_id)).read_bytes() == inner[1]
        assert store.get(a.run_id).created_at == b.created_at
        assert not list(store.records_dir.rglob("*.tmp*"))


# ---------------------------------------------------------------------------
# usage recency (last_used) vs. age eviction
# ---------------------------------------------------------------------------

class TestLastUsed:
    def test_touch_protects_aged_record(self, store):
        record = _fake_record(0)
        store.put(record)
        _age_record(store, record, age_s=1000.0)
        store.touch(record.run_id)
        report = store.gc(max_age_s=100.0)
        assert report.deleted == 0
        assert record.run_id in store

    def test_untouched_aged_record_is_collected(self, store):
        record = _fake_record(0)
        store.put(record)
        _age_record(store, record, age_s=1000.0)
        report = store.gc(max_age_s=100.0)
        assert report.deleted == 1
        assert record.run_id not in store

    def test_cache_hit_put_refreshes_not_created_at(self, store):
        record = _fake_record(0)
        store.put(record)
        _age_record(store, record, age_s=1000.0)
        run_id, hit = store.put(record)       # cache hit counts as use
        assert hit and run_id == record.run_id
        assert store.last_used(run_id) is not None
        assert store.gc(max_age_s=100.0).deleted == 0
        # created_at in the JSON stays the honest (old) creation time.
        stored = json.loads(Path(store._record_path(run_id)).read_text())
        assert stored["created_at"] < time.time() - 900.0

    def test_get_touches_but_bulk_listing_does_not(self, store):
        a, b = _fake_record(0), _fake_record(1)
        store.put(a)
        store.put(b)
        _age_record(store, a, age_s=1000.0)
        _age_record(store, b, age_s=1000.0)
        store.records()                       # bulk listing: no touch
        store.get(a.run_id)                   # retrieval: touch
        report = store.gc(max_age_s=100.0)
        assert report.deleted_ids == (b.run_id,)
        assert a.run_id in store

    def test_delete_removes_touch_sidecar(self, store):
        record = _fake_record(0)
        store.put(record)
        store.touch(record.run_id)
        sidecar = store._touch_path(record.run_id)
        assert os.path.exists(sidecar)
        store.delete(record.run_id)
        assert not os.path.exists(sidecar)
        assert store.last_used(record.run_id) is None

    def test_touch_creates_a_missing_sidecar(self, store):
        record = _fake_record(0)
        store.put(record)
        assert store.last_used(record.run_id) is None
        store.touch(record.run_id)
        assert os.stat(store._touch_path(record.run_id)).st_size == 0
        os.utime(store._touch_path(record.run_id), (1000.0, 1000.0))
        store.touch(record.run_id)
        assert store.last_used(record.run_id) > 1000.0

    def test_touch_of_a_vanished_shard_is_ignored(self, store):
        record = _fake_record(0)
        store.put(record)
        store.touch(record.run_id)
        shard = os.path.dirname(store._touch_path(record.run_id))
        for name in os.listdir(shard):
            os.unlink(os.path.join(shard, name))
        os.rmdir(shard)
        store.touch(record.run_id)              # no raise, nothing made
        assert not os.path.exists(shard)
        assert store.last_used(record.run_id) is None


# ---------------------------------------------------------------------------
# real multi-process put/get/gc
# ---------------------------------------------------------------------------

def _writer(root, start: int, n: int) -> None:
    store = ProvenanceStore(root)
    for i in range(start, start + n):
        store.put(_fake_record(i))
        if i % 5 == 0:
            store.gc(max_age_s=3600.0)     # scan while others write
        if i % 7 == 0:
            ids = store.ids()
            if ids:
                store.get(ids[0])


class TestMultiProcess:
    N_PER_WRITER = 25

    def test_two_writers_and_a_collector(self, store):
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_writer,
                        args=(store.root, w * self.N_PER_WRITER,
                              self.N_PER_WRITER))
            for w in range(2)
        ]
        for p in writers:
            p.start()
        # Collect concurrently with the writers the whole time.
        while any(p.is_alive() for p in writers):
            report = store.gc(max_age_s=3600.0)
            assert report.deleted == 0
            time.sleep(0.002)
        for p in writers:
            p.join()
            assert p.exitcode == 0
        assert len(store) == 2 * self.N_PER_WRITER
        # Everything is still readable after the storm...
        assert len(store.records()) == 2 * self.N_PER_WRITER
        # ...and a budgeted gc can still drain the store completely.
        report = store.gc(max_bytes=0)
        assert report.deleted == 2 * self.N_PER_WRITER
        assert len(store) == 0


# ---------------------------------------------------------------------------
# execution leases: cross-server single-flight
# ---------------------------------------------------------------------------

def _plant_leftover_lease(store: ProvenanceStore, run_id: str,
                          content: bytes = b"") -> Path:
    """A lease file as a server that died mid-run leaves it: never
    unlocked by a release, so nobody holds it, whatever it holds."""
    path = store._lease_path(run_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(content)
    return path


class TestLeases:
    RUN = "ab" + "0" * 62

    def test_mutual_exclusion_and_release(self, store):
        lease = store.acquire_lease(self.RUN)
        assert lease is not None and not lease.takeover
        # Same host, live owner: nobody else gets it.
        assert store.acquire_lease(self.RUN) is None
        assert store._lease_path(self.RUN).exists()
        lease.release()
        assert not store._lease_path(self.RUN).exists()
        again = store.acquire_lease(self.RUN)
        assert again is not None and not again.takeover
        again.release()

    def test_live_owner_never_taken_over(self, store):
        """No amount of quiet takes a run from a live owner: its lease
        file backdated an hour is still held."""
        lease = store.acquire_lease(self.RUN)
        assert lease is not None
        old = time.time() - 3600
        os.utime(store._lease_path(self.RUN), (old, old))
        assert store.acquire_lease(self.RUN) is None
        assert lease.renew() is True
        lease.release()

    def test_renew_false_once_lease_file_removed(self, store):
        lease = store.acquire_lease(self.RUN)
        assert lease is not None and lease.renew() is True
        os.unlink(store._lease_path(self.RUN))
        assert lease.renew() is False
        # The path is free again; the stale lease's release must not
        # unlink the new owner's file.
        fresh = store.acquire_lease(self.RUN)
        assert fresh is not None and not fresh.takeover
        lease.release()
        assert fresh.renew() is True
        assert store.acquire_lease(self.RUN) is None
        fresh.release()
        assert fresh.renew() is False

    def test_unlocked_leftover_taken_over_at_once(self, store):
        """Whatever an unlocked lease file holds — half-written JSON,
        nothing, garbage, a reaped pid, even our own live pid — nobody
        holds it, so it is taken over at once."""
        def owner(pid: int) -> bytes:
            return json.dumps({"host": socket.gethostname(), "pid": pid,
                               "token": "t",
                               "acquired_at": time.time()}).encode()

        for leftover in (b'{"host": "trunc', b"", b"\xff\x00garbage",
                         owner(_dead_pid()), owner(os.getpid())):
            path = _plant_leftover_lease(store, self.RUN, leftover)
            lease = store.acquire_lease(self.RUN)
            assert lease is not None and lease.takeover, leftover
            lease.release()
            assert not path.exists()

    def test_delete_keeps_a_held_lease(self, store):
        """gc must not free a run a live owner is executing: deleting
        its record leaves the lease held."""
        record = _fake_record(0)
        store.put(record)
        lease = store.acquire_lease(record.run_id)
        assert lease is not None
        store.delete(record.run_id)
        assert record.run_id not in store
        assert store.acquire_lease(record.run_id) is None
        assert lease.renew() is True
        lease.release()
        assert not list(store.records_dir.rglob("*.lease*"))

    def test_delete_clears_a_dead_owners_lease(self, store):
        record = _fake_record(0)
        store.put(record)
        _plant_leftover_lease(store, record.run_id)
        store.delete(record.run_id)
        assert not list(store.records_dir.rglob("*.lease*"))

    @pytest.mark.parametrize("start", ["dead-owner", "no-file"])
    def test_every_interleaving_of_two_takers(self, tmp_path, monkeypatch,
                                              start):
        """Taker A runs one whole ``acquire_lease`` at taker B's k-th
        file-system call, for every k B makes, and the tmp sweeper runs
        at the j-th call of any actor, for every j (0: no sweep):
        neither acquire raises, exactly one of the two owns the run, no
        tmp file is left behind, and with no lease file to start from,
        neither calls its win a takeover."""
        hooked = [(os, name) for name in ("open", "unlink", "link", "stat",
                                          "fstat", "close")]
        hooked.append((fcntl, "flock"))

        def interleave(k: int, j: int) -> tuple[bool, bool]:
            store = ProvenanceStore(tmp_path / f"k{k}-j{j}")
            if start == "dead-owner":
                _plant_leftover_lease(store, self.RUN)
            calls = 0
            taker_a, sweeps = [], []

            def hook(real):
                def at_call(*args, **kwargs):
                    nonlocal calls
                    calls += 1      # nested actors' calls count too
                    if calls == k:
                        taker_a.append(store.acquire_lease(self.RUN))
                    if calls == j:
                        sweeps.append(store.sweep_tmp())
                    return real(*args, **kwargs)
                return at_call

            with monkeypatch.context() as m:
                for module, name in hooked:
                    m.setattr(module, name, hook(getattr(module, name)))
                taker_b = store.acquire_lease(self.RUN)
            owners = [lease for lease in (*taker_a, taker_b)
                      if lease is not None]
            takeovers = [lease.takeover for lease in owners]
            for lease in owners:
                lease.release()
            where = f"k={k} j={j}"
            assert len(owners) == 1, f"{where}: {len(owners)} owners"
            if start == "no-file":
                assert takeovers == [False], where
            assert not list(store.records_dir.rglob("*.tmp*")), where
            return bool(taker_a), bool(sweeps)

        for k in itertools.count(1):
            for j in itertools.count(0):
                ran_a, swept = interleave(k, j)
                if j and not swept:
                    break       # fewer than j calls in all
            if not ran_a:
                break           # B made fewer than k calls: all covered
        assert k > 1 and j > 1  # both were interleaved at least once

    def test_sigkilled_owner_is_taken_over(self, store, tmp_path):
        """End to end: another *process* acquires the lease and is
        SIGKILLed; the survivor's acquire must take over."""
        import signal
        import subprocess
        import sys

        script = (
            "import sys, time\n"
            "from repro.provenance import ProvenanceStore\n"
            f"s = ProvenanceStore({str(store.root)!r})\n"
            f"lease = s.acquire_lease({self.RUN!r})\n"
            "assert lease is not None\n"
            "print('acquired', flush=True)\n"
            "time.sleep(120)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline().strip() == b"acquired"
            # The owner is alive: excluded.
            assert store.acquire_lease(self.RUN) is None
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            lease = store.acquire_lease(self.RUN)
            assert lease is not None and lease.takeover
            lease.release()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
