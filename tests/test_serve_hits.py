"""A hit is served from its encoding.

A hit splices the record file's canonical line into the reply, and the
job service's hit memo keeps a submit line's reply line while the record
file keeps its inode, size and mtime.  The previous hit path
(membership check, ``store.get``, ``to_dict``, a full ``json.dumps`` of
the reply) is kept below as the reference: every ``submit``,
``submit_many``, ``await`` and repeated submit-line hit must put the
reference's bytes on the wire, on the first hit and on memoised ones,
for records drawn with escape-heavy and non-ASCII strings, floats,
``None``s, empty and large per-PE stats and odd exit values.

A request is encoded once too: ``ServeClient`` splices a ``JobSpec`` as
its cached ``canonical()``, so N submits of one spec encode it once, a
filed run encodes its spec once, and every request line is the one the
client sent when it encoded each spec's ``to_dict()`` whole.
"""

import asyncio
import builtins
import contextlib
import io
import json
import os
import pathlib
import socket
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from repro.errors import ReproError
from repro.harness import jobspec
from repro.harness.jobspec import JobSpec, build_job, code_version
from repro.provenance import ProvenanceStore, RunRecord, run_id_for
from repro.provenance import store as store_mod
from repro.serve import JobService, ServeClient, ServiceThread, protocol
from repro.serve import cache as cache_mod
from repro.serve import server as server_mod
from repro.serve.client import SubmitReply

from counted import carries_a_record, counting, filing, python_calls

# -- the previous hit path ---------------------------------------------------


def reference_get(store, run_id):
    """``ResultCache.get`` before the memo: every hit re-read."""
    if run_id not in store:
        return None
    try:
        return store.get(run_id, touch=False)
    except (OSError, ValueError, KeyError, ReproError):
        return None


def reference_line(store, run_id, **extra):
    """The hit reply line the previous path put on the wire."""
    record = reference_get(store, run_id)
    msg = {"ok": True, "run_id": run_id, "cache": protocol.CACHE_HIT,
           "record": record.to_dict(), **extra}
    return (json.dumps(msg, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


# -- generated records -------------------------------------------------------

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
ESCAPES = st.text(st.sampled_from('"\\/\n\t\x00\x1f é€😀 ab'),
                  max_size=12)
STRING = st.one_of(TEXT, ESCAPES)
FLOAT = st.floats(allow_nan=False, allow_infinity=False)
SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                   FLOAT, STRING)
VALUE = st.recursive(SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(STRING, inner, max_size=4)),
    max_leaves=8)


@st.composite
def pe_stats(draw):
    n = draw(st.one_of(st.just(0), st.integers(1, 4), st.integers(200, 600)))
    util = draw(FLOAT)
    return [{"pe": i, "busy_ns": i * 1009, "util": util / (i + 1),
             "note": None if i % 3 else draw(STRING)} for i in range(n)]


@st.composite
def records(draw):
    spec = JobSpec(app="hello", nvp=draw(st.integers(1, 8)), method="none",
                   app_config=draw(st.dictionaries(STRING, SCALAR,
                                                   max_size=4)),
                   argv=tuple(draw(st.lists(STRING, max_size=3))))
    ver = code_version()
    return RunRecord(
        spec=spec, run_id=run_id_for(spec, ver), spec_digest=spec.digest(),
        code_version=ver, timeline_sha256=draw(STRING),
        events=draw(st.integers(0, 2**40)),
        makespan_ns=draw(st.integers(0, 2**62)),
        startup_ns=draw(st.integers(0, 2**62)),
        counters=draw(st.dictionaries(STRING, st.integers(0, 2**62),
                                      max_size=6)),
        pe_stats=draw(pe_stats()),
        rollbacks=draw(st.dictionaries(st.integers(0, 1024),
                                       st.integers(0, 9), max_size=4)),
        recoveries=draw(st.integers(0, 9)),
        unrecoverable_reason=draw(st.one_of(st.none(), STRING)),
        migrations=draw(st.integers(0, 99)),
        lb_moves=draw(st.integers(0, 99)),
        exit_values=draw(st.dictionaries(st.integers(0, 1024), VALUE,
                                         max_size=4)),
        created_at=draw(st.floats(0, 4e9)))


def run(coro):
    return asyncio.run(coro)


class Writer:
    """Collects what the service writes to one connection."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


async def exchange(service, lines):
    """What one connection carrying ``lines`` gets back."""
    reader = asyncio.StreamReader(limit=protocol.MAX_LINE)
    for line in lines:
        reader.feed_data(line)
    reader.feed_eof()
    conn = Writer()
    await service._handle_conn(reader, conn)
    return bytes(conn.data)


def submit_line(spec_d, **extra):
    return protocol.encode({"op": protocol.OP_SUBMIT, "spec": spec_d,
                            "wait": True, **extra})


def service_on(root, **kw) -> JobService:
    """A service on ``root`` that is never started: hits need no pool."""
    return JobService(ProvenanceStore(Path(root) / "store"),
                      socket_path=Path(root) / "s.sock", **kw)


async def served_lines(service, spec_d, run_id):
    """The reply lines of a ``submit``, a two-spec ``submit_many`` and an
    ``await`` hit, each with the reference's."""
    store = service.store
    got = [protocol.encode(await service.submit(spec_d))]
    want = [reference_line(store, run_id)]
    writer = Writer()
    await service._submit_many({"op": protocol.OP_SUBMIT_MANY,
                                "specs": [spec_d, spec_d]}, writer)
    *batch, done = bytes(writer.data).splitlines(keepends=True)
    got += sorted(batch)
    want += sorted(reference_line(store, run_id, index=i) for i in (0, 1))
    assert protocol.decode(done)["n"] == 2
    got.append(protocol.encode(await service.await_result(run_id)))
    want.append(reference_line(store, run_id))
    got.append(await exchange(service, [submit_line(spec_d)] * 2))
    want.append(reference_line(store, run_id) * 2)
    return got, want


def serves_the_reference(record) -> bool:
    with tempfile.TemporaryDirectory() as root:
        service = service_on(root)
        service.store.put(record)
        spec_d = record.spec.to_dict()
        for _ in range(2):          # the first hit, then memoised ones
            got, want = run(served_lines(service, spec_d, record.run_id))
            if got != want:
                return False
        return service.stats.hits == 12


def unescaped_encode_record(record):
    """Mutant: the record file, hence the splice, is encoded with
    ``ensure_ascii=False``."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def unchecked_identity(path):
    """Mutant: the memo never notices the record file changing."""
    return (0, 0, 0) if os.path.exists(path) else None


MUTANT_SETTINGS = settings(max_examples=300, derandomize=True, database=None,
                           phases=[Phase.generate])


class TestHitsAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(records())
    def test_reply_bytes_equal_the_previous_path(self, record):
        assert serves_the_reference(record)

    @settings(max_examples=25, deadline=None)
    @given(records())
    def test_in_process_record_is_the_reference_dict(self, record):
        with tempfile.TemporaryDirectory() as root:
            service = service_on(root)
            service.store.put(record)
            want = reference_get(service.store, record.run_id).to_dict()
            for _ in range(2):
                reply = run(service.submit(record.spec.to_dict()))
                assert isinstance(reply["record"], dict)
                assert reply["record"] == want
                reply["record"]["events"] = -1      # the caller's copy
                reply["record"]["spec"] = None

    def test_the_oracle_catches_an_unescaped_splice(self, monkeypatch):
        monkeypatch.setattr(store_mod, "encode_record",
                            unescaped_encode_record)
        caught = find(records(), lambda r: not serves_the_reference(r),
                      settings=MUTANT_SETTINGS)
        assert not json.dumps(caught.to_dict(), ensure_ascii=False).isascii()

    def test_the_oracle_catches_an_unchecked_memo(self, tmp_path,
                                                  monkeypatch):
        for module in (cache_mod, server_mod):
            monkeypatch.setattr(module, "file_identity", unchecked_identity)
        with pytest.raises(AssertionError):
            TestStaleness().test_deleted_and_reput_serves_new_bytes(tmp_path)


# -- staleness, the bound and recency ---------------------------------------


def _record(name: str, created_at: float = 1.5) -> RunRecord:
    spec = JobSpec(app="hello", nvp=2, method="none",
                   app_config={"name": name})
    ver = code_version()
    return RunRecord(
        spec=spec, run_id=run_id_for(spec, ver), spec_digest=spec.digest(),
        code_version=ver, timeline_sha256="ab" * 32, events=4,
        makespan_ns=100, startup_ns=10, counters={"ctx_switch": 4},
        pe_stats=[{"pe": 0}], rollbacks={}, recoveries=0,
        unrecoverable_reason=None, migrations=0, lb_moves=0,
        exit_values={0: None, 1: "ok"}, created_at=created_at)


def _line(record):
    return submit_line(record.spec.to_dict())


def _hit(service, record):
    """The record a submit line of ``record``'s spec is served, or None
    (a miss is shed: the service has no queue slots)."""
    reply = protocol.decode(run(exchange(service, [_line(record)])))
    return reply.get("record") if reply["ok"] else None


def stale_service(root) -> JobService:
    return service_on(root, max_queue=0)


class TestStaleness:
    def test_gc_deleted_record_is_a_miss_and_leaves_the_memo(self, tmp_path):
        service = stale_service(tmp_path)
        record = _record("gc")
        service.store.put(record)
        assert _hit(service, record) == record.to_dict()
        report = service.store.gc(max_age_s=1.0, now=1e12)
        assert report.deleted_ids == (record.run_id,)
        assert _hit(service, record) is None
        assert _line(record) not in service._memo
        assert (service.stats.hits, service.stats.misses) == (1, 1)

    def test_deleted_and_reput_serves_new_bytes(self, tmp_path):
        service = stale_service(tmp_path)
        store = service.store
        old = _record("reput", created_at=1.5)
        store.put(old)
        assert _hit(service, old)["created_at"] == 1.5
        store.delete(old.run_id)
        store.put(_record("reput", created_at=123456.25))
        served = run(exchange(service, [_line(old)]))
        assert served == reference_line(store, old.run_id)
        assert b'"created_at":123456.25' in served

    def test_rewritten_in_place_is_read_again(self, tmp_path):
        service = stale_service(tmp_path)
        record = _record("in-place")
        service.store.put(record)
        _hit(service, record)
        path = Path(service.store._record_path(record.run_id))
        inode, mtime = path.stat().st_ino, path.stat().st_mtime_ns
        data = json.loads(path.read_text())
        data["makespan_ns"] = 999                  # same length as "100"
        with open(path, "r+") as f:
            f.write(json.dumps(data, sort_keys=True, indent=1) + "\n")
        os.utime(path, ns=(mtime, mtime + 1))
        assert path.stat().st_ino == inode
        assert _hit(service, record)["makespan_ns"] == 999

    def test_corrupt_record_is_a_miss(self, tmp_path):
        service = stale_service(tmp_path)
        record = _record("corrupt")
        service.store.put(record)
        _hit(service, record)
        path = Path(service.store._record_path(record.run_id))
        path.write_text("{not json")
        assert _hit(service, record) is None
        assert _line(record) not in service._memo
        reply = run(service.await_result(record.run_id))
        assert not reply["ok"] and "unknown run id" in reply["error"]

    def test_filling_past_the_bound_drops_least_recent_first(
            self, tmp_path, monkeypatch):
        """The bound counts each line and its reply line."""
        service = service_on(tmp_path)
        recs = [_record(f"bound-{i}") for i in range(4)]
        for r in recs:
            service.store.put(r)
        size = len(_line(recs[0])) + len(reference_line(service.store,
                                                        recs[0].run_id))
        monkeypatch.setattr(server_mod, "HIT_MEMO_BYTES", 3 * size)
        for r in recs[:3]:
            _hit(service, r)
        _hit(service, recs[0])                  # now the most recent
        _hit(service, recs[3])
        memo = service._memo
        assert list(memo) == [_line(recs[i]) for i in (2, 0, 3)]
        assert service._memo_size == sum(
            len(line) + len(entry[3]) for line, entry in memo.items()) \
            == 3 * size

    def test_memoised_hit_moves_last_used(self, tmp_path):
        service = service_on(tmp_path)
        store = service.store
        record = _record("recency")
        store.put(record)
        _hit(service, record)
        os.utime(store._touch_path(record.run_id), (1000.0, 1000.0))
        assert store.last_used(record.run_id) == 1000.0
        _hit(service, record)
        assert _line(record) in service._memo
        assert store.last_used(record.run_id) > 1000.0


# -- the structural guard ---------------------------------------------------


def record_file(file, *args):
    return str(file).endswith(".json")


#: what a hit may read and rebuild: name -> (seams, predicate)
HIT_READS = {
    "json.loads": ([(json, "loads")], None),
    "from_dict": ([(RunRecord, "from_dict")], None),
    "to_dict": ([(RunRecord, "to_dict")], None),
    "opens": ([(io, "open"), (os, "open"), (builtins, "open")], record_file),
    "record_json": ([(json.JSONEncoder, "iterencode")], carries_a_record),
    "stat": ([(os, "stat")], None),
    "utime": ([(os, "utime")], None),
}

#: the first hit of a canonical record file: one stat, one read, one
#: parse (and the check that it holds a record), one touch, no encode;
#: filling the hit memo with it costs nothing more
FIRST_HIT = {"json.loads": 1, "from_dict": 1, "to_dict": 0, "opens": 1,
             "record_json": 0, "stat": 1, "utime": 1}


@contextmanager
def hit_reads():
    """Calls of each of :data:`HIT_READS` while open, by name."""
    with ExitStack() as stack:
        yield {name: stack.enter_context(counting(*seams, only=only))
               for name, (seams, only) in HIT_READS.items()}


def tally(calls):
    return {name: len(seen) for name, seen in calls.items()}


def first_hit_ledger(root):
    """:data:`FIRST_HIT`'s rows as counted over the first hit of a
    submit line, which fills the hit memo."""
    service = service_on(root)
    record = _record("first-hit")
    service.store.put(record)
    line = _line(record)
    with hit_reads() as calls:
        reply = run(service.submit(record.spec.to_dict(), line=line))
    assert reply["cache"] == protocol.CACHE_HIT
    assert service._memo[line][3] == protocol.encode(reply)
    return tally(calls)


class TestStructuralGuard:
    def test_a_first_hit_fills_the_memo_from_one_read(self, tmp_path):
        assert first_hit_ledger(tmp_path) == FIRST_HIT

    def test_a_first_hit_line_is_encoded_once(self, tmp_path):
        """Over a socket, a submit line's first hit is written as the
        reply bytes it memoised: one encode, none again for the write."""
        service = service_on(tmp_path, workers=1)
        record = _record("first-line")
        service.store.put(record)
        line = _line(record)
        with ServiceThread(service), \
                socket.socket(socket.AF_UNIX) as sock:
            sock.connect(str(tmp_path / "s.sock"))
            with counting((protocol, "encode")) as encodes:
                sock.sendall(line)
                reply = sock.makefile("rb").readline()
        assert len(encodes) == 1
        assert reply == service._memo[line][3]
        assert reply == reference_line(service.store, record.run_id)

    def test_in_process_hits_read_the_record_each_call(self, tmp_path):
        """A hit that is not a repeated line (here ``JobService.submit``
        of a dict) reads the record file every time."""
        service = service_on(tmp_path)
        record = _record("guard")
        service.store.put(record)
        spec_d = record.spec.to_dict()

        async def hits(n):
            return [await service.submit(spec_d) for _ in range(n)]

        with hit_reads() as calls:
            replies = run(hits(100))
        want = reference_line(service.store, record.run_id)
        assert all(protocol.encode(r) == want for r in replies)
        assert tally(calls) == {row: 100 * k for row, k in FIRST_HIT.items()}
        assert service.stats.hits == 100 and not service._memo

    @pytest.mark.parametrize("mutant, rows", [
        ("previous_get", ("to_dict", "record_json", "stat")),
        ("read_twice", ("json.loads", "from_dict", "opens", "stat")),
        ("stat_twice", ("stat",)),
    ])
    def test_the_first_hit_guard_catches(self, mutant, rows, tmp_path,
                                         monkeypatch):
        for owner, name, value in FIRST_HIT_MUTANTS[mutant]():
            monkeypatch.setattr(owner, name, value)
        got = first_hit_ledger(tmp_path)
        assert [row for row in FIRST_HIT
                if got[row] != FIRST_HIT[row]] == list(rows)

    def test_a_repeated_hit_line_is_one_stat_and_one_touch(self, tmp_path):
        """The ledger of N repeats of a submit line that hit."""
        assert repeat_ledger(tmp_path, 100) == expected_ledger(100)

    @pytest.mark.parametrize("mutant, rows", [
        ("previous_path", ("submit", "encode", "json", "record", "pathlib")),
        ("decoding_path", ("submit", "encode", "json", "record", "pathlib")),
        ("pathlib_touch", ("pathlib",)),
        ("unchecked_identity", ("stat",)),
        ("lost_touch", ("utime",)),
    ])
    def test_the_guard_catches(self, mutant, rows, tmp_path, monkeypatch):
        for owner, name, value in REPEAT_MUTANTS[mutant]():
            monkeypatch.setattr(owner, name, value)
        got, want = repeat_ledger(tmp_path, 20), expected_ledger(20)
        assert [row for row in want if got[row] != want[row]] == list(rows)


def previous_get(self, run_id):
    """Mutant: the first hit as it was, rebuilding the record through
    ``store.get`` and encoding its ``to_dict()`` again."""
    ident = cache_mod.file_identity(self.store._record_path(run_id))
    if ident is None:
        return None
    try:
        record = protocol.EncodedRecord(self.store.get(run_id).to_dict())
    except (OSError, ValueError, KeyError, ReproError):
        return None
    return record, ident


def read_twice(self, run_id):
    """Mutant: a first hit checks the record through ``store.get``,
    then reads the file again for its text."""
    with contextlib.suppress(ReproError, OSError, ValueError):
        self.store.get(run_id, touch=False)
    return REAL_GET(self, run_id)


def stat_twice(self, line, run_id, ident, reply):
    """Mutant: filling the memo stats the record file again."""
    REAL_REMEMBER(self, line, run_id, server_mod.file_identity(
        self.store._record_path(run_id)), reply)


REAL_GET = cache_mod.ResultCache.get
REAL_REMEMBER = JobService._remember

#: mutant name -> the (owner, name, value) patches that make it
FIRST_HIT_MUTANTS = {
    "previous_get": lambda: [(cache_mod.ResultCache, "get", previous_get)],
    "read_twice": lambda: [(cache_mod.ResultCache, "get", read_twice)],
    "stat_twice": lambda: [(JobService, "_remember", stat_twice)],
}


# -- the repeated-hit ledger -------------------------------------------------


def expected_ledger(n):
    """What ``n`` repeats of a hit line do, by row."""
    return {"submit": 0, "encode": 0, "json": 0, "record": 0, "pathlib": 0,
            "stat": n, "utime": n}


#: the counted rows of :func:`expected_ledger`; ``pathlib`` is profiled
REPEAT_SEAMS = {
    "submit": [(JobService, "submit")],
    "encode": [(protocol, "encode")],
    "json": [(json, "loads"), (json, "dumps")],
    "record": [(protocol.EncodedRecord, "__init__")],
    "stat": [(os, "stat")],
    "utime": [(os, "utime")],
}

PATHLIB = (os.path.dirname(pathlib.__file__) + os.sep
           if hasattr(pathlib, "__path__") else pathlib.__file__)


def repeat_ledger(root, n):
    """:func:`expected_ledger`'s rows as counted over ``n`` repeats, on a
    live ``_handle_conn``, of a line that hit once before."""
    service = service_on(root)
    record = _record("ledger")
    service.store.put(record)
    line = submit_line(record.spec.to_dict())
    first = run(exchange(service, [line]))
    assert protocol.decode(first)["cache"] == protocol.CACHE_HIT
    with ExitStack() as stack:
        calls = {name: stack.enter_context(counting(*seams))
                 for name, seams in REPEAT_SEAMS.items()}
        profiled = python_calls(lambda: run(exchange(service, [line] * n)))
    assert profiled.result == first * n
    assert service.stats.hits == service.stats.submissions == n + 1
    ledger = tally(calls)
    ledger["pathlib"] = sum(
        k for code, k in profiled.called.items()
        if code.co_filename.startswith(PATHLIB))
    return ledger


async def previous_handle_conn(self, reader, writer):
    """Mutant: the path a repeat took before the memo answered it, with
    no memo lookup: every line is decoded and goes through ``submit``
    (which memoises a hit again)."""
    try:
        while True:
            try:
                line = await protocol.read_line(reader)
                if line is None:
                    break
                msg = protocol.decode(line)
            except protocol.ProtocolError as e:
                await protocol.write_message(
                    writer, protocol.error_reply(str(e)))
                break
            if msg.get("op") == protocol.OP_SUBMIT_MANY:
                await self._submit_many(msg, writer)
                continue
            else:
                reply = await self._dispatch(msg, line)
            await protocol.write_message(writer, reply)
    finally:
        writer.close()


def _decoding_path():
    from test_serve_memo import ReferenceService
    return [(JobService, "_handle_conn", ReferenceService._handle_conn)]


#: mutant name -> the (owner, name, value) patches that make it
REPEAT_MUTANTS = {
    "previous_path": lambda: [(JobService, "_handle_conn",
                               previous_handle_conn)],
    "decoding_path": _decoding_path,
    "pathlib_touch": lambda: [(server_mod, "touch_file",
                               lambda path: Path(path).touch())],
    "unchecked_identity": lambda: [(module, "file_identity",
                                    lambda path: (0, 0, 0))
                                   for module in (cache_mod, server_mod)],
    "lost_touch": lambda: [(server_mod, "touch_file", lambda path: None)],
}


class TestHitBytes:
    def test_memoised_bytes_are_the_full_paths_encoding(self, tmp_path):
        service = service_on(tmp_path)
        spec = JobSpec(app="hello", nvp=2, method="none",
                       app_config={"name": "bytes-é€😀", "x": 0.1})
        ver = code_version()
        record = RunRecord(
            spec=spec, run_id=run_id_for(spec, ver),
            spec_digest=spec.digest(), code_version=ver,
            timeline_sha256="\u00e9\"\\\n", events=3,
            makespan_ns=7, startup_ns=1, counters={"ctx_switch": 3},
            pe_stats=[{"pe": 0, "util": 1 / 3, "note": "naïve ✓"}],
            rollbacks={}, recoveries=0, unrecoverable_reason=None,
            migrations=0, lb_moves=0,
            exit_values={0: {"nested": {"é": [1e-300, -0.0, 2.5e17]}},
                         1: "日本語"},
            created_at=1234.0625)
        service.store.put(record)
        full = protocol.encode(run(service.submit(spec.to_dict())))
        line = submit_line(spec.to_dict())
        assert run(exchange(service, [line] * 3)) == full * 3
        assert service._memo[line][3] == full
        assert full.isascii() and b'\\u65e5' in full


# -- a miss is filed and replied as its worker encoded it --------------------


def side(*args) -> str:
    """Which end of a served miss a call runs on."""
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return "client"
    return ("worker" if thread.name.startswith("ThreadPoolExecutor")
            else "server")


#: what one served miss costs, by row and side: the worker encodes the
#: record once; the server files and replies with those bytes
MISS = {f"{row}@{where}": int(row != "from_dict" and where == "worker")
        for row in ("record_json", "to_dict", "from_dict")
        for where in ("worker", "server", "client")}


def miss_ledger(root, n):
    """:data:`MISS`'s rows as counted over ``n`` ``ServeClient`` submits
    of never-seen specs, each divided by ``n``; every record file is the
    reply's record as its canonical line."""
    specs = [JobSpec(app="hello", nvp=2, method="none",
                     app_config={"name": f"miss-{i}"}) for i in range(n)]
    service = JobService(ProvenanceStore(root / "store"), workers=1,
                         socket_path=root / "s.sock")
    with ServiceThread(service):
        client = ServeClient(socket_path=root / "s.sock", timeout=120.0)
        with filing(where=side) as calls:
            replies = [client.submit(spec) for spec in specs]
        client.close()
    assert [r.cache for r in replies] == [protocol.CACHE_MISS] * n
    for r in replies:
        assert Path(service.store._record_path(r.run_id)).read_text() == \
            json.dumps(r.record, sort_keys=True, separators=(",", ":")) + "\n"
    ledger = dict.fromkeys(MISS, 0)
    for row in ("record_json", "to_dict", "from_dict"):
        for where in calls[row]:
            ledger[f"{row}@{where}"] += 1
    return {row: k / n for row, k in ledger.items()}


def previous_reply_from_pool(self, run_id, out):
    """Mutant: the server as it was, rebuilding the worker's record and
    filing it through ``store.put``; the reply holds the plain dict."""
    self.cache.store.put(RunRecord.from_dict(out["record"]),
                         compressed_timeline=out["timeline_z"])
    return {"ok": True, "run_id": run_id, "record": out["record"]}


def server_encoded():
    """Mutant: the server encodes the worker's record again."""
    real = JobService._reply_from_pool

    def reply_from_pool(self, run_id, out):
        return real(self, run_id, {**out, "record_json": json.dumps(
            out["record"], sort_keys=True, separators=(",", ":"))})
    return reply_from_pool


MISS_MUTANTS = {"previous_server": lambda: previous_reply_from_pool,
                "server_encoded": server_encoded}


#: valid JSON in a record file that is not a record
NOT_RECORDS = {
    "list": lambda d: [1, 2],
    "null-spec": lambda d: {**d, "spec": None},
    "scalar-pe-stats": lambda d: {**d, "pe_stats": 5},
}


class TestMissFiledAsEncoded:
    def test_a_miss_encodes_its_record_once_in_the_worker(self, tmp_path,
                                                          inline_pool):
        assert miss_ledger(tmp_path, 3) == MISS

    @pytest.mark.parametrize("mutant, rows", [
        ("previous_server", ("record_json@server", "to_dict@server",
                             "from_dict@server")),
        ("server_encoded", ("record_json@server",)),
    ])
    def test_the_guard_catches(self, mutant, rows, tmp_path, inline_pool,
                               monkeypatch):
        monkeypatch.setattr(JobService, "_reply_from_pool",
                            MISS_MUTANTS[mutant]())
        got = miss_ledger(tmp_path, 2)
        assert [row for row in MISS if got[row] != MISS[row]] == list(rows)

    @pytest.mark.parametrize("shape", NOT_RECORDS)
    def test_a_file_that_is_not_a_record_is_a_miss(self, shape, tmp_path,
                                                   inline_pool):
        """Behind a live service: each submit executes and is answered,
        and the connection lives on."""
        record = _record(f"not-a-record-{shape}")
        store = ProvenanceStore(tmp_path / "store")
        path = Path(store._record_path(record.run_id))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(NOT_RECORDS[shape](record.to_dict())))
        service = JobService(store, workers=1, socket_path=tmp_path / "s.sock")
        with ServiceThread(service):
            client = ServeClient(socket_path=tmp_path / "s.sock",
                                 timeout=120.0, retries=0)
            replies = [client.submit(record.spec) for _ in range(2)]
            assert client.ping()["ok"]
            client.close()
        assert [(r.ok, r.cache) for r in replies] == \
            [(True, protocol.CACHE_MISS)] * 2
        assert replies[0].record["spec"] == record.spec.to_dict()
        assert service.stats.misses == 2 and service.stats.hits == 0


# -- a repeated submit is encoded once ---------------------------------------


def is_spec_dict(obj) -> bool:
    return isinstance(obj, dict) and obj.keys() == set(jobspec._FIELDS)


def carries_a_spec_dict(obj) -> bool:
    """A JSON encode of a spec's dict, or of a message holding one."""
    return is_spec_dict(obj) or (isinstance(obj, dict) and (
        is_spec_dict(obj.get("spec"))
        or any(map(is_spec_dict, obj.get("specs") or ()))))


#: what ``n`` client submits of one stored ``JobSpec`` cost, by row:
#: its one encode builds the field dict ``to_dict`` would copy
SUBMIT_ONCE = {"to_dict": 0, "spec_json": 1, "submit": 1}


def client_ledger(root, n):
    """:data:`SUBMIT_ONCE`'s rows as counted over ``n`` ``ServeClient``
    submits of one fresh ``JobSpec`` whose record is already stored:
    the client thread's ``to_dict`` calls and JSON encodes of that
    spec, and the server's ``JobService.submit`` calls."""
    spec = JobSpec(app="hello", nvp=2, method="none",
                   app_config={"name": "once"})
    service = JobService(ProvenanceStore(root / "store"), workers=1,
                         socket_path=root / "s.sock")
    with ServiceThread(service):
        client = ServeClient(socket_path=root / "s.sock", timeout=120.0)
        assert client.submit(spec.to_dict()).cache == protocol.CACHE_MISS
        me = threading.get_ident()
        with ExitStack() as stack:
            rows = {
                "to_dict": stack.enter_context(counting(
                    (JobSpec, "to_dict"), only=lambda self: self is spec)),
                "spec_json": stack.enter_context(counting(
                    (json, "dumps"), (protocol, "_compact"),
                    only=lambda obj, *args: threading.get_ident() == me
                    and carries_a_spec_dict(obj))),
                "submit": stack.enter_context(counting(
                    (JobService, "submit"))),
            }
            replies = [client.submit(spec) for _ in range(n)]
        client.close()
    assert [r.cache for r in replies] == [protocol.CACHE_HIT] * n
    assert all(r.record == replies[0].record for r in replies)
    return tally(rows)


def uncached_canonical(self):
    """Mutant: ``canonical()`` as it was before it was kept, encoding
    a fresh ``to_dict()`` on every call."""
    return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def dumping_canonical(self):
    """Mutant: the spec's dict is kept, its JSON made again per call."""
    if "_kept_dict" not in vars(self):
        vars(self)["_kept_dict"] = self._field_dict()
    kept = vars(self)["_kept_dict"]
    return json.dumps(kept, sort_keys=True, separators=(",", ":"))


def previous_submit(self, spec, *, wait=True, deadline_ms=None, chaos=None):
    """Mutant: the client's submit before a spec was spliced, which
    sent a fresh ``to_dict()`` on every call."""
    spec = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
    msg = {"op": protocol.OP_SUBMIT, "spec": spec, "wait": wait}
    return SubmitReply.from_reply(self._request(msg))


#: mutant name -> the (owner, name, value) patches that make it
CLIENT_MUTANTS = {
    "previous_client": [(ServeClient, "submit", previous_submit)],
    "uncached_canonical": [(JobSpec, "canonical", uncached_canonical)],
    "dumping_canonical": [(JobSpec, "canonical", dumping_canonical)],
    "previous_path": [(JobService, "_handle_conn", previous_handle_conn)],
}


def from_run_encodes() -> int:
    """JSON encodes of a fresh spec inside ``RunRecord.from_run``."""
    spec = JobSpec(app="hello", nvp=2, method="none")
    job = build_job(spec)
    result = job.run()
    with counting((json, "dumps"),
                  only=lambda obj, *args: is_spec_dict(obj)) as calls:
        record = RunRecord.from_run(spec, job, result)
    fresh = JobSpec.from_dict(spec.to_dict())
    assert record.run_id == run_id_for(fresh, record.code_version)
    assert record.spec_digest == fresh.digest()
    return len(calls)


class TestSpecEncodedOnce:
    def test_repeated_submits_encode_the_spec_once(self, tmp_path,
                                                   inline_pool):
        assert client_ledger(tmp_path, 100) == SUBMIT_ONCE

    @pytest.mark.parametrize("mutant, rows", [
        ("previous_client", ("to_dict", "spec_json")),
        ("uncached_canonical", ("to_dict", "spec_json")),
        ("dumping_canonical", ("spec_json",)),
        ("previous_path", ("submit",)),
    ])
    def test_the_guard_catches(self, mutant, rows, tmp_path, inline_pool,
                               monkeypatch):
        for owner, name, value in CLIENT_MUTANTS[mutant]:
            monkeypatch.setattr(owner, name, value)
        got = client_ledger(tmp_path, 20)
        assert [row for row in SUBMIT_ONCE
                if got[row] != SUBMIT_ONCE[row]] == list(rows)

    def test_a_filed_run_encodes_its_spec_once(self):
        assert from_run_encodes() == 1

    def test_the_filing_guard_catches_an_uncached_canonical(self,
                                                            monkeypatch):
        monkeypatch.setattr(JobSpec, "canonical", uncached_canonical)
        assert from_run_encodes() == 2


# -- request lines -----------------------------------------------------------


class RecordingSocket:
    """What a client sends; each request is answered with a failure
    line per spec (and a ``submit_many`` stream's terminator)."""

    def __init__(self):
        self.sent = bytearray()
        self._reply = b""

    def sendall(self, data):
        self.sent += data
        msg = protocol.decode(data)
        n = len(msg.get("specs", ()))
        lines = [protocol.error_reply("canned", index=i) for i in range(n)]
        if msg["op"] == protocol.OP_SUBMIT_MANY:
            lines.append({"op": protocol.OP_SUBMIT_MANY_DONE, "n": n})
        self._reply = b"".join(map(protocol.encode,
                                   lines or [protocol.error_reply("x")]))

    def recv(self, size):
        reply, self._reply = self._reply, b""
        return reply

    def close(self):
        pass


def previous_line(msg) -> bytes:
    """The request line with every ``JobSpec`` sent as its ``to_dict()``,
    encoded whole, as the client did before specs were spliced."""
    def plain(spec):
        return spec.to_dict() if isinstance(spec, JobSpec) else spec
    msg = dict(msg)
    if "spec" in msg:
        msg["spec"] = plain(msg["spec"])
    if "specs" in msg:
        msg["specs"] = [plain(s) for s in msg["specs"]]
    return (json.dumps(msg, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


@st.composite
def specs(draw):
    return JobSpec(
        app=draw(STRING), nvp=draw(st.integers(1, 2**40)),
        method=draw(STRING), argv=tuple(draw(st.lists(STRING, max_size=3))),
        app_config=draw(st.dictionaries(STRING, VALUE, max_size=4)),
        fault_plan=draw(st.one_of(st.none(), st.dictionaries(
            STRING, VALUE, max_size=3))),
        ft_interval_ns=draw(st.one_of(st.none(), st.integers(0, 2**62))))


def sends_the_previous_lines(batch, deadline_ms, chaos) -> bool:
    """Every request ``ServeClient`` makes of ``batch`` (each spec as a
    ``JobSpec`` and as its dict, twice, with and without the optional
    keys and ``wait``, and as one ``submit_many``) is the line the
    client sent before specs were spliced."""
    client = ServeClient(socket_path="unused.sock")
    sock = client._conn().sock = RecordingSocket()
    want = []
    extras = [{}, {"deadline_ms": deadline_ms, "chaos": chaos},
              {"deadline_ms": deadline_ms}, {"chaos": chaos, "wait": False}]
    for spec in batch:
        for sent in (spec, spec.to_dict(), spec):
            for extra in extras:
                client.submit(sent, **extra)
                want.append(previous_line({
                    "op": protocol.OP_SUBMIT, "spec": sent, "wait": True,
                    **{k: v for k, v in extra.items() if v is not None}}))
    mixed = [s.to_dict() if i % 2 else s for i, s in enumerate(batch)]
    for sent in (batch, mixed):
        client.submit_many(sent, deadline_ms=deadline_ms)
        want.append(previous_line({
            "op": protocol.OP_SUBMIT_MANY, "specs": sent, "wait": True,
            **({} if deadline_ms is None else {"deadline_ms": deadline_ms})}))
    return bytes(sock.sent) == b"".join(want)


LINE_ARGS = (st.lists(specs(), min_size=1, max_size=3),
             st.one_of(st.none(), FLOAT, st.integers(0, 10**6)),
             st.one_of(st.none(), st.dictionaries(STRING, VALUE,
                                                  max_size=2)))


def unescaped_canonical(self):
    """Mutant: the spliced spec is encoded with ``ensure_ascii=False``."""
    return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


class TestRequestLines:
    @settings(max_examples=40, deadline=None)
    @given(*LINE_ARGS)
    def test_every_request_line_is_the_previous_clients(
            self, batch, deadline_ms, chaos):
        assert sends_the_previous_lines(batch, deadline_ms, chaos)

    def test_the_line_check_catches_an_unescaped_splice(self, monkeypatch):
        monkeypatch.setattr(JobSpec, "canonical", unescaped_canonical)
        caught = find(st.tuples(*LINE_ARGS),
                      lambda args: not sends_the_previous_lines(*args),
                      settings=MUTANT_SETTINGS)
        assert not all(s.canonical().isascii() for s in caught[0])
