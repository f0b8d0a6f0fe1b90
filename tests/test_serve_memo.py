"""A repeated submit line is keyed once.

The job service memoises each ``submit`` request line whose reply was a
store hit, by its exact bytes, with its run_id, record file and hit
reply line; a repeat of the line is neither decoded nor parsed,
validated or keyed again.  The previous read and submit path (decode
every line, then parse, validate and key every spec) is kept below as
the reference.  Hypothesis draws sequences of request lines — repeats;
the same spec with another key order, whitespace, ``wait`` or
``deadline_ms``; invalid specs; chaos envelopes; garbage — mixed with a
record deleted or filed again, a run_id poisoned or in flight, and
draining switched on.  Every reply line and the final ``stats`` op must
be the reference's.
"""

import asyncio
import json
import os
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from repro.errors import ReproError
from repro.harness.jobspec import JobSpec
from repro.provenance import ProvenanceStore
from repro.provenance import record as record_mod
from repro.serve import JobService, ServeClient, ServiceThread, protocol
from repro.serve import server as server_mod

from counted import counting
from test_serve_hits import _record, exchange, run

# -- the previous read and submit path ---------------------------------------


class ReferenceService(JobService):
    """:class:`JobService` with the previous read and submit path."""

    async def _handle_conn(self, reader, writer):
        try:
            while True:
                try:
                    msg = await reference_read_message(reader)
                except protocol.ProtocolError as e:
                    await protocol.write_message(
                        writer, protocol.error_reply(str(e)))
                    break
                if msg is None:
                    break
                if msg.get("op") == protocol.OP_SUBMIT_MANY:
                    await self._submit_many(msg, writer)
                    continue
                reply = await self._dispatch(msg)
                await protocol.write_message(writer, reply)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def submit(self, spec_dict, wait=True, deadline_ms=None,
                     chaos=None, *, line=None):
        self.stats.submissions += 1
        if self._draining:
            self.stats.shed += 1
            return protocol.shed_reply(
                protocol.REASON_DRAINING,
                "service is draining; not accepting new submissions")
        if not isinstance(spec_dict, dict):
            self.stats.invalid += 1
            return protocol.error_reply("submit needs a spec object")
        if chaos is not None and not self.enable_chaos:
            self.stats.invalid += 1
            return protocol.error_reply(
                "chaos envelope rejected: server started without "
                "chaos hooks")
        try:
            spec = JobSpec.from_dict(dict(spec_dict))
            spec.validate()
        except (ReproError, TypeError, ValueError) as e:
            self.stats.invalid += 1
            return protocol.error_reply(f"bad spec: {e}")
        run_id = self.cache.key(spec)
        poison = self._poison.get(run_id)
        if poison is not None:
            return dict(poison)
        reply = self._stored_reply(run_id)
        if reply is not None:
            return reply
        fut = self._inflight.get(run_id)
        if fut is not None:
            self.stats.coalesced += 1
            cache = protocol.CACHE_COALESCED
        else:
            depth = len(self._inflight)
            if self.max_queue is not None and depth >= self.max_queue:
                self.stats.shed += 1
                return protocol.shed_reply(
                    protocol.REASON_BUSY,
                    f"queue full ({depth} in flight >= "
                    f"watermark {self.max_queue})",
                    queue_depth=depth)
            fut = self._launch(run_id, spec, chaos)
            cache = protocol.CACHE_MISS
        if not wait:
            return {"ok": True, "run_id": run_id,
                    "cache": protocol.CACHE_INFLIGHT}
        return await self._await_reply(fut, run_id, cache, deadline_ms)


async def reference_read_message(reader):
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise protocol.ProtocolError(
            f"message exceeds {protocol.MAX_LINE} bytes") from None
    if not line:
        return None
    return protocol.decode(line)


#: the spec pool: the first two are filed before a sequence starts
RECORDS = [_record(f"memo-{i}") for i in range(3)]
FILED = 2

#: specs that are never keyed
INVALID = [
    {"app": "no-such-app", "nvp": 2},
    {"app": "hello", "nvp": 2, "bogus_field": 1},
    {**RECORDS[0].spec.to_dict(), "nvp": 2.0},
    {**RECORDS[1].spec.to_dict(), "optimize": "2"},
    ["not", "a", "spec"],
]


def service_on(root, cls=JobService, **kw) -> JobService:
    """A never-started service on ``root`` with no queue slots: a miss
    coalesces or is shed, so nothing needs a pool."""
    store = ProvenanceStore(Path(root) / "store")
    for record in RECORDS[:FILED]:
        store.put(record)
    return cls(store, socket_path=Path(root) / "s.sock", max_queue=0, **kw)


# -- generated request lines -------------------------------------------------


#: the values a request's ``wait`` and ``deadline_ms`` are drawn from
#: ("absent": the key is left out)
OPTIONS = {"wait": ["absent", True, False],
           "deadline_ms": ["absent", None, 5000, 0.5]}


@st.composite
def requests(draw):
    """One ``submit`` request for a pooled or invalid spec."""
    if draw(st.integers(0, 5)):
        spec = RECORDS[draw(st.integers(0, len(RECORDS) - 1))].spec.to_dict()
    else:
        spec = draw(st.sampled_from(INVALID))
    msg = {"op": protocol.OP_SUBMIT, "spec": spec}
    if not draw(st.integers(0, 7)):
        msg["chaos"] = {"kind": "none"}
    for key, values in OPTIONS.items():
        value = draw(st.sampled_from(values))
        if value != "absent":
            msg[key] = value
    return msg


@st.composite
def encodings(draw, msg):
    """``msg`` as a line, with a drawn key order and separators."""
    spec = msg["spec"]
    if isinstance(spec, dict):
        msg = {**msg, "spec": dict(draw(st.permutations(list(spec.items()))))}
    seps = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    items = draw(st.permutations(list(msg.items())))
    return (json.dumps(dict(items), separators=seps) + "\n").encode()


@st.composite
def variant(draw, msg):
    """``msg`` re-encoded, or with another ``wait`` (one the reply can
    tell apart) or another ``deadline_ms``."""
    key = draw(st.sampled_from([None, *OPTIONS]))
    if key is None:
        return msg
    value = "absent" if key not in msg else msg[key]
    if key == "wait":
        values = ["absent", True] if value is False else [False]
    else:
        values = [v for v in OPTIONS[key] if v != value]
    msg = {k: v for k, v in msg.items() if k != key}
    new = draw(st.sampled_from(values))
    return msg if new == "absent" else {**msg, key: new}


@st.composite
def line_pools(draw):
    """A few requests, each as two lines: itself and a variant."""
    pool = []
    for msg in draw(st.lists(requests(), min_size=1, max_size=3)):
        pool += [draw(encodings(msg)), draw(encodings(draw(variant(msg))))]
    return pool


def op_line(**msg) -> bytes:
    return protocol.encode(msg)


DRAIN = op_line(op=protocol.OP_DRAIN)

OTHER_LINES = [op_line(op=protocol.OP_PING),
               op_line(op=protocol.OP_STATUS, run_id=RECORDS[0].run_id),
               op_line(op=protocol.OP_SUBMIT_MANY,
                       specs=[r.spec.to_dict() for r in RECORDS[:2]]),
               b"{nope\n", b"[1, 2]\n"]

#: what happens to the service between two lines, by spec index; every
#: spec starts with a resolved execution in flight, which ``settle``
#: removes, so a miss coalesces onto it (``wait`` shows) until then
ACTIONS = ("delete", "put", "poison", "settle")


@st.composite
def sequences(draw):
    """Steps over a small pool of lines, so most lines repeat: a step
    is ``("line", bytes)`` or ``(action, spec index)``.  The steps are
    drawn uniformly (hypothesis would repeat one choice throughout)."""
    pool = draw(line_pools())
    rnd = draw(st.randoms(use_true_random=False))
    steps = []
    for _ in range(draw(st.integers(4, 40))):
        kind = rnd.randrange(40)
        if kind < 24:
            steps.append(("line", rnd.choice(pool)))
        elif kind < 36:
            steps.append((rnd.choice(ACTIONS), rnd.randrange(len(RECORDS))))
        elif kind < 39:
            steps.append(("line", rnd.choice(OTHER_LINES)))
        else:
            steps.append(("line", DRAIN))
    return steps


async def play(service, steps):
    """Each step's reply bytes, then the ``stats`` op's, with its
    host-dependent values dropped."""
    for i, record in enumerate(RECORDS):
        fut = asyncio.get_running_loop().create_future()
        fut.set_result({"ok": True, "run_id": record.run_id,
                        "record": {"in_flight": i}})
        service._inflight[record.run_id] = fut
    out = []
    for kind, arg in steps:
        if kind == "line":
            out.append(await exchange(service, [arg]))
            continue
        record = RECORDS[arg]
        if kind == "delete":
            service.store.delete(record.run_id)
        elif kind == "put":
            service.store.put(record)
        elif kind == "poison":
            service._poison[record.run_id] = {
                **protocol.error_reply("poisoned", run_id=record.run_id,
                                       reason=protocol.REASON_POISON),
                "quarantined": True}
        elif kind == "settle":
            service._inflight.pop(record.run_id, None)
        else:
            STALENESS[kind](service, arg)
    stats = json.loads(await exchange(service, [op_line(op="stats")]))
    for host_dependent in ("uptime_s", "store_root", "endpoint"):
        stats["stats"].pop(host_dependent)
    out.append(stats)
    return out


def _rewrite(service, i):
    """Rewrite a record file in place: same inode, new bytes."""
    path = Path(service.store._record_path(RECORDS[i].run_id))
    mtime = path.stat().st_mtime_ns
    data = json.loads(path.read_text())
    data["makespan_ns"] = 999                  # same length as "100"
    with open(path, "r+") as f:
        f.write(json.dumps(data, sort_keys=True, indent=1) + "\n")
    os.utime(path, ns=(mtime, mtime + 1))


def _reput(service, i):
    """Delete a record and file it again with other bytes."""
    service.store.delete(RECORDS[i].run_id)
    service.store.put(_record(f"memo-{i}", created_at=123456.25))


def _evict(service, i):
    """Drop a record's lines from the hit memo, as its bound would."""
    for line, entry in list(service._memo.items()):
        if entry[0] == RECORDS[i].run_id:
            service._forget(line)


#: what leaves a stored record stale, by spec index (out of the draws)
STALENESS = {
    "gc": lambda service, i: service.store.gc(max_age_s=1.0, now=1e12),
    "reput": _reput,
    "rewrite": _rewrite,
    "corrupt": lambda service, i: Path(service.store._record_path(
        RECORDS[i].run_id)).write_text("{not json"),
    "evict": _evict,
}


def matches_the_reference(steps, cls=JobService, chaos=False) -> bool:
    with tempfile.TemporaryDirectory() as ref_root, \
            tempfile.TemporaryDirectory() as root:
        want = run(play(service_on(ref_root, ReferenceService,
                                   enable_chaos=chaos), steps))
        got = run(play(service_on(root, cls, enable_chaos=chaos), steps))
    return got == want


# -- mutants -----------------------------------------------------------------


def _without_chaos(line):
    try:
        msg = json.loads(line)
    except (TypeError, ValueError):
        return line
    if not isinstance(msg, dict):
        return line
    msg.pop("chaos", None)
    return json.dumps(msg, sort_keys=True)


class ChaosBlindLines(dict):
    """Mutant memo: keyed on the request without its ``chaos``."""

    def get(self, line, default=None):
        return dict.get(self, _without_chaos(line), default)

    def pop(self, line, *default):
        return dict.pop(self, _without_chaos(line), *default)

    def __setitem__(self, line, entry):
        dict.__setitem__(self, _without_chaos(line), entry)


class ChaosBlind(JobService):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._memo = ChaosBlindLines()


class RepeatStaleBlind(JobService):
    """Mutant: a repeat answered from its bytes never notices its
    record file changing or going."""

    def _repeat(self, line):
        entry = self._memo.get(line)
        if entry is not None:
            self._memo[line] = (*entry[:2], server_mod.file_identity(
                entry[1]), *entry[3:])
        return super()._repeat(line)


class DrainBlind(JobService):
    """Mutant: a submit whose record the store holds skips the draining
    check on the full path."""

    def _stored(self, spec_dict):
        try:
            spec = JobSpec.from_dict(dict(spec_dict))
            spec.validate()
        except (ReproError, TypeError, ValueError):
            return False
        return os.path.exists(self.store._record_path(self.cache.key(spec)))

    async def submit(self, spec_dict, *args, **kw):
        if not (self._draining and self._stored(spec_dict)):
            return await super().submit(spec_dict, *args, **kw)
        self._draining = False
        try:
            return await super().submit(spec_dict, *args, **kw)
        finally:
            self._draining = True


class Uncounted(JobService):
    """Mutant: a hit on the full path skips ``stats.submissions`` and
    ``hits``."""

    async def submit(self, *args, **kw):
        reply = await super().submit(*args, **kw)
        if reply.get("cache") == protocol.CACHE_HIT:
            self.stats.submissions -= 1
            self.stats.hits -= 1
        return reply


class RepeatDrainBlind(JobService):
    """Mutant: a repeat answered from its bytes skips the draining
    check."""

    def _repeat(self, line):
        draining, self._draining = self._draining, False
        try:
            return super()._repeat(line)
        finally:
            self._draining = draining


class RepeatPoisonBlind(JobService):
    """Mutant: a repeat answered from its bytes skips the poison
    lookup."""

    def _repeat(self, line):
        poison, self._poison = self._poison, {}
        try:
            return super()._repeat(line)
        finally:
            self._poison = poison


class RepeatUncounted(JobService):
    """Mutant: a repeat answered from its bytes is not counted."""

    def _repeat(self, line):
        reply = super()._repeat(line)
        if reply is not None:
            self.stats.submissions -= 1
            self.stats.hits -= 1
        return reply


MUTANT_SETTINGS = settings(max_examples=1000, derandomize=True,
                           database=None, phases=[Phase.generate],
                           deadline=None)


class TestSubmitLinesAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(sequences(), st.booleans())
    def test_reply_bytes_and_stats_equal_the_previous_path(self, steps,
                                                           chaos):
        assert matches_the_reference(steps, chaos=chaos)

    @pytest.mark.parametrize("mutant", [ChaosBlind, DrainBlind, Uncounted,
                                        RepeatStaleBlind, RepeatDrainBlind,
                                        RepeatPoisonBlind, RepeatUncounted],
                             ids=lambda cls: cls.__name__)
    def test_the_oracle_catches(self, mutant):
        find(sequences(),
             lambda steps: not matches_the_reference(steps, mutant),
             settings=MUTANT_SETTINGS)

    def test_a_chaos_line_is_its_own_entry(self, tmp_path):
        """The case the chaos-blind mutant gets wrong, written out."""
        spec = RECORDS[0].spec.to_dict()
        steps = [("line", op_line(op="submit", spec=spec)),
                 ("line", op_line(op="submit", spec=spec,
                                  chaos={"kind": "none"}))]
        replies = run(play(service_on(tmp_path), steps))
        assert "chaos envelope rejected" in json.loads(replies[-2])["error"]
        assert matches_the_reference(steps)
        assert not matches_the_reference(steps, ChaosBlind)


# -- a repeat meets a stale record -------------------------------------------


#: the first repeat after each event: what its reply carries, and
#: whether the line stays memoised
AFTER = {
    "gc": ({"cache": protocol.CACHE_COALESCED}, False),
    "reput": ({"cache": protocol.CACHE_HIT}, True),
    "rewrite": ({"cache": protocol.CACHE_HIT}, True),
    "corrupt": ({"cache": protocol.CACHE_COALESCED}, False),
    "evict": ({"cache": protocol.CACHE_HIT}, True),
    "delete": ({"cache": protocol.CACHE_COALESCED}, False),
    "poison": ({"reason": protocol.REASON_POISON}, False),
    "drain": ({"reason": protocol.REASON_DRAINING}, False),
}


class TestStalenessThroughLines:
    """``test_serve_hits.TestStaleness``'s cases, draining and a
    poisoned run_id, met by a repeat of a submit line that hit: every
    reply and the stats are the full path's."""

    @pytest.mark.parametrize("event", list(AFTER))
    def test_a_repeat_after(self, event, tmp_path):
        line = submit_line(RECORDS[0])
        steps = [("line", line), ("line", line),
                 ("line", DRAIN) if event == "drain" else (event, 0),
                 ("line", line), ("line", line)]
        assert matches_the_reference(steps)
        service = service_on(tmp_path)
        *_, after, again, stats = run(play(service, steps))
        carries, memoised = AFTER[event]
        reply = json.loads(after)
        assert reply.items() >= carries.items()
        if event == "reput":
            assert reply["record"]["created_at"] == 123456.25
        if event == "rewrite":
            assert reply["record"]["makespan_ns"] == 999
        assert (line in service._memo) is memoised
        assert again == after
        assert stats["stats"]["submissions"] == 4


# -- what enters the memo ----------------------------------------------------


def submit_line(record, **extra):
    return op_line(op=protocol.OP_SUBMIT, spec=record.spec.to_dict(),
                   wait=True, **extra)


class TestWhatIsMemoised:
    def test_only_hit_lines_without_chaos(self, tmp_path):
        service = service_on(tmp_path, enable_chaos=True)
        hit, chaos_hit = submit_line(RECORDS[0]), submit_line(
            RECORDS[1], chaos={"kind": "none"})
        lines = [hit, chaos_hit, submit_line(RECORDS[FILED]),
                 op_line(op="submit", spec=INVALID[0]), hit]
        reply = run(exchange(service, lines)).splitlines(keepends=True)[0]
        assert list(service._memo) == [hit]
        assert service._memo[hit][3] == reply
        assert service._memo_size == len(hit) + len(reply)

    def test_filling_past_the_bound_drops_least_recent_first(
            self, tmp_path, monkeypatch):
        service = service_on(tmp_path)
        service.store.put(RECORDS[FILED])
        lines = [submit_line(r) for r in RECORDS]
        replies = [run(exchange(service, [line])) for line in lines[:2]]
        monkeypatch.setattr(server_mod, "HIT_MEMO_BYTES",
                            sum(map(len, lines[:2] + replies)))
        run(exchange(service, [lines[0], lines[2]]))
        assert list(service._memo) == [lines[0], lines[2]]

    def test_a_deleted_record_is_a_miss_and_leaves_the_memo(self, tmp_path):
        service = service_on(tmp_path)
        line = submit_line(RECORDS[0])
        run(exchange(service, [line]))
        service.store.delete(RECORDS[0].run_id)
        reply = json.loads(run(exchange(service, [line])))
        assert reply["reason"] == protocol.REASON_BUSY
        assert not service._memo and service._memo_size == 0
        assert (service.stats.submissions, service.stats.hits,
                service.stats.misses) == (2, 1, 1)


# -- the structural guard ----------------------------------------------------


#: the per-request work a repeat skips: name -> (seams, aliased)
SUBMIT_WORK = {
    "decode": ([(protocol, "decode")], False),
    "from_dict": ([(JobSpec, "from_dict")], False),
    "validate": ([(JobSpec, "validate")], False),
    "run_id_for": ([(record_mod, "run_id_for")], True),
}


@contextmanager
def submit_work():
    """Calls of each of :data:`SUBMIT_WORK` while open, by name."""
    with ExitStack() as stack:
        yield {name: stack.enter_context(counting(*seams, aliases=aliased))
               for name, (seams, aliased) in SUBMIT_WORK.items()}


def tally(calls):
    return {name: len(seen) for name, seen in calls.items()}


def _pingpong(name: str) -> JobSpec:
    return JobSpec(app="pingpong", nvp=2,
                   app_config={"yields_per_rank": 2, "name": name},
                   method="none", machine="generic-linux",
                   layout=(1, 1, 1), slot_size=1 << 24)


@pytest.mark.usefixtures("inline_pool")
class TestStructuralGuard:
    def test_a_novel_hit_line_is_keyed_once(self, tmp_path):
        service = service_on(tmp_path)
        with submit_work() as calls:
            reply = json.loads(run(exchange(service,
                                            [submit_line(RECORDS[0])])))
        assert reply["cache"] == protocol.CACHE_HIT
        # ``JobSpec.from_dict`` twice: the request's spec, and the stored
        # record's inside ``RunRecord.from_dict`` (the first hit's read)
        assert tally(calls) == {**dict.fromkeys(SUBMIT_WORK, 1),
                                "from_dict": 2}

    def test_repeats_of_a_hit_line_are_not_keyed_again(self, tmp_path):
        service = service_on(tmp_path)
        line = submit_line(RECORDS[0])
        first = run(exchange(service, [line]))
        with submit_work() as calls:
            replies = run(exchange(service, [line] * 100))
        assert tally(calls) == dict.fromkeys(SUBMIT_WORK, 0)
        assert replies == first * 100
        assert (service.stats.submissions, service.stats.hits) == (101, 101)

    def test_cold_misses_memoise_nothing(self, tmp_path):
        service = JobService(ProvenanceStore(tmp_path / "store"),
                             workers=1, socket_path=tmp_path / "s.sock")
        with ServiceThread(service):
            client = ServeClient(socket_path=tmp_path / "s.sock",
                                 timeout=120.0)
            replies = [client.submit(_pingpong(f"cold-{i}"))
                       for i in range(50)]
            client.close()
        assert [r.cache for r in replies] == [protocol.CACHE_MISS] * 50
        assert len(service._memo) == service._memo_size == 0

    def test_the_guard_catches_the_previous_read_path(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(JobService, "_handle_conn",
                            ReferenceService._handle_conn)
        with pytest.raises(AssertionError):
            self.test_repeats_of_a_hit_line_are_not_keyed_again(tmp_path)

    def test_the_guard_catches_keying_again_to_memoise(self, tmp_path,
                                                       monkeypatch):
        remember = JobService._remember

        def rekeying(self, line, run_id, ident, reply):
            spec = JobSpec.from_dict(protocol.decode(line)["spec"])
            spec.validate()
            remember(self, line, self.cache.key(spec), ident, reply)

        monkeypatch.setattr(JobService, "_remember", rekeying)
        with pytest.raises(AssertionError):
            self.test_a_novel_hit_line_is_keyed_once(tmp_path)

    def test_the_guard_catches_memoising_misses(self, tmp_path, monkeypatch):
        submit = JobService.submit

        async def memoising_all(self, *args, line=None, **kw):
            reply = await submit(self, *args, line=line, **kw)
            if line is not None and reply.get("run_id"):
                self._remember(line, reply["run_id"], None,
                               protocol.encode(reply))
            return reply

        monkeypatch.setattr(JobService, "submit", memoising_all)
        with pytest.raises(AssertionError):
            self.test_cold_misses_memoise_nothing(tmp_path)
