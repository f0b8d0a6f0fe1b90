"""Tests for the provenance store, records, and the event stream codec."""

import hashlib
import json
import random
import zlib
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from repro.errors import ReproError
from repro.harness.jobspec import JobSpec, build_job, code_version, run_spec_job
from repro.provenance import (
    ProvenanceStore,
    RunRecord,
    record_run,
    run_id_for,
)
from repro.provenance import store as store_mod
from repro.provenance.record import encode_record
from repro.provenance.runner import file_run
from repro.serve.pool import execute_spec
from repro.trace import stream
from repro.trace.stream import (
    compress_timeline,
    decode_timeline,
    decompress_timeline,
    encode_timeline,
    timeline_events,
    timeline_sha,
)

from counted import counting, filing

SPEC = JobSpec(app="hello", nvp=2, method="pieglobals")


@pytest.fixture
def store(tmp_path):
    return ProvenanceStore(tmp_path / "store")


class TestStream:
    TL = [(0, 0, 100), (0, 1, 250), (1, 0, 400)]

    def test_encode_decode_round_trip(self):
        assert decode_timeline(encode_timeline(self.TL)) == self.TL

    def test_compress_round_trip(self):
        assert decompress_timeline(compress_timeline(self.TL)) == self.TL

    def test_sha_is_canonical(self):
        # Digest depends on values, not container types.
        assert timeline_sha(self.TL) == timeline_sha(tuple(
            tuple(e) for e in self.TL))
        assert timeline_sha(self.TL) != timeline_sha(self.TL[:2])

    def test_events_carry_indices(self):
        events = list(timeline_events(self.TL))
        assert [e.index for e in events] == [0, 1, 2]
        assert events[1].pe == 0 and events[1].vp == 1
        assert events[1].start_ns == 250
        assert events[2].to_dict() == {
            "index": 2, "pe": 1, "vp": 0, "start_ns": 400}

    def test_empty_timeline(self):
        assert decode_timeline(encode_timeline([])) == []
        assert len(timeline_sha([])) == 64


# -- the encoding against the previous encoder ------------------------------


def reference_encode_timeline(timeline: Iterable[tuple[int, int, int]]) -> bytes:
    """The canonical byte encoding every timeline digest is taken over."""
    return "\n".join(
        f"{pe},{vp},{start}" for pe, vp, start in timeline
    ).encode()


def reference_timeline_sha(timeline: Iterable[tuple[int, int, int]]) -> str:
    """SHA-256 of the canonical timeline encoding."""
    return hashlib.sha256(reference_encode_timeline(timeline)).hexdigest()


def reference_compress_timeline(timeline: Iterable[tuple[int, int, int]]) -> bytes:
    """Canonical encoding, zlib-compressed at the fastest level (the
    store's on-disk form)."""
    return zlib.compress(reference_encode_timeline(timeline), level=1)


def percent_d_encode_timeline(timeline):
    """The mutant: ``%d`` truncates a float start."""
    flat = tuple(chain.from_iterable(timeline))
    return ("%d,%d,%d\n" * (len(flat) // 3) % flat)[:-1].encode()


VALUE = st.integers(0, 2**62)
START = st.one_of(VALUE, VALUE.map(np.int64),
                  st.floats(0, 2**62, allow_nan=False))
FEW = st.lists(st.tuples(VALUE, VALUE, START), max_size=12)


@st.composite
def timelines(draw):
    """Up to a dozen drawn entries, or thousands from a seeded Random."""
    if not draw(st.booleans()):
        return draw(FEW)
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [(rng.randrange(64), rng.randrange(1 << 16),
             rng.choice((rng.randrange(1 << 62), rng.random() * 1e9)))
            for _ in range(rng.randint(1000, 5000))]


def same_as_reference(encode, timeline):
    data = encode(timeline)
    return (data == reference_encode_timeline(timeline)
            and hashlib.sha256(data).hexdigest()
            == reference_timeline_sha(timeline)
            and zlib.compress(data, level=1)
            == reference_compress_timeline(timeline))


class TestEncodingAgainstReference:
    """The encoder, the digest and the on-disk bytes are the previous
    encoder's, byte for byte, for every value type a start can take."""

    @settings(max_examples=150, deadline=None)
    @given(timelines())
    @example([])
    @example([(0, 0, 0)])
    @example([(3, 2**62, 2.5), (1, 0, np.int64(2**62))])
    def test_same_bytes_digest_and_compression(self, timeline):
        assert same_as_reference(encode_timeline, timeline)
        assert timeline_sha(timeline) == reference_timeline_sha(timeline)
        assert compress_timeline(timeline) == \
            reference_compress_timeline(timeline)
        encoded = encode_timeline(timeline)
        assert timeline_sha(encoded) == timeline_sha(timeline)
        assert compress_timeline(encoded) == compress_timeline(timeline)

    def test_the_oracle_catches_percent_d(self):
        caught = find(
            FEW, lambda tl: not same_as_reference(percent_d_encode_timeline, tl),
            settings=settings(max_examples=300, derandomize=True,
                              database=None, phases=[Phase.generate]))
        assert any(isinstance(start, float) for _, _, start in caught)


class TestRecord:
    def test_from_run_and_round_trip(self, store):
        rr = record_run(SPEC, store)
        rec = rr.record
        assert rec.spec == SPEC
        assert rec.spec_digest == SPEC.digest()
        assert rec.code_version == code_version()
        assert rec.run_id == run_id_for(SPEC, code_version())
        assert rec.events == 3
        back = RunRecord.from_dict(json.loads(
            json.dumps(rec.to_dict())))
        assert back.spec == rec.spec
        assert back.timeline_sha256 == rec.timeline_sha256
        assert back.counters == rec.counters
        assert back.rollbacks == rec.rollbacks
        assert back.exit_values == rec.exit_values

    def test_run_id_binds_code_version(self):
        assert run_id_for(SPEC, "aaa") != run_id_for(SPEC, "bbb")
        assert run_id_for(SPEC, "aaa") == run_id_for(SPEC, "aaa")


class TestStore:
    def test_put_get_round_trip(self, store):
        rr = record_run(SPEC, store)
        got = store.get(rr.record.run_id)
        assert got.spec == SPEC
        assert got.timeline_sha256 == rr.record.timeline_sha256
        assert len(store) == 1
        assert rr.record.run_id in store

    def test_cache_hit_is_append_only(self, store):
        first = record_run(SPEC, store)
        assert not first.cache_hit
        original = store.get(first.record.run_id)
        second = record_run(SPEC, store)
        assert second.cache_hit
        # The original record is untouched (same created_at).
        assert store.get(first.record.run_id).created_at == \
            original.created_at
        assert len(store) == 1

    def test_timeline_round_trip(self, store):
        rr = record_run(SPEC, store)
        tl = store.load_timeline(rr.record)
        assert tl is not None and len(tl) == rr.record.events
        assert timeline_sha(tl) == rr.record.timeline_sha256

    def test_events_opt_out(self, store):
        record = RunRecord.from_run(SPEC, *run_spec_job(SPEC))
        store.put(record, None)
        assert store.load_timeline(record) is None
        assert record._encoding is None
        # ...but the digest is still there for pin/replay verification.
        assert len(store.get(record.run_id).timeline_sha256) == 64

    def test_prefix_resolution(self, store):
        rr = record_run(SPEC, store)
        run_id = rr.record.run_id
        assert store.resolve(run_id[:8]) == run_id
        assert store.get(run_id[:8]).run_id == run_id
        with pytest.raises(ReproError, match="no record matching"):
            store.resolve("ffff" if not run_id.startswith("ffff")
                          else "0000")

    def test_ambiguous_prefix(self, store):
        record_run(SPEC, store)
        record_run(JobSpec(app="hello", nvp=3, method="pieglobals"), store)
        ids = store.ids()
        # One-character prefixes collide only if both ids share it.
        if ids[0][0] == ids[1][0]:
            with pytest.raises(ReproError, match="ambiguous"):
                store.resolve(ids[0][0])
        else:
            assert store.resolve(ids[0][0]) == ids[0]

    def test_empty_store(self, store):
        assert store.ids() == []
        assert store.records() == []
        assert store.size_bytes() == 0
        with pytest.raises(ReproError):
            store.get("deadbeef")


@pytest.fixture
def encodes():
    """Calls of the canonical encoder, under every name a ``repro``
    module holds it by."""
    with counting((stream, "encode_timeline"), aliases=True) as calls:
        yield calls


def finished_job():
    job = build_job(SPEC)
    return job, job.run()


class TestOneEncodingPerRun:
    """A filed run is encoded once; bytes that no longer describe the
    timeline being filed are never filed."""

    def test_file_run(self, store, encodes):
        filed = file_run(SPEC, *finished_job(), store)
        assert len(encodes) == 1
        assert timeline_sha(store.load_timeline(filed.record)) == \
            filed.record.timeline_sha256

    def test_from_run_then_put(self, store, encodes):
        job, result = finished_job()
        record = RunRecord.from_run(SPEC, job, result)
        store.put(record, job.scheduler.timeline)
        assert len(encodes) == 1
        assert record._encoding is None
        assert store.load_timeline(record) == job.scheduler.timeline

    def test_execute_spec(self, encodes):
        out = execute_spec(SPEC.to_dict())
        assert len(encodes) == 1
        assert timeline_sha(decompress_timeline(out["timeline_z"])) == \
            out["record"]["timeline_sha256"]

    def test_appended_timeline_is_encoded_again(self, store, encodes):
        job, result = finished_job()
        record = RunRecord.from_run(SPEC, job, result)
        job.scheduler.timeline.append((0, 0, 10**9))
        store.put(record, job.scheduler.timeline)
        assert len(encodes) == 2
        assert store.load_timeline(record) == job.scheduler.timeline
        assert len(job.scheduler.timeline) == record.events + 1

    def test_other_list_is_encoded_again(self, store, encodes):
        job, result = finished_job()
        record = RunRecord.from_run(SPEC, job, result)
        other = job.scheduler.timeline[:-1]
        store.put(record, other)
        assert len(encodes) == 2
        assert store.load_timeline(record) == other

    def test_put_after_a_cache_hit(self, store):
        first = record_run(SPEC, store).record
        written = Path(store._timeline_path(first.run_id)).read_bytes()
        job, result = finished_job()
        again = RunRecord.from_run(SPEC, job, result)
        assert store.put(again, job.scheduler.timeline) == \
            (again.run_id, True)
        assert store.put(again, job.scheduler.timeline) == \
            (again.run_id, True)
        assert again._encoding is None
        # With the record gone, a put encodes afresh: the same bytes.
        store.delete(again.run_id)
        assert store.put(again, job.scheduler.timeline) == \
            (again.run_id, False)
        assert Path(store._timeline_path(again.run_id)).read_bytes() == written

    def test_carried_bytes_are_not_part_of_the_record(self):
        record = RunRecord.from_run(SPEC, *finished_job())
        back = RunRecord.from_dict(record.to_dict())
        assert record._encoding is not None and back._encoding is None
        assert record == back
        assert repr(record) == repr(back)
        assert record.to_dict() == back.to_dict()
        assert "_encoding" not in repr(record)


# -- the filing ledger --------------------------------------------------------


#: what filing one finished run in-process costs, by row
FILED_RUN = {"timeline": 1, "zlib": 1, "record_json": 1, "pure_python": 0}


def filing_ledger(root) -> dict[str, int]:
    """:data:`FILED_RUN`'s rows, counted over ``file_run`` of a job that
    has finished, into a fresh store."""
    store = ProvenanceStore(root)
    job, result = finished_job()
    with filing() as calls:
        filed = file_run(SPEC, job, result, store)
    assert not filed.cache_hit
    assert store.get(filed.record.run_id) == filed.record
    return {row: len(calls[row]) for row in FILED_RUN}


def best_of_two_levels(timeline):
    """Mutant: the smaller of two compression levels."""
    data = stream._encoded(timeline)
    return min(zlib.compress(data, 1), zlib.compress(data, 6), key=len)


def sized_then_encoded(record):
    """Mutant: the record is encoded to check its size, then again to
    be written."""
    assert len(encode_record(record)) < 1 << 26
    return encode_record(record)


def dropped_encoding(self, timeline):
    """Mutant: the timeline bytes ``from_run`` made are not carried."""
    self._encoding = None
    return timeline


#: mutant name -> the (owner, name, value) patches that make it
FILING_MUTANTS = {
    "indented_file": lambda: [(store_mod, "encode_record", lambda d: (
        json.dumps(d, sort_keys=True, indent=1)))],
    "best_of_two_levels": lambda: [(store_mod, "compress_timeline",
                                    best_of_two_levels)],
    "sized_then_encoded": lambda: [(store_mod, "encode_record",
                                    sized_then_encoded)],
    "dropped_encoding": lambda: [(RunRecord, "_take_encoding",
                                  dropped_encoding)],
}


class TestFilingLedger:
    """A run filed in-process is encoded once: one timeline encode, one
    ``zlib.compress``, one record JSON from the C encoder."""

    def test_a_filed_run(self, tmp_path):
        assert filing_ledger(tmp_path) == FILED_RUN

    def test_the_record_file_is_its_canonical_line(self, store):
        record = record_run(SPEC, store).record
        text = Path(store._record_path(record.run_id)).read_text()
        assert text == json.dumps(record.to_dict(), sort_keys=True,
                                  separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("mutant, rows", [
        ("indented_file", ("pure_python",)),
        ("best_of_two_levels", ("zlib",)),
        ("sized_then_encoded", ("record_json",)),
        ("dropped_encoding", ("timeline",)),
    ])
    def test_the_ledger_catches(self, mutant, rows, tmp_path, monkeypatch):
        for owner, name, value in FILING_MUTANTS[mutant]():
            monkeypatch.setattr(owner, name, value)
        got = filing_ledger(tmp_path)
        assert [row for row in FILED_RUN if got[row] != FILED_RUN[row]] \
            == list(rows)


class TestGc:
    def _put_aged(self, store, spec, created_at):
        rr = record_run(spec, store)
        # Rewrite created_at so age-based GC has something to bite on.
        path = Path(store._record_path(rr.record.run_id))
        data = json.loads(path.read_text())
        data["created_at"] = created_at
        path.write_text(json.dumps(data))
        return rr.record

    def test_max_age_collects_old(self, store):
        old = self._put_aged(store, SPEC, created_at=0.0)
        fresh = record_run(
            JobSpec(app="hello", nvp=3, method="pieglobals"), store).record
        report = store.gc(max_age_s=3600.0, now=10_000.0)
        assert report.deleted == 1 and report.remaining == 1
        assert old.run_id in report.deleted_ids
        assert fresh.run_id in store
        assert old.run_id not in store

    def test_keep_protects_pinned(self, store):
        old = self._put_aged(store, SPEC, created_at=0.0)
        report = store.gc(max_age_s=1.0, now=10_000.0,
                          keep={old.spec_digest})
        assert report.deleted == 0 and report.protected == 1
        assert old.run_id in store

    def test_max_bytes_evicts_oldest_first(self, store):
        oldest = self._put_aged(store, SPEC, created_at=1.0)
        newer = self._put_aged(
            store, JobSpec(app="hello", nvp=3, method="pieglobals"),
            created_at=2.0)
        report = store.gc(max_bytes=store.size_bytes() - 1)
        assert oldest.run_id in report.deleted_ids
        assert newer.run_id in store

    def test_dry_run_deletes_nothing(self, store):
        self._put_aged(store, SPEC, created_at=0.0)
        report = store.gc(max_age_s=1.0, now=10_000.0, dry_run=True)
        assert report.deleted == 1 and report.dry_run
        assert len(store) == 1

    def test_no_budget_is_noop(self, store):
        record_run(SPEC, store)
        report = store.gc()
        assert report.deleted == 0 and report.remaining == 1
