"""Tests for the provenance store, records, and the event stream codec."""

import json

import pytest

from repro.errors import ReproError
from repro.harness.jobspec import JobSpec, code_version, run_spec_job
from repro.provenance import (
    ProvenanceStore,
    RunRecord,
    record_run,
    run_id_for,
)
from repro.trace.stream import (
    compress_timeline,
    decode_timeline,
    decompress_timeline,
    encode_timeline,
    timeline_events,
    timeline_sha,
)

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


class TestGc:
    def _put_aged(self, store, spec, created_at):
        rr = record_run(spec, store)
        # Rewrite created_at so age-based GC has something to bite on.
        path = store._record_path(rr.record.run_id)
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
