"""The pinned-scenario regression gate and store garbage collection."""

from pathlib import Path

import pytest

from repro.charm.scheduler import JobScheduler
from repro.errors import ReproError
from repro.harness.jobspec import JobSpec
from repro.provenance import (
    PinEntry,
    ProvenanceStore,
    load_manifest,
    pinned_spec_digests,
    record_run,
    repin,
    save_manifest,
    verify_manifest,
    verify_pin,
)

SPEC = JobSpec(app="jacobi3d", nvp=8,
               app_config={"n": 12, "iters": 4, "reduce_every": 2})


@pytest.fixture
def store(tmp_path):
    return ProvenanceStore(tmp_path / "store")


def _pin(store, name="jacobi-small", spec=SPEC) -> PinEntry:
    return PinEntry.from_record(name, record_run(spec, store).record)


class TestManifest:
    def test_save_load_round_trip(self, tmp_path, store):
        path = tmp_path / "pins.json"
        entry = _pin(store)
        save_manifest(path, {entry.name: entry})
        loaded = load_manifest(path)
        assert set(loaded) == {entry.name}
        got = loaded[entry.name]
        assert got.spec == entry.spec
        assert got.timeline_sha256 == entry.timeline_sha256
        assert got.counters == entry.counters
        assert got.code_version == entry.code_version

    def test_missing_manifest_is_empty(self, tmp_path):
        assert load_manifest(tmp_path / "nope.json") == {}

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "pins.json"
        path.write_text('{"version": 99, "scenarios": {}}')
        with pytest.raises(ReproError, match="version"):
            load_manifest(path)

    def test_unknown_scenario_name_rejected(self, store):
        entry = _pin(store)
        with pytest.raises(ReproError, match="unknown pinned"):
            verify_manifest({entry.name: entry}, ["no-such-scenario"])


class TestVerify:
    def test_unchanged_sources_pass(self, store):
        entry = _pin(store)
        result = verify_pin(entry)
        assert result.ok and result.drift == {}
        assert result.actual_sha256 == entry.timeline_sha256
        assert "ok " in result.format()

    def test_scheduler_perturbation_fails_the_gate(self, store,
                                                   monkeypatch):
        """The gate's whole point: a one-liner that shifts every wakeup
        by 1 ns must turn ``repro pin run`` red."""
        entry = _pin(store)
        orig = JobScheduler.wake

        def perturbed(self, rank, at_time):
            return orig(self, rank, at_time + 1)

        monkeypatch.setattr(JobScheduler, "wake", perturbed)
        result = verify_pin(entry)
        assert not result.ok
        assert "timeline_sha256" in result.drift
        assert result.actual_sha256 != entry.timeline_sha256
        assert result.format().startswith(f"DRIFT {entry.name}: ")

    def test_replay_also_catches_the_perturbation(self, store,
                                                  monkeypatch):
        from repro.provenance import replay_record

        record = record_run(SPEC, store).record
        orig = JobScheduler.wake
        monkeypatch.setattr(
            JobScheduler, "wake",
            lambda self, rank, at_time: orig(self, rank, at_time + 1))
        report = replay_record(record)
        assert not report.ok

    def test_repin_folds_in_fresh_measurements(self, store, monkeypatch):
        entry = _pin(store)
        orig = JobScheduler.wake
        monkeypatch.setattr(
            JobScheduler, "wake",
            lambda self, rank, at_time: orig(self, rank, at_time + 1))
        results = verify_manifest({entry.name: entry})
        assert not results[0].ok
        updated = repin({entry.name: entry}, results)
        # The new expectations match the (perturbed) current behavior.
        assert verify_pin(updated[entry.name]).ok


class TestPinnedGc:
    def test_pinned_records_never_collected(self, store, tmp_path):
        import json

        entry = _pin(store)
        other = record_run(
            JobSpec(app="hello", nvp=2, method="pieglobals"), store).record
        # Age both records far into the past.
        for run_id in store.ids():
            p = Path(store._record_path(run_id))
            d = json.loads(p.read_text())
            d["created_at"] = 0.0
            p.write_text(json.dumps(d))

        keep = pinned_spec_digests({entry.name: entry})
        report = store.gc(keep=keep, max_age_s=1.0, now=1e9)
        assert report.protected == 1
        assert other.run_id not in store            # unpinned: collected
        remaining = store.records()
        assert len(remaining) == 1
        assert remaining[0].spec_digest == entry.spec.digest()

    def test_pinned_survive_byte_budget_too(self, store):
        entry = _pin(store)
        record_run(JobSpec(app="hello", nvp=2, method="pieglobals"), store)
        keep = pinned_spec_digests({entry.name: entry})
        report = store.gc(keep=keep, max_bytes=0)
        assert report.remaining == 1
        assert store.records()[0].spec_digest == entry.spec.digest()
