"""A store written in the earlier on-disk format still works.

Earlier versions filed a record as indented JSON (``indent=1``, over
many lines) and its timeline at zlib level 6; the store now files the
record's canonical JSON line and compresses at ``Z_BEST_SPEED``.  The
two records below are written the earlier way, by hand, into the
documented layout, and every reader must take them as before: ``get``,
``load_timeline``, ``repro replay``, ``repro diff``, ``gc``, and a
served hit whose reply bytes are those of a hit on a canonical file.
"""

import asyncio
import json
import os
import zlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.jobspec import JobSpec, run_spec_job
from repro.provenance import ProvenanceStore, RunRecord
from repro.serve import JobService, protocol
from repro.trace.stream import encode_timeline

SPECS = [JobSpec(app="hello", nvp=n, method="pieglobals") for n in (2, 3)]


def file_indented(root, record: RunRecord, timeline) -> None:
    """File ``record`` as earlier versions did: indented JSON, and the
    canonical timeline at zlib level 6."""
    shard = Path(root) / "records" / record.run_id[:2]
    shard.mkdir(parents=True, exist_ok=True)
    (shard / f"{record.run_id}.timeline.zz").write_bytes(
        zlib.compress(encode_timeline(timeline), level=6))
    (shard / f"{record.run_id}.json").write_text(
        json.dumps(record.to_dict(), sort_keys=True, indent=1) + "\n")


@pytest.fixture(scope="module")
def runs():
    """(record, timeline) of each spec, run once."""
    out = []
    for spec in SPECS:
        job, result = run_spec_job(spec)
        out.append((RunRecord.from_run(spec, job, result),
                    list(job.scheduler.timeline)))
    return out


@pytest.fixture
def indented(tmp_path, runs):
    """A store holding both runs in the earlier format."""
    root = tmp_path / "indented"
    for record, timeline in runs:
        file_indented(root, record, timeline)
    return ProvenanceStore(root)


class TestEarlierFormat:
    def test_the_files_are_the_earlier_format(self, indented, runs):
        record, timeline = runs[0]
        text = Path(indented._record_path(record.run_id)).read_text()
        assert text.count("\n") > 1
        assert Path(indented._timeline_path(record.run_id)).read_bytes() \
            != zlib.compress(encode_timeline(timeline), zlib.Z_BEST_SPEED)

    def test_get_and_load_timeline(self, indented, runs):
        for record, timeline in runs:
            assert indented.get(record.run_id) == record
            assert indented.load_timeline(record) == timeline
        assert indented.ids() == sorted(r.run_id for r, _ in runs)

    def test_replay(self, indented, runs, capsys):
        for record, _ in runs:
            assert main(["replay", record.run_id,
                         "--store", str(indented.root)]) == 0
        assert "DRIFT" not in capsys.readouterr().out

    def test_diff(self, indented, runs, capsys):
        a, b = (r.run_id for r, _ in runs)
        assert main(["diff", a, b, "--store", str(indented.root)]) == 1
        assert "diverge at event index" in capsys.readouterr().out
        assert main(["diff", a, a, "--store", str(indented.root)]) == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_gc(self, indented, runs):
        sizes = sum(os.stat(p).st_size for r, _ in runs
                    for p in (indented._record_path(r.run_id),
                              indented._timeline_path(r.run_id)))
        report = indented.gc(max_age_s=1.0, now=1e12)
        assert report.deleted == 2 and report.skipped == 0
        assert report.freed_bytes == sizes
        assert indented.ids() == []

    def test_a_put_beside_them_is_a_cache_hit(self, indented, runs):
        record, timeline = runs[0]
        before = Path(indented._record_path(record.run_id)).read_bytes()
        assert indented.put(record, timeline) == (record.run_id, True)
        assert Path(indented._record_path(record.run_id)).read_bytes() \
            == before


class TestServedHit:
    def test_reply_bytes_equal_a_canonical_files(self, tmp_path, indented,
                                                 runs):
        canonical = ProvenanceStore(tmp_path / "canonical")
        for record, timeline in runs:
            canonical.put(record, timeline)

        def replies(store):
            service = JobService(store, socket_path=tmp_path / "s.sock")

            async def hits():
                return [protocol.encode(await service.submit(
                    record.spec.to_dict()))
                    for record, _ in runs for _ in range(2)]
            lines = asyncio.run(hits())
            assert service.stats.hits == len(lines)
            return lines

        assert replies(indented) == replies(canonical)
