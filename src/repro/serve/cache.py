"""The content-addressed result cache the job service fronts.

A thin layer over :class:`~repro.provenance.ProvenanceStore`:
the cache *is* the store — ``repro serve`` results are ordinary
provenance records, so everything recorded by ``--provenance`` runs,
chaos campaigns, or another server sharing the root is a potential hit,
and everything the service executes is replayable/diffable with the
normal forensics tools.

Keying: ``run_id = sha256(spec.canonical() + "\\n" + code_version)``
(:func:`repro.provenance.record.run_id_for`) — the same spec under
changed sources is a different entry, so a stale binary can never serve
yesterday's timeline.  The code version is digested once at
construction; restart the service after changing sources.

A record file is its record's canonical JSON line, the form the wire
carries, so a hit reads and parses the file once and splices its text
into the reply without encoding it; an indented file an earlier version
wrote is encoded once instead.  The cache keeps nothing between calls:
the job service's one hit memo (:mod:`repro.serve.server`) keeps a hit's
reply line with the file identity :meth:`ResultCache.get` found.
"""

from __future__ import annotations

import os

from repro.errors import ReproError
from repro.harness.jobspec import JobSpec, code_version
from repro.provenance.record import RunRecord, run_id_for
from repro.provenance.store import ProvenanceStore
from repro.serve import protocol
from repro.serve.protocol import EncodedRecord


def file_identity(path: str) -> tuple[int, int, int] | None:
    """What a replaced or rewritten record file changes; None if gone."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns  # repro: allow(det-wallclock) identifies a record file's version, never simulation state


def hit_reply(run_id: str, record: EncodedRecord) -> dict:
    """The reply that serves ``run_id``'s stored ``record``."""
    return {"ok": True, "run_id": run_id, "cache": protocol.CACHE_HIT,
            "record": record}


class ResultCache:
    """Content-addressed record cache over a provenance store."""

    def __init__(self, store: ProvenanceStore):
        self.store = store
        self.code_version = code_version()

    def key(self, spec: JobSpec) -> str:
        return run_id_for(spec, self.code_version)

    def get(self, run_id: str
            ) -> tuple[EncodedRecord, tuple[int, int, int]] | None:
        """The stored record's ``to_dict()`` and the :func:`file_identity`
        its file had when read, or None.  A hit counts as *use* (the
        store refreshes the record's eviction age); a record missing,
        unreadable or not a record — a concurrent gc deleted it, or it
        holds JSON of another shape — is a miss, not a crash.  Every
        call reads the file, so each hit gets its own record."""
        ident = file_identity(self.store._record_path(run_id))
        if ident is None:
            return None
        try:
            data, text = self.store.read_record(run_id)
            stored = RunRecord.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                ReproError):
            return None
        self.store.touch(run_id)
        record = (EncodedRecord(stored.to_dict()) if text is None
                  else EncodedRecord(data, text))
        return record, ident

    def put(self, run_id: str, record: EncodedRecord,
            compressed_timeline: bytes | None = None) -> tuple[str, bool]:
        """File an executed result as its encoding; append-only (a
        concurrent identical execution that won the race leaves the
        original untouched)."""
        return self.store.put_encoded(run_id, record.json,
                                      compressed_timeline)

    def stats(self) -> dict:
        return {
            "records": len(self.store),
            "store_bytes": self.store.size_bytes(),
            "store_root": str(self.store.root),
            "code_version": self.code_version,
        }
