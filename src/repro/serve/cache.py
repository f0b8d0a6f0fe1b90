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
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import ReproError
from repro.harness.jobspec import JobSpec, code_version
from repro.provenance.record import RunRecord, run_id_for
from repro.provenance.store import ProvenanceStore
from repro.serve.protocol import EncodedRecord

#: encoded bytes the hit memo may hold; past it the least recently
#: served records are dropped first
MEMO_BYTES = 16 << 20


def _identity(path: Path) -> tuple[int, int, int] | None:
    """What a replaced or rewritten record file changes; None if gone."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns  # repro: allow(det-wallclock) identifies a record file's version, never simulation state


class ResultCache:
    """Content-addressed record cache over a provenance store."""

    def __init__(self, store: ProvenanceStore):
        self.store = store
        self.code_version = code_version()
        #: run_id -> (record file, its identity, encoded record), least
        #: recently served first; kept while the file's identity holds
        self._memo: dict[str, tuple] = {}
        self._memo_bytes = 0

    def key(self, spec: JobSpec) -> str:
        return run_id_for(spec, self.code_version)

    def get(self, run_id: str) -> EncodedRecord | None:
        """The stored record's ``to_dict()``, or None.  A hit counts as
        *use* (the store refreshes the record's eviction age); a record
        missing, unreadable or corrupt — a concurrent gc deleted it — is
        a miss, not a crash.  Each hit gets its own shallow copy."""
        entry = self._memo.pop(run_id, None)
        if entry is not None:
            self._memo_bytes -= len(entry[2].json)
        path = entry[0] if entry else self.store._record_path(run_id)
        ident = _identity(path)
        if ident is None:
            return None
        if entry is not None and entry[1] == ident:
            self.store.touch(run_id)
            record = entry[2]
        else:
            try:
                record = EncodedRecord(self.store.get(run_id).to_dict())
            except (OSError, ValueError, KeyError, ReproError):
                return None
        self._memo[run_id] = (path, ident, record)
        self._memo_bytes += len(record.json)
        while self._memo_bytes > MEMO_BYTES:
            *_, dropped = self._memo.pop(next(iter(self._memo)))
            self._memo_bytes -= len(dropped.json)
        return record.copy()

    def put(self, record: RunRecord,
            compressed_timeline: bytes | None = None) -> tuple[str, bool]:
        """File an executed result; append-only (a concurrent identical
        execution that won the race leaves the original untouched)."""
        return self.store.put(record,
                              compressed_timeline=compressed_timeline)

    def stats(self) -> dict:
        return {
            "records": len(self.store),
            "store_bytes": self.store.size_bytes(),
            "store_root": str(self.store.root),
            "code_version": self.code_version,
        }
