"""The append-only, content-addressed run store.

On-disk layout (everything under one root, default ``.repro/store`` or
``$REPRO_PROVENANCE``)::

    <root>/records/<id[:2]>/<id>.json         # RunRecord (plain JSON)
    <root>/records/<id[:2]>/<id>.timeline.zz  # zlib'd canonical event stream

Records are keyed by ``run_id`` (spec digest + code version, see
:mod:`repro.provenance.record`).  Writes are atomic (tmp file + rename)
and never overwrite: putting a record whose id already exists is a
*cache hit* — the store reports it and leaves the original untouched,
which keeps ``created_at`` honest and makes the store safe to share
between concurrent runs.

Concurrency contract: any number of processes may ``put``, ``get`` and
``gc`` the same root simultaneously (the ``repro serve`` worker pool
does exactly that).  Every cross-process race therefore degrades, never
raises: ``gc`` skips records that vanish or are half-written between
its listing and its read (counted in :attr:`GcReport.skipped`),
``delete`` tolerates a concurrent delete of the same record, and
crash-leftover ``*.tmp<pid>`` files are swept by ``gc`` once their
writing process is gone.

Usage recency: a cache-hit ``put`` or a ``get`` records a *last used*
touch in a zero-byte ``<id>.touch`` sidecar (its mtime is the
timestamp), and age/size eviction orders by ``max(created_at,
last_used)`` — so a record that is hit a thousand times a day never
ages out, while ``created_at`` in the record JSON stays the honest
creation time for provenance.

Execution leases: ``<id>.lease`` sidecars give several *servers*
mounting one root a crash-safe cross-server single-flight protocol —
see :meth:`ProvenanceStore.acquire_lease` and :class:`RunLease`.  A
lease is an atomically created file whose mtime is the owner's
heartbeat; an expired heartbeat (or a provably dead same-host owner
pid) means the owner crashed mid-execution and the next acquirer takes
over and re-executes.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import ReproError
from repro.provenance.record import RunRecord
from repro.trace.stream import compress_timeline, decompress_timeline

#: age (seconds) past which a tmp file whose pid cannot be parsed or
#: liveness-checked is considered a crash leftover
TMP_GRACE_S = 3600.0

#: default execution-lease time-to-live: a lease whose heartbeat
#: (mtime) is older than this is considered abandoned and may be
#: taken over by another server
LEASE_TTL_S = 30.0

#: process-local uniquifier so two leases acquired by one process are
#: still distinguishable tokens
_lease_seq = itertools.count()

#: default store location relative to the working directory
DEFAULT_STORE_DIR = ".repro/store"

#: environment variable overriding the default store location
STORE_ENV = "REPRO_PROVENANCE"


def default_store_dir() -> str:
    return os.environ.get(STORE_ENV) or DEFAULT_STORE_DIR


class ProvenanceStore:
    """Append-only content-addressed store of :class:`RunRecord`."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else Path(default_store_dir())

    @property
    def records_dir(self) -> Path:
        return self.root / "records"

    # -- paths --------------------------------------------------------------

    def _record_path(self, run_id: str) -> Path:
        return self.records_dir / run_id[:2] / f"{run_id}.json"

    def _timeline_path(self, run_id: str) -> Path:
        return self.records_dir / run_id[:2] / f"{run_id}.timeline.zz"

    def _touch_path(self, run_id: str) -> Path:
        return self.records_dir / run_id[:2] / f"{run_id}.touch"

    def _lease_path(self, run_id: str) -> Path:
        return self.records_dir / run_id[:2] / f"{run_id}.lease"

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    # -- writing ------------------------------------------------------------

    def put(self, record: RunRecord,
            timeline: Iterable[tuple[int, int, int]] | None = None,
            *, compressed_timeline: bytes | None = None,
            ) -> tuple[str, bool]:
        """Store a record (and optionally its event stream).

        Returns ``(run_id, cache_hit)``; a cache hit means a record with
        this id (same spec, same code version) already exists and
        nothing was written — the hit refreshes the record's last-used
        time instead.  ``compressed_timeline`` accepts an already
        zlib-compressed stream (the serve workers compress in-process
        before shipping results over the queue).  ``timeline`` is not
        re-encoded while it is the list ``record`` was taken from.
        """
        path = self._record_path(record.run_id)
        source = record._take_encoding(timeline)
        if path.exists():
            self.touch(record.run_id)
            return record.run_id, True
        if compressed_timeline is None and source is not None:
            compressed_timeline = compress_timeline(source)
        if compressed_timeline is not None:
            self._atomic_write(self._timeline_path(record.run_id),
                               compressed_timeline)
        self._atomic_write(
            path,
            (json.dumps(record.to_dict(), sort_keys=True, indent=1)
             + "\n").encode(),
        )
        return record.run_id, False

    # -- usage recency ------------------------------------------------------

    def touch(self, run_id: str) -> None:
        """Record that ``run_id`` was just used (cache hit / retrieval).

        Best-effort: a concurrent ``gc`` may have deleted the record (or
        its whole shard directory) between our caller's check and now —
        losing one touch is harmless, so never raise.
        """
        try:
            self._touch_path(run_id).touch()
        except OSError:
            pass

    def last_used(self, run_id: str) -> float | None:
        """Epoch seconds of the most recent touch, or None if never
        touched since creation."""
        try:
            return self._touch_path(run_id).stat().st_mtime  # repro: allow(det-wallclock) host mtimes drive cache eviction recency only
        except OSError:
            return None

    # -- execution leases ---------------------------------------------------
    #
    # Cross-*server* single-flight: several servers mounting one store
    # root coalesce identical in-flight submissions through an atomic
    # ``<run_id>.lease`` file.  The owner heartbeats by refreshing the
    # file's mtime; a lease whose heartbeat is stale (owner crashed,
    # was SIGKILLed, or lost power) is taken over by the next acquirer,
    # which re-executes the job — no execution is ever duplicated while
    # its owner is alive, and no job is lost when its owner dies.

    def acquire_lease(self, run_id: str, *, ttl_s: float = LEASE_TTL_S,
                      now: float | None = None) -> "RunLease | None":
        """Try to claim the exclusive right to execute ``run_id``.

        Returns a :class:`RunLease` on success (``lease.takeover`` is
        True when a stale lease from a dead owner was broken), or None
        while another live owner holds the claim.  Acquisition is
        atomic (``O_CREAT | O_EXCL``); takeover is unlink-then-create,
        so of two simultaneous takers exactly one wins.
        """
        now = time.time() if now is None else now  # repro: allow(det-wallclock) lease heartbeats are host mtimes by design
        path = self._lease_path(run_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        token = f"{socket.gethostname()}:{os.getpid()}:{next(_lease_seq)}"
        payload = json.dumps({"host": socket.gethostname(),
                              "pid": os.getpid(), "token": token,
                              "acquired_at": now}).encode()
        for attempt in (0, 1):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                             0o644)
            except FileExistsError:
                if attempt or not self._lease_is_stale(path, ttl_s, now):
                    return None
                # Stale: break it and race the O_EXCL create once.
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "wb") as f:
                f.write(payload)
            return RunLease(self, run_id, token, ttl_s=ttl_s,
                            takeover=bool(attempt))
        return None

    def _lease_is_stale(self, path: Path, ttl_s: float,
                        now: float) -> bool:
        """Dead-owner detection: heartbeat older than the TTL, or a
        same-host owner pid that provably no longer exists."""
        try:
            mtime = path.stat().st_mtime  # repro: allow(det-wallclock) lease heartbeats are host-side liveness, not simulation state
        except OSError:
            return False        # vanished: owner released it
        if now - mtime > ttl_s:
            return True
        holder = self.lease_holder(path.name[:-len(".lease")])
        if (holder and holder.get("host") == socket.gethostname()
                and isinstance(holder.get("pid"), int)):
            try:
                os.kill(holder["pid"], 0)
            except ProcessLookupError:
                return True     # owner died without releasing
            except (PermissionError, OSError):
                pass
        return False

    def lease_holder(self, run_id: str) -> dict | None:
        """The current lease payload for ``run_id``, or None (no lease,
        or a half-written one — judged only by its heartbeat then)."""
        try:
            data = json.loads(self._lease_path(run_id).read_bytes())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return data if isinstance(data, dict) else None

    # -- reading ------------------------------------------------------------

    def ids(self) -> list[str]:
        """All record ids, sorted.  In-flight/stale ``*.tmp<pid>`` files
        and ``*.touch`` sidecars are never listed."""
        if not self.records_dir.is_dir():
            return []
        return sorted(p.stem for p in self.records_dir.glob("*/*.json")
                      if ".tmp" not in p.name)

    def resolve(self, id_or_prefix: str) -> str:
        """Resolve a (possibly abbreviated) record id."""
        if len(id_or_prefix) >= 4:
            exact = self._record_path(id_or_prefix)
            if exact.exists():
                return id_or_prefix
        matches = [i for i in self.ids() if i.startswith(id_or_prefix)]
        if not matches:
            raise ReproError(
                f"no record matching {id_or_prefix!r} in {self.root}")
        if len(matches) > 1:
            raise ReproError(
                f"ambiguous id {id_or_prefix!r}: "
                f"{', '.join(m[:12] for m in matches[:5])}...")
        return matches[0]

    def get(self, id_or_prefix: str, *, touch: bool = True) -> RunRecord:
        """Retrieve one record.  Retrieval counts as *use* (it refreshes
        the record's eviction age) unless ``touch=False`` — bulk listing
        (:meth:`records`) does not mark every record used."""
        run_id = self.resolve(id_or_prefix)
        data = json.loads(self._record_path(run_id).read_text())
        if touch:
            self.touch(run_id)
        return RunRecord.from_dict(data)

    def load_timeline(self, record: RunRecord
                      ) -> list[tuple[int, int, int]] | None:
        """The stored event stream, or None when it was not recorded."""
        path = self._timeline_path(record.run_id)
        if not path.exists():
            return None
        return decompress_timeline(path.read_bytes())

    def records(self) -> list[RunRecord]:
        return [self.get(i, touch=False) for i in self.ids()]

    def size_bytes(self) -> int:
        if not self.records_dir.is_dir():
            return 0
        return sum(p.stat().st_size
                   for p in self.records_dir.glob("*/*") if p.is_file())

    def __len__(self) -> int:
        return len(self.ids())

    def __contains__(self, run_id: str) -> bool:
        return self._record_path(run_id).exists()

    # -- garbage collection -------------------------------------------------

    def delete(self, run_id: str) -> int:
        """Remove one record + its sidecars; returns bytes freed.

        Safe against a concurrent delete of the same record: a path that
        vanishes between the stat and the unlink simply counts as
        already freed by the other process.
        """
        freed = 0
        for path in (self._record_path(run_id),
                     self._timeline_path(run_id),
                     self._touch_path(run_id),
                     self._lease_path(run_id)):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            freed += size
        return freed

    # -- stale tmp files ----------------------------------------------------

    @staticmethod
    def _tmp_is_stale(path: Path, now: float) -> bool:
        """A ``*.tmp<pid>`` file is stale once its writer is provably
        gone (the pid no longer exists) or, when the pid cannot be
        judged (unparseable, recycled, or another user's), once it is
        older than :data:`TMP_GRACE_S` — an in-flight atomic write lives
        milliseconds, not hours."""
        _, _, pid_s = path.name.rpartition(".tmp")
        try:
            pid = int(pid_s)
        except ValueError:
            pid = None
        if pid is not None:
            if pid == os.getpid():
                return False            # our own in-flight write
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True             # writer died mid-replace
            except PermissionError:
                pass                    # alive, other user
        try:
            return now - path.stat().st_mtime > TMP_GRACE_S  # repro: allow(det-wallclock) host mtimes drive cache eviction recency only
        except OSError:
            return False                # vanished: writer completed

    def sweep_tmp(self, *, now: float | None = None,
                  dry_run: bool = False) -> tuple[int, int]:
        """Delete crash-leftover tmp files; returns (count, bytes)."""
        if not self.records_dir.is_dir():
            return 0, 0
        now = time.time() if now is None else now  # repro: allow(det-wallclock) host mtimes drive cache eviction recency only
        swept = nbytes = 0
        for path in self.records_dir.glob("*/*.tmp*"):
            if not self._tmp_is_stale(path, now):
                continue
            try:
                size = path.stat().st_size
                if not dry_run:
                    path.unlink()
            except OSError:
                continue
            swept += 1
            nbytes += size
        return swept, nbytes

    def gc(self, *, keep: frozenset[str] | set[str] = frozenset(),
           max_age_s: float | None = None,
           max_bytes: int | None = None,
           now: float | None = None,
           dry_run: bool = False) -> "GcReport":
        """Collect garbage under an age and/or size budget.

        ``keep`` holds *spec digests* that must survive regardless of
        budget (the pinned corpus).  Eviction order is least-recently
        *used* first — ``max(created_at, last_used)`` — so cache hits
        keep a record young without touching ``created_at``.

        Safe to run while other processes put/get/gc the same store: a
        record that vanishes or is half-visible between the listing and
        its read is skipped (and counted), never a crash.  Stale tmp
        files from crashed writers are swept as a side effect.
        """
        now = time.time() if now is None else now  # repro: allow(det-wallclock) host mtimes drive cache eviction recency only
        entries = []   # (last_used, run_id, spec_digest, bytes)
        skipped = 0
        for run_id in self.ids():
            rec_path = self._record_path(run_id)
            tl_path = self._timeline_path(run_id)
            try:
                data = json.loads(rec_path.read_text())
                nbytes = rec_path.stat().st_size
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                # Deleted by a concurrent gc, or listed mid-write by a
                # non-atomic producer: not ours to judge this cycle.
                skipped += 1
                continue
            try:
                nbytes += tl_path.stat().st_size
            except OSError:
                pass
            created = data.get("created_at", 0.0)
            touched = self.last_used(run_id)
            last = created if touched is None else max(created, touched)
            entries.append((last, run_id, data.get("spec_digest", ""),
                            nbytes))
        entries.sort()

        doomed: list[str] = []
        protected = 0
        if max_age_s is not None:
            for last, run_id, digest, _ in entries:
                if now - last > max_age_s:
                    if digest in keep:
                        protected += 1
                    else:
                        doomed.append(run_id)
        if max_bytes is not None:
            doomed_set = set(doomed)
            total = sum(nb for _, run_id, _, nb in entries
                        if run_id not in doomed_set)
            for last, run_id, digest, nb in entries:
                if total <= max_bytes:
                    break
                if run_id in doomed_set:
                    continue
                if digest in keep:
                    protected += 1
                    continue
                doomed.append(run_id)
                doomed_set.add(run_id)
                total -= nb
        freed = 0
        if not dry_run:
            for run_id in doomed:
                freed += self.delete(run_id)
        swept_tmp, tmp_bytes = self.sweep_tmp(now=now, dry_run=dry_run)
        return GcReport(scanned=len(entries), deleted=len(doomed),
                        protected=protected,
                        freed_bytes=freed + (0 if dry_run else tmp_bytes),
                        remaining=len(entries) - len(doomed),
                        deleted_ids=tuple(doomed), dry_run=dry_run,
                        skipped=skipped, swept_tmp=swept_tmp)


class RunLease:
    """An exclusive, crash-expiring claim on one run_id's execution.

    Held by the server that is executing the job.  :meth:`renew`
    refreshes the heartbeat (the lease file's mtime) and must be called
    at least every ``ttl_s`` seconds while the execution runs;
    :meth:`release` drops the claim when the result has been filed.
    Both verify the on-disk token first, so a lease that was broken by
    a takeover (we were presumed dead) is never renewed or released on
    the usurper's behalf.
    """

    def __init__(self, store: ProvenanceStore, run_id: str, token: str,
                 *, ttl_s: float = LEASE_TTL_S, takeover: bool = False):
        self.store = store
        self.run_id = run_id
        self.token = token
        self.ttl_s = ttl_s
        #: True when acquisition broke a dead owner's stale lease
        self.takeover = takeover

    def _owned(self) -> bool:
        holder = self.store.lease_holder(self.run_id)
        return bool(holder) and holder.get("token") == self.token

    def renew(self) -> bool:
        """Refresh the heartbeat; False if the lease was lost."""
        if not self._owned():
            return False
        try:
            os.utime(self.store._lease_path(self.run_id))
            return True
        except OSError:
            return False

    def release(self) -> None:
        """Drop the claim (no-op if a takeover already broke it)."""
        if not self._owned():
            return
        try:
            self.store._lease_path(self.run_id).unlink()
        except OSError:
            pass

    def __enter__(self) -> "RunLease":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


@dataclass(frozen=True)
class GcReport:
    scanned: int
    deleted: int
    protected: int         #: records spared only because they are pinned
    freed_bytes: int
    remaining: int
    deleted_ids: tuple[str, ...]
    dry_run: bool = False
    #: records that vanished / were unreadable mid-scan (concurrent
    #: writer or gc) — skipped this cycle, not an error
    skipped: int = 0
    #: crash-leftover ``*.tmp<pid>`` files swept
    swept_tmp: int = 0

    def to_dict(self) -> dict:
        return {"scanned": self.scanned, "deleted": self.deleted,
                "protected": self.protected,
                "freed_bytes": self.freed_bytes,
                "remaining": self.remaining,
                "deleted_ids": list(self.deleted_ids),
                "dry_run": self.dry_run,
                "skipped": self.skipped,
                "swept_tmp": self.swept_tmp}
