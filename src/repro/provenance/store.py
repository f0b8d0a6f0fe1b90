"""The append-only, content-addressed run store.

On-disk layout (everything under one root, default ``.repro/store`` or
``$REPRO_PROVENANCE``)::

    <root>/records/<id[:2]>/<id>.json         # RunRecord: canonical JSON line
    <root>/records/<id[:2]>/<id>.timeline.zz  # zlib'd canonical event stream

A record file is one line, the record's canonical JSON
(:func:`~repro.provenance.record.encode_record`) and a newline, so a
served hit splices the file's text as it is; a file of an earlier
version (indented JSON over several lines) reads the same way through
:meth:`ProvenanceStore.get`.

Records are keyed by ``run_id`` (spec digest + code version, see
:mod:`repro.provenance.record`).  A file is written once and never
overwritten: it is written to a fresh ``<name>.*.tmp`` beside its path,
held under ``flock`` from creation, and ``os.link``\\ ed into place, so
its path either names nothing or the whole file.  Putting a record
whose id already exists — filed earlier, or by a concurrent put that
linked first — is a *cache hit*: the store reports it and leaves the
original untouched, which keeps ``created_at`` honest and makes the
store safe to share between concurrent runs.

Concurrency contract: any number of processes may ``put``, ``get`` and
``gc`` the same root simultaneously (the ``repro serve`` worker pool
does exactly that).  Every cross-process race therefore degrades, never
raises: ``gc`` skips records that vanish or are half-written between
its listing and its read (counted in :attr:`GcReport.skipped`),
``delete`` tolerates a concurrent delete of the same record, and
``gc`` sweeps every tmp file no writer holds: the kernel drops a
writer's lock when it dies, so an unlocked tmp is a crash leftover,
whatever its name, age or pid namespace.

Usage recency: a cache-hit ``put`` or a ``get`` records a *last used*
touch in a zero-byte ``<id>.touch`` sidecar (its mtime is the
timestamp), and age/size eviction orders by ``max(created_at,
last_used)`` — so a record that is hit a thousand times a day never
ages out, while ``created_at`` in the record JSON stays the honest
creation time for provenance.

Execution leases: ``<id>.lease`` sidecars give several *servers*
mounting one root a crash-safe cross-server single-flight protocol —
see :meth:`ProvenanceStore.acquire_lease` and :class:`RunLease`.  A
lease is an advisory ``flock`` on that file, held for as long as the
owner keeps its descriptor open; the kernel drops it when the owner
dies, so an unlocked lease file means the owner crashed mid-execution
and the next acquirer takes over and re-executes.  Exclusivity is exact
among servers on one host, or on a filesystem that honours ``flock``
across hosts.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.errors import ReproError
from repro.provenance.record import RunRecord, encode_record
from repro.trace.stream import compress_timeline, decompress_timeline

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

    def _record_path(self, run_id: str) -> str:
        return f"{self.root}/records/{run_id[:2]}/{run_id}.json"

    def _timeline_path(self, run_id: str) -> str:
        return f"{self.root}/records/{run_id[:2]}/{run_id}.timeline.zz"

    def _touch_path(self, run_id: str) -> str:
        return f"{self.root}/records/{run_id[:2]}/{run_id}.touch"

    def _lease_path(self, run_id: str) -> Path:
        return self.records_dir / run_id[:2] / f"{run_id}.lease"

    # -- writing ------------------------------------------------------------

    def put(self, record: RunRecord,
            timeline: Iterable[tuple[int, int, int]] | None = None,
            *, compressed_timeline: bytes | None = None,
            ) -> tuple[str, bool]:
        """Store a record (and optionally its event stream).

        Returns ``(run_id, cache_hit)``; a cache hit means a record with
        this id (same spec, same code version) already exists and
        nothing was written — the hit refreshes the record's last-used
        time instead; so is losing a race to a concurrent put of the
        same id, whose record stays as filed.  ``compressed_timeline``
        accepts an already zlib-compressed stream (the serve workers
        compress in-process before shipping results over the pipe).
        ``timeline`` is not re-encoded while it is the list ``record``
        was taken from.  The record is encoded once, on a write.
        """
        path = self._record_path(record.run_id)
        source = record._take_encoding(timeline)
        if os.path.exists(path):
            self.touch(record.run_id)
            return record.run_id, True
        if compressed_timeline is None and source is not None:
            compressed_timeline = compress_timeline(source)
        return self.put_encoded(record.run_id,
                                encode_record(record.to_dict()),
                                compressed_timeline)

    def put_encoded(self, run_id: str, record_json: str,
                    compressed_timeline: bytes | None = None
                    ) -> tuple[str, bool]:
        """:meth:`put` of a record already encoded by
        :func:`~repro.provenance.record.encode_record`: ``repro serve``
        files the bytes its worker made under the run_id it leased.
        The timeline goes first; the record line makes the run visible,
        and a concurrent put that linked it first wins."""
        path = self._record_path(run_id)
        if os.path.exists(path):
            self.touch(run_id)
            return run_id, True
        if compressed_timeline is not None:
            fd = _file_once(self._timeline_path(run_id), compressed_timeline)
            if fd is not None:
                os.close(fd)
        fd = _file_once(path, (record_json + "\n").encode())
        if fd is None:
            self.touch(run_id)
            return run_id, True
        os.close(fd)
        return run_id, False

    # -- usage recency ------------------------------------------------------

    def touch(self, run_id: str) -> None:
        """Record that ``run_id`` was just used (cache hit / retrieval).

        Best-effort: a concurrent ``gc`` may have deleted the record (or
        its whole shard directory) between our caller's check and now —
        losing one touch is harmless, so never raise.
        """
        touch_file(self._touch_path(run_id))

    def last_used(self, run_id: str) -> float | None:
        """Epoch seconds of the most recent touch, or None if never
        touched since creation."""
        try:
            return os.stat(self._touch_path(run_id)).st_mtime  # repro: allow(det-wallclock) host mtimes drive cache eviction recency only
        except OSError:
            return None

    # -- execution leases ---------------------------------------------------
    #
    # Only a lock holder ever unlinks a lease path, so a holder that
    # finds the path naming its locked inode keeps it until it lets go.

    def acquire_lease(self, run_id: str) -> "RunLease | None":
        """Try to claim the exclusive right to execute ``run_id``.

        Returns a :class:`RunLease` on success (``lease.takeover`` is
        True when the lease file was left by an owner that died without
        releasing it), or None while another owner holds the lock.  A
        fresh lease is filed like a record (:func:`_file_once`), locked
        *before* it is linked to the lease path, so the path never names
        an unlocked file while its creator lives.
        """
        path = str(self._lease_path(run_id))
        while True:
            fd = _file_once(path)
            if fd is not None:
                return RunLease(run_id, path, fd)
            try:
                fd = os.open(path, os.O_RDONLY)
            except FileNotFoundError:
                continue        # released meanwhile: race the link again
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BaseException as e:
                os.close(fd)
                if isinstance(e, BlockingIOError):
                    return None     # a live owner holds it
                raise
            if _names(path, fd):
                return RunLease(run_id, path, fd, takeover=True)
            os.close(fd)        # locked a released file: try again

    # -- reading ------------------------------------------------------------

    def ids(self) -> list[str]:
        """All record ids, sorted.  Tmp files and sidecars are never
        listed."""
        if not self.records_dir.is_dir():
            return []
        return sorted(p.stem for p in self.records_dir.glob("*/*.json"))

    def resolve(self, id_or_prefix: str) -> str:
        """Resolve a (possibly abbreviated) record id."""
        if len(id_or_prefix) >= 4:
            if os.path.exists(self._record_path(id_or_prefix)):
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
        data, _ = self.read_record(run_id)
        if touch:
            self.touch(run_id)
        return RunRecord.from_dict(data)

    def read_record(self, run_id: str) -> tuple[Any, str | None]:
        """A record file's parsed JSON, and its canonical text when the
        file is one canonical line (None for an earlier version's
        indented file): one read, one parse, nothing checked or
        touched.  Raises ``OSError`` or ``ValueError``."""
        with open(self._record_path(run_id), "rb") as f:
            text = f.read().decode()
        canonical = text[:-1] if text.find("\n") == len(text) - 1 else None
        return json.loads(text), canonical

    def load_timeline(self, record: RunRecord
                      ) -> list[tuple[int, int, int]] | None:
        """The stored event stream, or None when it was not recorded."""
        try:
            with open(self._timeline_path(record.run_id), "rb") as f:
                return decompress_timeline(f.read())
        except FileNotFoundError:
            return None

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
        return os.path.exists(self._record_path(run_id))

    # -- garbage collection -------------------------------------------------

    def delete(self, run_id: str) -> int:
        """Remove one record + its sidecars; returns bytes freed.

        Safe against a concurrent delete of the same record: a path that
        vanishes between the stat and the unlink simply counts as
        already freed by the other process.  A lease still held by a
        live owner is left to it (its release unlinks the file): delete
        takes the lease like any acquirer, so only a dead owner's
        leftover goes.
        """
        freed = 0
        for path in (self._record_path(run_id),
                     self._timeline_path(run_id),
                     self._touch_path(run_id)):
            try:
                size = os.stat(path).st_size
                os.unlink(path)
            except OSError:
                continue
            freed += size
        lease = self.acquire_lease(run_id)
        if lease is not None:
            lease.release()
        return freed

    # -- stale tmp files ----------------------------------------------------

    def sweep_tmp(self, *, dry_run: bool = False) -> tuple[int, int]:
        """Delete tmp files no writer holds; returns (count, bytes).

        A tmp file is judged by its lock alone: a writer holds it from
        creation until the tmp name is unlinked, so one the sweeper can
        lock, and that its path still names, is a crash leftover.  The
        sweeper unlinks it while holding that lock.  The glob also
        matches the ``*.tmp<pid>`` names of older versions.
        """
        if not self.records_dir.is_dir():
            return 0, 0
        swept = nbytes = 0
        for path in self.records_dir.glob("*/*.tmp*"):
            try:
                fd = os.open(path, os.O_RDONLY)
            except OSError:
                continue                # filed or swept meanwhile
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if not _names(path, fd):
                    continue
                size = os.fstat(fd).st_size
                if not dry_run:
                    os.unlink(path)
            except OSError:             # a live writer holds it
                continue
            finally:
                os.close(fd)
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
        its read is skipped (and counted), never a crash.  Tmp files
        left by crashed writers are swept as a side effect.
        """
        now = time.time() if now is None else now  # repro: allow(det-wallclock) host mtimes drive cache eviction recency only
        entries = []   # (last_used, run_id, spec_digest, bytes)
        skipped = 0
        for run_id in self.ids():
            rec_path = self._record_path(run_id)
            tl_path = self._timeline_path(run_id)
            try:
                with open(rec_path, "rb") as f:
                    data = json.loads(f.read())
                    nbytes = os.fstat(f.fileno()).st_size
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                # Deleted by a concurrent gc, or listed mid-write by a
                # non-atomic producer: not ours to judge this cycle.
                skipped += 1
                continue
            try:
                nbytes += os.stat(tl_path).st_size
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
        swept_tmp, tmp_bytes = self.sweep_tmp(dry_run=dry_run)
        return GcReport(scanned=len(entries), deleted=len(doomed),
                        protected=protected,
                        freed_bytes=freed + (0 if dry_run else tmp_bytes),
                        remaining=len(entries) - len(doomed),
                        deleted_ids=tuple(doomed), dry_run=dry_run,
                        skipped=skipped, swept_tmp=swept_tmp)


class RunLease:
    """An exclusive claim on one run_id's execution: an open descriptor
    holding ``flock`` on the run's lease file.

    Held by the server that is executing the job; :meth:`release` drops
    the claim when the result has been filed.  The descriptor is not
    inheritable, so no worker process ever holds a run's lock.
    """

    def __init__(self, run_id: str, path: str, fd: int,
                 *, takeover: bool = False):
        self.run_id = run_id
        self.path = path
        self._fd: int | None = fd
        #: True when acquisition took over a dead owner's lease file
        self.takeover = takeover

    def renew(self) -> bool:
        """True while this lease still holds its run: it is not
        released, and its path still names the locked file.  A flock
        needs no refreshing; the name is the heartbeat's it replaced,
        kept because ``benchmarks/host`` wraps the method by name."""
        return self._fd is not None and _names(self.path, self._fd)

    def release(self) -> None:
        """Drop the claim: unlink the lease file while still holding
        the lock, then close (no-op once released)."""
        fd, self._fd = self._fd, None
        if fd is not None:
            if _names(self.path, fd):
                with contextlib.suppress(OSError):
                    os.unlink(self.path)
            os.close(fd)

    def __enter__(self) -> "RunLease":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def touch_file(path: str) -> None:
    """Set ``path``'s mtime to now, creating the file if it is missing;
    a vanished directory is ignored."""
    with contextlib.suppress(OSError):
        try:
            os.utime(path)
        except FileNotFoundError:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))


def _names(path: str | Path, fd: int) -> bool:
    """Whether ``path`` still names the file open as ``fd``."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(fd))
    except OSError:
        return False


def _locked_tmp(path: str) -> tuple[int, str]:
    """A fresh ``<name>.*.tmp`` beside ``path``, open and ``flock``\\ ed.

    :meth:`ProvenanceStore.sweep_tmp` may lock and unlink the file
    between its creation and our lock; then take a fresh one.
    """
    parent, name = os.path.split(path)
    os.makedirs(parent, exist_ok=True)
    while True:
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=name + ".",
                                   suffix=".tmp")
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            if _names(tmp, fd):
                return fd, tmp
        except BlockingIOError:
            pass                # the sweeper holds it, to unlink it
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)


def _file_once(path: str, data: bytes = b"") -> int | None:
    """File ``data`` at ``path`` unless a file is already there.

    The data goes to a locked tmp (:func:`_locked_tmp`), which is
    ``os.link``\\ ed to ``path`` and then unlinked, still under the
    lock.  Returns the descriptor, still holding the lock (closing it
    drops the lock), or None when ``path`` already exists.
    """
    fd, tmp = _locked_tmp(path)
    filed = False
    try:
        with open(fd, "wb", closefd=False) as f:
            f.write(data)
        os.link(tmp, path)
        filed = True
    except FileExistsError:
        pass
    finally:
        os.unlink(tmp)
        if not filed:
            os.close(fd)
    return fd if filed else None


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
    #: crash-leftover tmp files swept
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
