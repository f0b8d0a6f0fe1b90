"""Stable, canonical view of a job's scheduler event stream.

The scheduler records every quantum it dispatches as a ``(pe, vp,
start_ns)`` triple in :attr:`JobScheduler.timeline`.  That stream *is*
the job's execution order — two runs are behaviourally identical iff
their streams are identical — so it is the unit of currency for the
provenance layer: records store it (compressed), ``repro replay``
re-derives and compares its digest, and ``repro diff`` bisects two
streams for the first divergent event.

This module fixes the canonical encoding once so every consumer (the
provenance store, the pin gate) hashes the same bytes: one
``pe,vp,start`` line per event, ``\\n``-joined.  A run is encoded once:
``RunRecord.from_run`` hashes the bytes and carries them to the zlib of
``ProvenanceStore.put`` (``.timeline.zz``) or of the serve worker
(``timeline_z``), so :func:`timeline_sha` and :func:`compress_timeline`
take the bytes as well as the entries.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

#: one scheduler quantum: (pe, vp, start_ns)
TimelineEntry = "tuple[int, int, int]"


@dataclass(frozen=True)
class TimelineEvent:
    """One scheduler quantum with its position in the stream."""

    index: int
    pe: int
    vp: int
    start_ns: int

    def to_dict(self) -> dict:
        return {"index": self.index, "pe": self.pe, "vp": self.vp,
                "start_ns": self.start_ns}


def timeline_events(
    timeline: Sequence[tuple[int, int, int]]
) -> Iterator[TimelineEvent]:
    """Iterate a scheduler timeline as structured events."""
    for i, (pe, vp, start) in enumerate(timeline):
        yield TimelineEvent(index=i, pe=pe, vp=vp, start_ns=start)


def encode_timeline(timeline: Iterable[tuple[int, int, int]]) -> bytes:
    """The canonical byte encoding every timeline digest is taken over
    (``%s`` is ``str()``; ``%d`` would truncate a float start)."""
    flat = tuple(chain.from_iterable(timeline))
    return ("%s,%s,%s\n" * (len(flat) // 3) % flat)[:-1].encode()


def decode_timeline(data: bytes) -> list[tuple[int, int, int]]:
    """Inverse of :func:`encode_timeline`."""
    if not data:
        return []
    out: list[tuple[int, int, int]] = []
    for line in data.decode().split("\n"):
        pe, vp, start = line.split(",")
        out.append((int(pe), int(vp), int(start)))
    return out


def _encoded(timeline: bytes | Iterable[tuple[int, int, int]]) -> bytes:
    return (timeline if isinstance(timeline, bytes)
            else encode_timeline(timeline))


def timeline_sha(timeline: bytes | Iterable[tuple[int, int, int]]) -> str:
    """SHA-256 of the canonical timeline encoding (or of its bytes)."""
    return hashlib.sha256(_encoded(timeline)).hexdigest()


def compress_timeline(timeline: bytes | Iterable[tuple[int, int, int]]
                      ) -> bytes:
    """Canonical encoding (or its bytes), zlib'd: the on-disk form.
    :data:`zlib.Z_BEST_SPEED`: every filed run pays the compression,
    while only ``repro replay`` and ``repro diff`` read it back; any
    level decompresses alike, so older stores read unchanged."""
    return zlib.compress(_encoded(timeline), zlib.Z_BEST_SPEED)


def decompress_timeline(data: bytes) -> list[tuple[int, int, int]]:
    return decode_timeline(zlib.decompress(data))
