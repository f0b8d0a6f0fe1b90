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
``pe,vp,start`` line per event, ``\\n``-joined.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
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
    """The canonical byte encoding every timeline digest is taken over."""
    return "\n".join(
        f"{pe},{vp},{start}" for pe, vp, start in timeline
    ).encode()


def decode_timeline(data: bytes) -> list[tuple[int, int, int]]:
    """Inverse of :func:`encode_timeline`."""
    if not data:
        return []
    out: list[tuple[int, int, int]] = []
    for line in data.decode().split("\n"):
        pe, vp, start = line.split(",")
        out.append((int(pe), int(vp), int(start)))
    return out


def timeline_sha(timeline: Iterable[tuple[int, int, int]]) -> str:
    """SHA-256 of the canonical timeline encoding."""
    return hashlib.sha256(encode_timeline(timeline)).hexdigest()


def compress_timeline(timeline: Iterable[tuple[int, int, int]]) -> bytes:
    """Canonical encoding, zlib-compressed (the store's on-disk form)."""
    return zlib.compress(encode_timeline(timeline), level=6)


def decompress_timeline(data: bytes) -> list[tuple[int, int, int]]:
    return decode_timeline(zlib.decompress(data))
