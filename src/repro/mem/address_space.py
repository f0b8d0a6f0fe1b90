"""Per-OS-process virtual memory: page-granular mappings and mmap.

The point of simulating this at all is migration support (Figure 8 and the
"why PIP/FS cannot migrate" story): the migration engine walks a rank's
mappings and refuses to move any private mapping that was created by the
*system loader's internal mmap* rather than through Isomalloc — exactly
the failure mode the paper hits with ``dlmopen``/``dlopen`` segments.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import MapError, SegFault
from repro.mem.layout import (
    PAGE_SIZE,
    SYSTEM_MMAP_BASE,
    SYSTEM_MMAP_END,
    page_align_up,
)


class MapKind(enum.Enum):
    CODE = "code"
    DATA = "data"
    TLS = "tls"
    HEAP = "heap"
    STACK = "stack"
    ANON = "anon"
    FILE = "file"


@dataclass
class Mapping:
    """One contiguous mapped region.

    ``payload`` is an opaque object (segment instance, heap block table,
    numpy array, ...) whose *simulated* size is ``size``; the simulator
    never stores real bytes for bulk memory, only sizes plus the live
    Python objects the region represents.
    """

    start: int
    size: int
    kind: MapKind
    owner_rank: int | None = None     #: virtual rank owning this region, if any
    via_isomalloc: bool = False       #: allocated through Isomalloc (migratable)
    via_loader: bool = False          #: created by the dynamic loader's internal mmap
    shared: bool = False              #: shared mapping (safe to leave behind)
    tag: str = ""                     #: debugging label, e.g. "pie:code[3]"
    payload: Any = None
    #: resident (physical) bytes attributed to this mapping.  File-backed
    #: mappings of already-resident pages contribute 0 — the accounting
    #: behind the paper's mmap-from-one-fd code-dedup idea (Section 6).
    rss_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.rss_bytes is None:
            self.rss_bytes = self.size

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f
            for f, on in (
                ("I", self.via_isomalloc),
                ("L", self.via_loader),
                ("S", self.shared),
            )
            if on
        )
        return (
            f"Mapping({self.start:#x}..{self.end:#x} {self.kind.value}"
            f" rank={self.owner_rank} {flags} {self.tag})"
        )


class VirtualMemory:
    """A process's address space: non-overlapping, page-aligned mappings."""

    def __init__(self, name: str = "proc"):
        self.name = name
        self._starts: list[int] = []       # sorted mapping start addresses
        self._maps: dict[int, Mapping] = {}
        self._next_system_addr = SYSTEM_MMAP_BASE

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._maps)

    def mappings(self) -> Iterator[Mapping]:
        for s in self._starts:
            yield self._maps[s]

    def mappings_of_rank(self, rank: int) -> list[Mapping]:
        return [m for m in self.mappings() if m.owner_rank == rank]

    def find(self, addr: int) -> Mapping | None:
        """The mapping containing ``addr``, or None."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i < 0:
            return None
        m = self._maps[self._starts[i]]
        return m if m.contains(addr) else None

    def resolve(self, addr: int) -> Mapping:
        """Like :meth:`find` but raises :class:`SegFault` on a miss."""
        m = self.find(addr)
        if m is None:
            raise SegFault(addr, f"{self.name}: unmapped address {addr:#x}")
        return m

    def total_mapped(self) -> int:
        """Virtual bytes mapped."""
        return sum(m.size for m in self._maps.values())

    def total_rss(self) -> int:
        """Resident (physical) bytes — where file-backed page sharing
        shows its savings."""
        return sum(m.rss_bytes for m in self._maps.values())

    def overlaps(self, start: int, size: int) -> bool:
        i = bisect.bisect_right(self._starts, start) - 1
        if i >= 0:
            m = self._maps[self._starts[i]]
            if m.end > start:
                return True
        if i + 1 < len(self._starts):
            return self._starts[i + 1] < start + size
        return False

    # -- mutation ----------------------------------------------------------------

    def map_at(
        self,
        start: int,
        size: int,
        kind: MapKind,
        **attrs: Any,
    ) -> Mapping:
        """Map ``size`` bytes at a fixed address (MAP_FIXED semantics,
        except that overlap is an error rather than a silent clobber)."""
        if start % PAGE_SIZE:
            raise MapError(f"unaligned map address {start:#x}")
        if size <= 0:
            raise MapError(f"bad map size {size}")
        size = page_align_up(size)
        # overlaps() and insort() with one bisect
        starts = self._starts
        i = bisect.bisect_right(starts, start)
        prev = self._maps[starts[i - 1]] if i else None
        if (prev is not None and prev.start + prev.size > start
                or i < len(starts) and starts[i] < start + size):
            raise MapError(
                f"{self.name}: mapping {start:#x}+{size:#x} overlaps an "
                f"existing region"
            )
        m = Mapping(start=start, size=size, kind=kind, **attrs)
        starts.insert(i, start)
        self._maps[start] = m
        return m

    def mmap(self, size: int, kind: MapKind = MapKind.ANON, **attrs: Any) -> Mapping:
        """Anonymous mmap in the system area (address chosen by the kernel)."""
        size = page_align_up(size)
        if size <= 0:
            raise MapError(f"bad map size {size}")
        start = self._next_system_addr
        if start + size > SYSTEM_MMAP_END:
            raise MapError(f"{self.name}: system mmap area exhausted")
        self._next_system_addr = start + size
        return self.map_at(start, size, kind, **attrs)

    def adopt(self, mapping: Mapping) -> Mapping:
        """Insert an existing Mapping object (migration install path).

        Keeps the object's identity so references held elsewhere (e.g. a
        rank heap's allocation table) remain valid across a migration.
        """
        if mapping.start % PAGE_SIZE:
            raise MapError(f"unaligned map address {mapping.start:#x}")
        if self.overlaps(mapping.start, mapping.size):
            raise MapError(
                f"{self.name}: adopted mapping {mapping.start:#x}+"
                f"{mapping.size:#x} overlaps an existing region"
            )
        bisect.insort(self._starts, mapping.start)
        self._maps[mapping.start] = mapping
        return mapping

    def unmap(self, start: int) -> Mapping:
        """Remove the mapping that *starts* at ``start``."""
        m = self._maps.pop(start, None)
        if m is None:
            raise MapError(f"{self.name}: no mapping starts at {start:#x}")
        i = bisect.bisect_left(self._starts, start)
        del self._starts[i]
        return m

    def unmap_rank(self, rank: int) -> list[Mapping]:
        """Remove and return all of a rank's mappings (used after migrate-out)."""
        victims = self.mappings_of_rank(rank)
        for m in victims:
            self.unmap(m.start)
        return victims

    # -- reporting -----------------------------------------------------------------

    def maps_report(self) -> str:
        """A /proc/self/maps-style dump (for debugging and doc examples)."""
        lines = []
        for m in self.mappings():
            src = "isomalloc" if m.via_isomalloc else ("loader" if m.via_loader else "sys")
            lines.append(
                f"{m.start:016x}-{m.end:016x} {m.kind.value:<5} "
                f"rank={'-' if m.owner_rank is None else m.owner_rank:<4} "
                f"{src:<9} {m.tag}"
            )
        return "\n".join(lines)
