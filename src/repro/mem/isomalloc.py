"""Isomalloc: the migratable memory allocator.

AMPI's Isomalloc (inspired by PM2's iso-address scheme) reserves a slice
of virtual address space for every virtual rank that is *globally unique
across the whole job*.  All of a rank's migratable memory — heap, ULT
stack, and under PIEglobals its private code+data segment copies — is
allocated inside its slice.  Migration then reduces to copying the slice's
live mappings to the destination process, where they are installed at the
*same* virtual addresses, so every pointer in the rank's data remains
valid with no user serialization code.

The simulator enforces the same invariant the real allocator does: an
:class:`IsomallocArena` hands out per-rank slots from a job-wide base, and
:class:`Isomalloc` performs allocations for one rank inside one process's
:class:`~repro.mem.address_space.VirtualMemory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import IsomallocError
from repro.mem.address_space import MapKind, Mapping, VirtualMemory
from repro.mem.layout import (
    DEFAULT_SLOT_SIZE,
    ISOMALLOC_BASE,
    ISOMALLOC_END,
    page_align_up,
)


@dataclass(frozen=True)
class RankSlot:
    """One rank's reserved virtual range (identical in every process)."""

    rank: int
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


class IsomallocArena:
    """Job-wide assignment of virtual-address slots to virtual ranks.

    One arena is shared by every simulated OS process in a job: slot
    addresses must agree everywhere for migration to work.
    """

    def __init__(self, max_ranks: int, slot_size: int = DEFAULT_SLOT_SIZE):
        if max_ranks <= 0:
            raise IsomallocError("need at least one rank slot")
        slot_size = page_align_up(slot_size)
        if ISOMALLOC_BASE + max_ranks * slot_size > ISOMALLOC_END:
            raise IsomallocError(
                f"arena too large: {max_ranks} ranks x {slot_size:#x} bytes "
                f"exceeds the Isomalloc address range"
            )
        self.max_ranks = max_ranks
        self.slot_size = slot_size

    def slot(self, rank: int) -> RankSlot:
        if not 0 <= rank < self.max_ranks:
            raise IsomallocError(
                f"rank {rank} outside arena (max_ranks={self.max_ranks})"
            )
        start = ISOMALLOC_BASE + rank * self.slot_size
        return RankSlot(rank=rank, start=start, size=self.slot_size)

    def rank_of_address(self, addr: int) -> int | None:
        """Which rank's slot contains ``addr`` (None if outside the arena)."""
        if not ISOMALLOC_BASE <= addr < ISOMALLOC_BASE + self.max_ranks * self.slot_size:
            return None
        return (addr - ISOMALLOC_BASE) // self.slot_size


class Isomalloc:
    """Per-process allocator front-end over the shared arena.

    Allocations are simple bump-pointer with an explicit free list; real
    Isomalloc is similar (it values address stability over fragmentation
    cleverness).
    """

    def __init__(self, arena: IsomallocArena, vm: VirtualMemory):
        self.arena = arena
        self.vm = vm
        self._bump: dict[int, int] = {}      # rank -> next free offset
        self._free: dict[int, list[tuple[int, int]]] = {}  # rank -> [(off, size)]

    # -- allocation -------------------------------------------------------------

    def alloc(
        self,
        rank: int,
        nbytes: int,
        kind: MapKind = MapKind.HEAP,
        tag: str = "",
        payload: Any = None,
        rss_bytes: int | None = None,
    ) -> Mapping:
        """Allocate ``nbytes`` (page-rounded) inside ``rank``'s slot."""
        if nbytes <= 0:
            raise IsomallocError(f"bad allocation size {nbytes}")
        size = page_align_up(nbytes)
        arena = self.arena
        if not 0 <= rank < arena.max_ranks:
            arena.slot(rank)        # raises the out-of-arena error
        # IsomallocArena.slot, by arithmetic
        slot_start = ISOMALLOC_BASE + rank * arena.slot_size

        # First-fit from the free list, else bump.
        start = None
        freelist = self._free.get(rank, [])
        for i, (off, fsize) in enumerate(freelist):
            if fsize >= size:
                start = slot_start + off
                if fsize > size:
                    freelist[i] = (off + size, fsize - size)
                else:
                    del freelist[i]
                break
        if start is None:
            off = self._bump.get(rank, 0)
            if off + size > arena.slot_size:
                raise IsomallocError(
                    f"rank {rank}: Isomalloc slot exhausted "
                    f"({off + size:#x} > {arena.slot_size:#x})"
                )
            start = slot_start + off
            self._bump[rank] = off + size

        return self.vm.map_at(
            start,
            size,
            kind,
            owner_rank=rank,
            via_isomalloc=True,
            tag=tag or f"iso:{kind.value}[{rank}]",
            payload=payload,
            rss_bytes=min(rss_bytes, size) if rss_bytes is not None else None,
        )

    def free(self, mapping: Mapping) -> None:
        if not mapping.via_isomalloc:
            raise IsomallocError("mapping was not allocated via Isomalloc")
        rank = mapping.owner_rank
        if rank is None:
            raise IsomallocError("Isomalloc mapping has no owner rank")
        slot = self.arena.slot(rank)
        self.vm.unmap(mapping.start)
        self._free.setdefault(rank, []).append(
            (mapping.start - slot.start, mapping.size)
        )

    # -- migration support -----------------------------------------------------

    def rank_footprint(self, rank: int) -> int:
        """Total mapped bytes in this process belonging to ``rank``."""
        return sum(m.size for m in self.vm.mappings_of_rank(rank))

    def extract_rank(self, rank: int) -> list[Mapping]:
        """Detach all of a rank's Isomalloc mappings for migration.

        Raises :class:`IsomallocError` if the rank owns any private mapping
        *outside* Isomalloc — those cannot be reinstalled at a stable
        address on the destination (the PIP/FS failure mode; callers turn
        this into :class:`~repro.errors.MigrationUnsupportedError`).
        """
        maps = self.vm.mappings_of_rank(rank)
        rogue = [m for m in maps if not m.via_isomalloc and not m.shared]
        if rogue:
            raise IsomallocError(
                f"rank {rank} owns non-Isomalloc private mappings "
                f"(e.g. {rogue[0].tag or hex(rogue[0].start)}); "
                f"cannot migrate"
            )
        migratable = [m for m in maps if m.via_isomalloc]
        for m in migratable:
            self.vm.unmap(m.start)
        # Whatever bump state this process held for the rank moves with it.
        self._bump.pop(rank, None)
        self._free.pop(rank, None)
        return migratable

    def install_rank(self, rank: int, mappings: Iterable[Mapping]) -> None:
        """Install migrated mappings at their original virtual addresses.

        The *same* Mapping objects are adopted (not copied) so references
        held by the rank's heap and context stay valid — the simulated
        analogue of Isomalloc's iso-address guarantee that no pointer
        needs updating after a migration.
        """
        slot = self.arena.slot(rank)
        high = 0
        for m in mappings:
            if not (slot.start <= m.start and m.end <= slot.end):
                raise IsomallocError(
                    f"mapping {m.start:#x} is outside rank {rank}'s slot"
                )
            self.vm.adopt(m)
            high = max(high, m.end - slot.start)
        # Conservatively resume bumping after the highest installed mapping.
        self._bump[rank] = max(self._bump.get(rank, 0), high)
