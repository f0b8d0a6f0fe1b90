"""Per-rank heap built on Isomalloc.

User programs allocate through :class:`RankHeap` (the simulator's
``malloc``); every allocation lives inside the rank's Isomalloc slot, so
the whole heap migrates with the rank.  Allocations carry an optional
Python payload (e.g. a numpy array) whose simulated size is what migration
and memory accounting charge for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import IsomallocError
from repro.mem.address_space import MapKind, Mapping
from repro.mem.isomalloc import Isomalloc


@dataclass
class Allocation:
    """One live heap allocation."""

    addr: int
    nbytes: int
    data: Any = None
    tag: str = ""
    #: function-pointer values stored inside this allocation (simulated
    #: addresses into some code segment); PIEglobals must rebase these
    #: when replicating constructor-made allocations.
    fn_ptr_slots: dict[str, int] = field(default_factory=dict)
    #: data-pointer values (addresses of globals or other heap blocks)
    #: stored inside this allocation; also rebased by PIEglobals.
    ptr_slots: dict[str, int] = field(default_factory=dict)


class RankHeap:
    """malloc/free facade for one virtual rank.

    A heap *may* be backed by Isomalloc (the AMPI case) or detached
    (plain bookkeeping) for programs run without a runtime underneath.
    """

    __slots__ = ("rank", "isomalloc", "allocations", "_mappings",
                 "_detached_next", "bytes_allocated", "alloc_count")

    def __init__(self, rank: int, isomalloc: Isomalloc | None = None):
        self.rank = rank
        self.isomalloc = isomalloc
        self.allocations: dict[int, Allocation] = {}
        self._mappings: dict[int, Mapping] = {}
        self._detached_next = 0x6000_0000  # fake addresses when no allocator
        self.bytes_allocated = 0
        self.alloc_count = 0

    def malloc(self, nbytes: int, data: Any = None, tag: str = "") -> Allocation:
        if nbytes <= 0:
            raise IsomallocError(f"malloc of non-positive size {nbytes}")
        if self.isomalloc is not None:
            mapping = self.isomalloc.alloc(
                self.rank, nbytes, MapKind.HEAP, tag=tag or "heap"
            )
            addr = mapping.start
            self._mappings[addr] = mapping
        else:
            addr = self._detached_next
            self._detached_next += (nbytes + 15) & ~15
        alloc = Allocation(addr=addr, nbytes=nbytes, data=data, tag=tag)
        if self.isomalloc is not None:
            self._mappings[addr].payload = alloc
        self.allocations[addr] = alloc
        self.bytes_allocated += nbytes
        self.alloc_count += 1
        return alloc

    def free(self, addr: int) -> None:
        alloc = self.allocations.pop(addr, None)
        if alloc is None:
            raise IsomallocError(f"free of unknown address {addr:#x}")
        self.bytes_allocated -= alloc.nbytes
        mapping = self._mappings.pop(addr, None)
        if mapping is not None and self.isomalloc is not None:
            self.isomalloc.free(mapping)

    def realloc(self, addr: int, nbytes: int) -> Allocation:
        old = self.allocations.get(addr)
        if old is None:
            raise IsomallocError(f"realloc of unknown address {addr:#x}")
        new = self.malloc(nbytes, data=old.data, tag=old.tag)
        new.fn_ptr_slots = dict(old.fn_ptr_slots)
        self.free(addr)
        return new

    def __iter__(self) -> Iterator[Allocation]:
        return iter(self.allocations.values())

    def __len__(self) -> int:
        return len(self.allocations)

    def live_bytes(self) -> int:
        return sum(a.nbytes for a in self.allocations.values())

    def attach_isomalloc(self, isomalloc: Isomalloc) -> None:
        """Late-bind an allocator (runtime startup order convenience)."""
        if self.allocations:
            raise IsomallocError(
                "cannot attach an allocator to a heap with live allocations"
            )
        self.isomalloc = isomalloc
