"""Simulated memory substrate: virtual address spaces, mmap, segments,
and the Isomalloc migratable allocator."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.layout import PAGE_SIZE, page_align_up
    from repro.mem.address_space import VirtualMemory, Mapping, MapKind
    from repro.mem.segments import (
        SegmentKind,
        VarDef,
        SegmentImage,
        SegmentInstance,
        CodeImage,
        CodeInstance,
    )
    from repro.mem.isomalloc import Isomalloc, IsomallocArena
    from repro.mem.heap import RankHeap, Allocation

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.mem.layout": ("PAGE_SIZE", "page_align_up"),
    "repro.mem.address_space": ("VirtualMemory", "Mapping", "MapKind"),
    "repro.mem.segments": ("SegmentKind", "VarDef", "SegmentImage",
                           "SegmentInstance", "CodeImage", "CodeInstance"),
    "repro.mem.isomalloc": ("Isomalloc", "IsomallocArena"),
    "repro.mem.heap": ("RankHeap", "Allocation"),
})
