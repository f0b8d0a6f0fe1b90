"""GNU-flavoured dynamic loader for the simulated ELF format.

Implements the four loader facilities the paper's methods are built on:

``dlopen``
    Map one instance of an image into the process (refcounted: opening the
    same image again returns the same link map — the "open once per
    process" behaviour PIEglobals relies on in SMP mode).
``dlmopen``
    glibc extension: load into a fresh link-map *namespace*, duplicating
    code and data segments.  Stock glibc supports ~12 usable namespaces;
    the limit lives in :class:`repro.machine.Toolchain` and exceeding it
    raises :class:`~repro.errors.NamespaceLimitError` (PIPglobals' cap).
``dlsym``
    Resolve a symbol inside one link map.
``dl_iterate_phdr``
    Iterate program headers of everything loaded — how PIEglobals finds
    the freshly mapped PIE's code/data segment boundaries by diffing the
    iteration before and after its ``dlopen`` call.

Crucially, all segment mappings created here are flagged
``via_loader=True``: they come from the loader's *internal* mmap, which
Isomalloc cannot intercept.  Any rank whose private memory includes such
mappings is unmigratable — the PIPglobals/FSglobals limitation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import LoaderError, NamespaceLimitError, SymbolNotFound
from repro.elf.got import GotInstance
from repro.elf.image import ElfImage
from repro.elf.relocation import RelocKind
from repro.elf.symbols import SymbolKind
from repro.machine import Toolchain
from repro.mem.address_space import MapKind, Mapping, VirtualMemory
from repro.mem.heap import Allocation
from repro.mem.layout import LOADER_AREA_BASE, LOADER_AREA_END, page_align_up
from repro.mem.segments import CodeInstance, SegmentInstance
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel
from repro.perf.counters import CounterSet, EV_DLMOPEN, EV_DLOPEN

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.recorder import TraceRecorder

LM_ID_BASE = 0
LM_ID_NEWLM = -1

#: where the loader's pseudo-heap for static-constructor allocations lives
_CTOR_HEAP_BASE = LOADER_AREA_END - (1 << 32)

#: what a :class:`RelocPlan` address is relative to: an index into
#: :meth:`LinkMap.segments`, or ``_ABSOLUTE`` (base 0) — a GOT slot no
#: relocation resolves is ``(_ABSOLUTE, 0)`` and stays 0
_CODE, _DATA, _RODATA, _ABSOLUTE = range(4)
#: the segment a GOT slot's symbol lives in, by relocation kind
_GOT_SEGMENT = {RelocKind.GOT_ENTRY: _DATA, RelocKind.PLT_CALL: _CODE}


class RelocPlan:
    """Relocating one image, as ``segment base + offset``.

    Which symbol lands in which GOT slot or data word, and where it sits
    inside its segment, is the same for every load of an image; only the
    three bases differ.  Built (every relocation checked) at the image's
    first load, kept in ``image.plans``, applied to each link map.
    """

    __slots__ = ("got", "abs64")

    def __init__(self, got: tuple[tuple[int, int], ...],
                 abs64: tuple[tuple[str, int, int], ...]):
        self.got = got        #: per GOT slot: (segment, offset)
        self.abs64 = abs64    #: (data variable, segment, offset)


@dataclass
class LinkMap:
    """One loaded object in one namespace."""

    handle: int
    lmid: int
    image: ElfImage
    code: CodeInstance
    data: SegmentInstance
    rodata: SegmentInstance
    got: GotInstance
    mappings: list[Mapping] = field(default_factory=list)
    ctor_allocations: list[Allocation] = field(default_factory=list)
    refcount: int = 1

    @property
    def base(self) -> int:
        return self.code.base

    def segment_span(self) -> tuple[int, int]:
        """(start, end) covering code+data+rodata, in load order."""
        return self.code.base, self.rodata.end

    def segments(self) -> tuple[CodeInstance, SegmentInstance, SegmentInstance]:
        return self.code, self.data, self.rodata


@dataclass(frozen=True)
class PhdrInfo:
    """What one dl_iterate_phdr callback invocation reports."""

    name: str
    lmid: int
    code_start: int
    code_size: int
    data_start: int
    data_size: int
    rodata_start: int
    rodata_size: int


class LoaderCtx:
    """Execution context handed to static constructors (C++ global ctors).

    Constructors run at ``dlopen`` time — *before* any privatization can
    intercept them — so their heap allocations land on the loader's own
    pseudo-heap.  PIEglobals later replicates these allocations per rank
    and rebases any stored pointers.
    """

    def __init__(self, loader: "DynamicLoader", linkmap: LinkMap):
        self._loader = loader
        self._lm = linkmap
        self.data = linkmap.data
        self.rodata = linkmap.rodata

    def addr_of(self, symbol: str) -> int:
        return self._loader.dlsym(self._lm, symbol)

    def malloc(
        self,
        nbytes: int,
        data: Any = None,
        tag: str = "",
        ptr_slots: dict[str, int] | None = None,
        fn_ptr_slots: dict[str, int] | None = None,
    ) -> Allocation:
        alloc = self._loader._ctor_malloc(nbytes, data, tag)
        if ptr_slots:
            alloc.ptr_slots.update(ptr_slots)
        if fn_ptr_slots:
            alloc.fn_ptr_slots.update(fn_ptr_slots)
        self._lm.ctor_allocations.append(alloc)
        return alloc


class DynamicLoader:
    """Per-OS-process dynamic loader instance."""

    def __init__(
        self,
        vm: VirtualMemory,
        toolchain: Toolchain,
        costs: CostModel,
        clock: SimClock | None = None,
        counters: CounterSet | None = None,
        trace: TraceRecorder | None = None,
        trace_pid: int = 0,
    ):
        self.vm = vm
        self.toolchain = toolchain
        self.costs = costs
        self.clock = clock or SimClock()
        self.counters = counters if counters is not None else CounterSet()
        self.trace = trace
        self.trace_pid = trace_pid
        self._handles = itertools.count(1)
        #: lmid -> {image name -> LinkMap}
        self._namespaces: dict[int, dict[str, LinkMap]] = {}
        self._load_order: list[LinkMap] = []
        self._next_base = LOADER_AREA_BASE
        self._ctor_bump = _CTOR_HEAP_BASE

    # -- address-space carving ----------------------------------------------

    def _place_segments(self, image: ElfImage, rank_tag: str) -> tuple[int, list[Mapping]]:
        """Map code, data, rodata contiguously (PIE layout: data directly
        after code, which is why IP-relative global access works)."""
        base = self._next_base
        if not image.is_pie:
            base = image.link_base
        total = page_align_up(image.code.size) + page_align_up(image.data.size) \
            + page_align_up(image.rodata.size)
        if image.is_pie:
            self._next_base = page_align_up(base + total)
            if self._next_base > LOADER_AREA_END:
                raise LoaderError("loader address area exhausted")

        maps = []
        cursor = base
        for kind, size in (
            (MapKind.CODE, image.code.size),
            (MapKind.DATA, image.data.size),
            (MapKind.DATA, image.rodata.size),
        ):
            m = self.vm.map_at(
                cursor,
                page_align_up(size),
                kind,
                via_loader=True,
                tag=f"{image.name}:{kind.value}{rank_tag}",
            )
            maps.append(m)
            cursor = m.end
        return base, maps

    # -- relocation + construction --------------------------------------------

    def _materialize(self, image: ElfImage, lmid: int) -> LinkMap:
        base, maps = self._place_segments(image, f"@ns{lmid}")
        code = image.code.instantiate(base)
        data = image.data.instantiate(maps[0].end)
        rodata = image.rodata.instantiate(maps[1].end)
        got = image.got.instantiate()
        lm = LinkMap(
            handle=next(self._handles),
            lmid=lmid,
            image=image,
            code=code,
            data=data,
            rodata=rodata,
            got=got,
            mappings=maps,
        )
        maps[0].payload = code
        maps[1].payload = data
        maps[2].payload = rodata

        # Charge mapping + relocation processing time.
        self.clock.advance(self.costs.map_ns(image.load_size))
        self.clock.advance(self.costs.reloc_ns_per_entry * image.runtime_reloc_count)

        self._process_relocations(lm)
        self._run_static_ctors(lm)
        return lm

    def _process_relocations(self, lm: LinkMap) -> None:
        plans = lm.image.plans
        plan = plans.reloc
        if plan is None:
            plan = plans.reloc = self._plan_relocations(lm)
        bases = (lm.code.base, lm.data.base, lm.rodata.base, 0)
        lm.got.addresses = [bases[seg] + off for seg, off in plan.got]
        values = lm.data.values
        for var, seg, off in plan.abs64:
            values[var] = bases[seg] + off

    def _plan_relocations(self, lm: LinkMap) -> RelocPlan:
        """Resolve ``lm.image``'s relocations once, in order, through the
        checked lookups of ``lm``'s own segments: a malformed image
        raises what patching it slot by slot would, and — a plan being
        kept only for an image that loads — raises it at every load."""
        image = lm.image
        segments = lm.segments()

        def locate(seg: int, symbol: str) -> tuple[int, int]:
            inst = segments[seg]
            return seg, inst.addr_of(symbol) - inst.base

        got = [(_ABSOLUTE, 0)] * len(image.got)
        abs64: list[tuple[str, int, int]] = []
        for reloc in image.relocations:
            if reloc.kind in _GOT_SEGMENT:
                where = locate(_GOT_SEGMENT[reloc.kind], reloc.symbol)
                got[image.got.index_of(reloc.symbol)] = where
            elif reloc.kind is RelocKind.ABS64:
                # The address of `symbol` goes into the data slot named
                # in `where` ("data:<var>").
                _, _, var = reloc.where.partition(":")
                where = locate(self._symbol_segment(lm, reloc.symbol),
                               reloc.symbol)
                lm.data.check_writable(var)
                abs64.append((var, *where))
            # PC_REL and TPOFF need no load-time patching here.
        return RelocPlan(tuple(got), tuple(abs64))

    def _symbol_segment(self, lm: LinkMap, name: str) -> int:
        sym = lm.image.symbols.lookup(name)
        if sym is None:
            raise SymbolNotFound(f"{lm.image.name}: no symbol {name!r}")
        if sym.kind is SymbolKind.FUNC:
            return _CODE
        if sym.section == "rodata":
            return _RODATA
        return _DATA

    def _symbol_address(self, lm: LinkMap, name: str) -> int:
        return lm.segments()[self._symbol_segment(lm, name)].addr_of(name)

    def _run_static_ctors(self, lm: LinkMap) -> None:
        ctx = LoaderCtx(self, lm)
        t0 = self.clock.now
        for name in lm.image.static_ctors:
            fn = lm.code.fn(name)
            fn(ctx)
            self.clock.advance(self.costs.malloc_ns)
        if self.trace is not None and lm.image.static_ctors:
            self.trace.span(
                f"ctors:{lm.image.name}", "loader", t0, self.clock.now - t0,
                pid=self.trace_pid,
                args={"ctors": len(lm.image.static_ctors), "lmid": lm.lmid},
            )

    def _ctor_malloc(self, nbytes: int, data: Any, tag: str) -> Allocation:
        addr = self._ctor_bump
        self._ctor_bump += (nbytes + 15) & ~15
        self.clock.advance(self.costs.malloc_ns)
        return Allocation(addr=addr, nbytes=nbytes, data=data, tag=tag or "ctor")

    # -- public API -----------------------------------------------------------

    def dlopen(self, image: ElfImage) -> LinkMap:
        """Load ``image`` into the base namespace (refcounted)."""
        ns = self._namespaces.setdefault(LM_ID_BASE, {})
        existing = ns.get(image.name)
        if existing is not None:
            existing.refcount += 1
            self.clock.advance(self.costs.dlsym_ns)  # cache-hit path is cheap
            return existing
        t0 = self.clock.now
        self.clock.advance(self.costs.dlopen_base_ns)
        self.counters.incr(EV_DLOPEN)
        lm = self._materialize(image, LM_ID_BASE)
        if self.trace is not None:
            self.trace.span(
                f"dlopen:{image.name}", "loader", t0, self.clock.now - t0,
                pid=self.trace_pid,
                args={"lmid": LM_ID_BASE, "load_size": image.load_size,
                      "relocs": image.runtime_reloc_count},
            )
        ns[image.name] = lm
        self._load_order.append(lm)
        return lm

    def dlmopen(self, image: ElfImage, lmid: int = LM_ID_NEWLM) -> LinkMap:
        """Load ``image`` into a new (or given) link-map namespace."""
        if not self.toolchain.has_dlmopen:
            raise LoaderError(
                "dlmopen is a glibc extension; this system's libc "
                f"({self.toolchain.libc.value}) does not provide it"
            )
        if lmid == LM_ID_NEWLM:
            lmid = max(self._namespaces, default=LM_ID_BASE) + 1
        limit = self.toolchain.dlmopen_namespace_limit
        new_ns = lmid not in self._namespaces
        extra_namespaces = sum(1 for k in self._namespaces if k != LM_ID_BASE)
        if new_ns and extra_namespaces >= limit:
            raise NamespaceLimitError(
                f"cannot create namespace {lmid}: glibc's link-map "
                f"namespace limit ({limit}) is exhausted; PIP ships a "
                f"patched glibc to raise it"
            )
        ns = self._namespaces.setdefault(lmid, {})
        if image.name in ns:
            lm = ns[image.name]
            lm.refcount += 1
            return lm
        t0 = self.clock.now
        self.clock.advance(self.costs.dlmopen_base_ns)
        self.counters.incr(EV_DLMOPEN)
        lm = self._materialize(image, lmid)
        if self.trace is not None:
            self.trace.span(
                f"dlmopen:{image.name}", "loader", t0, self.clock.now - t0,
                pid=self.trace_pid,
                args={"lmid": lmid, "load_size": image.load_size,
                      "relocs": image.runtime_reloc_count},
            )
        ns[image.name] = lm
        self._load_order.append(lm)
        return lm

    def dlsym(self, lm: LinkMap, name: str) -> int:
        """Resolve ``name`` in ``lm``; returns a simulated address."""
        self.clock.advance(self.costs.dlsym_ns)
        try:
            return self._symbol_address(lm, name)
        except SymbolNotFound:
            raise
        except Exception as e:  # segment lookup failures -> dlsym error
            raise SymbolNotFound(f"dlsym({lm.image.name}, {name!r}): {e}") from e

    def dlclose(self, lm: LinkMap) -> None:
        lm.refcount -= 1
        if lm.refcount > 0:
            return
        ns = self._namespaces.get(lm.lmid, {})
        ns.pop(lm.image.name, None)
        if not ns and lm.lmid != LM_ID_BASE:
            # Return the namespace to the dlmopen budget.  Leaving the
            # empty dict behind made every open/close cycle permanently
            # consume one of the toolchain's ~12 namespaces, so a rank
            # pool that cycled libraries eventually hit a spurious
            # NamespaceLimitError.
            self._namespaces.pop(lm.lmid, None)
        if lm in self._load_order:
            self._load_order.remove(lm)
        for m in lm.mappings:
            self.vm.unmap(m.start)
        lm.mappings.clear()
        # Drop resolved state that pointed into the now-unmapped
        # segments.  A stale handle (or another image's GOT resolved via
        # dlsym into this one) must fail loudly at its next use instead
        # of silently reading freed addresses — the sanitizer's
        # got-dangling lint exists to catch the cross-image case.
        lm.got.addresses = [0] * len(lm.got.addresses)
        lm.ctor_allocations.clear()

    def dl_iterate_phdr(
        self, callback: Callable[[PhdrInfo], Any] | None = None
    ) -> list[PhdrInfo]:
        """Iterate program headers of every loaded object, in load order."""
        if not self.toolchain.has_dl_iterate_phdr:
            raise LoaderError(
                "dl_iterate_phdr is unavailable on this system's libc"
            )
        self.clock.advance(self.costs.phdr_iterate_ns)
        infos = []
        for lm in self._load_order:
            info = PhdrInfo(
                name=lm.image.name,
                lmid=lm.lmid,
                code_start=lm.code.base,
                code_size=lm.image.code.size,
                data_start=lm.data.base,
                data_size=lm.image.data.size,
                rodata_start=lm.rodata.base,
                rodata_size=lm.image.rodata.size,
            )
            infos.append(info)
            if callback is not None:
                callback(info)
        return infos

    # -- introspection ----------------------------------------------------------

    def namespace_count(self) -> int:
        return len(self._namespaces)

    def link_maps(self) -> Iterable[LinkMap]:
        return tuple(self._load_order)

    def loaded(self, image_name: str, lmid: int = LM_ID_BASE) -> LinkMap | None:
        return self._namespaces.get(lmid, {}).get(image_name)
