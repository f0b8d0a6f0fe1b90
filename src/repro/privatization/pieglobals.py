"""PIEglobals: manual PIE segment copies through Isomalloc — the paper's
most fully automated *and* migratable method.

Startup, per OS process (once, SMP-safe), then per rank:

1. ``dl_iterate_phdr`` before and after a single ``dlopen`` of the PIE
   locates the freshly mapped code/data segments;
2. each rank receives a contiguous **Isomalloc** allocation holding
   private copies of the code, data, and rodata segments at the original
   relative offsets (PIE data sits right after code, so IP-relative
   global access keeps working in the copy);
3. the rank's GOT and data segment are *scanned* for values that look
   like pointers into the original segments and rebased by the copy
   delta — fast, but vulnerable to false positives (an integer variable
   whose value happens to fall in the range is corrupted; the paper plans
   a more robust scheme, available here as ``robust_scan=True`` which
   rebases only relocation-known slots);
4. heap allocations made by C++ static constructors at ``dlopen`` time are
   replicated into the rank's heap, with interior data pointers and
   function pointers rebased;
5. TLS variables are handled by composing with TLSglobals (per-rank TLS
   segment, pointer swap at context switch).

Because everything a rank owns — code and data copies included — lives in
its Isomalloc slot, dynamic migration works: the slot is copied and
re-installed at identical virtual addresses on the destination.

Extras implemented from the paper:

* ``MPI_Op`` function pointers are stored as *offsets from the rank's
  code base* and rebased against a resident rank when applied on another
  PE; a PE with no resident ranks raises
  :class:`~repro.errors.ReductionOffsetError` (Section 3.3);
* :meth:`PieGlobals.pieglobalsfind` translates a privatized address back
  to the loader's original mapping for debugger symbolication;
* ``share_rodata=True`` is the future-work read-only dedup optimization
  (skips per-rank rodata copies), available for ablation.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    PrivatizationError,
    ReductionOffsetError,
    UnsupportedToolchain,
)
from repro.machine import MachineModel, Os
from repro.mem.address_space import MapKind
from repro.privatization.base import (
    Capabilities,
    PrivatizationMethod,
    RankWiring,
    SetupEnv,
)
from repro.privatization._util import (
    clone_instance_private,
    routes_for,
    unpack_funcptr_shim,
)
from repro.program.binary import Binary
from repro.program.compiler import CompileOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import JobLayout, Pe
    from repro.charm.vrank import VirtualRank


@dataclass(frozen=True)
class PieRegion:
    """One rank's privatized image copy (for pieglobalsfind and MPI_Op)."""

    vp: int
    new_base: int
    size: int
    orig_base: int

    def contains(self, addr: int) -> bool:
        return self.new_base <= addr < self.new_base + self.size

    def to_original(self, addr: int) -> int:
        return addr - self.new_base + self.orig_base


@dataclass
class ScanReport:
    """What one data-segment pointer scan did."""

    slots_scanned: int = 0
    segment_pointers_fixed: int = 0
    heap_pointers_fixed: int = 0
    got_entries_fixed: int = 0


class ScanPlan:
    """One process's pointer scan, made once.

    Every rank's data copy, GOT clone and constructor replicas start out
    equal to the loader's own post-constructor instance, so scanning that
    finds what scanning each copy would; a rank differs only in its copy
    ``delta`` and its ``heap_map``.  Pairs are ``(slot, value found)``.
    """

    __slots__ = ("slots_scanned", "segment_ptrs", "heap_ptrs", "got_hits",
                 "interiors")

    def __init__(self, slots_scanned: int, segment_ptrs: tuple,
                 heap_ptrs: tuple, got_hits: tuple, interiors: tuple):
        self.slots_scanned = slots_scanned
        self.segment_ptrs = segment_ptrs    #: data slots into the image
        self.heap_ptrs = heap_ptrs          #: ... at a ctor allocation
        self.got_hits = got_hits            #: GOT indices into the image
        #: per constructor allocation: (address, pointer slots it holds,
        #: ptr_slots into the image, ptr_slots at a ctor allocation,
        #: fn_ptr_slots into the image)
        self.interiors = interiors


class PieGlobals(PrivatizationMethod):
    name = "pieglobals"
    cost_rank = 6
    capabilities = Capabilities(
        method="PIEglobals",
        automation="Good",
        portability="Implemented w/ GNU libc extension",
        smp_support="Yes",
        migration="Yes",
    )
    uses_funcptr_shim = True

    def __init__(self, *, share_rodata: bool = False,
                 robust_scan: bool = False,
                 dedup_migration: bool = False,
                 mmap_code_sharing: bool = False):
        self.share_rodata = share_rodata
        self.robust_scan = robust_scan
        #: future-work optimization: code segments are identical across
        #: ranks, so a migration to a process that already hosts another
        #: rank's copy only transfers the data portion
        self.dedup_migration = dedup_migration
        #: future-work optimization (Section 6): per-rank code *mappings*
        #: come from one file descriptor, so the physical pages are
        #: shared — rss and migration wire bytes drop by the code size
        self.mmap_code_sharing = mmap_code_sharing
        self._regions: list[PieRegion] = []
        self.scan_reports: dict[int, ScanReport] = {}
        self._binary_code_bytes: int = 0
        self._code_only_bytes: int = 0

    # -- build time ----------------------------------------------------------

    def compile_options(self, base: CompileOptions,
                        machine: MachineModel) -> CompileOptions:
        opts = base.with_(pie=True)
        # Compose with TLSglobals where the toolchain supports it.
        if machine.toolchain.supports_tls_seg_refs_flag:
            opts = opts.with_(tls_seg_refs=True)
        return opts

    def check_supported(self, machine: MachineModel,
                        layout: "JobLayout") -> None:
        if machine.os is not Os.LINUX:
            raise UnsupportedToolchain(
                "PIEglobals is implemented for GNU/Linux (glibc loader "
                "extensions, stable since 2005); macOS support is future work"
            )
        if not machine.toolchain.has_dl_iterate_phdr:
            raise UnsupportedToolchain(
                "PIEglobals requires dl_iterate_phdr"
            )

    def context_switch_extra_ns(self, costs) -> int:
        # PIEglobals implies TLSglobals for TLS variables, so it pays the
        # TLS segment-pointer swap at every switch (Figure 6).
        return costs.tls_segment_switch_ns

    # -- startup -----------------------------------------------------------------

    def setup_process(self, env: SetupEnv, binary: Binary,
                      ranks: list["VirtualRank"]) -> dict[int, RankWiring]:
        loader = env.loader

        # dl_iterate_phdr diff around a single dlopen finds the segments.
        before = {(i.name, i.lmid) for i in loader.dl_iterate_phdr()}
        lm = loader.dlopen(binary.image)
        new_infos = [
            i for i in loader.dl_iterate_phdr()
            if (i.name, i.lmid) not in before
        ]
        if new_infos:
            info = new_infos[0]
            orig_base, orig_end = info.code_start, (
                info.rodata_start + info.rodata_size
            )
        else:
            # Already open (SMP: another PE's setup did it).  Reuse it.
            orig_base, orig_end = lm.segment_span()

        image = binary.image
        copy_span = orig_end - orig_base
        self._binary_code_bytes = image.code.size + image.rodata.size
        self._code_only_bytes = image.code.size
        tls_initial = image.tls.instantiate(lm.rodata.end)
        scan = self._plan_scan(binary, lm, orig_base, orig_end)

        wirings: dict[int, RankWiring] = {}
        for rank in ranks:
            wirings[rank.vp] = self._setup_rank(
                env, binary, rank, lm, orig_base, copy_span, tls_initial,
                scan,
            )
        return wirings

    def _setup_rank(self, env: SetupEnv, binary: Binary,
                    rank: "VirtualRank", lm, orig_base: int,
                    copy_span: int, tls_initial,
                    scan: ScanPlan) -> RankWiring:
        image = binary.image
        clk = env.process.startup_clock
        iso = env.process.isomalloc

        # One contiguous allocation preserving the original relative
        # layout (code, then data, then rodata).  With the read-only
        # dedup option the rodata tail is neither copied nor mapped.
        if self.share_rodata:
            alloc_span = lm.rodata.base - orig_base
        else:
            alloc_span = copy_span
        # With mmap code sharing, the code pages of every rank's mapping
        # are file-backed views of one physical copy: virtual size is
        # unchanged, resident bytes exclude the code span, and the code
        # is *mapped* (page tables) rather than memcpy'd.
        rss = (alloc_span - image.code.size if self.mmap_code_sharing
               else None)
        mapping = iso.alloc(
            rank.vp, alloc_span, MapKind.CODE,
            tag=f"pie:image[{rank.vp}]", rss_bytes=rss,
        )
        new_base = mapping.start
        delta = new_base - orig_base

        code_priv = image.code.instantiate(new_base)
        data_priv = lm.data.clone_at(lm.data.base + delta)
        if self.share_rodata:
            rodata_priv = lm.rodata
            copied = alloc_span
        else:
            rodata_priv = lm.rodata.clone_at(lm.rodata.base + delta)
            copied = copy_span
        if self.mmap_code_sharing:
            copied = max(0, copied - image.code.size)
            clk.advance(env.costs.remap_resident_ns(image.code.size))
        mapping.payload = {
            "code": code_priv, "data": data_priv, "rodata": rodata_priv
        }
        t_copy = clk.now
        clk.advance(env.costs.isomalloc_alloc_ns)
        clk.advance(env.costs.memcpy_ns(copied))
        if env.trace is not None:
            env.trace.span(
                "pie:image-copy", "priv", t_copy, clk.now - t_copy,
                pid=env.trace_pid, tid=rank.vp,
                args={"nbytes": copied, "share_rodata": self.share_rodata,
                      "mmap_code_sharing": self.mmap_code_sharing},
            )

        region = PieRegion(vp=rank.vp, new_base=new_base, size=copy_span,
                           orig_base=orig_base)
        self._regions.append(region)

        # Replicate constructor-made heap allocations, then fix pointers.
        t_ctor = clk.now
        heap_map = self._replicate_ctor_allocations(env, rank, lm)
        if env.trace is not None and heap_map:
            env.trace.span(
                "pie:ctor-replicate", "priv", t_ctor, clk.now - t_ctor,
                pid=env.trace_pid, tid=rank.vp,
                args={"allocations": len(heap_map)},
            )
        t_scan = clk.now
        got_priv = lm.got.clone()
        report = self._scan_and_fixup(
            env, rank, scan, data_priv, got_priv, delta, heap_map)
        if env.trace is not None:
            env.trace.span(
                "pie:pointer-scan", "priv", t_scan, clk.now - t_scan,
                pid=env.trace_pid, tid=rank.vp,
                args={"slots_scanned": report.slots_scanned,
                      "segment_pointers_fixed": report.segment_pointers_fixed,
                      "heap_pointers_fixed": report.heap_pointers_fixed,
                      "got_entries_fixed": report.got_entries_fixed,
                      "robust_scan": self.robust_scan},
            )
        self.scan_reports[rank.vp] = report
        rank.method_data.update(
            pie_region=region, got=got_priv, orig_base=orig_base
        )

        # TLSglobals composition: per-rank TLS segment.
        tls_priv = None
        if len(image.tls.vars):
            tls_priv, _ = clone_instance_private(
                env, rank, tls_initial, MapKind.TLS, f"pie:tls[{rank.vp}]"
            )

        calltable = unpack_funcptr_shim(data_priv, env)

        return RankWiring(
            routes=routes_for(data_priv, rodata_priv, tls_priv),
            code=code_priv, tls_instance=tls_priv, shim_calltable=calltable)

    def _replicate_ctor_allocations(self, env: SetupEnv,
                                    rank: "VirtualRank", lm) -> dict[int, int]:
        """Copy every dlopen-time constructor allocation into the rank's
        heap; returns old address -> new address."""
        heap_map: dict[int, int] = {}
        if rank.heap is None or not lm.ctor_allocations:
            return heap_map
        clk = env.process.startup_clock
        for alloc in lm.ctor_allocations:
            new = rank.heap.malloc(
                alloc.nbytes,
                data=_copy.deepcopy(alloc.data),
                tag=f"pie-ctor:{alloc.tag}",
            )
            new.ptr_slots = dict(alloc.ptr_slots)
            new.fn_ptr_slots = dict(alloc.fn_ptr_slots)
            heap_map[alloc.addr] = new.addr
            clk.advance(env.costs.memcpy_ns(alloc.nbytes))
        return heap_map

    def _plan_scan(self, binary: Binary, lm, orig_start: int,
                   orig_end: int) -> ScanPlan:
        """Find the pointers into the original image held by the loader's
        data segment, GOT and constructor allocations.

        The default mode mirrors the paper: *scan for anything that looks
        like a pointer* into [orig_start, orig_end).  ``robust_scan``
        instead trusts relocation records only (no false positives).
        """
        known_slots: set[str] | None = None
        if self.robust_scan:
            known_slots = set(binary.image.addr_inits)
        heap_addrs = {alloc.addr for alloc in lm.ctor_allocations}

        def in_image(value: int) -> bool:
            return orig_start <= value < orig_end

        slots_scanned = 0
        segment_ptrs, heap_ptrs = [], []
        for _addr, name, value in lm.data.slots():
            slots_scanned += 1
            if not isinstance(value, int) or isinstance(value, bool):
                continue
            if known_slots is not None and name not in known_slots:
                continue
            if in_image(value):
                segment_ptrs.append((name, value))
            elif value in heap_addrs:
                heap_ptrs.append((name, value))

        # Interior pointers of constructor allocations: data pointers may
        # reference the original segments or *other* ctor allocations;
        # function pointers (vtables) reference original code.
        interiors = tuple(
            (alloc.addr, len(alloc.ptr_slots) + len(alloc.fn_ptr_slots),
             tuple(p for p in alloc.ptr_slots.items() if in_image(p[1])),
             tuple(p for p in alloc.ptr_slots.items()
                   if not in_image(p[1]) and p[1] in heap_addrs),
             tuple(p for p in alloc.fn_ptr_slots.items() if in_image(p[1])))
            for alloc in lm.ctor_allocations)
        got_hits = tuple(i for i, addr in enumerate(lm.got.addresses)
                         if in_image(addr))
        return ScanPlan(slots_scanned, tuple(segment_ptrs), tuple(heap_ptrs),
                        got_hits, interiors)

    def _scan_and_fixup(self, env: SetupEnv, rank: "VirtualRank",
                        scan: ScanPlan, data_priv, got_priv, delta: int,
                        heap_map: dict[int, int]) -> ScanReport:
        """Apply the process's scan to one rank's private data segment,
        GOT and replicated constructor allocations, and charge the rank
        for scanning them (every slot of every copy is read)."""
        clk = env.process.startup_clock
        scan_ns = env.costs.pointer_scan_ns_per_slot
        report = ScanReport(
            slots_scanned=scan.slots_scanned,
            segment_pointers_fixed=len(scan.segment_ptrs),
            got_entries_fixed=len(scan.got_hits),
        )
        values = data_priv.values
        for name, value in scan.segment_ptrs:
            values[name] = value + delta
        addresses = got_priv.addresses
        for i in scan.got_hits:
            addresses[i] += delta
        clk.advance(scan_ns * (scan.slots_scanned + len(addresses)))

        # An empty heap_map (no rank heap, or no constructor allocated)
        # leaves pointers at constructor allocations alone.
        if heap_map:
            fixed = len(scan.heap_ptrs)
            for name, value in scan.heap_ptrs:
                values[name] = heap_map[value]
            for old, slots, rebase, remap, fn_rebase in scan.interiors:
                alloc = rank.heap.allocations[heap_map[old]]
                clk.advance(scan_ns * slots)
                for slot, value in rebase:
                    alloc.ptr_slots[slot] = value + delta
                for slot, value in remap:
                    alloc.ptr_slots[slot] = heap_map[value]
                for slot, value in fn_rebase:
                    alloc.fn_ptr_slots[slot] = value + delta
                fixed += len(rebase) + len(remap) + len(fn_rebase)
            report.heap_pointers_fixed = fixed
        return report

    # -- differential migration (Section 6 future work) ------------------------------

    def migration_discount_bytes(self, rank, dest_process) -> int:
        """Bytes that need not cross the wire on migration.

        * ``mmap_code_sharing``: the code pages are file-backed — the
          destination re-maps them from the same descriptor, always.
        * ``dedup_migration``: code+rodata are skipped whenever the
          destination process already hosts another rank of the same
          binary (identical content is already resident there).
        """
        discount = 0
        if self.mmap_code_sharing:
            discount = self._code_only_bytes
        if self.dedup_migration:
            residents = dest_process.resident_ranks()
            if any(r.vp != rank.vp and "pie_region" in r.method_data
                   for r in residents):
                discount = max(discount, self._binary_code_bytes)
        return discount

    # -- MPI_Op offset translation (Section 3.3) ------------------------------------

    def fnptr_to_offset(self, rank: "VirtualRank", addr: int) -> int:
        region: PieRegion | None = rank.method_data.get("pie_region")
        if region is None or not region.contains(addr):
            raise PrivatizationError(
                f"address {addr:#x} is not in rank {rank.vp}'s code copy"
            )
        return addr - region.new_base

    def offset_to_fnptr(self, pe: "Pe", offset: int) -> int:
        """Rebase a stored op offset against *some* rank resident on ``pe``."""
        rank = pe.any_resident()
        if rank is None:
            raise ReductionOffsetError(
                f"PE {pe.index} has no resident virtual ranks: cannot "
                "rebase a user-defined reduction function offset "
                "(PIEglobals requires at least one rank per PE during "
                "reduction processing)"
            )
        region: PieRegion = rank.method_data["pie_region"]
        return region.new_base + offset

    # -- debugging (Section 3.3, pieglobalsfind) ---------------------------------------

    def pieglobalsfind(self, addr: int) -> tuple[int, int]:
        """Translate a privatized address back to the loader's original
        mapping; returns (original address, owning vp).

        Call from "inside a debugger" to symbolicate backtraces that point
        into a rank's manually copied code segment.
        """
        for region in self._regions:
            if region.contains(addr):
                return region.to_original(addr), region.vp
        raise PrivatizationError(
            f"pieglobalsfind: {addr:#x} is not inside any privatized "
            "code/data copy"
        )
