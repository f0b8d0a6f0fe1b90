"""Runtime cost model.

All constants are nanoseconds (or bytes-per-nanosecond for bandwidths).
They are grouped in one dataclass so that machine presets
(:mod:`repro.machine`) can derive variants and tests can build tiny,
deterministic models.

The defaults are calibrated to the paper's measured magnitudes:

* ULT context switch ~ 100 ns, with every privatization method within
  ~12 ns of the no-privatization baseline (Figure 6);
* startup overhead of the worst new method ~ 9 % over baseline at 8x
  virtualization (Figure 5);
* migration dominated by payload bytes / network bandwidth (Figure 8).

:class:`CacheGeometry` (the L1I shape a preset declares) sits here too:
it is plain data, and :mod:`repro.perf.icache`, which simulates it,
imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line description of one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry fields must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ValueError(
                "size must be a multiple of associativity * line size"
            )
        n_sets = self.size_bytes // (self.associativity * self.line_bytes)
        if n_sets & (n_sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class CostModel:
    """Nanosecond-scale costs charged by the simulated runtime."""

    # --- scheduling / ULTs -------------------------------------------------
    context_switch_ns: int = 100          #: baseline ULT yield->resume, incl. scheduler
    ult_create_ns: int = 2_500            #: allocate + initialize one ULT
    scheduler_poll_ns: int = 40           #: one empty scheduler loop iteration

    # --- privatization hooks ------------------------------------------------
    tls_segment_switch_ns: int = 10       #: swap TLS segment pointer (TLSglobals)
    got_swap_ns: int = 6                  #: swap active GOT (Swapglobals)

    # --- variable access ----------------------------------------------------
    direct_access_ns: int = 1             #: load/store of a direct global
    got_indirect_extra_ns: int = 1        #: extra hop through the GOT
    tls_indirect_extra_ns: int = 2        #: extra hop through the TLS pointer (at -O0)

    # --- toolchain / loader -------------------------------------------------
    dlopen_base_ns: int = 180_000         #: dlopen fixed cost (open, relocate)
    dlmopen_base_ns: int = 260_000        #: dlmopen fixed cost (new namespace)
    dlsym_ns: int = 900                   #: one symbol lookup
    phdr_iterate_ns: int = 3_000          #: one dl_iterate_phdr pass
    map_bandwidth_bpns: float = 24.0      #: loader segment mapping, bytes/ns
    reloc_ns_per_entry: int = 18          #: process one relocation

    # --- memory -------------------------------------------------------------
    page_size: int = 4096
    memcpy_bandwidth_bpns: float = 10.0   #: plain memcpy, bytes/ns
    malloc_ns: int = 90                   #: one heap allocation
    isomalloc_alloc_ns: int = 140         #: Isomalloc allocation (range bookkeeping)
    mmap_ns: int = 1_800                  #: one mmap syscall
    pte_setup_ns_per_page: int = 15       #: map one already-resident page
    pointer_scan_ns_per_slot: int = 1     #: PIEglobals data-segment pointer scan

    # --- AMPI runtime --------------------------------------------------------
    ampi_init_base_ns: int = 60_000_000   #: per-process runtime bring-up (MPI bootstrap included)
    ampi_rank_setup_ns: int = 45_000      #: per-virtual-rank bookkeeping
    msg_overhead_ns: int = 250            #: per-message software overhead
    collective_step_ns: int = 400         #: per tree-step software overhead
    reduction_op_ns: int = 60             #: apply one reduction element batch

    # --- network -------------------------------------------------------------
    net_latency_intra_ns: int = 600       #: same-node, cross-process latency
    net_latency_inter_ns: int = 1_700     #: cross-node latency (IB-class)
    net_bandwidth_intra_bpns: float = 40.0
    net_bandwidth_inter_bpns: float = 24.0  #: ~24 GB/s HDR-class fabric
    eager_threshold_bytes: int = 65_536   #: rendezvous handshake above this
    rendezvous_handshake_ns: int = 2_400

    # --- shared filesystem (FSglobals substrate) -----------------------------
    fs_open_ns: int = 150_000             #: metadata op on the shared FS
    fs_bandwidth_bpns: float = 4.0        #: ~4 GB/s aggregate
    fs_contention_factor: float = 0.35    #: extra per concurrent client, fractional

    # --- migration ------------------------------------------------------------
    migration_pack_ns: int = 25_000       #: fixed pack/unpack + location update

    def copy_with(self, **kw: Any) -> "CostModel":
        """Return a new model with the given fields replaced."""
        return replace(self, **kw)

    # -- derived helpers -----------------------------------------------------

    def memcpy_ns(self, nbytes: int) -> int:
        """Time to copy ``nbytes`` with the machine's memcpy bandwidth."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        return int(nbytes / self.memcpy_bandwidth_bpns)

    def map_ns(self, nbytes: int) -> int:
        """Time for the loader to map ``nbytes`` of segments."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        return self.mmap_ns + int(nbytes / self.map_bandwidth_bpns)

    def remap_resident_ns(self, nbytes: int) -> int:
        """Map ``nbytes`` of already-resident file pages: page-table
        setup only, no data movement (the mmap code-sharing fast path)."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        pages = (nbytes + self.page_size - 1) // self.page_size
        return self.mmap_ns + pages * self.pte_setup_ns_per_page

    def net_transfer_ns(self, nbytes: int, *, inter_node: bool) -> int:
        """Latency + serialization for one message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        if inter_node:
            lat, bw = self.net_latency_inter_ns, self.net_bandwidth_inter_bpns
        else:
            lat, bw = self.net_latency_intra_ns, self.net_bandwidth_intra_bpns
        t = lat + int(nbytes / bw)
        if nbytes > self.eager_threshold_bytes:
            t += self.rendezvous_handshake_ns
        return t

    def fs_read_ns(self, nbytes: int, concurrent_clients: int = 1) -> int:
        """Shared-FS read with a simple linear contention model."""
        return self._fs_ns(nbytes, concurrent_clients)

    def fs_write_ns(self, nbytes: int, concurrent_clients: int = 1) -> int:
        """Shared-FS write with a simple linear contention model."""
        return self._fs_ns(nbytes, concurrent_clients)

    def _fs_ns(self, nbytes: int, concurrent_clients: int) -> int:
        if nbytes < 0:
            raise ValueError("negative byte count")
        if concurrent_clients < 1:
            raise ValueError("need at least one client")
        slowdown = 1.0 + self.fs_contention_factor * (concurrent_clients - 1)
        return self.fs_open_ns + int(nbytes / self.fs_bandwidth_bpns * slowdown)


#: A tiny deterministic model for unit tests: every cost is small and round.
TEST_COSTS = CostModel(
    context_switch_ns=10,
    ult_create_ns=10,
    scheduler_poll_ns=1,
    tls_segment_switch_ns=2,
    got_swap_ns=1,
    direct_access_ns=1,
    got_indirect_extra_ns=1,
    tls_indirect_extra_ns=1,
    dlopen_base_ns=100,
    dlmopen_base_ns=100,
    dlsym_ns=1,
    phdr_iterate_ns=1,
    map_bandwidth_bpns=1000.0,
    reloc_ns_per_entry=1,
    memcpy_bandwidth_bpns=1000.0,
    malloc_ns=1,
    isomalloc_alloc_ns=1,
    mmap_ns=1,
    pte_setup_ns_per_page=1,
    pointer_scan_ns_per_slot=1,
    ampi_init_base_ns=1000,
    ampi_rank_setup_ns=10,
    msg_overhead_ns=5,
    collective_step_ns=5,
    reduction_op_ns=1,
    net_latency_intra_ns=10,
    net_latency_inter_ns=50,
    net_bandwidth_intra_bpns=100.0,
    net_bandwidth_inter_bpns=50.0,
    eager_threshold_bytes=1 << 20,
    rendezvous_handshake_ns=10,
    fs_open_ns=100,
    fs_bandwidth_bpns=10.0,
    fs_contention_factor=0.5,
    migration_pack_ns=100,
)
