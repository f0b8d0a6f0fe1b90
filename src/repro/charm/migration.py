"""Rank migration between address spaces.

The Figure 8 experiment lives here: migrating a rank moves everything in
its Isomalloc slot — heap, ULT stack, TLS copy, and (under PIEglobals)
its private code+data segments, which is why PIE migration carries a
code-size surcharge that amortizes as heap size grows.

Methods that cannot migrate fail in two independent ways, both modelled:
the method's own declaration (:meth:`PrivatizationMethod.check_migratable`)
and the Isomalloc invariant (a rank owning loader-mmap'd private pages
cannot be extracted) — either raises
:class:`~repro.errors.MigrationUnsupportedError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import IsomallocError, MigrationUnsupportedError
from repro.net.network import Network
from repro.perf.counters import (
    CounterSet,
    EV_MIGRATIONS,
    EV_MIGRATION_BYTES,
)
from repro.privatization.base import PrivatizationMethod

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.locmgr import LocationManager
    from repro.charm.node import Pe
    from repro.charm.vrank import VirtualRank
    from repro.trace.recorder import TraceRecorder


@dataclass(frozen=True)
class MigrationRecord:
    vp: int
    src_pe: int
    dst_pe: int
    nbytes: int
    ns: int
    cross_process: bool


class MigrationEngine:
    def __init__(
        self,
        network: Network,
        locmgr: "LocationManager",
        method: PrivatizationMethod,
        counters: CounterSet | None = None,
        trace: TraceRecorder | None = None,
        trace_pid_base: int = 0,
    ):
        self.network = network
        self.locmgr = locmgr
        self.method = method
        self.counters = counters if counters is not None else CounterSet()
        self.trace = trace
        self.trace_pid_base = trace_pid_base
        self.records: list[MigrationRecord] = []
        #: RaceDetector when the job sanitizes; ``None`` costs one
        #: ``is not None`` test per cross-process migration
        self.sanitizer: Any = None

    def migrate(self, rank: "VirtualRank", dest_pe: "Pe") -> MigrationRecord:
        """Move ``rank`` to ``dest_pe``; returns the cost record.

        The caller decides whose clock the returned ``ns`` is charged to
        (the LB driver charges the migrating rank and folds the time into
        the LB barrier).
        """
        if dest_pe.failed:
            raise MigrationUnsupportedError(
                f"cannot migrate vp {rank.vp} to failed PE {dest_pe.index}"
            )
        src_pe = rank.pe
        if dest_pe is src_pe:
            rec = MigrationRecord(rank.vp, src_pe.index, dest_pe.index, 0, 0,
                                  cross_process=False)
            self.records.append(rec)
            return rec

        self.method.check_migratable(rank)
        src_proc = src_pe.process
        dst_proc = dest_pe.process
        cross = src_proc is not dst_proc

        if cross:
            # Differential migration (paper future work): content the
            # destination already holds need not be transferred.
            discount = self.method.migration_discount_bytes(rank, dst_proc)
            try:
                mappings = src_proc.isomalloc.extract_rank(rank.vp)
            except IsomallocError as e:
                raise MigrationUnsupportedError(str(e)) from e
            nbytes = sum(m.size for m in mappings)
            try:
                ns = self.network.migration_ns(
                    max(0, nbytes - discount),
                    src_proc.endpoint, dst_proc.endpoint,
                )
                dst_proc.isomalloc.install_rank(rank.vp, mappings)
            except BaseException:
                # The rank's pages were already extracted; losing them
                # here would strand the rank with no mappings anywhere.
                # Put them back where they came from before re-raising.
                src_proc.isomalloc.install_rank(rank.vp, mappings)
                raise
            if rank.heap is not None:
                rank.heap.isomalloc = dst_proc.isomalloc
        else:
            # Same address space: only scheduler bookkeeping moves.
            nbytes = 0
            ns = self.network.costs.migration_pack_ns

        try:
            rank.move_to(dest_pe)
        except BaseException:
            if cross:
                # Undo the half-finished transfer: pull the pages out of
                # the destination and reinstall them at the source so the
                # rank remains consistent (and migratable later).
                mappings = dst_proc.isomalloc.extract_rank(rank.vp)
                src_proc.isomalloc.install_rank(rank.vp, mappings)
                if rank.heap is not None:
                    rank.heap.isomalloc = src_proc.isomalloc
            raise
        self.locmgr.moved(rank, dest_pe)
        self.counters.incr(EV_MIGRATIONS)
        self.counters.incr(EV_MIGRATION_BYTES, nbytes)
        rec = MigrationRecord(rank.vp, src_pe.index, dest_pe.index, nbytes,
                              ns, cross_process=cross)
        if self.trace is not None:
            self.trace.span(
                f"migrate vp{rank.vp}", "mig", rank.clock.now, ns,
                pid=self.trace_pid_base + src_pe.index, tid=rank.vp,
                args={"nbytes": nbytes, "src_pe": src_pe.index,
                      "dst_pe": dest_pe.index, "cross_process": cross},
            )
        self.records.append(rec)
        if self.sanitizer is not None and cross:
            self.sanitizer.on_migrate(rank, src_proc, dst_proc, rec)
        return rec
