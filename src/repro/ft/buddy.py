"""Double in-memory ("buddy") checkpointing.

Charm++'s classic in-memory fault-tolerance scheme: at a checkpoint
collective every OS process keeps its ranks' packed snapshots locally
*and* pushes a copy to a buddy process — ``(p + 1) % nprocs``.  A single
node failure then always leaves at least one surviving copy of every
rank's state; recovery restores from it without touching disk.

The simulator prices a checkpoint as the slowest process's work:
a local memcpy of its share plus the :meth:`~repro.net.network.Network.
transfer_ns` of shipping that share to the buddy's endpoint, on top of
the collective barrier the caller already pays.  A job with a single OS
process has nowhere redundant to put the copy — its buddy is itself —
so a crash there is deliberately unrecoverable.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CheckpointError, FaultUnrecoverableError
from repro.ampi.checkpoint import Checkpoint, RankSnapshot
from repro.net.network import Network
from repro.perf.costs import CostModel
from repro.perf.counters import CounterSet, EV_CKPT, EV_CKPT_BYTES
from repro.trace.recorder import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.ampi.runtime import AmpiJob


def snapshot_checksum(snap: RankSnapshot) -> int:
    """CRC32 over a rank snapshot's packed state.

    Computed when the checkpoint is taken and re-verified before any
    restore, so a snapshot that rotted in place (the in-memory analogue
    of a bad DIMM or a truncated buddy transfer) is *detected* instead
    of silently restored as garbage.  Pickle protocol is pinned so the
    encoding — and therefore the checksum — is stable within a run.
    """
    return zlib.crc32(pickle.dumps(
        (snap.vp, snap.clock_ns, snap.globals_, snap.heap_items),
        protocol=4,
    ))


@dataclass
class CheckpointGeneration:
    """One consistent checkpoint: state + holders + integrity checksums."""

    ckpt: Checkpoint
    #: vp -> (primary process index, buddy process index)
    holders: dict[int, tuple[int, int]]
    #: vp -> CRC32 of the snapshot as captured
    checksums: dict[int, int]
    at_ns: int

    def corrupt_vps(self) -> list[int]:
        """Ranks whose stored snapshot no longer matches its checksum."""
        return sorted(
            vp for vp, snap in self.ckpt.snapshots.items()
            if snapshot_checksum(snap) != self.checksums[vp]
        )

    def recoverable_after(self, dead_procs: set[int]) -> bool:
        """Does every rank still have a surviving snapshot copy?"""
        return all(
            primary not in dead_procs or buddy not in dead_procs
            for primary, buddy in self.holders.values()
        )

    def lost_ranks(self, dead_procs: set[int]) -> list[int]:
        """Ranks whose both snapshot copies died (for error reporting)."""
        return sorted(
            vp for vp, (primary, buddy) in self.holders.items()
            if primary in dead_procs and buddy in dead_procs
        )


@dataclass(frozen=True)
class FtConfig:
    """Fault-tolerance knobs for one job.

    ``ckpt_interval_ns = 0`` accepts every ``mpi.checkpoint()`` request;
    a positive interval coalesces requests arriving sooner than that
    after the last accepted checkpoint into a plain barrier, so apps can
    call the collective every iteration and let the runtime pick the
    actual cadence.
    """

    ckpt_interval_ns: int = 0

    def __post_init__(self) -> None:
        if self.ckpt_interval_ns < 0:
            raise FaultUnrecoverableError(
                "checkpoint interval must be >= 0",
                reason="bad-ft-config",
            )


class BuddyCheckpointer:
    """Owns the job's last consistent double in-memory checkpoint."""

    def __init__(self, config: FtConfig, network: Network, costs: CostModel,
                 counters: CounterSet, trace: TraceRecorder | None = None,
                 trace_pid_base: int = 0):
        self.config = config
        self.network = network
        self.costs = costs
        self.counters = counters
        self.trace = trace
        self.trace_pid_base = trace_pid_base
        #: the two retained checkpoint generations, newest first; the
        #: previous generation is the fallback when the current one
        #: fails its integrity checksums at recovery time
        self.current: CheckpointGeneration | None = None
        self.previous: CheckpointGeneration | None = None
        self.last_at_ns: int | None = None
        self.taken = 0
        self.coalesced = 0
        #: generations discarded after failing checksum verification
        self.fallbacks = 0

    # Back-compat accessors: most of the runtime only cares about the
    # newest generation.

    @property
    def checkpoint(self) -> Checkpoint | None:
        return self.current.ckpt if self.current is not None else None

    @property
    def holders(self) -> dict[int, tuple[int, int]]:
        return self.current.holders if self.current is not None else {}

    @staticmethod
    def _live_buddy_of(job: "AmpiJob", proc_index: int) -> int:
        """The next process ring-wise that still has live PEs.

        Before any failure this is ``(p + 1) % nprocs``; after one, the
        replacement checkpoint must not park its redundant copy on a
        dead process.  A job reduced to one live process gets itself —
        deliberately non-redundant.
        """
        nprocs = len(job.processes)
        for step in range(1, nprocs + 1):
            cand = job.processes[(proc_index + step) % nprocs]
            if any(not pe.failed for pe in cand.pes):
                return cand.index
        return proc_index

    def due(self, at_ns: int) -> bool:
        """Would a checkpoint request at ``at_ns`` be accepted?"""
        if self.last_at_ns is None or self.config.ckpt_interval_ns == 0:
            return True
        return at_ns - self.last_at_ns >= self.config.ckpt_interval_ns

    def take(self, job: "AmpiJob", at_ns: int) -> int:
        """Capture + replicate one collective checkpoint at ``at_ns``.

        Returns the extra simulated ns (beyond the caller's barrier):
        the slowest process's local copy plus buddy transfer.
        """
        try:
            ckpt = Checkpoint.capture(job)
        except CheckpointError as e:
            raise FaultUnrecoverableError(
                f"buddy checkpointing impossible under method "
                f"{job.method.name!r}: {e}",
                reason="method-uncheckpointable",
            ) from e

        share: dict[int, int] = {p.index: 0 for p in job.processes}
        holders: dict[int, tuple[int, int]] = {}
        for rank in job.ranks():
            pidx = rank.pe.process.index
            share[pidx] += ckpt.snapshots[rank.vp].nbytes
            holders[rank.vp] = (pidx, self._live_buddy_of(job, pidx))

        extra = 0
        for proc in job.processes:
            if all(pe.failed for pe in proc.pes):
                continue  # dead processes hold no ranks and no copies
            nbytes = share[proc.index]
            buddy = job.processes[self._live_buddy_of(job, proc.index)]
            ns = self.costs.memcpy_ns(nbytes)
            if buddy is not proc:
                ns += self.network.transfer_ns(
                    nbytes, proc.endpoint, buddy.endpoint
                )
            extra = max(extra, ns)

        self.previous = self.current
        self.current = CheckpointGeneration(
            ckpt=ckpt, holders=holders,
            checksums={vp: snapshot_checksum(snap)
                       for vp, snap in ckpt.snapshots.items()},
            at_ns=at_ns,
        )
        self.last_at_ns = at_ns
        self.taken += 1
        if getattr(job, "msglog", None) is not None:
            # Local recovery never rewinds below this checkpoint: the
            # message log snapshots its cursors and drops entries the
            # checkpoint made unreachable.
            job.msglog.on_checkpoint(job)
        self.counters.incr(EV_CKPT)
        self.counters.incr(EV_CKPT_BYTES, ckpt.nbytes)
        if self.trace is not None:
            self.trace.instant(
                "buddy-ckpt", "ft", at_ns,
                pid=self.trace_pid_base,
                args={"nbytes": ckpt.nbytes, "extra_ns": extra,
                      "nprocs": len(job.processes)},
            )
        return extra

    def recoverable_after(self, dead_procs: set[int]) -> bool:
        """Does every rank still have a surviving snapshot copy?"""
        if self.current is None:
            return False
        return self.current.recoverable_after(dead_procs)

    def lost_ranks(self, dead_procs: set[int]) -> list[int]:
        """Ranks whose both snapshot copies died (for error reporting)."""
        return self.current.lost_ranks(dead_procs) if self.current else []

    # -- recovery-time selection --------------------------------------------------

    def corrupt_snapshot(self, vp: int) -> None:
        """Deliberately rot rank ``vp``'s stored snapshot (test hook).

        Mutates the captured globals so the generation's checksum no
        longer matches — the deterministic stand-in for an in-memory
        copy decaying between checkpoint and crash.
        """
        if self.current is None:
            raise CheckpointError("no checkpoint generation to corrupt")
        self.current.ckpt.snapshots[vp].globals_["__rotted__"] = True

    def usable_generation(
        self, dead_procs: set[int], *, allow_fallback: bool = True,
    ) -> tuple[CheckpointGeneration | None, bool]:
        """The newest *intact* generation to restore from.

        Verifies the current generation's snapshot checksums.  If any
        snapshot rotted, the generation is discarded and — when
        ``allow_fallback`` (global rollback; local recovery cannot use
        it because the message-log cursors belong to the newest
        checkpoint) — recovery falls back to the previous generation,
        which must itself verify.  Restoring an older generation only
        costs extra re-execution; restoring garbage would corrupt the
        job, so exhausting intact generations raises
        :class:`FaultUnrecoverableError` with reason
        ``checkpoint-corrupt``.

        Returns ``(generation, fellback)``; ``(None, False)`` when the
        intact generation cannot cover ``dead_procs`` (the caller
        classifies that as buddy-pair death).
        """
        assert self.current is not None
        bad = self.current.corrupt_vps()
        if not bad:
            if self.current.recoverable_after(dead_procs):
                return self.current, False
            return None, False
        prev = self.previous if allow_fallback else None
        prev_bad = prev.corrupt_vps() if prev is not None else None
        if prev is not None and not prev_bad \
                and prev.recoverable_after(dead_procs):
            # Promote: the corrupt generation is gone for good; every
            # later recovery (until the next checkpoint) restores from
            # the surviving one.
            self.current = prev
            self.previous = None
            self.fallbacks += 1
            return prev, True
        if not allow_fallback:
            detail = ("local recovery cannot fall back to an older "
                      "generation (message-log cursors belong to the "
                      "newest checkpoint)")
        elif prev is None:
            detail = "no previous generation retained"
        elif prev_bad:
            detail = f"previous generation corrupt too (vp(s) {prev_bad})"
        else:
            detail = "previous generation lost its surviving copy"
        raise FaultUnrecoverableError(
            f"checkpoint snapshot(s) of vp(s) {bad} failed checksum "
            f"verification and {detail}",
            reason="checkpoint-corrupt",
        )
