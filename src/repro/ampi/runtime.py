"""The AMPI runtime: builds, starts, and runs virtualized MPI jobs.

:class:`AmpiJob` is the package's main entry point.  It owns the whole
object graph — machine topology, loaders, Isomalloc arena, privatization
method, scheduler, message plumbing, collectives, migration and load
balancing — and returns a :class:`JobResult` with simulated-time metrics
for every figure in the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from inspect import isgeneratorfunction
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.ampi.api import MpiHandle
from repro.ampi.collectives import CollectiveEngine
from repro.ampi.comm import ANY_SOURCE, ANY_TAG, Communicator
from repro.ampi.datatypes import payload_nbytes
from repro.ampi.funcptr import pack_transport, shim_compile_unit
from repro.ampi.ops import UserOp
from repro.ampi.requests import Request, RequestKind, Status
from repro.charm.lb import RankStat, get_strategy
from repro.charm.locmgr import LocationManager
from repro.charm.messages import Message, next_seq
from repro.charm.migration import MigrationEngine, MigrationRecord
from repro.charm.node import JobLayout, build_topology
from repro.charm.reduction import tree_depth
from repro.charm.scheduler import JobScheduler
from repro.charm.vrank import VirtualRank
from repro.elf.loader import DynamicLoader
from repro.errors import (
    FaultUnrecoverableError,
    MpiAbort,
    MpiError,
    ReductionOffsetError,
    ReproError,
)
from repro.fs.sharedfs import SharedFileSystem
from repro.machine import GENERIC_LINUX, MachineModel
from repro.mem.address_space import MapKind
from repro.mem.heap import RankHeap
from repro.mem.isomalloc import IsomallocArena
from repro.mem.layout import DEFAULT_SLOT_SIZE
from repro.net.network import Network
from repro.perf.counters import (
    CounterSet,
    EV_DEDUP_DROP,
    EV_MSG_BYTES,
    EV_MSG_SENT,
    EV_REPLAYED,
)
from repro.privatization import get_method
from repro.privatization.base import SetupEnv
from repro.program.binary import Binary
from repro.program.compiler import Compiler, CompileOptions
from repro.program.context import ExecutionContext, FetchTracer, GlobalsView
from repro.program.source import ProgramSource
from repro.threads.ult import UserLevelThread

# Fault tolerance, the reliable transport and tracing are optional
# subsystems: a job that arms none of them never imports them (see
# __init__ and start()).
if TYPE_CHECKING:  # pragma: no cover
    from repro.ft.buddy import BuddyCheckpointer, FtConfig
    from repro.ft.msglog import MessageLogger
    from repro.ft.plan import FaultPlan
    from repro.ft.recovery import RecoveryManager
    from repro.net.reliable import ReliableTransport
    from repro.trace.recorder import TraceRecorder

_job_ids = itertools.count(0)

#: an entry point that can block: yields its reasons, ``yield from`` it
Blocking = Generator[str, None, Any]


def jsonable(v: Any) -> Any:
    """A rank exit value as JSON: native scalars pass, the rest ``repr``."""
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    return repr(v)


@dataclass(frozen=True)
class PeStat:
    index: int
    busy_ns: int
    idle_ns: int
    ctx_switches: int
    final_ranks: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return {"pe": self.index, "busy_ns": self.busy_ns,
                "idle_ns": self.idle_ns, "ctx_switches": self.ctx_switches,
                "final_ranks": list(self.final_ranks)}


@dataclass(frozen=True)
class LbReport:
    at_ns: int
    strategy: str
    moves: int
    bytes_moved: int
    imbalance_before: float
    imbalance_after: float


@dataclass
class JobResult:
    method: str
    nvp: int
    layout: JobLayout
    machine: str
    exit_values: dict[int, Any]
    makespan_ns: int
    startup_ns: int
    startup_per_process: list[int]
    counters: CounterSet
    pe_stats: list[PeStat]
    migrations: list[MigrationRecord]
    lb_reports: list[LbReport]
    forwarded_messages: int
    collectives_completed: int
    rank_cpu_ns: dict[int, int]
    #: the job's trace recorder, when tracing was enabled
    trace: "TraceRecorder | None" = None
    #: completed crash recoveries (fault-tolerance subsystem)
    recoveries: int = 0
    #: which transport delivered point-to-point messages
    transport: str = "priced"
    #: rollback protocol armed for this job ("global" or "local")
    recovery: str = "global"
    #: per-vp count of times that rank was rolled back by recovery
    rollbacks: dict[int, int] = field(default_factory=dict)
    #: sanitizer findings from this job, in deterministic order
    #: (empty unless the job ran with ``sanitize=``)
    sanitize_findings: list = field(default_factory=list)
    #: structured classification when the job died unrecoverably (one of
    #: :data:`repro.errors.UNRECOVERABLE_REASONS`); None for a run that
    #: completed.  Populated by ``run(strict=False)``.
    unrecoverable_reason: str | None = None
    #: human-readable message of the fatal error (None when completed)
    error: str | None = None
    #: one entry per recovered crash, in handling order (node, at_ns,
    #: dead_vps, cascade, ckpt_fallback, recovery_ns, resume_ns) — the
    #: account chaos invariants reconcile rollback counters against
    crashes: list = field(default_factory=list)

    @property
    def app_ns(self) -> int:
        """Post-startup execution time."""
        return max(0, self.makespan_ns - self.startup_ns)

    def summary(self) -> str:
        top = sorted(self.counters.items(), key=lambda kv: (-kv[1], kv[0]))
        highlights = " ".join(f"{k}={v}" for k, v in top[:3])
        return (
            f"[{self.method}] nvp={self.nvp} "
            f"pes={self.layout.total_pes} "
            f"startup={self.startup_ns} ns app={self.app_ns} ns "
            f"makespan={self.makespan_ns} ns "
            f"migrations={sum(1 for m in self.migrations if m.src_pe != m.dst_pe)}"
            + (f" | {highlights}" if highlights else "")
        )

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable report (gem5-style standardized results).

        Everything is plain JSON-able data; rank exit values that are not
        JSON-native are stringified.
        """
        return {
            "method": self.method,
            "nvp": self.nvp,
            "machine": self.machine,
            "layout": asdict(self.layout),
            "makespan_ns": self.makespan_ns,
            "startup_ns": self.startup_ns,
            "app_ns": self.app_ns,
            "startup_per_process_ns": list(self.startup_per_process),
            "counters": dict(sorted(self.counters.snapshot().items())),
            "pe_stats": [p.to_dict() for p in self.pe_stats],
            "migrations": [asdict(m) for m in self.migrations],
            "lb_reports": [asdict(r) for r in self.lb_reports],
            "forwarded_messages": self.forwarded_messages,
            "collectives_completed": self.collectives_completed,
            "recoveries": self.recoveries,
            "transport": self.transport,
            "recovery": self.recovery,
            "rollbacks": {str(vp): n
                          for vp, n in sorted(self.rollbacks.items())},
            "status": ("ok" if self.unrecoverable_reason is None
                       else "unrecoverable"),
            "unrecoverable_reason": self.unrecoverable_reason,
            "error": self.error,
            "crashes": list(self.crashes),
            "sanitize_findings": [f.to_dict() for f in self.sanitize_findings],
            "rank_cpu_ns": {str(vp): ns
                            for vp, ns in sorted(self.rank_cpu_ns.items())},
            "exit_values": {str(vp): jsonable(v)
                            for vp, v in sorted(self.exit_values.items())},
        }


#: the legal values of a job's enumerated options, default first
PLACEMENTS = ("block", "roundrobin")
TRANSPORTS = ("priced", "reliable")
RECOVERIES = ("global", "local")


def check_job_options(placement: str, transport: str, recovery: str) -> None:
    """The one checker of the enumerated options and their one
    cross-constraint (``JobSpec.validate`` and ``AmpiJob`` both call it)."""
    for what, value, legal in (("placement", placement, PLACEMENTS),
                               ("transport", transport, TRANSPORTS),
                               ("recovery mode", recovery, RECOVERIES)):
        if value not in legal:
            raise ReproError(f"unknown {what} {value!r}; have {legal}")
    if recovery == "local" and transport != "reliable":
        raise ReproError(
            'recovery="local" requires transport="reliable": message '
            "logging and replay suppression key off the reliable "
            "transport's channel sequence numbers"
        )


def build_binary(source: ProgramSource, method: "str | Any" = "pieglobals",
                 machine: MachineModel = GENERIC_LINUX,
                 optimize: int = 2) -> Binary:
    """The build recipe, written once: everything follows from the
    method's name — its compile flags (PIE, TLS tagging, GOT refs), the
    Figure 4 function-pointer shim iff its code is duplicated per rank,
    the machine's toolchain checks, and its own check of the product."""
    method = get_method(method)
    opts = method.compile_options(CompileOptions(optimize=optimize), machine)
    shim = [shim_compile_unit()] if method.uses_funcptr_shim else []
    binary = Compiler(machine.toolchain).compile(source, opts,
                                                 extra_units=shim)
    method.validate_binary(binary)
    return binary


class AmpiJob:
    """One virtualized MPI job on a simulated machine."""

    def __init__(
        self,
        source: ProgramSource | Binary,
        nvp: int,
        *,
        method: str | Any = "pieglobals",
        machine: MachineModel = GENERIC_LINUX,
        layout: JobLayout | None = None,
        lb_strategy: str | Any = "greedyrefine",
        optimize: int = 2,
        stack_bytes: int = 64 * 1024,
        slot_size: int = DEFAULT_SLOT_SIZE,
        placement: str = "block",
        trace_fetches: bool = False,
        trace: "TraceRecorder | bool | None" = None,
        argv: tuple[str, ...] = (),
        restore_from: "Any | None" = None,
        fault_plan: FaultPlan | None = None,
        ft: FtConfig | None = None,
        transport: str = "priced",
        recovery: str = "global",
        ult_backend: "str | Any | None" = None,
        sanitize: "bool | Any | None" = None,
    ):
        if nvp < 1:
            raise ReproError("need at least one virtual rank")
        self.job_id = next(_job_ids)
        self.nvp = nvp
        self.machine = machine
        self.costs = machine.costs
        self.method = get_method(method)
        self.layout = layout or JobLayout.single(
            min(nvp, machine.cores_per_node)
        )
        self.lb_strategy = get_strategy(lb_strategy)
        self.optimize = optimize
        self.stack_bytes = stack_bytes
        self.slot_size = slot_size
        #: the worker pool rank ULTs take their OS stacks from: None (or
        #: "pooled") for the process-wide shared pool, or a private
        #: PooledBackend instance — no effect on simulated timelines
        self.ult_backend = ult_backend
        check_job_options(placement, transport, recovery)
        self.placement = placement
        self.trace_fetches = trace_fetches
        #: Projections-style tracing: off unless a recorder is attached.
        if trace is True:
            from repro.trace.recorder import TraceRecorder

            trace = TraceRecorder()
        elif trace is False:
            trace = None
        self.trace: TraceRecorder | None = trace
        self._pe_pid_base = 0
        self._proc_pid_base = 0
        self.argv = tuple(argv)
        self.restore_from = restore_from
        #: fault tolerance: injector follows the plan; buddy checkpoints
        #: and the recovery manager are created by start() when enabled
        self.fault_plan = fault_plan
        self.ft = ft
        self.fault_injector = None
        if fault_plan is not None:
            from repro.ft.plan import FaultInjector

            self.fault_injector = FaultInjector(fault_plan)
        self.buddy_ckpt: BuddyCheckpointer | None = None
        self.recovery: RecoveryManager | None = None
        #: message delivery discipline: "priced" charges faults as a flat
        #: latency lump; "reliable" runs the real seq/ack/retransmit
        #: protocol (repro.net.reliable)
        self.transport = transport
        self.recovery_mode = recovery
        self.reliable: ReliableTransport | None = None
        self.msglog: MessageLogger | None = None

        self.method.check_supported(machine, self.layout)
        self.binary = self._build(source)
        image = self.binary.image
        #: what a rank's ULT runs: the entry function's shape selects
        #: the target's, and so the rank's stack (:mod:`repro.threads.ult`)
        self._rank_target = (
            self._rank_steps
            if isgeneratorfunction(image.code.funcs[image.entry].fn)
            else self._rank_entry)

        # Populated by start():
        self.started = False
        self.world = Communicator.world(nvp)
        self.nodes: list = []
        self.processes: list = []
        self.pes: list = []
        self._ranks: dict[int, VirtualRank] = {}
        self.sharedfs = SharedFileSystem(self.costs)
        self.network = Network(self.costs)
        self.locmgr = LocationManager()
        self.counters = CounterSet()
        #: runtime race detection (repro.sanitize): off unless a detector
        #: is attached — same zero-overhead-when-off rule as tracing.
        #: ``True`` builds a fresh detector; an existing RaceDetector can
        #: be shared across jobs to accumulate findings over a sweep.
        if sanitize is True:
            from repro.sanitize.runtime import RaceDetector
            sanitize = RaceDetector(counters=self.counters, trace=self.trace)
        elif sanitize is False:
            sanitize = None
        self.sanitizer: Any = sanitize
        self.scheduler: JobScheduler | None = None
        self.migration_engine: MigrationEngine | None = None
        self.collectives = CollectiveEngine(self)
        self.lb_reports: list[LbReport] = []
        self.checkpoints: list = []

    # -- build ---------------------------------------------------------------------

    def _build(self, source: ProgramSource | Binary) -> Binary:
        if isinstance(source, Binary):   # built elsewhere: admit it only
            self.method.validate_binary(source)
            return source
        return build_binary(source, self.method, self.machine, self.optimize)

    # -- startup -----------------------------------------------------------------------

    def start(self) -> None:
        """Bring the job up: topology, privatization setup, ULTs."""
        if self.started:
            raise ReproError("job already started")
        self.started = True
        arena = IsomallocArena(self.nvp, self.slot_size)
        san = self.sanitizer
        if san is not None:
            san.attach_job(self.binary.name, arena)
        self.nodes, self.processes, self.pes = build_topology(
            self.layout, self.machine, arena
        )
        tr = self.trace
        if tr is not None:
            # One pid per PE, then one per OS process (startup track).
            base = tr.alloc_pid_block(len(self.pes) + len(self.processes))
            self._pe_pid_base = base
            self._proc_pid_base = base + len(self.pes)
            for pe in self.pes:
                tr.name_process(base + pe.index,
                                f"{self.method.name}/pe{pe.index}")
            for proc in self.processes:
                tr.name_process(self._proc_pid_base + proc.index,
                                f"{self.method.name}/proc{proc.index} startup")
        for proc in self.processes:
            proc.loader = DynamicLoader(
                proc.vm, self.machine.toolchain, self.costs,
                counters=proc.counters, clock=proc.startup_clock,
                trace=tr, trace_pid=self._proc_pid_base + proc.index,
            )
            proc.startup_clock.advance(self.costs.ampi_init_base_ns)

        # Place ranks (block or round-robin) and create their
        # ULTs/heaps/stacks.
        nvp, pes, npes = self.nvp, self.pes, self.layout.total_pes
        roundrobin = self.placement == "roundrobin"
        stack_bytes = self.stack_bytes
        rank_ns = self.costs.ult_create_ns + self.costs.ampi_rank_setup_ns
        for vp in range(nvp):
            pe = pes[vp % npes if roundrobin else vp * npes // nvp]
            rank = self._ranks[vp] = VirtualRank(vp, pe)
            self.locmgr.register(rank)
            proc = pe.process
            iso = proc.isomalloc
            rank.heap = RankHeap(vp, iso)
            rank.stack_mapping = iso.alloc(
                vp, stack_bytes, MapKind.STACK, tag=f"stack[{vp}]")
            rank.ult = self.new_ult(rank)
            proc.startup_clock.advance(rank_ns)

        # Privatization setup, per process.
        default_calltable = pack_transport(self)
        transport = (default_calltable
                     if self.method.uses_funcptr_shim else None)
        optimized = self.optimize >= 1
        costs, counters, argv = self.costs, self.counters, self.argv
        for proc in self.processes:
            ranks_here = sorted(proc.resident_ranks(), key=attrgetter("vp"))
            env = SetupEnv(
                process=proc,
                loader=proc.loader,
                machine=self.machine,
                layout=self.layout,
                costs=self.costs,
                sharedfs=self.sharedfs,
                concurrent_procs=self.layout.total_processes,
                job_tag=f"job{self.job_id}",
                optimized=optimized,
                funcptr_transport=transport,
                trace=tr,
                trace_pid=self._proc_pid_base + proc.index,
            )
            t_setup = proc.startup_clock.now
            wirings = self.method.setup_process(env, self.binary, ranks_here)
            if tr is not None:
                tr.span(
                    f"setup:{self.method.name}", "priv", t_setup,
                    proc.startup_clock.now - t_setup,
                    pid=self._proc_pid_base + proc.index,
                    args={"ranks": len(ranks_here)},
                )
            for rank in ranks_here:
                wiring = wirings[rank.vp]
                clock = rank.ult.clock
                if san is None:
                    view = GlobalsView(wiring.routes, costs, clock,
                                       counters=counters, optimized=optimized)
                else:
                    from repro.sanitize.runtime import SanitizedGlobalsView
                    view = SanitizedGlobalsView(
                        wiring.routes, costs, clock,
                        counters=counters, optimized=optimized,
                        probe=san.bind(rank.vp, clock),
                    )
                tracer = FetchTracer() if self.trace_fetches else None
                rank.code = wiring.code
                rank.tls_instance = wiring.tls_instance
                shim = wiring.shim_calltable
                ctx = rank.ctx = ExecutionContext(
                    vp=rank.vp, view=view, code=wiring.code, clock=clock,
                    costs=costs, heap=rank.heap, counters=counters,
                    tracer=tracer, argv=argv,
                )
                ctx.mpi = MpiHandle(rank, shim or default_calltable,
                                    via_shim=shim is not None)

        if self.restore_from is not None:
            self.restore_from.apply_to(self)

        self.migration_engine = MigrationEngine(
            self.network, self.locmgr, self.method, self.counters,
            trace=tr, trace_pid_base=self._pe_pid_base,
        )
        self.scheduler = JobScheduler(
            self.costs, self.method.context_switch_extra_ns(self.costs),
            trace=tr, trace_pid_base=self._pe_pid_base,
            trace_label=self.method.name, counters=self.counters,
        )
        # a generator handed out in a rank's last quantum: see MpiHandle
        self.scheduler.on_rank_done = \
            lambda rank: rank.ctx.mpi._check_delegated()
        if san is not None:
            self.scheduler.on_quantum = san.on_quantum
            self.migration_engine.sanitizer = san

        if self.transport == "reliable":
            from repro.net.reliable import ReliableTransport

            mf = (self.fault_plan.message_faults
                  if self.fault_plan is not None else None)
            self.reliable = ReliableTransport(
                self.scheduler, self.counters,
                injector=self.fault_injector,
                rto_ns=mf.retry_timeout_ns if mf is not None else 50_000,
                trace=tr,
            )

        # Fault tolerance: buddy checkpointing is on whenever an FtConfig
        # is given or the fault plan can kill a node (a crash without a
        # checkpoint would be unrecoverable by construction).
        wants_ft = self.ft is not None or (
            self.fault_plan is not None and self.fault_plan.node_crashes
        )
        if wants_ft:
            from repro.ft.buddy import BuddyCheckpointer, FtConfig

            self.buddy_ckpt = BuddyCheckpointer(
                self.ft or FtConfig(), self.network, self.costs,
                self.counters, trace=tr, trace_pid_base=self._pe_pid_base,
            )
        if self.fault_plan is not None and self.fault_plan.node_crashes:
            from repro.ft.recovery import (
                LocalRecoveryManager,
                RecoveryManager,
            )

            if self.recovery_mode == "local":
                from repro.ft.msglog import MessageLogger

                # Sender-based message logging must exist before the
                # baseline checkpoint below snapshots its cursors.
                self.msglog = MessageLogger(self.counters)
                self.recovery = LocalRecoveryManager(self, self.fault_injector)
            else:
                self.recovery = RecoveryManager(self, self.fault_injector)
            self.scheduler.fault_check = self.recovery.poll
        if self.buddy_ckpt is not None:
            # Baseline checkpoint at startup: a crash before the first
            # application checkpoint restarts from the initial state, and
            # non-checkpointable methods fail here, structured and early.
            at0 = max(p.startup_clock.now for p in self.processes)
            extra = self.buddy_ckpt.take(self, at0)
            self.checkpoints.append(self.buddy_ckpt.checkpoint)
            for proc in self.processes:
                proc.startup_clock.advance(extra)

        if tr is not None:
            for proc in self.processes:
                tr.span("ampi-init", "startup", 0, proc.startup_clock.now,
                        pid=self._proc_pid_base + proc.index,
                        args={"method": self.method.name,
                              "ranks": len(proc.resident_ranks())})
        # one global-heap entry per PE, not per rank (threads/runqueue.py)
        register = self.scheduler.register
        with self.scheduler.runq.batch():
            for vp in range(nvp):
                rank = self._ranks[vp]
                register(rank, rank.pe.process.startup_clock.now)

    def new_ult(self, rank: VirtualRank) -> UserLevelThread:
        """A fresh ULT for ``rank`` (start-up and every restart)."""
        return UserLevelThread(
            f"vp{rank.vp}", self._rank_target, (rank,),
            stack_bytes=self.stack_bytes, backend=self.ult_backend,
        )

    def _rank_entry(self, rank: VirtualRank) -> Any:
        return rank.ctx.call(self.binary.image.entry)

    def _rank_steps(self, rank: VirtualRank) -> Blocking:
        return (yield from self._rank_entry(rank))

    # -- run --------------------------------------------------------------------------------

    def run(self, *, strict: bool = True) -> JobResult:
        """Execute the job to completion.

        ``strict=True`` (the default) propagates
        :class:`~repro.errors.FaultUnrecoverableError` to the caller.
        ``strict=False`` converts an unrecoverable death into a
        *structured* result — ``unrecoverable_reason`` carries the
        taxonomy code, ``error`` the message, and every counter reflects
        the partial execution — which is what fault campaigns compare
        across re-runs (deterministic unrecoverability: same reason,
        same counters, same timeline, every time).
        """
        try:
            if not self.started:
                self.start()
            self.scheduler.run()
        except FaultUnrecoverableError as e:
            if strict or getattr(self, "scheduler", None) is None:
                raise
            # The scheduler's run loop unwinds its ULTs on any exit path,
            # but a failure *before* the loop (e.g. a non-checkpointable
            # method dying at the baseline checkpoint) leaves the threads
            # created by start() alive — shut down explicitly (idempotent).
            self.scheduler.shutdown()
            result = self._result()
            result.unrecoverable_reason = e.reason
            result.error = str(e)
            return result
        return self._result()

    def cleanup(self) -> int:
        """Job teardown: remove per-rank artifacts left on shared storage.

        FSglobals copies the binary once per rank onto the shared
        filesystem; a polite job removes them on exit.  Returns the
        number of files unlinked.
        """
        return self.sharedfs.cleanup_prefix(f"job{self.job_id}/")

    def _result(self) -> JobResult:
        counters = CounterSet()
        counters.merge(self.counters)
        for proc in self.processes:
            counters.merge(proc.counters)
        startup_each = [p.startup_clock.now for p in self.processes]
        return JobResult(
            method=self.method.name,
            nvp=self.nvp,
            layout=self.layout,
            machine=self.machine.name,
            exit_values={vp: r.exit_value for vp, r in self._ranks.items()},
            makespan_ns=self.scheduler.makespan_ns(),
            startup_ns=max(startup_each),
            startup_per_process=startup_each,
            counters=counters,
            pe_stats=[
                PeStat(pe.index, pe.busy_ns, pe.idle_ns, pe.ctx_switches,
                       tuple(sorted(pe.resident)))
                for pe in self.pes
            ],
            migrations=list(self.migration_engine.records),
            lb_reports=list(self.lb_reports),
            forwarded_messages=self.locmgr.forwarded_messages,
            collectives_completed=self.collectives.completed,
            rank_cpu_ns={vp: r.total_cpu_ns for vp, r in self._ranks.items()},
            trace=self.trace,
            recoveries=self.recovery.recoveries if self.recovery else 0,
            transport=self.transport,
            recovery=self.recovery_mode,
            rollbacks=(dict(self.recovery.rollback_counts)
                       if self.recovery else {}),
            crashes=(list(self.recovery.crash_log)
                     if self.recovery else []),
            sanitize_findings=(self.sanitizer.sorted_findings()
                               if self.sanitizer is not None else []),
        )

    # -- lookups ------------------------------------------------------------------------------

    def rank_of(self, vp: int) -> VirtualRank:
        return self._ranks[vp]

    def trace_pid_of(self, pe) -> int:
        """Trace pid of a PE's timeline track (valid when tracing is on)."""
        return self._pe_pid_base + pe.index

    def ranks(self) -> list[VirtualRank]:
        return [self._ranks[vp] for vp in range(self.nvp)]

    def _resolve_comm(self, comm: Communicator | None,
                      source: int = ANY_SOURCE) -> Communicator:
        comm = comm if comm is not None else self.world
        if source != ANY_SOURCE:
            comm.vp_of_rank(source)             # raises: out of range
        return comm

    # =====================================================================
    # MPI API implementations (reached through the function-pointer shim or
    # directly; first argument is always the acting rank)
    # =====================================================================

    # -- lifecycle ---------------------------------------------------------------

    def _api_init(self, rank: VirtualRank) -> None:
        if rank.mailbox.initialized:
            raise MpiError(f"vp {rank.vp}: MPI_Init called twice")
        rank.mailbox.initialized = True
        rank.clock.advance(self.costs.msg_overhead_ns)

    def _api_initialized(self, rank: VirtualRank) -> bool:
        return rank.mailbox.initialized

    def _api_finalize(self, rank: VirtualRank) -> Blocking:
        if rank.mailbox.finalized:
            raise MpiError(f"vp {rank.vp}: MPI_Finalize called twice")
        rank.mailbox.finalized = True
        yield from self.collectives.enter("barrier", rank)

    def _api_rank(self, rank: VirtualRank,
                  comm: Communicator | None = None) -> int:
        return self._resolve_comm(comm).rank_of_vp(rank.vp)

    def _api_size(self, rank: VirtualRank,
                  comm: Communicator | None = None) -> int:
        return self._resolve_comm(comm).size

    def _api_world(self, rank: VirtualRank) -> Communicator:
        return self.world

    def _api_num_pes(self, rank: VirtualRank) -> int:
        return len(self.pes)

    def _api_wtime(self, rank: VirtualRank) -> float:
        return rank.clock.seconds

    def _api_abort(self, rank: VirtualRank, errorcode: int = 1) -> None:
        raise MpiAbort(errorcode, f"vp {rank.vp} called MPI_Abort({errorcode})")

    # -- point-to-point -------------------------------------------------------------

    def _send(self, rank: VirtualRank, payload: Any, dest: int, tag: int = 0,
              comm: Communicator | None = None) -> None:
        """The one send body: MPI_Send, and the send half of isend/sendrecv."""
        if comm is None:
            comm = self.world
        src_cr = comm.rank_by_vp.get(rank.vp)
        if src_cr is None or not 0 <= dest < len(comm.group):
            comm.rank_of_vp(rank.vp), comm.vp_of_rank(dest)  # one raises
        dst_vp = comm.group[dest]
        nbytes = payload_nbytes(payload)
        clock = rank.ult.clock
        now = clock.now
        costs = self.costs
        dest_pe, forwarded = self.locmgr.lookup_for_send(rank.vp, dst_vp)
        ns = self.network.transfer_ns(nbytes, rank.pe.endpoint,
                                      dest_pe.endpoint)
        if forwarded:
            # Stale location cache: one extra forwarding hop.
            ns += costs.msg_overhead_ns + costs.net_latency_intra_ns
        if self.reliable is None and self.fault_injector is not None:
            # Priced transport: the protocol is not modelled, so a fault
            # is charged as a flat latency lump on the one-and-only
            # delivery.  The reliable path never takes this branch — it
            # pays for faults through actual retransmissions instead.
            fault = self.fault_injector.draw_message_fault(
                self.counters, self.trace, now,
                self.trace_pid_of(rank.pe), rank.vp,
                {"dst_vp": dst_vp, "tag": tag, "nbytes": nbytes})
            if fault is not None:
                ns += self.fault_injector.message_penalty_ns(
                    fault, ns, costs.msg_overhead_ns
                )
        msg = Message(src_cr, dest, tag, comm.cid, payload, nbytes, now,
                      now + ns, next_seq(), rank.vp, dst_vp)
        # SimClock.advance and CounterSet.incr written out (amounts >= 0)
        clock.now += costs.msg_overhead_ns
        if nbytes > costs.eager_threshold_bytes:
            clock.now += costs.rendezvous_handshake_ns
        counts = self.counters._counts
        counts[EV_MSG_SENT] = counts.get(EV_MSG_SENT, 0) + 1
        counts[EV_MSG_BYTES] = counts.get(EV_MSG_BYTES, 0) + nbytes
        if self.trace is not None:
            self.trace.instant(
                "send", "msg", now, pid=self.trace_pid_of(rank.pe),
                tid=rank.vp,
                args={"dst_vp": dst_vp, "tag": tag, "nbytes": nbytes,
                      "arrival": now + ns},
            )
        if self.reliable is not None:
            msg.dest_endpoint = dest_pe.endpoint
            delivered = self.reliable.send(
                msg, ns, self._deliver_frame,
                trace_pid=self.trace_pid_of(rank.pe),
            )
            if delivered and self.msglog is not None:
                self.msglog.log_send(msg)
        else:
            self._deliver(msg)

    def _deliver_frame(self, msg: Message) -> None:
        """Reliable-transport sink: a frame's final, checksum-clean attempt
        (maybe from a retransmission timer); only it meets logged duplicates."""
        dst_vp, dst_rank = msg.dst_vp, self._ranks[msg.dst_vp]
        san = self.sanitizer
        if (san is not None and msg.dest_endpoint is not None
                and dst_rank.pe.endpoint != msg.dest_endpoint):
            san.on_stale_delivery(dst_rank, msg)
        ml = self.msglog
        if ml is not None and ml.already_consumed(dst_vp, msg.src_vp,
                                                  msg.chan_seq):
            # Local-recovery duplicate: this rank already consumed the
            # channel seq from the message log while the sender's
            # re-executed copy was still in flight.  Matching it against
            # a posted receive would hand a *later* receive this stale
            # payload.
            self.counters.incr(EV_DEDUP_DROP)
            if self.trace is not None:
                self.trace.instant(
                    "replay:dedup-drop", "ft", msg.arrival,
                    pid=self.trace_pid_of(dst_rank.pe), tid=dst_vp,
                    args={"src_vp": msg.src_vp, "chan_seq": msg.chan_seq},
                )
            return
        self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        dst_rank = self._ranks[msg.dst_vp]
        req, wake = dst_rank.mailbox.deliver(msg)
        if req is not None:
            req.completed, req.completion_time, req.payload = (
                True, msg.arrival, msg.payload)
            req.msg_src, req.msg_tag, req.msg_nbytes = (
                msg.src, msg.tag, msg.nbytes)
            if self.msglog is not None:
                self.msglog.on_consume(req.vp, msg.src_vp, msg.chan_seq)
            if self.trace is not None:
                self.trace.instant(
                    "recv-match", "msg", msg.arrival,
                    pid=self.trace_pid_of(dst_rank.pe), tid=msg.dst_vp,
                    args={"src": msg.src, "tag": msg.tag,
                          "nbytes": msg.nbytes},
                )
        if wake:
            self.scheduler.wake(dst_rank, msg.arrival)

    _api_send = _send

    def _api_isend(self, rank: VirtualRank, payload: Any, dest: int,
                   tag: int = 0, comm: Communicator | None = None) -> Request:
        if comm is None:
            comm = self.world
        self._send(rank, payload, dest, tag, comm)
        # complete on return: a send never waits for its receiver
        return Request(RequestKind.SEND, rank.vp, comm.cid, -1, tag, True,
                       rank.ult.clock.now)

    def _api_irecv(self, rank: VirtualRank, source: int = ANY_SOURCE,
                   tag: int = ANY_TAG,
                   comm: Communicator | None = None) -> Request:
        if comm is None:
            comm = self.world
        if source != ANY_SOURCE and not 0 <= source < len(comm.group):
            comm.vp_of_rank(source)             # raises: out of range
        req = Request(RequestKind.RECV, rank.vp, comm.cid, source, tag)
        ml = self.msglog
        msg = None
        if ml is not None and ml.is_replaying(rank.vp):
            # A recovering rank re-executes: serve its receives from the
            # message log first.  Anything in the mailbox is a *fresh*
            # post-crash delivery with a higher channel seq — consuming
            # it before the logged history would break non-overtaking.
            src_vp = (None if source == ANY_SOURCE
                      else comm.vp_of_rank(source))
            msg = ml.replay_match(rank.vp, src_vp, tag, comm.cid)
            if msg is not None:
                src_pe = self._ranks[msg.src_vp].pe
                fetch_ns = self.network.transfer_ns(msg.nbytes, src_pe.endpoint,
                                                    rank.pe.endpoint)
                now = rank.ult.clock.now
                msg.sent_at = now
                msg.arrival = now + fetch_ns
                self.counters.incr(EV_REPLAYED)
                if self.trace is not None:
                    self.trace.instant(
                        "replay:msg", "ft", now,
                        pid=self.trace_pid_of(rank.pe), tid=rank.vp,
                        args={"src_vp": msg.src_vp,
                              "chan_seq": msg.chan_seq},
                    )
        if msg is None:
            msg = rank.mailbox.post(req)
            while msg is not None and ml is not None and ml.already_consumed(
                    rank.vp, msg.src_vp, msg.chan_seq):
                # A duplicate of a seq this rank already replayed from the
                # message log (see _deliver_frame): discard, post again.
                self.counters.incr(EV_DEDUP_DROP)
                msg = rank.mailbox.post(req)
        if msg is not None:
            req.completed, req.completion_time, req.payload = (
                True, msg.arrival, msg.payload)
            req.msg_src, req.msg_tag, req.msg_nbytes = (
                msg.src, msg.tag, msg.nbytes)
            if ml is not None:
                ml.on_consume(rank.vp, msg.src_vp, msg.chan_seq)
        return req

    def _api_recv(self, rank: VirtualRank, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG, comm: Communicator | None = None,
                  status: Status | None = None) -> Blocking:
        req = self._api_irecv(rank, source, tag, comm)
        payload = yield from self._api_wait(rank, req)
        if status is not None:
            status.source, status.tag, status.nbytes = (
                req.msg_src, req.msg_tag, req.msg_nbytes)
        return payload

    def _api_wait(self, rank: VirtualRank, request: Request) -> Blocking:
        if request.vp != rank.vp:
            self._own(rank, (request,))
        clock = rank.ult.clock
        if not request.completed:
            t_block = clock.now
            rank.mailbox.awaiting = (request,)
            yield from self.scheduler.block_current("MPI_Wait")
            rank.mailbox.awaiting = ()
            if not request.completed:
                raise MpiError("woken before request completion")
            if self.trace is not None:
                self.trace.span(
                    "MPI_Wait", "msg", t_block,
                    max(0, request.completion_time - t_block),
                    pid=self.trace_pid_of(rank.pe), tid=rank.vp,
                )
        clock.now = max(request.completion_time, clock.now) + \
            self.costs.msg_overhead_ns          # advance_to, then advance
        return request.payload

    @staticmethod
    def _own(rank: VirtualRank, requests: Sequence[Request]) -> None:
        """Refuse another rank's request (wait, waitany, test, testall)."""
        for r in requests:
            if r.vp != rank.vp:
                raise MpiError(f"vp {rank.vp} cannot wait on vp {r.vp}'s request")

    def _api_test(self, rank: VirtualRank,
                  request: Request) -> tuple[bool, Any]:
        done, payloads = self._api_testall(rank, (request,))
        return (True, payloads[0]) if done else (False, None)

    def _api_waitall(self, rank: VirtualRank,
                     requests: Sequence[Request]) -> Blocking:
        payloads = []
        for r in requests:
            payloads.append((yield from self._api_wait(rank, r)))
        return payloads

    def _api_waitany(self, rank: VirtualRank,
                     requests: Sequence[Request]) -> Blocking:
        """MPI_Waitany: block until one request completes; returns
        (index, payload)."""
        if not requests:
            raise MpiError("waitany on an empty request list")
        self._own(rank, requests)
        while True:
            done = [(i, r) for i, r in enumerate(requests) if r.completed]
            if done:
                idx, req = min(done, key=lambda t: t[1].completion_time)
                return idx, (yield from self._api_wait(rank, req))
            # Block on whichever completes first.
            rank.mailbox.awaiting = tuple(requests)
            yield from self.scheduler.block_current("MPI_Waitany")
            rank.mailbox.awaiting = ()

    def _api_testall(self, rank: VirtualRank,
                     requests: Sequence[Request]) -> tuple[bool, list[Any]]:
        self._own(rank, requests)
        rank.clock.advance(self.costs.scheduler_poll_ns)
        if all(r.completed and r.completion_time <= rank.clock.now
               for r in requests):
            return True, [r.payload for r in requests]
        return False, []

    def _api_probe(self, rank: VirtualRank, source: int = ANY_SOURCE,
                   tag: int = ANY_TAG,
                   comm: Communicator | None = None) -> Blocking:
        comm = self._resolve_comm(comm, source)
        while True:
            msg = rank.mailbox.peek(source, tag, comm.cid)
            if msg is not None:
                rank.clock.advance_to(msg.arrival)
                return Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes)
            rank.mailbox.probing = (source, tag, comm.cid)
            yield from self.scheduler.block_current("MPI_Probe")

    def _api_iprobe(self, rank: VirtualRank, source: int = ANY_SOURCE,
                    tag: int = ANY_TAG,
                    comm: Communicator | None = None) -> Status | None:
        comm = self._resolve_comm(comm, source)
        rank.clock.advance(self.costs.scheduler_poll_ns)
        msg = rank.mailbox.peek(source, tag, comm.cid)
        if msg is not None and msg.arrival <= rank.clock.now:
            return Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes)
        return None

    def _api_sendrecv(self, rank: VirtualRank, payload: Any, dest: int,
                      source: int = ANY_SOURCE, sendtag: int = 0,
                      recvtag: int = ANY_TAG,
                      comm: Communicator | None = None) -> Blocking:
        req = self._api_irecv(rank, source, recvtag, comm)
        self._send(rank, payload, dest, sendtag, comm)
        return (yield from self._api_wait(rank, req))

    # -- operators -------------------------------------------------------------------------

    def _api_op_create(self, rank: VirtualRank, fn_name: str,
                       commute: bool = True) -> UserOp:
        from repro.privatization.pieglobals import PieGlobals

        addr = rank.ctx.addr_of(fn_name)
        if isinstance(self.method, PieGlobals):
            return UserOp(
                name=fn_name, commutative=commute,
                fn_offset=self.method.fnptr_to_offset(rank, addr),
                rebase=self.method.offset_to_fnptr,
                invoke=self._invoke_user_op,
            )
        return UserOp(name=fn_name, commutative=commute, fn_addr=addr,
                      invoke=self._invoke_user_op)

    def _invoke_user_op(self, pe, addr: int, a: Any, b: Any) -> Any:
        host = pe.any_resident()
        if host is None:
            # Shared-code methods can run the function from any rank in
            # the same process; PIE never reaches here (rebase failed
            # earlier with ReductionOffsetError).
            ranks = pe.process.resident_ranks()
            if not ranks:
                raise ReductionOffsetError(
                    f"no rank available in process {pe.process.index} to "
                    "apply a user-defined reduction"
                )
            host = ranks[0]
        return host.ctx.call_addr(addr, a, b)

    # -- AMPI extensions ---------------------------------------------------------------------------

    def _apply_assignment(
            self, targets: dict[int, int]) -> tuple[dict[int, int], int]:
        """Migrate every rank whose target PE (``targets``: vp -> PE
        index) is a live PE other than its own, in vp order; returns
        (vp -> migration ns of the ranks that moved, bytes moved)."""
        move_ns: dict[int, int] = {}
        bytes_moved = 0
        for rank in self.ranks():
            target = self.pes[targets[rank.vp]]
            if target is not rank.pe and not target.failed:
                rec = self.migration_engine.migrate(rank, target)
                move_ns[rank.vp] = rec.ns
                bytes_moved += rec.nbytes
        return move_ns, bytes_moved

    def _lb_finish(self, state) -> None:
        """AMPI_Migrate's completion rule (the ``lb_sync`` collective
        over MPI_COMM_WORLD); runs in the last arriver's ULT: decide +
        migrate + release."""
        from repro.charm.lb.instrumentation import summarize_loads

        comm = state.comm
        T = self.collectives._max_arrival(state)
        stats = [
            RankStat(vp=r.vp, load_ns=r.load_ns, pe=r.pe.index)
            for r in self.ranks()
        ]
        n_pes = len(self.pes)
        before = summarize_loads(stats, n_pes)
        assignment = self.lb_strategy.assign(stats, n_pes)
        decision_ns = self.costs.scheduler_poll_ns * max(1, len(stats))

        move_ns, bytes_moved = self._apply_assignment(
            {s.vp: assignment.get(s.vp, s.pe) for s in stats})

        after_stats = [
            RankStat(vp=r.vp, load_ns=r.load_ns, pe=r.pe.index)
            for r in self.ranks()
        ]
        after = summarize_loads(after_stats, n_pes)
        for r in self.ranks():
            r.reset_load()

        depth = tree_depth(comm.size)
        base = T + depth * self.collectives._step_ns(comm) + decision_ns
        state.releases = {}
        for cr in state.arrivals:
            vp = comm.vp_of_rank(cr)
            state.releases[cr] = (base + move_ns.get(vp, 0), None)
        self.lb_reports.append(LbReport(
            at_ns=base,
            strategy=self.lb_strategy.name,
            moves=len(move_ns),
            bytes_moved=bytes_moved,
            imbalance_before=before.imbalance,
            imbalance_after=after.imbalance,
        ))

    def _api_resize(self, rank: VirtualRank, n_active_pes: int) -> Blocking:
        """AMPI shrink/expand: collectively evacuate (or repopulate) PEs.

        After the call only PEs ``0..n_active_pes-1`` host ranks; the
        paper lists dynamic job shrink/expand among the adaptive features
        virtualization + migration enable (Section 2.1).
        """
        if not 1 <= n_active_pes <= len(self.pes):
            raise MpiError(
                f"cannot resize to {n_active_pes} PEs (job has "
                f"{len(self.pes)})"
            )
        yield from self.collectives.enter("resize", rank, None, n_active_pes)

    def _resize_finish(self, state) -> None:
        """Runs in the last arriver's ULT (like _lb_finish)."""
        comm = state.comm
        targets = {v for _, v in state.arrivals.values()}
        if len(targets) != 1:
            raise MpiError(
                f"resize: ranks disagree on the target PE count {targets}"
            )
        n_active = targets.pop()
        T = self.collectives._max_arrival(state)
        stats = [
            RankStat(vp=r.vp, load_ns=max(r.load_ns, 1), pe=r.pe.index)
            for r in self.ranks()
        ]
        assignment = self.lb_strategy.assign(
            [s if s.pe < n_active else
             RankStat(vp=s.vp, load_ns=s.load_ns, pe=s.vp % n_active)
             for s in stats],
            n_active,
        )
        move_ns, _ = self._apply_assignment(
            {s.vp: assignment.get(s.vp, s.vp % n_active) for s in stats})
        depth = tree_depth(comm.size)
        base = T + depth * self.collectives._step_ns(comm)
        state.releases = {
            cr: (base + move_ns.get(comm.vp_of_rank(cr), 0), None)
            for cr in state.arrivals
        }

    def _api_migrate_to(self, rank: VirtualRank, pe_index: int) -> Blocking:
        """AMPI_Migrate_to: explicit self-migration."""
        if not 0 <= pe_index < len(self.pes):
            raise MpiError(f"no such PE {pe_index}")
        rec = self.migration_engine.migrate(rank, self.pes[pe_index])
        if rec.ns:
            yield from self.scheduler.yield_current(rank.clock.now + rec.ns)

    def _api_yield_(self, rank: VirtualRank) -> Blocking:
        """AMPI_Yield: cooperative yield to the PE scheduler, requeued
        at the rank's own clock and suspended in this frame, so a yield
        resumes one generator, not two."""
        ult = rank.ult
        self.scheduler.runq.push(ult, ult.clock.now)
        yield "reschedule"
