"""Experiment drivers for every figure in the paper's evaluation.

Each driver returns plain rows (dataclasses) so that benchmarks print the
paper's tables and tests assert on the shapes:

* :func:`startup_experiment` — Figure 5
* :func:`context_switch_experiment` — Figure 6
* :func:`jacobi_access_experiment` — Figure 7 (+ the -O0 ablation)
* :func:`migration_experiment` — Figure 8
* :func:`icache_experiment` — Section 4.5
* :func:`adcirc_scaling_experiment` — Table 2 and Figure 9
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.ampi.runtime import AmpiJob, JobResult
from repro.apps.adcirc import AdcircConfig
from repro.apps.jacobi3d import JacobiConfig, run_jacobi
from repro.apps.memhog import MemhogConfig
from repro.charm.node import JobLayout
from repro.harness.jobspec import code_version, run_app
from repro.machine import BRIDGES2, GENERIC_LINUX, STAMPEDE2_ICX, MachineModel
from repro.perf.counters import (
    EV_CKPT,
    EV_CKPT_BYTES,
    EV_CTX_SWITCH,
    EV_FAULT,
    EV_RECOVERY_NS,
    EV_REPLAYED,
    EV_RETRANS,
)
from repro.perf.icache import SetAssociativeCache
from repro.trace.recorder import TraceRecorder

#: methods compared in Figures 5-7 (Swapglobals "we were unable to get
#: working on this system", exactly as on Bridges-2)
FIGURE_METHODS = ("none", "tlsglobals", "pipglobals", "fsglobals",
                  "pieglobals")


# ---------------------------------------------------------------------------
# Figure 5: startup / initialization overhead
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StartupRow:
    method: str
    nodes: int
    ranks_per_process: int
    startup_ns: int
    overhead_pct: float      #: vs. the no-privatization baseline


def startup_experiment(
    methods: Sequence[str] = FIGURE_METHODS,
    *,
    ranks_per_process: int = 8,
    nodes: int = 1,
    machine: MachineModel = BRIDGES2,
    code_bytes: int = 256 * 1024,
    trace: TraceRecorder | None = None,
    sanitize: Any = None,
) -> list[StartupRow]:
    """Figure 5: AMPI init time with 8x virtualization, per method."""
    layout = JobLayout(nodes=nodes, processes_per_node=1, pes_per_process=1)
    nvp = ranks_per_process * layout.total_processes
    rows: list[StartupRow] = []
    baseline = None
    for method in methods:
        _, result = run_app(
            "startup", {"code_bytes": code_bytes}, nvp, method=method,
            machine=machine, layout=layout, slot_size=1 << 26,
            trace=trace, sanitize=sanitize)
        if method == "none":
            baseline = result.startup_ns
        pct = (100.0 * (result.startup_ns - baseline) / baseline
               if baseline else 0.0)
        rows.append(StartupRow(method, nodes, ranks_per_process,
                               result.startup_ns, pct))
    return rows


# ---------------------------------------------------------------------------
# Figure 6: ULT context-switch time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchRow:
    method: str
    switches: int
    ns_per_switch: float
    delta_vs_baseline_ns: float


def context_switch_experiment(
    methods: Sequence[str] = FIGURE_METHODS,
    *,
    yields_per_rank: int = 100_000,
    machine: MachineModel = BRIDGES2,
    trace: TraceRecorder | None = None,
    sanitize: Any = None,
) -> list[SwitchRow]:
    """Figure 6: two ULTs on one PE yielding back and forth.

    ``ns_per_switch`` is app time divided by measured context switches —
    the same averaging over 100 000 switches the paper uses.
    """
    rows: list[SwitchRow] = []
    baseline = None
    for method in methods:
        _, result = run_app(
            "pingpong", {"yields_per_rank": yields_per_rank}, 2,
            method=method, machine=machine, layout=JobLayout.single(1),
            slot_size=1 << 26, trace=trace, sanitize=sanitize)
        switches = result.counters[EV_CTX_SWITCH]
        ns = result.app_ns / max(1, switches)
        if method == "none":
            baseline = ns
        rows.append(SwitchRow(
            method, switches, ns,
            (ns - baseline) if baseline is not None else 0.0,
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 7: privatized variable access overhead (Jacobi-3D)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AccessRow:
    method: str
    optimize: int
    exec_ns: int
    rel_to_baseline: float


def jacobi_access_experiment(
    methods: Sequence[str] = FIGURE_METHODS,
    *,
    cfg: JacobiConfig = JacobiConfig(n=20, iters=8),
    nvp: int = 8,
    machine: MachineModel = BRIDGES2,
    optimize: int = 2,
    trace: TraceRecorder | None = None,
    sanitize: Any = None,
) -> list[AccessRow]:
    """Figure 7 at -O2 (no hidden per-access cost); run with
    ``optimize=0`` for the ablation where TLS indirection shows up.

    Each method gets the build its users would produce: TLSglobals users
    tag the inner-loop globals ``thread_local``; everyone else's build
    leaves them as plain globals (-fmpc-privatize tags them itself).
    """
    rows: list[AccessRow] = []
    baseline = None
    for method in methods:
        tagged = method in ("tlsglobals",)
        _, result = run_app(
            "jacobi3d", {**cfg.__dict__, "tag_tls": tagged}, nvp,
            method=method, machine=machine,
            layout=JobLayout.single(min(nvp, 8)), optimize=optimize,
            slot_size=1 << 27, trace=trace, sanitize=sanitize)
        if method == "none":
            baseline = result.app_ns
        rows.append(AccessRow(
            method, optimize, result.app_ns,
            result.app_ns / baseline if baseline else 1.0,
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 8: migration time vs. per-rank memory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MigrationRow:
    method: str
    heap_mb: int
    migrate_ns: int
    bytes_moved: int


def migration_experiment(
    methods: Sequence[str] = ("tlsglobals", "pieglobals"),
    *,
    heap_mbs: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 100),
    code_bytes: int = 14 * 1024 * 1024,
    machine: MachineModel = BRIDGES2,
    trace: TraceRecorder | None = None,
    sanitize: Any = None,
) -> list[MigrationRow]:
    """Figure 8: migrate one rank across nodes as its heap grows.

    ``code_bytes`` defaults to ADCIRC's ~14 MB segment, the extra payload
    PIEglobals must move but TLSglobals does not.
    """
    rows: list[MigrationRow] = []
    for heap_mb in heap_mbs:
        cfg = MemhogConfig(heap_mb=heap_mb, code_bytes=code_bytes)
        for method in methods:
            _, result = run_app(
                "memhog", dict(cfg.__dict__), 2, method=method,
                machine=machine,
                layout=JobLayout(nodes=2, processes_per_node=1,
                                 pes_per_process=1),
                slot_size=1 << 28, trace=trace, sanitize=sanitize,
            )
            cross = [m for m in result.migrations if m.cross_process]
            rows.append(MigrationRow(
                method, heap_mb,
                migrate_ns=result.exit_values[0],
                bytes_moved=cross[0].nbytes if cross else 0,
            ))
    return rows


# ---------------------------------------------------------------------------
# Section 4.5: L1 instruction-cache misses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IcacheRow:
    machine: str
    method: str
    accesses: int
    misses: int
    miss_rate: float


#: simulated footprint of the scheduler/runtime code touched per switch
SCHEDULER_CODE_BYTES = 6 * 1024


def _build_fetch_trace(job: AmpiJob, machine: MachineModel,
                       tls_build: bool, pe_index: int = 0
                       ) -> list[tuple[int, int]]:
    """Reconstruct PE ``pe_index``'s instruction-fetch span sequence.

    Uses the real scheduler timeline (which rank ran when) and each
    rank's real traced spans, splitting them evenly across its quanta.
    TLS builds inflate span sizes by the machine's toolchain-dependent
    factor (extra address computation at each TLS-routed access).
    """
    inflate = 1.0 + (machine.tls_code_inflation if tls_build else 0.0)
    quanta: list[tuple[int, int]] = [
        (vp, i) for i, (pe, vp, _) in enumerate(job.scheduler.timeline)
        if pe == pe_index
    ]
    per_vp_quanta: dict[int, int] = {}
    for vp, _ in quanta:
        per_vp_quanta[vp] = per_vp_quanta.get(vp, 0) + 1
    spans_of: dict[int, list[tuple[int, int]]] = {
        vp: list(job.rank_of(vp).ctx.tracer.spans)
        for vp in per_vp_quanta
    }
    seen: dict[int, int] = {vp: 0 for vp in per_vp_quanta}
    trace: list[tuple[int, int]] = []
    for vp, _ in quanta:
        # Scheduler code runs at every switch.
        trace.append((machine.runtime_code_base, SCHEDULER_CODE_BYTES))
        spans = spans_of[vp]
        nq = per_vp_quanta[vp]
        i = seen[vp]
        lo = i * len(spans) // nq
        hi = (i + 1) * len(spans) // nq
        seen[vp] += 1
        for addr, nbytes in spans[lo:hi]:
            trace.append((addr, int(nbytes * inflate)))
    return trace


def icache_experiment(
    machines: Sequence[MachineModel] = (BRIDGES2, STAMPEDE2_ICX),
    *,
    cfg: JacobiConfig = JacobiConfig(n=18, iters=12, reduce_every=1),
    nvp: int = 8,
    methods: Sequence[str] = ("tlsglobals", "pieglobals"),
) -> list[IcacheRow]:
    """Section 4.5: run Jacobi-3D fetch traces through each machine's L1i.

    All ranks share one PE (maximum interleaving).  The TLSglobals build
    shares one copy of the code but carries the toolchain's TLS access
    inflation; the PIEglobals build has per-rank copies at distinct
    addresses with lean IP-relative access.
    """
    rows: list[IcacheRow] = []
    for machine in machines:
        for method in methods:
            job, _ = run_app(
                "jacobi3d", dict(cfg.__dict__), nvp, method=method,
                machine=machine, layout=JobLayout.single(1),
                slot_size=1 << 27, trace_fetches=True)
            trace = _build_fetch_trace(
                job, machine, tls_build=(method == "tlsglobals")
            )
            cache = SetAssociativeCache(machine.l1i)
            for addr, nbytes in trace:
                cache.access_block(addr, nbytes)
            rows.append(IcacheRow(
                machine.name, method, cache.accesses, cache.misses,
                cache.miss_rate,
            ))
    return rows


# ---------------------------------------------------------------------------
# Table 2 / Figure 9: ADCIRC strong scaling with virtualization + LB
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdcircRow:
    cores: int
    virtualization: int     #: VPs per core (1 == the baseline)
    lb: bool
    exec_ns: int


@dataclass(frozen=True)
class AdcircSummary:
    cores: int
    best_ratio: int
    baseline_ns: int
    best_ns: int

    @property
    def speedup_pct(self) -> int:
        """The paper's Table 2 metric: percent improvement of the best
        virtualization ratio over the non-virtualized baseline."""
        if self.best_ns <= 0:
            return 0
        return round(100.0 * (self.baseline_ns - self.best_ns) / self.best_ns)


def adcirc_scaling_experiment(
    cores_list: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    ratios: Sequence[int] = (1, 2, 4, 8),
    *,
    cfg: AdcircConfig = AdcircConfig(),
    machine: MachineModel = BRIDGES2,
    method: str = "pieglobals",
    lb_strategy: str = "greedyrefine",
) -> tuple[list[AdcircRow], list[AdcircSummary]]:
    """Table 2 and Figure 9: strong scaling, same global problem, cores x
    virtualization sweep.

    Baseline is 1 VP/core without LB; virtualized runs add GreedyRefineLB
    at the app's LB period (the paper's ADCIRC setup).  The storm-surge
    load front evolves over many steps, so measured loads predict the
    near future and refinement-based balancing pays off.
    """
    rows: list[AdcircRow] = []
    summaries: list[AdcircSummary] = []
    for cores in cores_list:
        per_core: dict[int, int] = {}
        for ratio in ratios:
            nvp = cores * ratio
            if nvp > cfg.height:   # cannot split rows thinner than 1
                continue
            lb = ratio > 1
            run_cfg = AdcircConfig(**{
                **cfg.__dict__,
                "lb_period": (cfg.lb_period or 5) if lb else 0,
                "l2_bytes": machine.l2_per_core_bytes,
            })
            layout = _square_layout(cores, machine)
            _, result = run_app(
                "adcirc", dict(run_cfg.__dict__), nvp, method=method,
                machine=machine, layout=layout, lb_strategy=lb_strategy,
                slot_size=1 << 26)
            rows.append(AdcircRow(cores, ratio, lb, result.app_ns))
            per_core[ratio] = result.app_ns
        if 1 in per_core:
            best_ratio = min(per_core, key=per_core.get)
            summaries.append(AdcircSummary(
                cores=cores,
                best_ratio=best_ratio,
                baseline_ns=per_core[1],
                best_ns=per_core[best_ratio],
            ))
    return rows, summaries


def _square_layout(cores: int, machine: MachineModel) -> JobLayout:
    """Spread cores over nodes like a real allocation (1 proc per node,
    up to the machine's cores per node)."""
    per_node = min(cores, machine.cores_per_node)
    nodes = (cores + per_node - 1) // per_node
    return JobLayout(nodes=nodes, processes_per_node=1,
                     pes_per_process=per_node)


# ---------------------------------------------------------------------------
# Fault-tolerance overhead sweep: failure-free vs. k node crashes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultRow:
    k: int                    #: injected node crashes
    seed: int
    status: str               #: "ok" or "unrecoverable: <reason code>"
    makespan_ns: int
    overhead_pct: float       #: vs. the failure-free (k=0) run
    recovery_ns: int          #: total simulated recovery time (counter)
    faults: int               #: EV_FAULT
    checkpoints: int          #: EV_CKPT (incl. the startup baseline)
    ckpt_bytes: int           #: EV_CKPT_BYTES
    migrations: int           #: cross-PE moves (recovery re-mapping)
    residual: float | None    #: final Jacobi residual (None if failed)
    transport: str = "priced"
    recovery: str = "global"
    retransmissions: int = 0  #: EV_RETRANS (reliable transport only)
    replayed: int = 0         #: EV_REPLAYED (local recovery only)
    rollbacks: int = 0        #: ranks rolled back across all recoveries
    #: :meth:`FaultPlan.to_dict` of the plan this row ran under (None for
    #: the failure-free baseline) — embedding it makes each row
    #: self-reproducible: ``FaultPlan.from_dict(row.plan)`` + the row's
    #: seed/transport/recovery rebuilds the exact run.
    plan: dict | None = None
    #: digest of the sources that produced this row (see
    #: :func:`repro.harness.jobspec.code_version`) — a replayed plan is
    #: only expected to be bit-identical under the same code version.
    code_version: str = ""
    #: structured classification from
    #: :data:`repro.errors.UNRECOVERABLE_REASONS` (None when ok) — the
    #: machine-checkable field; ``status`` is its human rendering
    unrecoverable_reason: str | None = None
    #: fatal error message for an unrecoverable run (None when ok)
    error: str | None = None


def fault_overhead_experiment(
    kmax: int = 2,
    *,
    seed: int = 20220822,
    nvp: int = 8,
    nodes: int = 4,
    method: str = "pieglobals",
    machine: MachineModel = None,
    cfg: JacobiConfig | None = None,
    ckpt_interval_ns: int = 0,
    trace: TraceRecorder | None = None,
    transport: str = "priced",
    recovery: str = "global",
    message_faults: Any = None,
) -> list[FaultRow]:
    """Runtime overhead of surviving ``k`` node crashes, k = 0..kmax.

    A restart-aware Jacobi-3D (checkpointing every ``ckpt_period``
    iterations) runs once failure-free to calibrate the crash window
    (inside the application phase, away from the edges), then once per
    ``k`` with :meth:`FaultPlan.random_crashes`.  Everything is seeded —
    rerunning the sweep reproduces it bit-for-bit.  A run whose crashes
    destroy both snapshot copies reports
    ``status="unrecoverable: <reason>"`` — with the machine-checkable
    code on ``unrecoverable_reason`` — instead of raising.

    ``transport``/``recovery`` select the point-to-point transport and
    the rollback scheme (see :class:`repro.ampi.runtime.AmpiJob`);
    ``message_faults`` (a :class:`repro.ft.MessageFaults`) adds
    drop/duplicate/corrupt probabilities to every plan in the sweep,
    including the failure-free baseline, so overhead is measured against
    the same wire conditions.
    """
    from repro.ft import FaultPlan, FtConfig

    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    machine = machine or GENERIC_LINUX
    cfg = cfg or JacobiConfig(n=16, iters=16, reduce_every=4,
                              ckpt_period=2, compute_ns_per_cell=2000.0)
    if not cfg.ckpt_period:
        raise ValueError("fault sweep needs a checkpointing app "
                         "(cfg.ckpt_period > 0)")
    per_node = max(1, min(machine.cores_per_node,
                          (nvp + nodes - 1) // nodes))
    layout = JobLayout(nodes=nodes, processes_per_node=1,
                       pes_per_process=per_node)
    ft = FtConfig(ckpt_interval_ns=ckpt_interval_ns)

    def one(plan) -> JobResult:
        # strict=False: an unrecoverable run comes back as a structured
        # result (unrecoverable_reason set) rather than an exception.
        return run_jacobi(cfg, nvp, method=method, machine=machine,
                          layout=layout, fault_plan=plan, ft=ft,
                          trace=trace, transport=transport,
                          recovery=recovery, strict=False)

    mf = message_faults
    base_plan = (FaultPlan(seed=seed, message_faults=mf)
                 if mf is not None and mf.any else None)
    base = one(base_plan)
    base_span = base.makespan_ns
    window = FaultPlan.mid_app_window(base.startup_ns, base.app_ns)

    code_ver = code_version()

    def row(k: int, result: JobResult, plan=None) -> FaultRow:
        plan_dict = plan.to_dict() if plan is not None else None
        reason = result.unrecoverable_reason
        status = "ok" if reason is None else f"unrecoverable: {reason}"
        c = result.counters
        return FaultRow(
            k=k, seed=seed, status=status,
            makespan_ns=result.makespan_ns,
            overhead_pct=round(
                100.0 * (result.makespan_ns - base_span) / base_span, 4),
            recovery_ns=c[EV_RECOVERY_NS],
            faults=c[EV_FAULT],
            checkpoints=c[EV_CKPT],
            ckpt_bytes=c[EV_CKPT_BYTES],
            migrations=sum(1 for m in result.migrations
                           if m.src_pe != m.dst_pe),
            residual=result.exit_values.get(0),
            transport=transport,
            recovery=recovery,
            retransmissions=c[EV_RETRANS],
            replayed=c[EV_REPLAYED],
            rollbacks=sum(result.rollbacks.values()),
            plan=plan_dict,
            code_version=code_ver,
            unrecoverable_reason=reason,
            error=result.error,
        )

    rows = [row(0, base, base_plan)]
    for k in range(1, kmax + 1):
        plan = FaultPlan.random_crashes(seed, k, nodes, window,
                                        message_faults=mf)
        rows.append(row(k, one(plan), plan))
    return rows


# ---------------------------------------------------------------------------
# Recovery-scheme comparison: global rollback vs. message-logging local
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryRow:
    mode: str                 #: "none" (failure-free) | "global" | "local"
    makespan_ns: int
    recovery_ns: int          #: EV_RECOVERY_NS
    rollbacks: int            #: ranks rolled back (all recoveries summed)
    survivor_rollbacks: int   #: rollbacks of ranks that never died
    replayed: int             #: EV_REPLAYED (messages + collectives)
    residual: float | None    #: final Jacobi residual


def recovery_comparison_experiment(
    *,
    seed: int = 3,
    nvp: int = 8,
    nodes: int = 4,
    method: str = "pieglobals",
    machine: MachineModel = None,
    cfg: JacobiConfig | None = None,
) -> list[RecoveryRow]:
    """Cost of surviving one node crash: global rollback vs. local.

    The same crash plan runs under ``recovery="global"`` (every rank
    rolls back to the last buddy checkpoint) and ``recovery="local"``
    (only the dead node's ranks roll back; survivors keep running and
    the recovering ranks re-execute from the sender-based message log).
    Both runs use ``transport="reliable"`` so the only variable is the
    rollback scheme.  The failure-free run rides along as the baseline;
    all three produce identical numerics.
    """
    from repro.ft import FaultPlan, NodeCrash

    machine = machine or GENERIC_LINUX
    cfg = cfg or JacobiConfig(n=12, iters=8, reduce_every=2,
                              ckpt_period=2, compute_ns_per_cell=2000.0)
    if not cfg.ckpt_period:
        raise ValueError("recovery comparison needs a checkpointing app "
                         "(cfg.ckpt_period > 0)")
    per_node = max(1, min(machine.cores_per_node,
                          (nvp + nodes - 1) // nodes))
    layout = JobLayout(nodes=nodes, processes_per_node=1,
                       pes_per_process=per_node)

    def one(plan, recovery) -> JobResult:
        return run_jacobi(cfg, nvp, method=method, machine=machine,
                          layout=layout, fault_plan=plan,
                          transport="reliable", recovery=recovery)

    base = one(None, "global")
    crash_at = base.startup_ns + base.app_ns // 2
    plan = FaultPlan(seed=seed, node_crashes=(
        NodeCrash(at_ns=crash_at, node=nodes // 2),))

    runs = [("none", base)]
    for mode in ("global", "local"):
        runs.append((mode, one(plan, mode)))

    # Under local recovery exactly the dead ranks roll back, so its
    # rollback keys identify the crash casualties for every row.
    dead = set(dict(runs[2][1].rollbacks))

    rows = []
    for mode, res in runs:
        rows.append(RecoveryRow(
            mode=mode,
            makespan_ns=res.makespan_ns,
            recovery_ns=res.counters[EV_RECOVERY_NS],
            rollbacks=sum(res.rollbacks.values()),
            survivor_rollbacks=sum(n for vp, n in res.rollbacks.items()
                                   if vp not in dead),
            replayed=res.counters[EV_REPLAYED],
            residual=res.exit_values.get(0),
        ))
    return rows
