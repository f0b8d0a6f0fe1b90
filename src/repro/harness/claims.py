"""The paper's evaluation as one catalogue: every run and every claim.

A :class:`Run` is one experiment of the paper's evaluation, declared
once: ``repro run <name>`` executes it and prints its committed
``benchmarks/results/*.txt``, and ``repro claims`` executes the runs its
rows read.  A :class:`Claim` says where it stands in the paper, what it
claims, the run it reads, how its value is measured, the predicate (with
its tolerance) the value must meet, the paper's reason and a status:
``reproduced``, ``shape`` (the trend holds, not the paper's numbers, or
the paper gives none) or ``diverges`` (the predicate asserts the
documented divergence, so closing it fails the row too).  Importing
this module runs nothing.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.ampi.runtime import AmpiJob
from repro.apps.adcirc import AdcircConfig, build_adcirc_program
from repro.apps.memhog import MemhogConfig, build_memhog_program
from repro.charm.node import JobLayout
from repro.errors import NamespaceLimitError
from repro.harness.capabilities import (
    TABLE1_METHODS,
    TABLE3_METHODS,
    probe_method,
)
from repro.harness.experiments import (
    adcirc_scaling_experiment,
    context_switch_experiment,
    icache_experiment,
    jacobi_access_experiment,
    migration_experiment,
    startup_experiment,
)
from repro.harness.tables import format_table
from repro.machine import BRIDGES2, BRIDGES2_PATCHED_GLIBC
from repro.perf.counters import EV_CTX_SWITCH
from repro.privatization import get_method
from repro.privatization.pieglobals import PieGlobals
from repro.program.source import Program

REPRODUCED, SHAPE, DIVERGES = STATUSES = ("reproduced", "shape", "diverges")

#: the paper's three new methods
NEW_METHODS = ("pipglobals", "fsglobals", "pieglobals")


@dataclass(frozen=True)
class Run:
    """One experiment: ``execute()`` once, then render each results file
    (by stem) from what it returned."""

    execute: Callable[..., Any]
    files: Mapping[str, Callable[[Any], str]]
    #: the ``run``/``trace`` flags (by dest) ``execute`` takes as keywords
    flags: tuple[str, ...] = ()
    #: ``execute`` takes the ``trace=``/``sanitize=`` recorders
    traceable: bool = False
    #: the data -> what ``run --json`` prints as its rows, if not all of it
    rows: Callable[[Any], Any] | None = None

    def text(self, data: Any) -> str:
        """The run's results files, one after the other."""
        return "\n".join(render(data) for render in self.files.values())


@dataclass(frozen=True)
class Check:
    """A predicate on a measured value, its tolerance spelled out."""

    text: str
    test: Callable[[Any], bool]


@dataclass(frozen=True)
class Claim:
    id: str
    where: str                      #: figure, table or section of the paper
    run: str                        #: a key of :data:`RUNS`
    claim: str
    measure: Callable[[Any], Any]   #: the run's data -> the measured value
    check: Check
    status: str
    reason: str                     #: the paper's, or the divergence's


def show(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    if isinstance(value, (set, frozenset)):
        return "{" + show(sorted(value)) + "}"
    if isinstance(value, dict):
        return ", ".join(f"{k}: {show(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ", ".join(show(v) for v in value)
    return str(value)


def below(hi: float) -> Check:
    return Check(f"x < {hi}", lambda x: x < hi)


def above(lo: float) -> Check:
    return Check(f"x > {lo}", lambda x: x > lo)


def between(lo: float, hi: float) -> Check:
    return Check(f"{lo} <= x <= {hi}", lambda x: lo <= x <= hi)


def equals(expected: Any) -> Check:
    return Check(f"= {show(expected)}", lambda x: x == expected)


def each(check: Check) -> Check:
    return Check(f"each {check.text}", lambda xs: all(map(check.test, xs)))


def increasing(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


def by_method(rows) -> dict:
    return {r.method: r for r in rows}


# -- Tables 1 and 3 ---------------------------------------------------------

#: The paper's Table 3 (Table 1 is its first six rows): Automation /
#: Portability / SMP mode support / Migration support, and its reason.
PAPER_TABLE3 = {
    "manual": ("Poor", "Good", "Yes", "Yes", "rewritten by hand"),
    "photran": ("Fortran-specific", "Good", "Yes", "Yes",
                "rewritten by a Fortran refactoring tool"),
    "swapglobals": ("No static vars", "Linker-specific", "No", "Yes",
                    "one GOT per process, swapped: no statics, no SMP"),
    "tlsglobals": ("Mediocre", "Compiler-specific", "Yes", "Yes",
                   "only what is tagged thread_local"),
    "mpc": ("Good", "Compiler-specific", "Yes",
            "Not implemented, but possible", "a compiler pass tags all"),
    "pipglobals": ("Good", "Requires GNU libc extension",
                   "Limited w/o patched glibc", "No",
                   "a dlmopen namespace per rank, outside Isomalloc"),
    "fsglobals": ("Good", "Shared file system needed", "Yes", "No",
                  "a binary copy per rank, dlopen'ed outside Isomalloc"),
    "pieglobals": ("Good", "Implemented w/ GNU libc extension", "Yes", "Yes",
                   "per-rank PIE segment copies in Isomalloc"),
}


def _capability_table(names: tuple[str, ...],
                      title: str) -> Callable[[Any], str]:
    """Renders the probed rows of ``names`` as the paper's table."""
    return lambda rows: format_table(
        ["Method", "Automation", "Portability", "SMP Mode Support",
         "Migration Support"],
        [[rows[n].display_name, rows[n].automation, rows[n].portability,
          rows[n].smp_support, rows[n].migration] for n in names],
        title=title)


def _table3_row(name: str) -> Claim:
    """A method's row of Table 3.  ``*`` marks a measured cell read from
    the method's declared ``Capabilities``, not from an executed probe:
    the portability column, and the automation of a method that needs
    source changes (manual refactoring, Photran)."""
    *cells, reason = PAPER_TABLE3[name]
    paper = " / ".join(cells)

    def measure(rows: dict) -> str:
        row = rows[name]
        declared = get_method(name).capabilities.requires_source_changes
        return " / ".join((row.automation + "*" * declared,
                           row.portability + "*", row.smp_support,
                           row.migration))

    return Claim(f"table3.{name}", "Tables 1, 3", "tables",
                 f"{name}: {paper}", measure,
                 Check("the paper's cells",
                       lambda got: got.replace("*", "") == paper),
                 REPRODUCED, reason)


# -- Figures 5-8, Section 4.5 -----------------------------------------------

def _fig5(**recorders) -> tuple[list, list]:
    rows = startup_experiment(**recorders)
    fs_by_nodes = [
        startup_experiment(methods=("none", "fsglobals"), nodes=n,
                           **recorders)[-1]
        for n in (1, 2, 4, 8)
    ]
    return rows, fs_by_nodes


def _fig5_text(data) -> str:
    rows, fs_by_nodes = data
    return format_table(
        ["Method", "Startup (ms)", "Overhead vs baseline (%)"],
        [[r.method, r.startup_ns / 1e6, r.overhead_pct] for r in rows],
        title="Figure 5: startup overhead, 8x virtualization, Bridges-2",
    ) + "\n" + format_table(
        ["Nodes", "FSglobals startup (ms)", "Overhead (%)"],
        [[r.nodes, r.startup_ns / 1e6, r.overhead_pct] for r in fs_by_nodes],
        title="FSglobals startup vs node count (the one method that scales)",
    )


def _switch_ns(n_globals: int, code_bytes: int) -> float:
    p = Program("switch_probe", code_bytes=code_bytes)
    for i in range(n_globals):
        p.add_global(f"g{i}", i)

    @p.function()
    def main(ctx):
        for _ in range(2_000):
            ctx.mpi.yield_()

    job = AmpiJob(p.build(), nvp=2, method="tlsglobals", machine=BRIDGES2,
                  layout=JobLayout.single(1), slot_size=1 << 26)
    r = job.run()
    return r.app_ns / max(1, r.counters[EV_CTX_SWITCH])


def _only_tls_swappers_pay(delta: dict[str, float]) -> bool:
    """TLSglobals and PIEglobals are the two slowest switches, and
    PIPglobals and FSglobals add at most 1 ns."""
    slowest = sorted(delta, key=delta.get)[-2:]
    return (set(slowest) == {"tlsglobals", "pieglobals"}
            and max(delta["pipglobals"], delta["fsglobals"]) <= 1.0)


def _access_table(title: str) -> Callable[[Any], str]:
    return lambda rows: format_table(
        ["Method", "Exec (ms)", "Relative to baseline"],
        [[r.method, r.exec_ns / 1e6, r.rel_to_baseline] for r in rows],
        title=title)


def _fig8(rows) -> dict[str, list]:
    """Per heap size, smallest first: PIEglobals' extra time and payload
    over TLSglobals and its time ratio; and whether each method's time
    grows with the heap."""
    tls = [r for r in rows if r.method == "tlsglobals"]
    pie = [r for r in rows if r.method == "pieglobals"]
    pairs = list(zip(tls, pie))
    return {
        "extra_ms": [(p.migrate_ns - t.migrate_ns) / 1e6 for t, p in pairs],
        "extra_mib": [(p.bytes_moved - t.bytes_moved) / 2**20
                      for t, p in pairs],
        "ratio": [p.migrate_ns / t.migrate_ns for t, p in pairs],
        "grows": [[r.migrate_ns for r in series]
                  == sorted(r.migrate_ns for r in series)
                  for series in (tls, pie)],
    }


def _amortizes(ratios: list[float]) -> bool:
    """Dominated at 1 MB, nearly amortized at 100 MB, and non-increasing
    in between (2 % of slack between neighbours)."""
    return (ratios[0] > 3.0 and ratios[-1] < 1.25
            and all(a >= b * 0.98 for a, b in zip(ratios, ratios[1:])))


def _icache_verdicts(rows) -> dict[str, tuple[str, float]]:
    """Machine -> (method with fewer L1i misses, by how many %)."""
    misses = {(r.machine, r.method): r.misses for r in rows}
    verdicts = {}
    for machine in ("bridges2", "stampede2-icx"):
        tls, pie = (misses[machine, m] for m in ("tlsglobals", "pieglobals"))
        verdicts[machine] = ("pieglobals" if pie < tls else "tlsglobals",
                             100.0 * abs(tls - pie) / max(tls, pie))
    return verdicts


def _icache_text(rows) -> str:
    return format_table(
        ["Machine", "Method", "Line fetches", "L1i misses", "Miss rate"],
        [[r.machine, r.method, r.accesses, r.misses,
          f"{100 * r.miss_rate:.1f}%"] for r in rows],
        title="Section 4.5: L1 icache misses (PAPI stand-in)",
    ) + "\n" + format_table(
        ["Machine", "Fewer misses with", "By (%)"],
        [[m, w, f"{p:.0f}"] for m, (w, p) in _icache_verdicts(rows).items()],
    )


# -- Table 2 and Figure 9: one ADCIRC sweep ---------------------------------

CORES = (1, 2, 4, 8, 16, 32, 64)

#: Table 2 as printed in the paper: cores -> speedup %
PAPER_TABLE2 = {1: 13, 2: 59, 4: 79, 8: 70, 16: 43, 32: 24, 64: 17}


def _adcirc(cores: tuple[int, ...] = CORES) -> dict[str, Any]:
    """The sweep's Table 2 summaries and speedups (cores -> %), and its
    Figure 9 series (virtualization ratio -> cores -> ns)."""
    rows, summaries = adcirc_scaling_experiment(cores, (1, 2, 4, 8))
    series: dict[int, dict[int, int]] = {}
    for r in rows:
        series.setdefault(r.virtualization, {})[r.cores] = r.exec_ns
    return {"summaries": summaries, "series": series,
            "speedup": {s.cores: s.speedup_pct for s in summaries}}


def _table2_text(data) -> str:
    return format_table(
        ["Cores", "Best ratio", "Baseline (ms)", "Best (ms)", "Speedup %",
         "Paper %"],
        [[s.cores, s.best_ratio, s.baseline_ns / 1e6, s.best_ns / 1e6,
          s.speedup_pct, PAPER_TABLE2.get(s.cores, "-")]
         for s in data["summaries"]],
        title="Table 2: ADCIRC speedup of best virtualization ratio over "
              "baseline",
    )


def _fig9_text(data) -> str:
    return format_table(
        ["Series", "Cores", "Exec time (ms)"],
        [[f"{v}x" + (" + LB" if v > 1 else " (baseline)"), cores, ns / 1e6]
         for v, by_cores in sorted(data["series"].items())
         for cores, ns in by_cores.items()],
        title="Figure 9: ADCIRC strong scaling (execution time, lower "
              "is better)",
    )


def _peaks_mid_scale(by: dict[int, int]) -> bool:
    peak = max(by.values())
    return (peak == max(by[c] for c in (2, 4, 8, 16))
            and peak > 2 * by[1] and peak > 2 * by[64])


def _mid_scale_ratio(data) -> float:
    """The worst virtualized/baseline time ratio at 4 and 8 cores."""
    series = data["series"]
    return max(series[v][cores] / series[1][cores]
               for v in (2, 4, 8) for cores in (4, 8))


def _best_times_ms(data) -> tuple[float, float]:
    """(best virtualized time, best baseline time), ms."""
    series = data["series"]
    best_virtual = min(min(s.values()) for v, s in series.items() if v > 1)
    return best_virtual / 1e6, min(series[1].values()) / 1e6


# -- Ablations --------------------------------------------------------------

def _run_strategy(strategy: str, lb_period: int) -> tuple[int, int]:
    cfg = AdcircConfig(steps=100, lb_period=lb_period,
                       l2_bytes=BRIDGES2.l2_per_core_bytes)
    job = AmpiJob(build_adcirc_program(cfg), 32, method="pieglobals",
                  machine=BRIDGES2, layout=JobLayout.single(8),
                  lb_strategy=strategy, slot_size=1 << 26)
    r = job.run()
    moves = sum(x.moves for x in r.lb_reports)
    return r.app_ns, moves


def _lb_strategies() -> dict[str, tuple[int, int]]:
    """Strategy -> (exec ns, migrations): ADCIRC, 32 VPs on 8 cores."""
    return {
        "no-lb": _run_strategy("null", 0),
        "null (sync only)": _run_strategy("null", 4),
        "greedyrefine": _run_strategy("greedyrefine", 4),
        "greedy": _run_strategy("greedy", 4),
        "rotate": _run_strategy("rotate", 4),
    }


def _footprint_program(code_bytes: int = 1 << 20):
    p = Program("pie_ablation", code_bytes=code_bytes)
    p.add_global("x", 1)
    for i in range(64):
        p.add_global(f"table_{i}", float(i), const=True, size=4096)

    @p.function()
    def main(ctx):
        ctx.g.x = ctx.mpi.rank()
        ctx.mpi.barrier()
        return ctx.g.x

    return p.build()


def _pie_footprints() -> dict[str, tuple]:
    """Variant -> (mapped MB, resident MB, startup ms, answers)."""
    out = {}
    for label, method in (
        ("pieglobals", PieGlobals()),
        ("pieglobals+shared-rodata", PieGlobals(share_rodata=True)),
        ("pieglobals+mmap-code", PieGlobals(mmap_code_sharing=True)),
        ("pieglobals+both", PieGlobals(share_rodata=True,
                                       mmap_code_sharing=True)),
    ):
        job = AmpiJob(_footprint_program(), nvp=8, method=method,
                      machine=BRIDGES2, layout=JobLayout(1, 2, 1),
                      slot_size=1 << 26)
        result = job.run()
        mapped = sum(p.vm.total_mapped() for p in job.processes)
        rss = sum(p.vm.total_rss() for p in job.processes)
        out[label] = (mapped / 2**20, rss / 2**20, result.startup_ns / 1e6,
                      result.exit_values)
    return out


def _memory_options_pay(out: dict[str, tuple]) -> bool:
    """Shared rodata shrinks the mapping and start-up; mmap'ed code keeps
    the mapping and cuts resident bytes; both together are the least
    resident."""
    base, rodata, mmap_code, both = out.values()
    return (rodata[0] < base[0] and rodata[2] < base[2]
            and mmap_code[0] == base[0] and mmap_code[1] < base[1]
            and both[1] == min(v[1] for v in out.values()))


#: an integer global whose value lies inside the loader area (which
#: starts at 0x100_0000_0000): it looks like a pointer into the image
SUSPICIOUS_INT = 0x100_0000_0100


def _pie_scan_modes() -> dict[str, tuple[set, int]]:
    """Scan mode -> (values read back, segment slots rebased)."""
    results = {}
    for label, method in (
        ("heuristic-scan", PieGlobals()),
        ("robust-scan", PieGlobals(robust_scan=True)),
    ):
        p = Program("falsepos", code_bytes=1 << 20)
        p.add_global("suspicious_int", SUSPICIOUS_INT)

        @p.function()
        def main(ctx):
            ctx.mpi.barrier()
            return ctx.g.suspicious_int

        job = AmpiJob(p.build(), nvp=2, method=method, machine=BRIDGES2,
                      layout=JobLayout.single(1), slot_size=1 << 26)
        r = job.run()
        results[label] = (set(r.exit_values.values()),
                          method.scan_reports[0].segment_pointers_fixed)
    return results


def _scan_false_positive(out: dict[str, tuple[set, int]]) -> bool:
    """The heuristic scan rebases more slots and changes the integer;
    the robust scan reads it back unchanged."""
    (heuristic, heuristic_fixed), (robust, robust_fixed) = out.values()
    return (heuristic_fixed > robust_fixed and robust == {SUSPICIOUS_INT}
            and heuristic != {SUSPICIOUS_INT})


def _max_ranks(machine, upper: int = 40) -> int:
    p = Program("nslimit")
    p.add_global("x", 0)

    @p.function()
    def main(ctx):
        ctx.g.x = ctx.mpi.rank()
        ctx.mpi.barrier()
        return ctx.g.x

    src = p.build()
    best = 0
    for nvp in range(2, upper + 1, 2):
        job = AmpiJob(src, nvp, method="pipglobals", machine=machine,
                      layout=JobLayout.single(1), slot_size=1 << 24)
        try:
            job.start()
        except NamespaceLimitError:
            job.scheduler and job.scheduler.shutdown()
            return best
        job.scheduler.shutdown()
        best = nvp
    return best


def _migrate_ns(method, heap_mb: int) -> int:
    src = build_memhog_program(MemhogConfig(heap_mb=heap_mb,
                                            code_bytes=14 * 1024 * 1024))
    # 2 nodes, 2 ranks per node process, round-robin so the destination
    # process already hosts a PIE copy of the same binary.
    job = AmpiJob(src, 4, method=method, machine=BRIDGES2,
                  layout=JobLayout(nodes=2, processes_per_node=1,
                                   pes_per_process=1),
                  placement="roundrobin", slot_size=1 << 28)
    result = job.run()
    return result.exit_values[0]


def _dedup_migration() -> list[tuple[int, int, int, int]]:
    """(heap MB, TLSglobals, PIEglobals, PIEglobals+dedup ns) per heap."""
    return [(heap, _migrate_ns("tlsglobals", heap),
             _migrate_ns(PieGlobals(), heap),
             _migrate_ns(PieGlobals(dedup_migration=True), heap))
            for heap in (1, 4, 16, 64)]


# -- The runs ----------------------------------------------------------------

RUNS: dict[str, Run] = {
    "tables": Run(lambda: {m: probe_method(m) for m in TABLE3_METHODS}, {
        "table1_existing_methods": _capability_table(
            TABLE1_METHODS, "Table 1: existing privatization methods"),
        "table3_all_methods": _capability_table(
            TABLE3_METHODS,
            "Table 3: all privatization methods (incl. the 3 new ones)"),
    }),
    "fig5": Run(_fig5, {"fig5_startup": _fig5_text}, traceable=True,
                rows=lambda data: data[0]),
    "fig6": Run(lambda quick_n=50_000, **recorders: context_switch_experiment(
        yields_per_rank=quick_n, **recorders),
        {"fig6_context_switch": lambda rows: format_table(
            ["Method", "Switches", "ns/switch", "Delta vs baseline (ns)"],
            [[r.method, r.switches, r.ns_per_switch, r.delta_vs_baseline_ns]
             for r in rows],
            title="Figure 6: ULT context-switch time (ns)")},
        flags=("quick_n",), traceable=True),
    "fig6-globals": Run(
        lambda: (_switch_ns(2, 4096), _switch_ns(500, 4 << 20)), {}),
    "fig7": Run(jacobi_access_experiment, {"fig7_jacobi_access": _access_table(
        "Figure 7: Jacobi-3D with privatized inner-loop globals (-O2)")},
        traceable=True),
    "fig7-O0": Run(lambda: jacobi_access_experiment(optimize=0), {
        "ablation_access_O0": _access_table(
            "Ablation: Jacobi-3D access overhead at -O0")}),
    "fig8": Run(migration_experiment, {"fig8_migration": lambda rows: (
        format_table(
            ["Method", "Heap (MB)", "Migration (ms)", "Payload (MB)"],
            [[r.method, r.heap_mb, r.migrate_ns / 1e6, r.bytes_moved / 2**20]
             for r in rows],
            title="Figure 8: migration time vs per-rank memory "
                  "(14 MB ADCIRC-sized code segment)"))},
        traceable=True),
    "icache": Run(icache_experiment, {"sec45_icache": _icache_text}),
    "adcirc": Run(_adcirc, {"table2_adcirc_speedup": _table2_text,
                            "fig9_adcirc_scaling": _fig9_text},
                  flags=("cores",), rows=lambda data: data["summaries"]),
    "lb": Run(_lb_strategies, {"ablation_lb_strategies": lambda out: (
        format_table(
            ["Strategy", "Exec (ms)", "Migrations"],
            [[k, ns / 1e6, moves] for k, (ns, moves) in out.items()],
            title="Ablation: LB strategy, ADCIRC 32 VPs on 8 cores"))}),
    "pie-memory": Run(_pie_footprints, {"ablation_pie_memory": lambda out: (
        format_table(
            ["Variant", "Mapped (MB)", "Resident (MB)", "Startup (ms)"],
            [[label, *values[:3]] for label, values in out.items()],
            title="Ablation: PIEglobals memory options "
                  "(Section 6 future work)"))}),
    "pie-scan": Run(_pie_scan_modes, {"ablation_pie_scan": lambda out: (
        format_table(
            ["Scan mode", "Value after privatization", "Slots rebased"],
            [[k, sorted(values), fixed] for k, (values, fixed) in out.items()],
            title="Ablation: PIEglobals pointer-scan false positives"))}),
    "pip-namespaces": Run(lambda: {
        "stock glibc": _max_ranks(BRIDGES2),
        "patched glibc (PIP)": _max_ranks(BRIDGES2_PATCHED_GLIBC),
    }, {"ablation_pip_namespaces": lambda out: format_table(
        ["glibc", "Max PIPglobals ranks per process"],
        [[k, v] for k, v in out.items()],
        title="Ablation: PIPglobals vs glibc's dlmopen namespace limit")}),
    "dedup": Run(_dedup_migration, {"ablation_dedup_migration": lambda rows: (
        format_table(
            ["Heap (MB)", "TLSglobals (ms)", "PIE (ms)", "PIE+dedup (ms)",
             "dedup saving"],
            [[h, t / 1e6, p / 1e6, d / 1e6, f"{100 * (p - d) / p:.0f}%"]
             for h, t, p, d in rows],
            title="Ablation: differential code migration "
                  "(14 MB code segment)"))}),
}


# -- The claims ---------------------------------------------------------------

CLAIMS: tuple[Claim, ...] = tuple(map(_table3_row, TABLE3_METHODS)) + (
    Claim("table3.pie-only-automatic-migrating", "Table 3", "tables",
          "PIEglobals is the only fully automatic method that migrates",
          lambda rows: [m for m, r in rows.items() if r.migration == "Yes"
                        and r.automation == "Good"], equals(["pieglobals"]),
          REPRODUCED, "the headline: automation without losing migration"),
    Claim("fig5.worst-new-method", "Figure 5", "fig5",
          "the worst method starts ~9 % slower than the baseline (%)",
          lambda d: max((r.overhead_pct, r.method) for r in d[0]),
          Check("0 < % < 15, a new method",
                lambda w: 0 < w[0] < 15 and w[1] in NEW_METHODS),
          REPRODUCED, "FSglobals copies the binary per rank on shared FS"),
    Claim("fig5.tls-free", "Figure 5", "fig5",
          "TLSglobals costs next to nothing at start-up (overhead %)",
          lambda d: by_method(d[0])["tlsglobals"].overhead_pct, below(1.0),
          REPRODUCED, "it copies only the tiny TLS segment per rank"),
    Claim("fig5.fs-grows-with-nodes", "Figure 5", "fig5",
          "FSglobals start-up grows with nodes (ms at 1, 2, 4, 8 nodes)",
          lambda d: [r.startup_ns / 1e6 for r in d[1]],
          Check("increasing", increasing), SHAPE, "shared-FS contention"),
    Claim("fig6.switch-about-100ns", "Figure 6", "fig6",
          "a ULT context switch takes ~100 ns (baseline ns/switch)",
          lambda rows: by_method(rows)["none"].ns_per_switch,
          between(80, 130), REPRODUCED, "no kernel entry on a switch"),
    Claim("fig6.within-12ns", "Figure 6", "fig6",
          "every method is within 12 ns of the baseline (largest delta)",
          lambda rows: max(abs(r.delta_vs_baseline_ns) for r in rows),
          between(0, 12.0), REPRODUCED, "at most one pointer swap"),
    Claim("fig6.only-tls-swappers-pay", "Figure 6", "fig6",
          "TLS/PIEglobals switch slowest, PIP/FSglobals at no cost (ns)",
          lambda rows: {r.method: r.delta_vs_baseline_ns for r in rows},
          Check("TLS, PIE slowest; PIP, FS <= 1", _only_tls_swappers_pay),
          REPRODUCED, "both swap the TLS pointer; PIE implies TLSglobals"),
    Claim("fig6.independent-of-globals", "Figure 6", "fig6-globals",
          "switch cost ignores globals, code size (ns: 2 in 4 KiB, 500 in "
          "4 MiB)",
          lambda ns: ns, Check("< 2 apart", lambda ns: abs(ns[0] - ns[1]) < 2),
          REPRODUCED, "the switch swaps one pointer, whatever it holds"),
    Claim("fig7.no-access-cost", "Figure 7", "fig7",
          "no hidden cost to privatized access at -O2 (x baseline time)",
          lambda rows: [r.rel_to_baseline for r in rows],
          each(between(0.97, 1.03)),
          REPRODUCED, "IP-relative access or an optimized segment pointer"),
    Claim("fig7.O0-only-tls-pays", "Figure 7 note", "fig7-O0",
          "unoptimized, only TLSglobals pays for access (x baseline time)",
          lambda rows: {r.method: r.rel_to_baseline for r in rows},
          Check("tlsglobals > 1.15, PIP/FS/PIE < 1.03", lambda rel: (
              rel["tlsglobals"] > 1.15
              and max(rel[m] for m in NEW_METHODS) < 1.03)),
          SHAPE, "TLS overhead is optimized away by compilers"),
    Claim("fig8.pie-moves-more", "Figure 8", "fig8",
          "PIEglobals migrates slower at every heap size (extra ms)",
          lambda rows: _fig8(rows)["extra_ms"], each(above(0)),
          REPRODUCED, "its segment copies live in Isomalloc and migrate"),
    Claim("fig8.surcharge-is-code", "Figure 8", "fig8",
          "the extra payload is the ~14 MB code segment (MiB per heap)",
          lambda rows: _fig8(rows)["extra_mib"],
          each(Check("in (10, 20)", lambda mib: 10 < mib < 20)),
          REPRODUCED, "ADCIRC's code segment rides along"),
    Claim("fig8.impact-decays", "Figure 8", "fig8",
          "the proportional impact shrinks as the heap grows (x TLS time)",
          lambda rows: _fig8(rows)["ratio"],
          Check("> 3 at 1 MB, < 1.25 at 100 MB, non-increasing", _amortizes),
          REPRODUCED, "a fixed cost over a growing heap"),
    Claim("fig8.grows-with-heap", "Figure 8", "fig8",
          "TLSglobals' and PIEglobals' times grow with the heap (sorted?)",
          lambda rows: _fig8(rows)["grows"], equals([True, True]),
          REPRODUCED, "the heap is copied"),
    Claim("sec45.sign-flip", "Section 4.5", "icache",
          "fewer L1i misses with PIE on Bridges-2, TLS on Stampede2",
          lambda rows: [w for w, _ in _icache_verdicts(rows).values()],
          equals(["pieglobals", "tlsglobals"]), REPRODUCED,
          "none given; in the model, TLS code inflation and L1i differ"),
    Claim("sec45.bridges2-margin", "Section 4.5", "icache",
          "Bridges-2: PIEglobals has 22 % fewer L1i misses",
          lambda rows: _icache_verdicts(rows)["bridges2"][1],
          between(10.0, 35.0), REPRODUCED,
          "both thrash the 32 KiB L1i; the inflated TLS build more"),
    Claim("sec45.stampede2-margin", "Section 4.5", "icache",
          "Stampede2: TLSglobals has 15 % fewer L1i misses",
          lambda rows: _icache_verdicts(rows)["stampede2-icx"][1],
          above(45.0), DIVERGES, "98 %: in the model TLS fits the front "
          "end entirely and PIE's eight copies thrash it"),
    Claim("table2.positive-everywhere", "Table 2", "adcirc",
          "virtualization + LB wins at every core count (cores: %)",
          lambda d: d["speedup"], Check("> 0 at each of 1-64", lambda by: (
              tuple(by) == CORES and min(by.values()) > 0)),
          REPRODUCED, "overdecomposition lets LB follow the wet front"),
    Claim("table2.one-core-modest", "Table 2", "adcirc",
          "on 1 core the gain is small: 13 %",
          lambda d: d["speedup"][1], between(2, 25),
          SHAPE, "LB cannot help on one PE, only the cache effect (6 %)"),
    Claim("table2.peaks-mid-scale", "Table 2", "adcirc",
          "the speedup peaks at 2-16 cores, over twice both ends",
          lambda d: d["speedup"],
          Check("peak in 2-16, > 2x 1 and 64 cores", _peaks_mid_scale),
          SHAPE, "imbalance matters, with work enough per PE to balance"),
    Claim("table2.peak-place-and-size", "Table 2", "adcirc",
          "the peak is 79 % at 4 cores (cores, speedup %)",
          lambda d: max(d["speedup"].items(), key=lambda kv: kv[1]),
          Check("not 4, > 1.5 x 79", lambda p: p[0] != 4 and p[1] > 118),
          DIVERGES, "162 % at 8: the mini-app's dry/wet cost ratio leaves "
          "more recoverable imbalance than production ADCIRC"),
    Claim("table2.decaying-tail", "Table 2", "adcirc",
          "past the peak the gain decays (speedup % at 16, 32, 64 cores)",
          lambda d: [d["speedup"][c] for c in (16, 32, 64)],
          Check("non-increasing", lambda xs: xs == sorted(xs, reverse=True)),
          REPRODUCED, "communication dominates at the scaling limit"),
    Claim("table2.positive-at-64", "Table 2", "adcirc",
          "at 64 cores the gain is still 17 %",
          lambda d: d["speedup"][64], Check("x >= 5", lambda x: x >= 5),
          SHAPE, "positive at the strong-scaling limit (9 %)"),
    Claim("fig9.baseline-scales", "Figure 9", "adcirc",
          "the baseline strong-scales (ms at 64 down to 1 core)",
          lambda d: [d["series"][1][c] / 1e6 for c in CORES[::-1]],
          Check("increasing", increasing),
          REPRODUCED, "the same global problem over more cores"),
    Claim("fig9.virtualization-wins-mid-scale", "Figure 9", "adcirc",
          "at 4 and 8 cores 2x-8x + LB beat the baseline (worst ratio)",
          _mid_scale_ratio, below(1.0),
          REPRODUCED, "measured loads predict the slowly moving front"),
    Claim("fig9.extends-envelope", "Figure 9", "adcirc",
          "the best virtualized time beats the best baseline time (ms)",
          _best_times_ms, Check("first < second", lambda t: t[0] < t[1]),
          REPRODUCED, "virtualization extends the scaling envelope"),
    Claim("ablation.lb-measured-beats-none", "Table 2 text", "lb",
          "GreedyRefine and Greedy beat no LB (ms: refine, greedy, none)",
          lambda out: [out[k][0] / 1e6 for k in ("greedyrefine", "greedy",
                                                 "no-lb")],
          Check("first two < third", lambda ms: max(ms[:2]) < ms[2]),
          SHAPE, "more tuning of LB strategy can yield greater speedups"),
    Claim("ablation.lb-refine-migrates-less", "Table 2 text", "lb",
          "GreedyRefine migrates under half as much as Greedy (moves)",
          lambda out: (out["greedyrefine"][1], out["greedy"][1]),
          Check("first < second / 2", lambda m: m[0] < m[1] / 2),
          SHAPE, "refinement keeps ranks in place unless moving pays"),
    Claim("ablation.lb-rotate-churns", "Table 2 text", "lb",
          "RotateLB moves more, wins less (ms, moves: rotate, refine)",
          lambda out: [(out[k][0] / 1e6, out[k][1])
                       for k in ("rotate", "greedyrefine")],
          Check("rotate slower, moves more", lambda m: m[0][0] > m[1][0]
                and m[0][1] > m[1][1]),
          SHAPE, "blind rotation ignores the measured loads"),
    Claim("ablation.pie-options-agree", "Section 6", "pie-memory",
          "every PIEglobals memory option computes the same answers",
          lambda out: len({repr(v[3]) for v in out.values()}), equals(1),
          REPRODUCED, "the options move bytes, not what a rank reads"),
    Claim("ablation.pie-options-save", "Section 6", "pie-memory",
          "shared rodata and mmap'ed code each save memory, both the most "
          "(mapped MB, resident MB, start-up ms per variant)",
          lambda out: {k: v[:3] for k, v in out.items()},
          Check("each saves what it promises", _memory_options_pay),
          REPRODUCED, "future work: less code bloat, migration intact"),
    Claim("ablation.pointer-scan", "Sections 3.3, 6", "pie-scan",
          "the heuristic scan rebases a pointer-like integer, the robust "
          "one keeps it (values read back, slots rebased)",
          lambda out: out, Check("only heuristic changes it, rebasing "
                                 "more", _scan_false_positive),
          REPRODUCED, "the scan rebases any value inside the segments"),
    Claim("ablation.pip-namespaces", "Section 3.1", "pip-namespaces",
          "stock glibc caps PIPglobals near 12 ranks per process, PIP's "
          "patched glibc does not (stock, patched; the probe stops at 40)",
          lambda out: tuple(out.values()),
          Check("8-12, 40", lambda n: 8 <= n[0] <= 12 and n[1] == 40),
          REPRODUCED, "~12 usable dlmopen namespaces; the probe takes one"),
    Claim("ablation.dedup-beats-plain", "Section 6", "dedup",
          "not sending code the destination holds saves time (% per heap)",
          lambda rows: [round(100 * (p - d) / p) for _, _, p, d in rows],
          each(above(0)), REPRODUCED, "migrate only segments that differ"),
    Claim("ablation.dedup-closes-gap", "Section 6", "dedup",
          "dedup closes most of the gap to TLSglobals (share left)",
          lambda rows: max((d - t) / (p - t) for _, t, p, d in rows),
          below(0.35), REPRODUCED, "the destination holds the same code"),
    Claim("ablation.dedup-saving-constant", "Section 6", "dedup",
          "the saving is about constant (ms per heap)",
          lambda rows: [(p - d) / 1e6 for _, _, p, d in rows],
          Check("max < 1.6 x min", lambda ms: max(ms) < 1.6 * min(ms)),
          REPRODUCED, "it is the code segment's wire time"),
)


_WRAP = textwrap.TextWrapper(width=78, initial_indent="  ",
                             subsequent_indent="    ")


def render_row(c: Claim, value: Any) -> str:
    """One row of ``claims.txt``: the claim, its measured value and
    verdict."""
    verdict = "holds" if c.check.test(value) else "FAILS"
    return "\n".join([
        f"[{c.status}] {c.id}  ({c.where}; run {c.run})",
        *_WRAP.wrap(f"claim: {c.claim}"),
        *_WRAP.wrap(f"measured: {show(value)}  ({verdict}: {c.check.text})"),
        *_WRAP.wrap(f"reason: {c.reason}")])


def render(measured: Mapping[str, Any]) -> str:
    """``claims.txt``: every row with its measured value and verdict."""
    counts = ", ".join(f"{sum(c.status == s for c in CLAIMS)} {s}"
                       for s in STATUSES)
    out = ["Paper claims, one checked row each (repro.harness.claims)",
           f"{len(CLAIMS)} claims: {counts}",
           "* = read from the method's declared Capabilities, not probed"]
    for c in CLAIMS:
        out += ["", render_row(c, measured[c.id])]
    return "\n".join(out) + "\n"
