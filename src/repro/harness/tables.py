"""Plain-text and markdown table rendering for experiment output, and
the catalogue of the paper's experiments (:data:`EXPERIMENTS`): what
``repro run``/``repro trace`` accept and the benchmark writers print."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence


def _cell(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.2f}"
    return str(v)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Fixed-width table with a box, like the paper's result tables."""
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    out = []
    if title:
        out.append(title)
    out.append(sep)
    out.append(
        "|" + "|".join(f" {h:<{w}} " for h, w in zip(headers, widths)) + "|"
    )
    out.append(sep)
    for r in cells:
        out.append(
            "|" + "|".join(f" {v:<{w}} " for v, w in zip(r, widths)) + "|"
        )
    out.append(sep)
    return "\n".join(out)


def format_markdown_table(headers: Sequence[str],
                          rows: Sequence[Sequence[Any]]) -> str:
    cells = [[_cell(v) for v in row] for row in rows]
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for r in cells:
        out.append("| " + " | ".join(r) + " |")
    return "\n".join(out)


@dataclass(frozen=True)
class Experiment:
    """One experiment of the paper's evaluation, declared once: ``repro
    run|trace <name>`` and its run in ``benchmarks/claims.py`` both
    print :meth:`table`, the first table of the committed
    ``benchmarks/results/*.txt``."""

    title: str
    headers: tuple[str, ...]
    row: Callable[[Any], Sequence[Any]]     #: a driver row -> its cells
    #: the driver in :mod:`repro.harness.experiments`, by name: reading
    #: the catalogue (to build a parser) must not import the simulator
    driver: str
    #: the driver takes ``trace=``/``sanitize=``
    traceable: bool = True
    #: driver keyword -> its value from the parsed ``run``/``trace`` flags
    flags: Mapping[str, Callable[[Any], Any]] = field(default_factory=dict)
    #: if the driver returns a tuple: the element that holds the rows
    part: int | None = None

    def table(self, rows: Sequence[Any]) -> str:
        return format_table(self.headers, [self.row(r) for r in rows],
                            title=self.title)


#: Table 2 as printed in the paper: cores -> speedup %
PAPER_TABLE2 = {1: 13, 2: 59, 4: 79, 8: 70, 16: 43, 32: 24, 64: 17}

EXPERIMENTS: dict[str, Experiment] = {
    "fig5": Experiment(
        "Figure 5: startup overhead, 8x virtualization, Bridges-2",
        ("Method", "Startup (ms)", "Overhead vs baseline (%)"),
        lambda r: (r.method, r.startup_ns / 1e6, r.overhead_pct),
        driver="startup_experiment"),
    "fig6": Experiment(
        "Figure 6: ULT context-switch time (ns)",
        ("Method", "Switches", "ns/switch", "Delta vs baseline (ns)"),
        lambda r: (r.method, r.switches, r.ns_per_switch,
                   r.delta_vs_baseline_ns),
        driver="context_switch_experiment",
        flags={"yields_per_rank": lambda args: args.quick_n or 20_000}),
    "fig7": Experiment(
        "Figure 7: Jacobi-3D with privatized inner-loop globals (-O2)",
        ("Method", "Exec (ms)", "Relative to baseline"),
        lambda r: (r.method, r.exec_ns / 1e6, r.rel_to_baseline),
        driver="jacobi_access_experiment"),
    "fig8": Experiment(
        "Figure 8: migration time vs per-rank memory "
        "(14 MB ADCIRC-sized code segment)",
        ("Method", "Heap (MB)", "Migration (ms)", "Payload (MB)"),
        lambda r: (r.method, r.heap_mb, r.migrate_ns / 1e6,
                   r.bytes_moved / 2**20),
        driver="migration_experiment"),
    "icache": Experiment(
        "Section 4.5: L1 icache misses (PAPI stand-in)",
        ("Machine", "Method", "Line fetches", "L1i misses", "Miss rate"),
        lambda r: (r.machine, r.method, r.accesses, r.misses,
                   f"{100 * r.miss_rate:.1f}%"),
        driver="icache_experiment", traceable=False),
    "adcirc": Experiment(
        "Table 2: ADCIRC speedup of best virtualization ratio over baseline",
        ("Cores", "Best ratio", "Baseline (ms)", "Best (ms)", "Speedup %",
         "Paper %"),
        lambda s: (s.cores, s.best_ratio, s.baseline_ns / 1e6, s.best_ns / 1e6,
                   s.speedup_pct, PAPER_TABLE2.get(s.cores, "-")),
        driver="adcirc_scaling_experiment", traceable=False, part=1,
        flags={"cores_list": lambda args: tuple(
            int(c) for c in (args.cores or "1,2,4,8").split(","))}),
}
