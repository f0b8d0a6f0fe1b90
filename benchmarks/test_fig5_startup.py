"""Figure 5: startup/initialization overhead per privatization method,
8 virtual ranks per process (lower is better).

Paper shape: the worst of the three new methods is ~9 % over the
no-privatization baseline; all methods except FSglobals are constant
per-process, while FSglobals grows with node count (shared-FS I/O and
contention)."""

from __future__ import annotations

import pytest

from repro.harness.experiments import startup_experiment
from repro.harness.tables import EXPERIMENTS, format_table

from conftest import report_table


def _run():
    rows = startup_experiment()
    fs_scaling = [
        startup_experiment(methods=("none", "fsglobals"), nodes=n)[-1]
        for n in (1, 2, 4, 8)
    ]
    return rows, fs_scaling


@pytest.mark.benchmark(group="fig5")
def test_fig5_startup(benchmark):
    rows, fs_scaling = benchmark.pedantic(_run, rounds=1, iterations=1)

    table = EXPERIMENTS["fig5"].table(rows)
    table += "\n" + format_table(
        ["Nodes", "FSglobals startup (ms)", "Overhead (%)"],
        [[r.nodes, r.startup_ns / 1e6, r.overhead_pct] for r in fs_scaling],
        title="FSglobals startup vs node count (the one method that scales)",
    )
    report_table("fig5_startup", table)

    by = {r.method: r for r in rows}
    # Every method costs at least the baseline; the worst new method is
    # within ~15% of baseline (paper: 9%).
    worst = max(r.overhead_pct for r in rows)
    assert 0 < worst < 15.0
    assert max(by["fsglobals"].overhead_pct, by["pipglobals"].overhead_pct,
               by["pieglobals"].overhead_pct) == worst
    # TLSglobals only copies tiny TLS segments: near-zero overhead.
    assert by["tlsglobals"].overhead_pct < 1.0
    # FSglobals startup grows monotonically with node count.
    fs_ns = [r.startup_ns for r in fs_scaling]
    assert fs_ns == sorted(fs_ns) and fs_ns[-1] > fs_ns[0]
