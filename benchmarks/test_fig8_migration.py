"""Figure 8: migration time of a virtual rank vs. its heap size,
TLSglobals vs PIEglobals (lower is better).

Paper shape: PIEglobals must additionally move the ~14 MB (ADCIRC-sized)
code+data segment copy, a fixed surcharge over TLSglobals whose
*proportional* impact shrinks as the rank's heap grows from 1 MB to
100 MB."""

from __future__ import annotations

import pytest

from repro.harness.experiments import migration_experiment
from repro.harness.tables import EXPERIMENTS

from conftest import report_table

HEAP_MBS = (1, 2, 4, 8, 16, 32, 64, 100)


def _run():
    return migration_experiment(heap_mbs=HEAP_MBS)


@pytest.mark.benchmark(group="fig8")
def test_fig8_migration_vs_heap(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    report_table("fig8_migration", EXPERIMENTS["fig8"].table(rows))

    tls = {r.heap_mb: r for r in rows if r.method == "tlsglobals"}
    pie = {r.heap_mb: r for r in rows if r.method == "pieglobals"}

    for mb in HEAP_MBS:
        # PIE always moves more (code+data ride along) ...
        assert pie[mb].migrate_ns > tls[mb].migrate_ns
        surcharge = pie[mb].bytes_moved - tls[mb].bytes_moved
        # ... and the surcharge is roughly the 14 MB code segment.
        assert 10 * 2**20 < surcharge < 20 * 2**20
    # Proportional impact decreases with heap size (paper's key point).
    ratios = [pie[mb].migrate_ns / tls[mb].migrate_ns for mb in HEAP_MBS]
    assert ratios[0] > 3.0          # dominated by the code segment at 1 MB
    assert ratios[-1] < 1.25        # nearly amortized at 100 MB
    assert all(a >= b * 0.98 for a, b in zip(ratios, ratios[1:]))
    # Migration time grows with heap for both methods.
    for series in (tls, pie):
        times = [series[mb].migrate_ns for mb in HEAP_MBS]
        assert times == sorted(times)
