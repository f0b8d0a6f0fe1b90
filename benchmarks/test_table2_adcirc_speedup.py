"""Table 2: ADCIRC speedup of the best-performing virtualization ratio
over the baseline (no virtualization, no load balancing).

Paper row: cores {1,2,4,8,16,32,64} -> speedup {13,59,79,70,43,24,17} %.
Shape goals: positive everywhere, small at 1 core (only the
overdecomposition cache effect — LB cannot help on one PE), peaking at
small-to-mid core counts, decaying toward the strong-scaling limit but
still positive at 64 cores."""

from __future__ import annotations

import pytest

from repro.harness.experiments import adcirc_scaling_experiment
from repro.harness.tables import EXPERIMENTS

from conftest import report_table

CORES = (1, 2, 4, 8, 16, 32, 64)


def _run():
    return adcirc_scaling_experiment(cores_list=CORES)


@pytest.mark.benchmark(group="table2")
def test_table2_adcirc_speedup(benchmark):
    rows, summaries = benchmark.pedantic(_run, rounds=1, iterations=1)
    report_table("table2_adcirc_speedup",
                 EXPERIMENTS["adcirc"].table(summaries))

    by = {s.cores: s for s in summaries}
    assert set(by) == set(CORES)
    # Positive speedup at every core count.
    for s in summaries:
        assert s.speedup_pct > 0, s
    # Single-core gain is modest (cache effect only; paper: 13%).
    assert 2 <= by[1].speedup_pct <= 25
    # Mid-range peak well above both ends.
    peak = max(s.speedup_pct for s in summaries)
    assert peak == max(by[c].speedup_pct for c in (2, 4, 8, 16))
    assert peak > 2 * by[1].speedup_pct
    assert peak > 2 * by[64].speedup_pct
    # Strong-scaling limit still benefits (paper: 17% at 64 cores).
    assert by[64].speedup_pct >= 5
    # Decaying tail: 16 -> 32 -> 64 monotone non-increasing.
    assert by[16].speedup_pct >= by[32].speedup_pct >= by[64].speedup_pct
