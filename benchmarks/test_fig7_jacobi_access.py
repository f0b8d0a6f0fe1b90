"""Figure 7: Jacobi-3D execution time with all inner-loop variables
privatized (lower is better).

Paper shape: at -O2 there is **no hidden per-access cost** for any
method — execution times match the unprivatized baseline.  (The paper
mentions having seen TLSglobals access overhead in the past but being
unable to replicate it with optimizations on; the -O0 ablation in
``test_ablation_access_O0.py`` reproduces that historical overhead.)
"""

from __future__ import annotations

import pytest

from repro.apps.jacobi3d import JacobiConfig
from repro.harness.experiments import jacobi_access_experiment
from repro.harness.tables import EXPERIMENTS

from conftest import report_table

CFG = JacobiConfig(n=20, iters=8)


def _run():
    return jacobi_access_experiment(cfg=CFG, optimize=2)


@pytest.mark.benchmark(group="fig7")
def test_fig7_jacobi_access_overhead(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    report_table("fig7_jacobi_access", EXPERIMENTS["fig7"].table(rows))

    # No hidden per-access cost: every method within 3% of baseline.
    for r in rows:
        assert 0.97 <= r.rel_to_baseline <= 1.03, r
