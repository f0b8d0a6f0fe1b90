"""Figure 6: user-level thread context-switch time per method, averaged
over ~100,000 switches (lower is better).

Paper shape: TLSglobals and PIEglobals are worst (both swap the TLS
segment pointer at each switch); every method is within ~12 ns of the
no-privatization baseline; the cost does not depend on the number of
globals or the code size."""

from __future__ import annotations

import pytest

from repro.harness.experiments import context_switch_experiment
from repro.harness.tables import EXPERIMENTS

from conftest import report_table

YIELDS = 50_000   # two ranks -> ~100k switches, like the paper


def _run():
    return context_switch_experiment(yields_per_rank=YIELDS)


@pytest.mark.benchmark(group="fig6")
def test_fig6_context_switch(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    report_table("fig6_context_switch", EXPERIMENTS["fig6"].table(rows))

    by = {r.method: r for r in rows}
    base = by["none"].ns_per_switch
    # ~100 ns switches.
    assert 80 <= base <= 130
    # All methods within 12 ns of baseline.
    for r in rows:
        assert abs(r.ns_per_switch - base) <= 12.0, r
    # TLSglobals and PIEglobals are the worst (TLS pointer swap).
    worst_two = sorted(rows, key=lambda r: -r.ns_per_switch)[:2]
    assert {w.method for w in worst_two} == {"tlsglobals", "pieglobals"}
    # PIP/FS do no work at switch time.
    assert by["pipglobals"].delta_vs_baseline_ns <= 1.0
    assert by["fsglobals"].delta_vs_baseline_ns <= 1.0


@pytest.mark.benchmark(group="fig6")
def test_fig6_independent_of_globals_count(benchmark):
    """The paper notes switch cost does not grow with globals/code size."""
    from repro.ampi.runtime import AmpiJob
    from repro.charm.node import JobLayout
    from repro.machine import BRIDGES2
    from repro.perf.counters import EV_CTX_SWITCH
    from repro.program.source import Program

    def build(n_globals: int, code_bytes: int):
        p = Program("switch_probe", code_bytes=code_bytes)
        for i in range(n_globals):
            p.add_global(f"g{i}", i)

        @p.function()
        def main(ctx):
            for _ in range(2_000):
                ctx.mpi.yield_()

        return p.build()

    def run(n_globals: int, code_bytes: int) -> float:
        job = AmpiJob(build(n_globals, code_bytes), nvp=2,
                      method="tlsglobals", machine=BRIDGES2,
                      layout=JobLayout.single(1), slot_size=1 << 26)
        r = job.run()
        return r.app_ns / max(1, r.counters[EV_CTX_SWITCH])

    small, large = benchmark.pedantic(
        lambda: (run(2, 4096), run(500, 4 << 20)), rounds=1, iterations=1
    )
    assert abs(small - large) < 2.0
