"""Section 4.5: L1 instruction-cache misses, TLSglobals vs PIEglobals.

Paper result (verbatim): "on Bridges2 PIEglobals had 22% fewer L1
instruction cache misses than TLSglobals ... on TACC's Stampede2 ...
TLSglobals had 15% fewer".  The sign *flips between machines* and the
paper declines to draw a conclusion.

The simulator reproduces the flip mechanically: TLSglobals shares one
copy of the code but its -mno-tls-direct-seg-refs build inflates hot-loop
code volume (toolchain-dependent), while PIEglobals fetches lean
IP-relative code from per-rank copies at distinct addresses.  On the
Bridges-2 preset both footprints thrash the 32 KiB L1i, so the inflated
TLS build misses more (PIE wins); on the Stampede2 preset the leaner TLS
build fits the larger effective front-end capacity (TLS wins)."""

from __future__ import annotations

import pytest

from repro.apps.jacobi3d import JacobiConfig
from repro.harness.experiments import icache_experiment
from repro.harness.tables import EXPERIMENTS, format_table

from conftest import report_table

CFG = JacobiConfig(n=14, iters=10, reduce_every=1)


def _run():
    return icache_experiment(cfg=CFG)


@pytest.mark.benchmark(group="sec45")
def test_sec45_icache_misses(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    verdicts = []
    for machine in ("bridges2", "stampede2-icx"):
        tls = next(r for r in rows
                   if r.machine == machine and r.method == "tlsglobals")
        pie = next(r for r in rows
                   if r.machine == machine and r.method == "pieglobals")
        if pie.misses < tls.misses:
            verdicts.append(
                (machine, "pieglobals",
                 100.0 * (tls.misses - pie.misses) / tls.misses)
            )
        else:
            verdicts.append(
                (machine, "tlsglobals",
                 100.0 * (pie.misses - tls.misses) / pie.misses)
            )
    table = EXPERIMENTS["icache"].table(rows) + "\n" + format_table(
        ["Machine", "Fewer misses with", "By (%)"],
        [[m, w, f"{p:.0f}"] for m, w, p in verdicts],
    )
    report_table("sec45_icache", table)

    verdict = dict((m, w) for m, w, _ in verdicts)
    # The machine-dependent sign flip — the paper's actual finding.
    assert verdict["bridges2"] == "pieglobals"
    assert verdict["stampede2-icx"] == "tlsglobals"
    # Bridges-2 magnitude in the paper's ballpark (22% fewer for PIE).
    bridges_pct = next(p for m, w, p in verdicts if m == "bridges2")
    assert 10.0 <= bridges_pct <= 35.0
