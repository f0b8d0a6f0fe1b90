"""Regenerate the committed pinned-scenario manifest.

Usage::

    PYTHONPATH=src python benchmarks/pin_scenarios.py [OUT.json]

Runs every scenario below under the current sources, records each into
the provenance store (``.repro/store`` or ``$REPRO_PROVENANCE``), and
writes the manifest that ``repro pin run`` — and the ``timeline-pin``
CI job — verifies against.  Regenerating after an *intentional*
timeline change is the blessed way to update the expectations; the
manifest diff then shows exactly which scenarios moved and how.

The corpus deliberately spans the runtime's feature surface: both
evaluation apps, every-day privatization plus TLS with round-robin
placement, the reliable transport, message-logging local recovery, wire
noise, and a sanitized run — so a drift in any subsystem trips at least
one scenario.  The ``startup-*`` entries run Figure 5's probe through
every method's start-up path (and each PIEglobals option that branches
inside it): ranks enter the run queue at their process's start-up clock,
so the timeline digest pins each method's simulated start-up time.
"""

from __future__ import annotations

import sys

from repro.ft import FaultPlan, MessageFaults, NodeCrash
from repro.harness.jobspec import JobSpec, run_spec
from repro.provenance import (
    DEFAULT_MANIFEST,
    PinEntry,
    ProvenanceStore,
    record_run,
    save_manifest,
)

#: Jacobi config small enough for CI, big enough to exercise LB + FT.
_JACOBI = {"n": 12, "iters": 8, "reduce_every": 2}
_JACOBI_FT = {**_JACOBI, "ckpt_period": 2, "compute_ns_per_cell": 2000.0}


def _crash_spec() -> JobSpec:
    """One node crash mid-app under reliable transport + local recovery.

    The crash time comes from a failure-free calibration run of the same
    spec, so the scenario is fully determined by the sources."""
    base_spec = JobSpec(app="jacobi3d", nvp=8, app_config=_JACOBI_FT,
                        layout=(4, 1, 2), transport="reliable",
                        recovery="local", ft_interval_ns=0)
    base = run_spec(base_spec)
    plan = FaultPlan(seed=13, node_crashes=(
        NodeCrash(at_ns=base.startup_ns + base.app_ns // 2, node=2),))
    return JobSpec(app="jacobi3d", nvp=8, app_config=_JACOBI_FT,
                   layout=(4, 1, 2), transport="reliable",
                   recovery="local", ft_interval_ns=0,
                   fault_plan=plan.to_dict())


def _startup_scenarios() -> dict[str, JobSpec]:
    def spec(method: str, machine: str = "bridges2",
             layout: tuple[int, int, int] = (1, 2, 4)) -> JobSpec:
        return JobSpec(app="startup", nvp=32, method=method,
                       machine=machine, layout=layout)

    out = {f"startup-{m}": spec(m) for m in (
        "none", "tlsglobals", "fsglobals", "pieglobals",
        "pieglobals-shared-rodata", "pieglobals-robust-scan",
        "pieglobals-mmap-code")}
    # stock glibc: ~12 dlmopen namespaces, so one rank per process
    out["startup-pipglobals"] = spec("pipglobals", layout=(1, 32, 1))
    # needs ld <= 2.23 and one scheduler per process (no SMP mode)
    out["startup-swapglobals"] = spec(
        "swapglobals", machine="legacy-linux-old-ld", layout=(1, 2, 1))
    return out


def scenarios() -> dict[str, JobSpec]:
    noise = FaultPlan(seed=11, message_faults=MessageFaults(drop=0.05))
    return {
        **_startup_scenarios(),
        "jacobi3d-default": JobSpec(
            app="jacobi3d", nvp=8, app_config=_JACOBI, layout=(1, 1, 4)),
        "jacobi3d-tls-roundrobin": JobSpec(
            app="jacobi3d", nvp=8,
            app_config={**_JACOBI, "tag_tls": True},
            method="tlsglobals", layout=(2, 1, 2),
            placement="roundrobin"),
        "jacobi3d-sanitize": JobSpec(
            app="jacobi3d", nvp=8, app_config=_JACOBI, layout=(1, 1, 4),
            sanitize=True),
        "jacobi3d-wire-noise-reliable": JobSpec(
            app="jacobi3d", nvp=8, app_config=_JACOBI, layout=(1, 1, 4),
            transport="reliable", fault_plan=noise.to_dict()),
        "jacobi3d-crash-local": _crash_spec(),
        "adcirc-greedyrefine": JobSpec(
            app="adcirc", nvp=8,
            app_config={"width": 16, "height": 32, "steps": 10,
                        "lb_period": 5},
            lb_strategy="greedyrefine", layout=(1, 1, 4)),
        # benchmarks/host's adcirc_lb shape: ranks migrate themselves
        # mid-quantum, which moves the makespan by a few hundred ns if a
        # quantum is charged to the PE it ended on — too little for the
        # small scenario above to notice.
        "adcirc-lb-bench": JobSpec(
            app="adcirc", nvp=16,
            app_config={"width": 128, "height": 256, "steps": 40,
                        "lb_period": 10},
            lb_strategy="greedyrefine", layout=(1, 1, 4)),
        "pingpong-none": JobSpec(
            app="pingpong", nvp=4,
            app_config={"yields_per_rank": 200}, method="none"),
    }


def main(out: str = DEFAULT_MANIFEST) -> int:
    store = ProvenanceStore()
    entries: dict[str, PinEntry] = {}
    for name, spec in scenarios().items():
        rr = record_run(spec, store)
        entries[name] = PinEntry.from_record(name, rr.record)
        print(f"pinned {name}: {rr.record.run_id[:12]} "
              f"timeline {rr.record.timeline_sha256[:12]} "
              f"({rr.record.events} events)")
    save_manifest(out, entries)
    print(f"wrote {out} ({len(entries)} scenarios)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
