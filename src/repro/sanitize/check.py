"""Driver behind ``repro check``: lint a target, optionally execute it
under the runtime sanitizer, and report structured findings.

Kept out of ``repro.sanitize.__init__`` on purpose: this module reaches
into the apps and harness layers (to build the bundled example
programs), which the core sanitize package must not depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.ampi.runtime import AmpiJob, build_binary
from repro.charm.node import JobLayout
from repro.machine import GENERIC_LINUX, MachineModel
from repro.privatization import get_method
from repro.program.source import ProgramSource
from repro.sanitize.findings import Finding, Severity, sort_findings
from repro.sanitize.runtime import RaceDetector
from repro.sanitize.static import (
    StaticLinter,
    compat_findings,
    program_features,
    project_isomalloc,
)

#: the registered app behind each target word that names one
_EXAMPLE_APPS = {"hello": "hello", "jacobi": "jacobi3d"}
#: targets `repro check` accepts besides ``fixture:<name>``
EXAMPLE_TARGETS = (*_EXAMPLE_APPS, "probe")


@dataclass
class CheckReport:
    """Everything one ``repro check`` invocation produced."""

    target: str
    method: str
    nvp: int
    findings: list[Finding]
    #: feature flags of the checked program (empty for fixtures)
    features: dict[str, Any] = field(default_factory=dict)
    #: whether the target was also executed under the runtime detector
    executed: bool = False
    #: sanitizer counters from the run (SAN_CHECK / SAN_FINDING)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(f.severity is Severity.ERROR for f in self.findings)

    def to_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "method": self.method,
            "nvp": self.nvp,
            "ok": self.ok,
            "executed": self.executed,
            "features": self.features,
            "counters": dict(sorted(self.counters.items())),
            "findings": [f.to_dict() for f in self.findings],
        }


def _target_source(target: str) -> ProgramSource:
    if target == "probe":
        from repro.harness.capabilities import correctness_program

        return correctness_program()
    if target in _EXAMPLE_APPS:
        from repro.analyze.targets import app_source

        # Analysis-sized config: the lint is layout-driven, not scale-driven.
        return app_source(_EXAMPLE_APPS[target])
    raise ValueError(
        f"unknown check target {target!r}; have "
        f"{', '.join(EXAMPLE_TARGETS)} or fixture:<name>"
    )


def run_check(
    target: str,
    method: str = "pieglobals",
    *,
    nvp: int = 8,
    static_only: bool = False,
    slot_size: int = 1 << 26,
    machine: MachineModel = GENERIC_LINUX,
) -> CheckReport:
    """Lint ``target`` (and run it under the detector unless
    ``static_only``); returns the combined report."""
    if target.startswith("fixture:"):
        from repro.sanitize.fixtures import get_fixture

        fx = get_fixture(target.partition(":")[2])
        return CheckReport(
            target=target, method=method, nvp=nvp,
            findings=sort_findings(_tag_phase(fx.run(), fx.phase)),
        )

    m = get_method(method)
    source = _target_source(target)
    binary = build_binary(source, m, machine, optimize=1)

    findings: list[Finding] = []
    findings += _tag_phase(StaticLinter().lint_images([binary.image]),
                           "static")
    findings += _tag_phase(compat_findings(binary, m), "static")
    findings += _tag_phase(project_isomalloc(binary, m, nvp, slot_size),
                           "static")

    # Source phase: interprocedural AST analysis of the function bodies.
    # Run without the method so declared-vs-observed mismatches surface
    # once (the static compat matrix already covers method fit).
    from repro.analyze import analyze_source

    findings += analyze_source(source, target=target).findings

    report = CheckReport(
        target=target, method=method, nvp=nvp,
        findings=[], features=program_features(binary),
    )
    if not static_only and not any(
        f.severity is Severity.ERROR for f in findings
    ):
        findings += _tag_phase(
            _execute(binary, m, nvp, slot_size, machine, report), "runtime")
    report.findings = sort_findings(findings)
    return report


def _tag_phase(findings, phase: str) -> list[Finding]:
    """Stamp a pipeline phase on findings that don't carry one."""
    return [f if f.phase else replace(f, phase=phase) for f in findings]


def _execute(binary, method, nvp, slot_size, machine,
             report: CheckReport) -> list[Finding]:
    """Run the target with the race detector on, then lint the live
    loaders for dangling GOT state the run left behind."""
    det = RaceDetector()
    # Two PEs in one process: enough concurrency for cross-rank
    # interleaving, and shared segments are genuinely shared.
    job = AmpiJob(binary, nvp, method=method, machine=machine,
                  layout=JobLayout.single(2), slot_size=slot_size,
                  sanitize=det)
    result = job.run()
    report.executed = True
    report.counters = dict(det.counters.snapshot())
    findings = list(result.sanitize_findings)
    linter = StaticLinter()
    for proc in job.processes:
        findings += linter.lint_loader(proc.loader)
    return findings


def check_examples(
    method: str = "pieglobals", *, nvp: int = 8, static_only: bool = False
) -> list[CheckReport]:
    """``repro check examples``: every bundled example program."""
    return [
        run_check(t, method, nvp=nvp, static_only=static_only)
        for t in EXAMPLE_TARGETS
    ]
