"""Driver behind ``repro check``: lint a target, analyze its source,
optionally execute it under the runtime sanitizer, and report
structured findings.

Kept out of ``repro.sanitize.__init__`` on purpose: this module reaches
into the apps, harness and analyzer layers (to build the bundled
programs and analyze them), which the core sanitize package must not
depend on.
"""

from __future__ import annotations

from dataclasses import replace

from repro.ampi.runtime import AmpiJob, build_binary
from repro.analyze.driver import AnalysisReport, analyze_source
from repro.analyze.targets import program_target, resolve_targets
from repro.charm.node import JobLayout
from repro.machine import GENERIC_LINUX, MachineModel
from repro.privatization import get_method
from repro.sanitize.findings import Finding, Severity, sort_findings
from repro.sanitize.runtime import RaceDetector
from repro.sanitize.static import (
    StaticLinter,
    compat_findings,
    program_features,
    project_isomalloc,
)


def run_check(
    target: str,
    method: str = "pieglobals",
    *,
    nvp: int = 8,
    static_only: bool = False,
    suggest: bool = False,
    slot_size: int = 1 << 26,
    machine: MachineModel = GENERIC_LINUX,
) -> list[AnalysisReport]:
    """One report per program, fixture or self-lint that the target word
    ``target`` names (see :mod:`repro.analyze.targets`)."""
    return [_check_one(t, method, nvp=nvp, static_only=static_only,
                       suggest=suggest, slot_size=slot_size, machine=machine)
            for t in resolve_targets(target)]


def _check_one(target: str, method: str, *, nvp: int, static_only: bool,
               suggest: bool, slot_size: int,
               machine: MachineModel) -> AnalysisReport:
    if target == "self":
        from repro.analyze.selflint import lint_tree

        return AnalysisReport(target=target, method=method, nvp=nvp,
                              findings=lint_tree())
    if target.startswith("fixture:"):
        from repro.sanitize.fixtures import get_fixture

        fx = get_fixture(target.partition(":")[2])
        return AnalysisReport(
            target=target, method=method, nvp=nvp,
            findings=sort_findings(_tag_phase(fx.run(), fx.phase)),
        )

    source, nvp, pes = program_target(target, nvp)
    m = get_method(method)
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
    report = analyze_source(source, target=target, suggest=suggest)
    findings += report.findings
    report.method, report.nvp = m.name, nvp
    report.features = program_features(binary)
    if not static_only and not any(
        f.severity is Severity.ERROR for f in findings
    ):
        findings += _tag_phase(
            _execute(binary, m, nvp, pes, slot_size, machine, report),
            "runtime")
    report.findings = sort_findings(findings)
    return report


def _tag_phase(findings, phase: str) -> list[Finding]:
    """Stamp a pipeline phase on findings that don't carry one."""
    return [f if f.phase else replace(f, phase=phase) for f in findings]


def _execute(binary, method, nvp, pes, slot_size, machine,
             report: AnalysisReport) -> list[Finding]:
    """Run the target with the race detector on, then lint the live
    loaders for dangling GOT state the run left behind."""
    det = RaceDetector()
    # Two PEs in one process unless the target brings its own shape:
    # enough concurrency for cross-rank interleaving, and shared
    # segments are genuinely shared.
    job = AmpiJob(binary, nvp, method=method, machine=machine,
                  layout=JobLayout.single(pes), slot_size=slot_size,
                  sanitize=det)
    result = job.run()
    report.executed = True
    report.counters = dict(det.counters.snapshot())
    findings = list(result.sanitize_findings)
    linter = StaticLinter()
    for proc in job.processes:
        findings += linter.lint_loader(proc.loader)
    return findings
