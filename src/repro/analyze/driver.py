"""Top-level entry points for the static analyzer.

:func:`analyze_source` runs every rule family over one
:class:`~repro.program.source.ProgramSource` and returns an
:class:`AnalysisReport`; :func:`predict_min_method` turns the inferred
privatization surface into the cheapest sufficient method, which the
matrix tests cross-check against the runtime correctness probes of
:mod:`repro.harness.capabilities`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any

from repro.analyze.model import ProgramModel, build_model
from repro.analyze.rules import (
    classify_globals,
    comm_findings,
    determinism_findings,
    inferred_unsafe,
    migration_findings,
    privatization_findings,
)
from repro.privatization.base import PrivatizationMethod
from repro.privatization.registry import get_method, method_names
from repro.program.source import ProgramSource
from repro.sanitize.findings import Finding, Severity, sort_findings


def cost_order() -> list[str]:
    """Methods from cheapest to most heavyweight machinery (the method
    classes' ``cost_rank``); the predicted minimal method is the first
    one that privatizes every variable the analysis inferred as
    rank-varying."""
    methods = {name: get_method(name) for name in method_names()}
    return sorted(
        (name for name, m in methods.items()
         if m.cost_rank is not None and m.name == name),
        key=lambda name: methods[name].cost_rank)


@dataclass
class AnalysisReport:
    """Everything ``repro check`` found in one target, JSON-serializable:
    the findings of every phase that ran and, for a program, the
    analyzer's model of its globals, its binary's features and the
    sanitized run's counters."""

    target: str
    findings: list[Finding]
    method: str | None = None
    nvp: int | None = None
    program: str = ""
    classifications: dict[str, str] = field(default_factory=dict)
    inferred_unsafe: list[str] = field(default_factory=list)
    predicted_method: str | None = None
    functions: list[str] = field(default_factory=list)
    unscanned: list[str] = field(default_factory=list)
    #: feature flags of the checked binary (empty unless one was built)
    features: dict[str, Any] = field(default_factory=dict)
    #: whether the target was also executed under the runtime detector
    executed: bool = False
    #: sanitizer counters from the run (SAN_CHECK / SAN_FINDING)
    counters: dict[str, int] = field(default_factory=dict)
    elapsed_ms: float = 0.0
    model: ProgramModel | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """A warning or an error fails the report; info never does."""
        return all(f.severity is Severity.INFO for f in self.findings)

    def to_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "program": self.program,
            "method": self.method,
            "nvp": self.nvp,
            "ok": self.ok,
            "executed": self.executed,
            "features": self.features,
            "counters": dict(sorted(self.counters.items())),
            "findings": [f.to_dict() for f in self.findings],
            "classifications": dict(sorted(self.classifications.items())),
            "inferred_unsafe": list(self.inferred_unsafe),
            "predicted_method": self.predicted_method,
            "functions": list(self.functions),
            "unscanned": list(self.unscanned),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def analyze_source(source: ProgramSource, *,
                   method: str | PrivatizationMethod | None = None,
                   suggest: bool = False,
                   target: str = "") -> AnalysisReport:
    """Run all four rule families over one program source."""
    t0 = time.perf_counter()  # repro: allow(det-wallclock) host-side analysis timing
    m = get_method(method) if method is not None else None
    model = build_model(source)
    classes = classify_globals(model)
    findings: list[Finding] = []
    findings += privatization_findings(model, method=m, suggest=suggest,
                                       classes=classes)
    findings += migration_findings(model)
    findings += comm_findings(model)
    findings += determinism_findings(model)
    findings = [f if f.phase else dataclasses.replace(f, phase="source")
                for f in _dedupe(findings)]
    for name in model.unscanned:
        findings.append(Finding(
            code="ana-source-unavailable", severity=Severity.WARNING,
            message=f"{name}(): body source unavailable; not analyzed",
            image=source.name, symbol=name, phase="source",
        ))
    unsafe = inferred_unsafe(model, classes)
    elapsed = (time.perf_counter() - t0) * 1e3  # repro: allow(det-wallclock) host-side analysis timing
    return AnalysisReport(
        target=target or source.name,
        program=source.name,
        method=m.name if m is not None else None,
        findings=sort_findings(findings),
        classifications=classes,
        inferred_unsafe=unsafe,
        predicted_method=predict_min_method(source, model=model,
                                            classes=classes),
        functions=sorted(model.functions),
        unscanned=list(model.unscanned),
        elapsed_ms=elapsed,
        model=model,
    )


def _dedupe(findings: list[Finding]) -> list[Finding]:
    seen: set[tuple] = set()
    out: list[Finding] = []
    for f in findings:
        key = (f.code, f.file, f.line, f.symbol, f.message)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out


def predict_min_method(source: ProgramSource, *,
                       model: ProgramModel | None = None,
                       classes: dict[str, str] | None = None
                       ) -> str | None:
    """Cheapest method covering the *inferred* privatization surface.

    Unlike ``source.unsafe_vars()`` (the declared surface), this uses the
    observed access classes: a mutable global the program never writes
    rank-divergently needs no privatization at all.
    """
    model = model if model is not None else build_model(source)
    classes = classes if classes is not None else classify_globals(model)
    need = set(inferred_unsafe(model, classes))
    by_name = {v.name: v for v in source.variables}
    for name in cost_order():
        m = get_method(name)
        if all(m.privatizes_var(by_name[n]) for n in need):
            return name
    return None


def method_sufficient(source: ProgramSource, name: str, *,
                      model: ProgramModel | None = None) -> bool:
    """Does ``name`` privatize every inferred rank-varying global?"""
    model = model if model is not None else build_model(source)
    need = inferred_unsafe(model)
    by_name = {v.name: v for v in source.variables}
    m = get_method(name)
    return all(m.privatizes_var(by_name[n]) for n in need)
