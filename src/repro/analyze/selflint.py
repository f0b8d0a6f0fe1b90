"""Determinism self-lint over the simulator's own sources.

``repro check self`` parses every ``.py`` file under ``src/repro``
and applies rule family 4 (:mod:`repro.analyze.determinism`) to the
whole module — the mechanical enforcement of the byte-identical-timeline
contract the provenance/chaos/serve subsystems stand on.

Legitimate host-time sites (the serve client reports host latency, the
provenance store uses mtimes for eviction recency, the serve janitor
sleeps in host time) carry an explicit pragma::

    t0 = time.perf_counter()  # repro: allow(det-wallclock) host-side analysis timing

A pragma suppresses only the named code, only on its own line or the
line directly below it, so every exemption is visible and reviewable
next to the code it excuses.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.analyze.determinism import pragma_lines, scan_tree
from repro.sanitize.findings import Finding, Severity, sort_findings

#: severity per determinism code (set/id ordering issues are real but
#: only corrupt output when the order escapes, so they warn)
DET_SEVERITY = {
    "det-wallclock": Severity.ERROR,
    "det-unseeded-random": Severity.ERROR,
    "det-set-iteration": Severity.WARNING,
    "det-id-key": Severity.WARNING,
}

DET_HINTS = {
    "det-wallclock": "use simulated time (SimClock / mpi.wtime), or add "
                     "a '# repro: allow(det-wallclock) <reason>' pragma "
                     "for genuinely host-side code",
    "det-unseeded-random": "seed the RNG from the spec "
                           "(random.Random(seed) / default_rng(seed))",
    "det-set-iteration": "wrap the set in sorted() before iterating",
    "det-id-key": "key by a stable identifier instead of id()",
}


def default_root() -> Path:
    """The ``src/repro`` tree this installation is running from."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_file(path: Path, *, rel_to: Path | None = None) -> list[Finding]:
    """Determinism findings for one source file, pragma-filtered."""
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text)
    except SyntaxError as e:
        return [Finding(
            code="det-unparseable", severity=Severity.ERROR,
            message=f"cannot parse: {e}", file=str(path), line=e.lineno,
            phase="source",
        )]
    allowed = pragma_lines(text.splitlines())
    shown = str(path.relative_to(rel_to)) if rel_to else str(path)
    out: list[Finding] = []
    for ev in scan_tree(tree):
        if ev.code in allowed.get(ev.line, ()):
            continue
        out.append(Finding(
            code=ev.code,
            severity=DET_SEVERITY.get(ev.code, Severity.WARNING),
            message=f"{ev.detail} on a simulated-time path",
            fix_hint=DET_HINTS.get(ev.code, ""),
            file=shown, line=ev.line, phase="source",
        ))
    return out


def lint_tree(root: Path | None = None,
              *, rel_to: Path | None = None) -> list[Finding]:
    """Lint every ``.py`` file under ``root`` (default: ``src/repro``)."""
    base = root or default_root()
    rel = rel_to if rel_to is not None else base.parent
    findings: list[Finding] = []
    for path in sorted(base.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        findings += lint_file(path, rel_to=rel)
    return sort_findings(findings)


def lint_paths(paths: Iterable[Path]) -> list[Finding]:
    findings: list[Finding] = []
    for p in paths:
        findings += lint_file(Path(p))
    return sort_findings(findings)
