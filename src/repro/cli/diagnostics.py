"""The two diagnostic tools: ``check`` (binary lint, compatibility
matrix, sanitized execution) and ``analyze`` (static analysis of program
sources)."""

from __future__ import annotations

import sys

from repro.cli import add_command, emit


def _emit_findings(reports, as_json: bool, headline) -> int:
    """Print ``check``/``analyze`` reports — anything with ``ok``,
    ``findings`` and ``to_dict()`` — as one JSON object for a single
    report and a list for several; exit status 1 unless all are ok."""
    def text() -> str:
        lines = []
        for r in reports:
            lines.append(headline(r, "clean" if r.ok else "FAILED"))
            lines += [f.format() for f in r.findings]
            if r.findings:
                lines.append(f"{len(r.findings)} finding(s)")
        return "\n".join(lines)

    payload = [r.to_dict() for r in reports]
    emit(payload[0] if len(payload) == 1 else payload, as_json, text)
    return 0 if all(r.ok for r in reports) else 1


def cmd_check(args) -> int:
    from repro.sanitize.check import check_examples, run_check

    try:
        if args.target == "examples":
            reports = check_examples(args.method, nvp=args.nvp,
                                     static_only=args.static_only)
        else:
            reports = [run_check(args.target, args.method, nvp=args.nvp,
                                 static_only=args.static_only,
                                 slot_size=args.slot_size)]
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    return _emit_findings(reports, args.json, lambda r, verdict: (
        f"== check {r.target} method={r.method} nvp={r.nvp}"
        f"{' (executed)' if r.executed else ''}: {verdict}"))


def cmd_analyze(args) -> int:
    from repro.analyze import analyze_source
    from repro.analyze.selflint import lint_tree
    from repro.analyze.targets import resolve_targets

    if args.target == "self":
        findings = lint_tree()
        verdict = "clean" if not findings else "FAILED"
        emit([f.to_dict() for f in findings], args.json, lambda: "\n".join([
            f"== analyze self (determinism lint of src/repro): {verdict}",
            *(f.format() for f in findings),
            *([f"{len(findings)} finding(s)"] if findings else [])]))
        return 0 if not findings else 1

    try:
        triples = resolve_targets(args.target)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    reports = []
    for label, source, kw in triples:
        if args.method is not None:
            kw = {**kw, "method": args.method}
        if args.suggest:
            kw = {**kw, "suggest": True}
        reports.append(analyze_source(source, target=label, **kw))
    return _emit_findings(reports, args.json, lambda r, verdict: (
        f"== analyze {r.target}{f' method={r.method}' if r.method else ''}: "
        f"{verdict} (predicted min method: {r.predicted_method}, "
        f"{len(r.functions)} function(s), {r.elapsed_ms:.1f} ms)"))


def register(sub) -> None:
    check = add_command(sub, "check", cmd_check)
    check.add_argument("target",
                       help="hello, jacobi, probe, examples, or "
                            "fixture:<name> (seeded violations)")
    check.add_argument("--method", default="pieglobals")
    check.add_argument("--nvp", type=int, default=8)
    check.add_argument("--slot-size", type=int, default=1 << 26)
    check.add_argument("--static-only", action="store_true",
                       help="skip the sanitized execution phase")
    check.add_argument("--json", action="store_true",
                       help="emit the report(s) as JSON")

    analyze = add_command(sub, "analyze", cmd_analyze)
    analyze.add_argument("target",
                         help="app name, apps, example:<name>, examples, "
                              "fixture:<name>, fixtures, or self")
    analyze.add_argument("--method", default=None,
                         help="also check that this privatization method "
                              "covers the inferred surface")
    analyze.add_argument("--suggest", action="store_true",
                         help="report privatization-shrink opportunities "
                              "as info findings")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report(s) as JSON")
