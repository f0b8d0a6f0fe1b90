"""The diagnostic tool, ``check``: binary lint, compatibility matrix,
source analysis and sanitized execution of a program — or the seeded
fixtures, or the determinism lint of src/repro."""

from __future__ import annotations

import sys

from repro.cli import add_command, emit


def cmd_check(args) -> int:
    """Print the target's reports as one JSON object for a single
    report and a list for several; exit status 1 unless all are ok."""
    from repro.sanitize.check import run_check

    try:
        reports = run_check(args.target, args.method, nvp=args.nvp,
                            static_only=args.static_only,
                            suggest=args.suggest, slot_size=args.slot_size)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2

    def text() -> str:
        lines = []
        for r in reports:
            lines.append(
                f"== check {r.target} method={r.method} nvp={r.nvp}"
                f"{' (executed)' if r.executed else ''}: "
                f"{'clean' if r.ok else 'FAILED'}"
                + (f" (predicted min method: {r.predicted_method})"
                   if r.program else ""))
            lines += [f.format() for f in r.findings]
            if r.findings:
                lines.append(f"{len(r.findings)} finding(s)")
        return "\n".join(lines)

    payload = [r.to_dict() for r in reports]
    emit(payload[0] if len(payload) == 1 else payload, args.json, text)
    return 0 if all(r.ok for r in reports) else 1


def register(sub) -> None:
    check = add_command(sub, "check", cmd_check)
    check.add_argument("target",
                       help="app name, apps, probe, example:<name>, "
                            "examples, fixture:<name>, fixtures, or self")
    check.add_argument("--method", default="pieglobals",
                       help="privatization method to build, check the "
                            "compatibility matrix for, and run under")
    check.add_argument("--nvp", type=int, default=8)
    check.add_argument("--slot-size", type=int, default=1 << 26)
    check.add_argument("--static-only", action="store_true",
                       help="skip the sanitized execution phase")
    check.add_argument("--suggest", action="store_true",
                       help="report privatization-shrink opportunities "
                            "as info findings")
    check.add_argument("--json", action="store_true",
                       help="emit the report(s) as JSON")
