"""The commands that drive the simulator directly: the method and
machine catalogues, the capability probes, the paper's evaluation
(``run``/``trace``/``claims``), the fault sweep and the Figure 2/3 hello
world."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cli import add_command, emit
from repro.harness.tables import format_table

#: The runs of :data:`repro.harness.claims.RUNS`, and those that take a
#: recorder (``trace``, ``run --sanitize``): named here so that building
#: the parser loads no catalogue; ``tests/test_claims_table.py`` holds
#: them to it.
RUN_NAMES = ("tables", "fig5", "fig6", "fig6-globals", "fig7", "fig7-O0",
             "fig8", "icache", "adcirc", "lb", "pie-memory", "pie-scan",
             "pip-namespaces", "dedup")
TRACEABLE = ("fig5", "fig6", "fig7", "fig8")
TRACE_QUICK_N = 2000


def cmd_list_methods(_args) -> int:
    from repro.privatization import get_method, method_names

    rows = []
    for name in method_names():
        m = get_method(name)
        c = m.capabilities
        rows.append([name, c.automation, "yes" if m.smp_capable else "no",
                     "yes" if m.uses_funcptr_shim else "no"])
    print(format_table(
        ["method", "automation", "SMP capable", "funcptr shim"],
        rows, title="Registered privatization methods"))
    return 0


def cmd_list_machines(_args) -> int:
    from repro.machine import PRESETS

    rows = []
    for name, m in sorted(PRESETS.items()):
        t = m.toolchain
        rows.append([
            name, m.arch.value, m.os.value,
            f"{t.compiler} {'.'.join(map(str, t.compiler_version))}",
            f"ld {'.'.join(map(str, t.linker_version))}",
            t.libc.value, m.cores_per_node,
        ])
    print(format_table(
        ["preset", "arch", "os", "compiler", "linker", "libc",
         "cores/node"],
        rows, title="Machine presets"))
    return 0


def cmd_probe(args) -> int:
    from repro.harness.capabilities import probe_method

    row = probe_method(args.method)
    emit(dataclasses.asdict(row), args.json, lambda: "\n".join([
        f"method      : {row.display_name}",
        f"automation  : {row.automation}",
        f"portability : {row.portability}",
        f"SMP support : {row.smp_support}",
        f"migration   : {row.migration}",
        "privatizes  : "
        + ", ".join(k for k, v in row.privatizes.items() if v),
        f"runs on     : {', '.join(row.works_on) or '(nowhere probed)'}",
    ]))
    return 0


class _Positive(argparse.Action):
    """A flag of positive integers (``--cores`` takes them
    comma-separated); anything else is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        ints = [int(v) if v.isdecimal() else 0 for v in str(values).split(",")]
        if min(ints) < 1:
            parser.error(f"{option_string}: expected " + (
                "a positive integer" if self.type is int else
                "comma-separated positive integers") + f", got {values!r}")
        setattr(namespace, self.dest,
                ints[0] if self.type is int else tuple(ints))


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _given(command: str, args, run, dests: tuple[str, ...]) -> dict | None:
    """Given flags among ``dests``; None, after a usage error, if ``run`` ignores one."""
    given = {d: getattr(args, d) for d in dests if getattr(args, d) is not None}
    unread = [_flag(d) for d in given if d not in run.flags]
    if unread:
        print(f"repro {command}: error: {args.experiment} does not read "
              f"{', '.join(unread)} (flags it reads: "
              f"{', '.join(map(_flag, run.flags)) or 'none'})", file=sys.stderr)
    return None if unread else given


def _plain(value):
    """``value`` with its dataclasses and sets as JSON types."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_plain(v) for v in value]
    return value


def cmd_run(args) -> int:
    from repro.harness.claims import RUNS, show

    run = RUNS[args.experiment]
    given = _given("run", args, run, ("cores", "quick_n"))
    if given is None:
        return 2
    detector = None
    if args.sanitize:
        if not run.traceable:
            print(f"--sanitize supports: {', '.join(TRACEABLE)}",
                  file=sys.stderr)
            return 2
        from repro.sanitize import RaceDetector

        detector = RaceDetector()
        given["sanitize"] = detector
    data = run.execute(**given)
    findings = detector.sorted_findings() if detector is not None else []
    payload = {"experiment": args.experiment,
               "rows": _plain(run.rows(data) if run.rows else data)}
    if detector is not None:
        payload["sanitize"] = {
            "findings": [f.to_dict() for f in findings],
            "counters": dict(sorted(detector.counters.snapshot().items())),
            "dropped": detector.dropped,
        }

    def text() -> str:
        lines = [run.text(data) or show(data)]
        if detector is not None:
            lines += ["", *(f.format() for f in findings),
                      f"\nsanitizer: {len(findings)} finding(s)" if findings
                      else "sanitizer: no findings"]
        return "\n".join(lines)

    emit(payload, args.json, text)
    from repro.sanitize.findings import has_errors

    return 1 if has_errors(findings) else 0


def cmd_trace(args) -> int:
    from repro.harness.claims import RUNS
    from repro.trace import (
        TraceRecorder,
        render_timeline,
        write_chrome_trace,
    )

    run = RUNS[args.experiment]
    given = _given("trace", args, run, ("quick_n",))
    if given is None:
        return 2
    if "quick_n" in run.flags:
        given.setdefault("quick_n", TRACE_QUICK_N)
    recorder = TraceRecorder(capacity=args.capacity)
    data = run.execute(trace=recorder, **given)
    print(run.text(data))

    out = args.out or f"{args.experiment}-trace.json"
    timeline = render_timeline(recorder)
    timeline_out = args.timeline_out or f"{out}.timeline.txt"
    try:
        nbytes = write_chrome_trace(recorder, out)
        with open(timeline_out, "w") as f:
            f.write(timeline + "\n")
    except OSError as e:
        print(f"cannot write trace: {e}", file=sys.stderr)
        return 2
    print()
    print(timeline)
    print()
    print(f"wrote {out} ({nbytes} bytes, {len(recorder)} events, "
          f"{recorder.dropped} dropped) — open in https://ui.perfetto.dev")
    print(f"wrote {timeline_out}")
    return 0


def cmd_claims(args) -> int:
    from pathlib import Path

    from repro.harness import claims as catalogue

    rows = [c for c in catalogue.CLAIMS if args.row in (None, c.id)]
    if not rows:
        print(f"repro claims: error: no row {args.row!r} (`repro claims` "
              "lists every row)", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    data = {}
    for name in dict.fromkeys(c.run for c in rows):
        run = catalogue.RUNS[name]
        data[name] = run.execute()
        if out:
            for stem, render in run.files.items():
                (out / f"{stem}.txt").write_text(render(data[name]) + "\n")
    measured = {c.id: c.measure(data[c.run]) for c in rows}
    if args.row is None:
        text = catalogue.render(measured)
        if out:
            (out / "claims.txt").write_text(text)
    else:
        text = catalogue.render_row(rows[0], measured[args.row]) + "\n"
    print(text, end="")
    return 0 if all(c.check.test(measured[c.id]) for c in rows) else 1


def cmd_faults(args) -> int:
    from repro.ft import MessageFaults
    from repro.harness.experiments import fault_overhead_experiment
    from repro.harness.jobspec import code_version

    mf = None
    if args.drop or args.duplicate or args.corrupt:
        mf = MessageFaults(drop=args.drop, duplicate=args.duplicate,
                           corrupt=args.corrupt)
    rows = fault_overhead_experiment(
        kmax=args.kmax, seed=args.seed, nvp=args.nvp, nodes=args.nodes,
        method=args.method, ckpt_interval_ns=args.interval_ns,
        transport=args.transport, recovery=args.recovery,
        message_faults=mf,
    )
    # Each row embeds its seed, transport, recovery, full fault plan
    # and the code version, so any row can be re-run from the JSON
    # alone — and a mismatch attributed to changed sources.
    emit({"experiment": "faults", "app": args.app,
          "code_version": code_version(),
          "rows": [dataclasses.asdict(r) for r in rows]},
         args.json, lambda: format_table(
             ["k", "status", "makespan (ms)", "overhead %", "recovery (ms)",
              "ckpts", "retrans", "replayed", "migrations"],
             [[r.k, r.status, r.makespan_ns / 1e6, r.overhead_pct,
               r.recovery_ns / 1e6, r.checkpoints, r.retransmissions,
               r.replayed, r.migrations]
              for r in rows],
             title=f"Fault-tolerance overhead ({args.app}, "
                   f"seed={args.seed}, transport={args.transport}, "
                   f"recovery={args.recovery})"))
    return 0 if all(r.status == "ok" for r in rows) else 1


def cmd_hello(args) -> int:
    from repro.harness.jobspec import JobSpec, run_spec

    spec = JobSpec(app="hello", nvp=args.vp, method=args.method,
                   machine="generic-linux", layout=(1, 1, 1),
                   slot_size=1 << 24)
    result = run_spec(spec)
    print(f"$ ./hello_world +vp {args.vp}    (method={args.method})")
    for vp in range(args.vp):
        print(result.exit_values[vp])
    return 0


def _add_provenance_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--provenance", nargs="?", const="", default=None, metavar="DIR",
        help="record every run into the provenance store at DIR "
             "(default .repro/store, or $REPRO_PROVENANCE)")


def register(sub) -> None:
    add_command(sub, "list-methods", cmd_list_methods)
    add_command(sub, "list-machines", cmd_list_machines)

    probe = add_command(sub, "probe", cmd_probe)
    probe.add_argument("method")
    probe.add_argument("--json", action="store_true",
                       help="emit the capability row as JSON")

    run = add_command(sub, "run", cmd_run)
    run.add_argument("experiment", choices=list(RUN_NAMES))
    run.add_argument("--cores", action=_Positive,
                     help="adcirc: comma-separated core counts")
    run.add_argument("--quick-n", type=int, default=None, action=_Positive,
                     help="fig6: yields per rank")
    run.add_argument("--json", action="store_true",
                     help="emit result rows as JSON instead of a table")
    run.add_argument("--sanitize", action="store_true",
                     help="run with the shared-state race detector on; "
                          "exits nonzero on error findings "
                          f"({'/'.join(TRACEABLE)} only)")
    _add_provenance_flag(run)

    trace = add_command(sub, "trace", cmd_trace)
    trace.add_argument("experiment", choices=list(TRACEABLE))
    trace.add_argument("--out", default=None,
                       help="Chrome trace-event JSON path "
                            "(default: <experiment>-trace.json)")
    trace.add_argument("--timeline-out", default=None,
                       help="text timeline path (default: <out>.timeline.txt)")
    trace.add_argument("--quick-n", type=int, default=None, action=_Positive,
                       help=f"fig6: yields per rank (default {TRACE_QUICK_N}, "
                            "which keeps the trace within the ring buffer)")
    trace.add_argument("--capacity", type=int, default=1 << 20,
                       action=_Positive,
                       help="trace ring-buffer capacity in events")

    claims = add_command(sub, "claims", cmd_claims)
    claims.add_argument("--row", default=None,
                        help="check only the row with this id")
    claims.add_argument("--out", default=None, metavar="DIR",
                        help="write every executed run's results files "
                             "(and, for all rows, claims.txt) into DIR")

    faults = add_command(sub, "faults", cmd_faults)
    faults.add_argument("app", choices=["jacobi"])
    faults.add_argument("--kmax", type=int, default=2,
                        help="sweep k = 0..kmax node crashes")
    faults.add_argument("--seed", type=int, default=20220822,
                        help="fault-plan seed (sweeps are reproducible)")
    faults.add_argument("--nvp", type=int, default=8)
    faults.add_argument("--nodes", type=int, default=4)
    faults.add_argument("--method", default="pieglobals")
    faults.add_argument("--interval-ns", type=int, default=0,
                        help="minimum ns between accepted checkpoints "
                             "(0 = accept every request)")
    faults.add_argument("--transport", choices=["priced", "reliable"],
                        default="priced",
                        help="point-to-point transport: flat-penalty "
                             "pricing or the real ack/retransmit protocol")
    faults.add_argument("--recovery", choices=["global", "local"],
                        default="global",
                        help="rollback scheme after a crash (local needs "
                             "--transport reliable)")
    faults.add_argument("--drop", type=float, default=0.0,
                        help="per-message drop probability")
    faults.add_argument("--duplicate", type=float, default=0.0,
                        help="per-message duplication probability")
    faults.add_argument("--corrupt", type=float, default=0.0,
                        help="per-message corruption probability")
    faults.add_argument("--json", action="store_true",
                        help="emit result rows as JSON instead of a table")
    _add_provenance_flag(faults)

    hello = add_command(sub, "hello", cmd_hello)
    hello.add_argument("--method", default="none")
    hello.add_argument("--vp", type=int, default=2)
    _add_provenance_flag(hello)
