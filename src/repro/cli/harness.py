"""The commands that drive the simulator directly: the method and
machine catalogues, the capability probes, the paper's experiments
(``run``/``trace``), the fault sweep and the Figure 2/3 hello world."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cli import add_command, emit
from repro.harness.tables import EXPERIMENTS, format_table

#: experiments ``trace`` and ``run --sanitize`` can attach a recorder to
_TRACEABLE = [name for name, exp in EXPERIMENTS.items() if exp.traceable]


def cmd_list_methods(_args) -> int:
    from repro.privatization import get_method, method_names

    rows = []
    for name in method_names():
        m = get_method(name)
        c = m.capabilities
        rows.append([name, c.automation, c.smp_support, c.migration,
                     "yes" if m.uses_funcptr_shim else "no"])
    print(format_table(
        ["method", "automation", "SMP", "migration", "funcptr shim"],
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


def cmd_tables(_args) -> int:
    from repro.harness.capabilities import (
        TABLE1_METHODS,
        TABLE3_METHODS,
        capability_table,
    )

    print(capability_table(TABLE1_METHODS,
                           title="Table 1: existing methods"))
    print()
    print(capability_table(TABLE3_METHODS,
                           title="Table 3: incl. the 3 new methods"))
    return 0


def _experiment_rows(args, **recorders):
    """(the experiment, its rows): the driver called with the keywords
    the experiment's ``run``/``trace`` flags stand for and, if it takes
    them, the ``trace=``/``sanitize=`` recorders."""
    from repro.harness import experiments

    exp = EXPERIMENTS[args.experiment]
    out = getattr(experiments, exp.driver)(
        **{key: value(args) for key, value in exp.flags.items()},
        **(recorders if exp.traceable else {}))
    return exp, (out if exp.part is None else out[exp.part])


def cmd_run(args) -> int:
    detector = None
    if args.sanitize:
        if args.experiment not in _TRACEABLE:
            print(f"--sanitize supports: {', '.join(_TRACEABLE)}",
                  file=sys.stderr)
            return 2
        from repro.sanitize import RaceDetector

        detector = RaceDetector()
    try:
        exp, rows = _experiment_rows(args, sanitize=detector)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    findings = detector.sorted_findings() if detector is not None else []
    payload = {"experiment": args.experiment,
               "rows": [dataclasses.asdict(r) for r in rows]}
    if detector is not None:
        payload["sanitize"] = {
            "findings": [f.to_dict() for f in findings],
            "counters": dict(sorted(detector.counters.snapshot().items())),
            "dropped": detector.dropped,
        }

    def text() -> str:
        lines = [exp.table(rows)]
        if detector is not None:
            lines += ["", *(f.format() for f in findings),
                      f"\nsanitizer: {len(findings)} finding(s)" if findings
                      else "sanitizer: no findings"]
        return "\n".join(lines)

    emit(payload, args.json, text)
    from repro.sanitize.findings import has_errors

    return 1 if has_errors(findings) else 0


def cmd_trace(args) -> int:
    from repro.trace import (
        TraceRecorder,
        render_timeline,
        write_chrome_trace,
    )

    try:
        recorder = TraceRecorder(capacity=args.capacity)
        exp, rows = _experiment_rows(args, trace=recorder)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    print(exp.table(rows))

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

    add_command(sub, "tables", cmd_tables)

    run = add_command(sub, "run", cmd_run)
    run.add_argument("experiment", choices=list(EXPERIMENTS))
    run.add_argument("--cores", help="adcirc: comma-separated core counts")
    run.add_argument("--quick-n", type=int, default=None,
                     help="fig6: yields per rank")
    run.add_argument("--json", action="store_true",
                     help="emit result rows as JSON instead of a table")
    run.add_argument("--sanitize", action="store_true",
                     help="run with the shared-state race detector on; "
                          "exits nonzero on error findings "
                          f"({'/'.join(_TRACEABLE)} only)")
    _add_provenance_flag(run)

    trace = add_command(sub, "trace", cmd_trace)
    trace.add_argument("experiment", choices=_TRACEABLE)
    trace.add_argument("--out", default=None,
                       help="Chrome trace-event JSON path "
                            "(default: <experiment>-trace.json)")
    trace.add_argument("--timeline-out", default=None,
                       help="text timeline path (default: <out>.timeline.txt)")
    trace.add_argument("--quick-n", type=int, default=2000,
                       help="fig6: yields per rank (small default keeps the "
                            "trace within the ring buffer)")
    trace.add_argument("--capacity", type=int, default=1 << 20,
                       help="trace ring-buffer capacity in events")

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
