"""Command-line interface: ``python -m repro <command>``.

:data:`COMMANDS` is the catalogue: every command, the family module
under :mod:`repro.cli` that implements it, and its help line.  A
family's ``register(sub)`` declares its subparsers next to the handlers
that read them; :func:`main` imports only the invoked command's family,
and ``--help`` and usage errors are answered from the table alone.

``run``, ``faults`` and ``hello`` accept ``--provenance [DIR]`` (or the
``REPRO_PROVENANCE`` environment variable) to record every run they
execute into the store (default ``.repro/store``).  Every command exits
nonzero when the simulated job fails (an unrecoverable fault, an
unsupported method/toolchain combination, ...), so scripts and CI can
detect it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Any, Callable, Collection

#: command -> (family module under ``repro.cli``, help line)
COMMANDS: dict[str, tuple[str, str]] = {
    "list-methods": ("harness", "privatization methods and capabilities"),
    "list-machines": ("harness", "machine presets and their toolchains"),
    "probe": ("harness", "run the capability probes for one method"),
    "tables": ("harness", "regenerate the paper's Tables 1 and 3 from probes"),
    "run": ("harness", "run one of the paper's experiments, print its table"),
    "trace": ("harness", "run an experiment traced: Chrome trace-event JSON "
                         "and a per-PE text timeline"),
    "faults": ("harness", "failure-free vs. k-crash overhead sweep, with "
                          "deterministic fault injection"),
    "hello": ("harness", "the Figure 2/3 hello world under a chosen method"),
    "check": ("diagnostics", "binary lint + privatization-compatibility "
                             "matrix, then a sanitized execution"),
    "analyze": ("diagnostics", "static analysis of program sources (or, "
                               "'self', the determinism lint of src/repro)"),
    "runs": ("provenance", "list the provenance store's run records"),
    "replay": ("provenance", "re-execute a stored run; exits nonzero if any "
                             "recorded observable drifted"),
    "diff": ("provenance", "two stored runs: spec diff, first divergent "
                           "event, counter/metric deltas"),
    "stats": ("provenance", "per-PE utilization / traffic of a stored run"),
    "pin": ("provenance", "the pinned-scenario gate: committed timelines and "
                          "counters vs. the current sources"),
    "gc": ("provenance", "collect old/oversized records (never pinned ones)"),
    "serve": ("serve", "job service on the provenance cache: worker pool, "
                       "cached repeats, single-flight coalescing"),
    "chaos": ("chaos", "seeded, invariant-checked fault campaigns (run, "
                       "serve) and fault-plan shrinking (shrink)"),
}


def add_command(sub: Any, name: str, fn: Callable[[Any], int] | None = None,
                ) -> argparse.ArgumentParser:
    """Declare ``name`` on ``sub`` with its help from :data:`COMMANDS`;
    ``fn(args) -> exit status`` handles it."""
    text = COMMANDS[name][1]
    parser = sub.add_parser(name, help=text, description=text)
    parser.set_defaults(fn=fn)
    return parser


def emit(report: Any, as_json: bool,
         text: Callable[[], str] | None = None) -> None:
    """Print one result: as JSON (``report.to_dict()`` if it has one,
    else ``report`` itself), or as ``text()`` / ``report.format()``."""
    if as_json:
        print(json.dumps(
            report.to_dict() if hasattr(report, "to_dict") else report,
            sort_keys=True, indent=2))
    else:
        print(text() if text is not None else report.format())


def build_parser(families: Collection[str] | None = None,
                 ) -> argparse.ArgumentParser:
    """The ``repro`` parser.  ``families`` limits which family modules
    are imported (default: all); the other families' commands are
    declared from the table alone — all that ``--help``, the usage line
    and an ``invalid choice`` error need."""
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Process-virtualization reproduction toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for family in dict.fromkeys(home for home, _ in COMMANDS.values()):
        if families is None or family in families:
            importlib.import_module(f"repro.cli.{family}").register(sub)
        else:
            for name, (home, _) in COMMANDS.items():
                if home == family:
                    add_command(sub, name)
    return ap


def main(argv: list[str] | None = None) -> int:
    import os

    from repro.errors import ReproError

    argv = sys.argv[1:] if argv is None else argv
    families = [COMMANDS[argv[0]][0]] if argv and argv[0] in COMMANDS else []
    args = build_parser(families).parse_args(argv)
    # --provenance [DIR] (or $REPRO_PROVENANCE) turns on automatic
    # recording: every spec-built run the command executes lands in the
    # store, including each point of an experiment sweep.
    store_dir = getattr(args, "provenance", None)
    if store_dir is None:
        store_dir = os.environ.get("REPRO_PROVENANCE")
    disable = None
    if store_dir is not None:
        from repro.provenance import ProvenanceStore, enable_auto_record

        disable = enable_auto_record(
            ProvenanceStore(store_dir or None),
            notify=lambda line: print(line, file=sys.stderr),
        )
    try:
        return args.fn(args)
    except ReproError as e:
        # Simulated-job failure (unrecoverable fault, unsupported
        # toolchain, deadlock, ...): report and exit nonzero so scripts
        # and CI can detect it.
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        if disable is not None:
            disable()
