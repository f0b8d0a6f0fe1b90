"""The provenance-store commands (``runs``, ``replay``, ``diff``,
``stats``, ``pin``, ``gc``) and the store / manifest / gc-budget flags
the ``serve`` and ``chaos`` families share with them."""

from __future__ import annotations

import argparse
import sys

from repro.cli import add_command, emit


def open_store(args):
    from repro.provenance import ProvenanceStore

    return ProvenanceStore(args.store or None)


def _load_manifest(args):
    """(path, entries) of the pin manifest ``--manifest`` names."""
    from repro.provenance import DEFAULT_MANIFEST, load_manifest

    path = args.manifest or DEFAULT_MANIFEST
    return path, load_manifest(path)


def gc_budget(args) -> tuple[frozenset[str], float | None, int | None]:
    """``(keep, max_age_s, max_bytes)`` for ``store.gc`` from the flags
    of :func:`add_gc_budget_flags`."""
    keep: frozenset[str] = frozenset()
    if args.keep_pinned:
        from repro.provenance import pinned_spec_digests

        keep = pinned_spec_digests(_load_manifest(args)[1])
    max_age_s = (args.max_age_days * 86400.0
                 if args.max_age_days is not None else None)
    return keep, max_age_s, args.max_bytes


def cmd_runs(args) -> int:
    from repro.harness.tables import format_table

    store = open_store(args)
    records = sorted(store.records(), key=lambda r: r.created_at)

    def text() -> str:
        if not records:
            return f"no records in {store.root}"
        return format_table(
            ["id", "app", "nvp", "method", "transport", "recovery", "events",
             "makespan (ms)", "timeline sha"],
            [[r.run_id[:12], r.spec.app, r.spec.nvp, r.spec.method,
              r.spec.transport, r.spec.recovery, r.events,
              round(r.makespan_ns / 1e6, 3), r.timeline_sha256[:12]]
             for r in records],
            title=f"Provenance store {store.root} ({len(records)} records)")

    emit([{"run_id": r.run_id, "app": r.spec.app, "nvp": r.spec.nvp,
           "method": r.spec.method, "transport": r.spec.transport,
           "recovery": r.spec.recovery, "events": r.events,
           "makespan_ns": r.makespan_ns,
           "timeline_sha256": r.timeline_sha256,
           "created_at": r.created_at}
          for r in records], args.json, text)
    return 0


def cmd_replay(args) -> int:
    from repro.provenance import replay_record

    store = open_store(args)
    record = store.get(args.id)
    report = replay_record(record, store=store)
    emit({"run_id": record.run_id, **report.to_dict()}, args.json,
         lambda: report.format() + (
             "\n  note: sources changed since this record was written"
             if report.code_version_changed else ""))
    return 0 if report.ok else 1


def cmd_diff(args) -> int:
    from repro.provenance import diff_records

    store = open_store(args)
    a, b = store.get(args.a), store.get(args.b)
    report = diff_records(a, b, store.load_timeline(a),
                          store.load_timeline(b))
    emit(report, args.json)
    return 0 if report.identical else 1


def cmd_stats(args) -> int:
    from repro.provenance import RunMetrics, compare_metrics

    store = open_store(args)
    m = RunMetrics.from_record(store.get(args.id))
    if args.compare:
        m2 = RunMetrics.from_record(store.get(args.compare))
        emit({"a": m.to_dict(), "b": m2.to_dict()}, args.json,
             lambda: compare_metrics(m, m2))
    else:
        emit(m, args.json)
    return 0


def cmd_pin(args) -> int:
    from repro.harness.tables import format_table
    from repro.provenance import (
        PinEntry,
        repin,
        save_manifest,
        verify_manifest,
    )

    manifest, entries = _load_manifest(args)

    if args.action == "list":
        if not entries:
            print(f"no pinned scenarios in {manifest}")
            return 0
        rows = [[name, e.spec.app, e.spec.nvp, e.spec.method,
                 e.spec.transport, e.spec.recovery,
                 e.timeline_sha256[:12], e.events]
                for name, e in sorted(entries.items())]
        print(format_table(
            ["scenario", "app", "nvp", "method", "transport", "recovery",
             "timeline sha", "events"],
            rows, title=f"Pinned scenarios ({manifest})"))
        return 0

    if args.action == "rm":
        if not args.names:
            print("pin rm: need at least one scenario name", file=sys.stderr)
            return 2
        missing = [n for n in args.names if n not in entries]
        if missing:
            print(f"pin rm: not pinned: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        for n in args.names:
            del entries[n]
        save_manifest(manifest, entries)
        print(f"removed {len(args.names)} scenario(s); "
              f"{len(entries)} remain in {manifest}")
        return 0

    if args.action == "add":
        if len(args.names) != 2:
            print("pin add: usage: pin add <name> <record-id>",
                  file=sys.stderr)
            return 2
        name, rec_id = args.names
        record = open_store(args).get(rec_id)
        entries[name] = PinEntry.from_record(name, record)
        save_manifest(manifest, entries)
        print(f"pinned {name}: {record.spec.app} nvp={record.spec.nvp} "
              f"timeline {record.timeline_sha256[:12]}")
        return 0

    # run / update: re-execute and compare.
    results = verify_manifest(entries, args.names or None)
    if not results:
        print(f"no pinned scenarios in {manifest}", file=sys.stderr)
        return 2
    drifted = [r for r in results if not r.ok]
    emit({"manifest": manifest, "ok": not drifted,
          "results": [r.to_dict() for r in results]},
         args.json, lambda: "\n".join(r.format() for r in results))
    if args.action == "update":
        save_manifest(manifest, repin(entries, results))
        if not args.json:
            print(f"re-pinned {len(results)} scenario(s) in {manifest}")
        return 0
    if drifted and not args.json:
        print(f"\n{len(drifted)}/{len(results)} pinned scenario(s) "
              f"drifted — investigate with `repro diff`, or re-pin "
              f"intentional changes with `repro pin update`")
    return 1 if drifted else 0


def cmd_gc(args) -> int:
    store = open_store(args)
    keep, max_age_s, max_bytes = gc_budget(args)
    report = store.gc(keep=keep, max_age_s=max_age_s, max_bytes=max_bytes,
                      dry_run=args.dry_run)
    verb = "would delete" if report.dry_run else "deleted"
    emit(report, args.json, lambda: (
        f"gc {store.root}: scanned {report.scanned}, {verb} "
        f"{report.deleted} ({report.freed_bytes} bytes), protected "
        f"{report.protected} pinned, skipped {report.skipped} "
        f"concurrently-changed, swept {report.swept_tmp} stale tmp, "
        f"{report.remaining} remain"))
    return 0


def add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="provenance store directory (default .repro/store, or "
             "$REPRO_PROVENANCE)")


def _add_manifest_flag(parser: argparse.ArgumentParser, what: str) -> None:
    # The default is resolved by _load_manifest, like --store's: reading
    # DEFAULT_MANIFEST here would import the provenance tier to build
    # the parser.
    parser.add_argument(
        "--manifest", default=None,
        help=f"{what} (default benchmarks/pinned_scenarios.json)")


def add_gc_budget_flags(parser: argparse.ArgumentParser) -> None:
    """What a gc pass may collect (read back by :func:`gc_budget`)."""
    parser.add_argument("--keep-pinned", action="store_true",
                        help="never collect records whose spec is pinned "
                             "in the manifest")
    _add_manifest_flag(parser, "pin manifest for --keep-pinned")
    parser.add_argument("--max-age-days", type=float, default=None,
                        help="collect records older than this many days")
    parser.add_argument("--max-bytes", type=int, default=None,
                        help="evict oldest records until the store fits")


def register(sub) -> None:
    runs = add_command(sub, "runs", cmd_runs)
    add_store_flag(runs)
    runs.add_argument("--json", action="store_true")

    replay = add_command(sub, "replay", cmd_replay)
    replay.add_argument("id", help="record id (or unique prefix)")
    add_store_flag(replay)
    replay.add_argument("--json", action="store_true")

    diff = add_command(sub, "diff", cmd_diff)
    diff.add_argument("a", help="record id (or unique prefix)")
    diff.add_argument("b", help="record id (or unique prefix)")
    add_store_flag(diff)
    diff.add_argument("--json", action="store_true")

    stats = add_command(sub, "stats", cmd_stats)
    stats.add_argument("id", help="record id (or unique prefix)")
    stats.add_argument("--compare", metavar="ID", default=None,
                       help="second record: render a delta table instead")
    add_store_flag(stats)
    stats.add_argument("--json", action="store_true")

    pin = add_command(sub, "pin", cmd_pin)
    pin.add_argument("action",
                     choices=["run", "update", "list", "add", "rm"])
    pin.add_argument("names", nargs="*",
                     help="scenario names (run/update/rm), or "
                          "<name> <record-id> for add")
    _add_manifest_flag(pin, "manifest path")
    add_store_flag(pin)
    pin.add_argument("--json", action="store_true")

    gc = add_command(sub, "gc", cmd_gc)
    add_store_flag(gc)
    add_gc_budget_flags(gc)
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be deleted without deleting")
    gc.add_argument("--json", action="store_true")
