"""``repro chaos {run,shrink,serve}``: seeded multi-fault campaigns
(:mod:`repro.chaos`)."""

from __future__ import annotations

import argparse

from repro.cli import add_command, emit
from repro.cli.provenance import add_store_flag, open_store


def _run_campaign(args, run, **where) -> int:
    """Run a seeded campaign with the ``--quiet``/``--json`` progress
    policy, print its report, exit nonzero unless every scenario is ok."""
    progress = None if (args.json or args.quiet) else print
    report = run(args.seed, args.count, progress=progress, **where)
    if progress is not None:
        print()
    emit(report, args.json, report.summary)
    return 0 if report.ok else 1


def cmd_chaos_run(args) -> int:
    from repro.chaos import run_campaign

    return _run_campaign(
        args, run_campaign,
        store=None if args.no_store else open_store(args))


def cmd_chaos_shrink(args) -> int:
    from repro.chaos import generate_scenario, run_drill, run_scenario

    store = open_store(args)
    if args.drill:
        # CI gate: plant a known bug and prove the shrinker converges on
        # a tiny plan whose stored repro reproduces.
        report = run_drill(args.seed, store)
        emit(report, args.json, lambda: "\n".join([
            f"shrinker drill (seed={args.seed}): "
            f"{'converged' if report.ok else 'FAILED'}",
            f"  faults in minimal plan : {report.n_faults}",
            f"  predicate evaluations  : {report.evaluations}",
            f"  repro replay           : "
            f"{'reproduced' if report.replay_ok else 'DRIFTED'}",
            *(f"    {step}" for step in report.steps),
            *([f"  repro: repro replay {report.run_id[:12]}"]
              if report.run_id else [])]))
        return 0 if report.ok else 1

    # Re-run one campaign scenario and minimize it if it violates.
    sc = generate_scenario(args.seed, args.index)
    # One scenario, not a campaign: a larger budget than the per-scenario
    # default a campaign shrinks with.
    outcome = run_scenario(sc, store=store, shrink_budget=32)

    def text() -> str:
        lines = [f"{outcome.scenario.label()} -> {outcome.status}"]
        if outcome.shrunk is not None:
            sh = outcome.shrunk
            lines += [f"  shrunk to {sh['n_faults']} fault(s) in "
                      f"{sh['evaluations']} evaluations:",
                      f"    {sh['plan']}"]
        lines += [f"  {line}" for line in (
            outcome.failure() if outcome.violations
            else ["no invariant violation: nothing to shrink"])]
        return "\n".join(lines)

    emit(outcome, args.json, text)
    return 1 if outcome.violations else 0


def cmd_chaos_serve(args) -> int:
    from repro.chaos import run_serve_campaign

    return _run_campaign(args, run_serve_campaign, root=args.root)


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (the scenario sequence is a "
                             "pure function of seed and count)")
    parser.add_argument("--count", type=int, default=50,
                        help="number of scenarios to run")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-scenario progress lines")
    parser.add_argument("--json", action="store_true")


def register(sub) -> None:
    chaos_sub = add_command(sub, "chaos").add_subparsers(
        dest="chaos_command", required=True)

    crun = chaos_sub.add_parser(
        "run", help="run a seeded campaign; exits nonzero on any "
                    "invariant violation")
    _add_campaign_flags(crun)
    crun.add_argument("--no-store", action="store_true",
                      help="do not persist scenario records (violating "
                           "repros then have no replay id)")
    add_store_flag(crun)
    crun.set_defaults(fn=cmd_chaos_run)

    cshrink = chaos_sub.add_parser(
        "shrink", help="minimize one campaign scenario's fault plan "
                       "(or, with --drill, prove the shrinker converges "
                       "on a planted bug)")
    cshrink.add_argument("--seed", type=int, default=0)
    cshrink.add_argument("--index", type=int, default=0,
                         help="scenario index within the campaign")
    cshrink.add_argument("--drill", action="store_true",
                         help="run the seeded known-bug drill instead "
                              "(the CI gate for the shrinker itself)")
    add_store_flag(cshrink)
    cshrink.add_argument("--json", action="store_true")
    cshrink.set_defaults(fn=cmd_chaos_shrink)

    cserve = chaos_sub.add_parser(
        "serve", help="service-layer fault campaign against a live "
                      "repro serve subprocess: worker kills, poison "
                      "jobs, deadlines, dropped connections, truncated "
                      "frames, server SIGKILL+restart; verifies no "
                      "accepted submission is lost and every completed "
                      "record matches a fault-free twin")
    _add_campaign_flags(cserve)
    cserve.add_argument("--root", default=None, metavar="DIR",
                        help="keep the campaign store/socket under DIR "
                             "(default: a temp dir, deleted after)")
    cserve.set_defaults(fn=cmd_chaos_serve)
