"""The chaos campaign engine: generate, run, check, shrink, persist.

One scenario's lifecycle:

1. run the fault-free twin spec (cached across the campaign by spec
   digest) — it calibrates the crash window and provides the numerics
   reference;
2. materialize the :class:`~repro.ft.plan.FaultPlan` and run the faulted
   spec with ``strict=False`` (an unrecoverable death is a structured
   outcome, not an error);
3. check the invariant suite (:mod:`repro.chaos.invariants`), including
   a full record-and-replay determinism audit through the provenance
   machinery;
4. on violation, minimize the plan with the delta-debugging shrinker
   (:mod:`repro.chaos.shrink`) and persist the shrunk repro in the
   provenance store, where ``repro replay <id>`` re-executes it.

The whole campaign is a pure function of ``(seed, count)`` — see
:mod:`repro.chaos.scenario` — so a red campaign in CI is a repro recipe
by itself.

:class:`CampaignReport` and :func:`campaign` (the seeded loop) also
serve the service-layer campaign (:mod:`repro.chaos.serve_faults`): an
engine supplies a scenario generator and an executor whose outcomes have
``ok``, ``status``, ``scenario``, ``failure()`` and ``to_dict()``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.ampi.runtime import JobResult
from repro.chaos.invariants import (
    Violation,
    check_replay,
    check_run,
)
from repro.chaos.scenario import (
    ChaosScenario,
    generate_scenario,
)
from repro.chaos.shrink import ShrinkResult, shrink_plan
from repro.errors import ReproError
from repro.ft.plan import FaultPlan, MessageFaults
from repro.harness.jobspec import JobSpec, run_spec_job
from repro.perf.counters import EV_CASCADE, EV_CKPT_FALLBACK
from repro.provenance.runner import file_run, record_run, replay_record

#: an extra per-scenario check: result -> violations (the drill plants
#: its known bug through this hook)
ExtraCheck = Callable[[JobResult], "list[Violation]"]


@dataclass
class ScenarioOutcome:
    """One scenario's verdict, JSON-able for reports."""

    scenario: ChaosScenario
    status: str                    #: "ok" | "unrecoverable" | "violation"
    reason: str | None             #: taxonomy code when unrecoverable
    violations: list[Violation]
    plan: dict | None              #: the materialized fault plan
    run_id: str | None             #: provenance id (shrunk repro if any)
    timeline_sha256: str | None
    makespan_ns: int = 0
    recoveries: int = 0
    cascades: int = 0
    ckpt_fallbacks: int = 0
    shrunk: dict | None = None     #: ShrinkResult.to_dict() on violation

    @property
    def ok(self) -> bool:
        return not self.violations

    def failure(self) -> list[str]:
        """What a red campaign's summary says under this scenario."""
        lines = [f"- {v}" for v in self.violations]
        if self.run_id:
            lines.append(f"repro: repro replay {self.run_id[:12]}")
        return lines

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "label": self.scenario.label(),
            "status": self.status,
            "reason": self.reason,
            "violations": [v.to_dict() for v in self.violations],
            "plan": self.plan,
            "run_id": self.run_id,
            "timeline_sha256": self.timeline_sha256,
            "makespan_ns": self.makespan_ns,
            "recoveries": self.recoveries,
            "cascades": self.cascades,
            "ckpt_fallbacks": self.ckpt_fallbacks,
            "shrunk": self.shrunk,
        }


def _count(keys: Any) -> dict[str, int]:
    return dict(sorted(Counter(keys).items()))


@dataclass
class CampaignReport:
    """A seeded campaign's aggregate verdict (either engine's)."""

    title: str                     #: "chaos" | "serve chaos"
    seed: int
    count: int
    outcomes: list[Any] = field(default_factory=list)
    #: campaign-specific totals derived from the outcomes (the serve
    #: campaign's accepted/resolved/lost/... account); may be empty
    ledger: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def tally(self) -> dict[str, int]:
        """Outcomes by status."""
        return _count(o.status for o in self.outcomes)

    @property
    def kinds(self) -> dict[str, int]:
        """Outcomes by scenario kind (the campaign's mix)."""
        return _count(o.scenario.kind for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "ok": self.ok,
            "tally": self.tally(),
            "kinds": self.kinds,
            "ledger": self.ledger,
            "wall_s": round(self.wall_s, 3),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def summary(self) -> str:
        def counts(d: dict[str, int]) -> str:
            return ", ".join(f"{n} {k}" for k, n in d.items())

        lines = [
            f"{self.title} campaign seed={self.seed} count={self.count}: "
            f"{counts(self.tally())} [{self.wall_s:.1f}s wall]",
            f"  kinds: {counts(self.kinds)}",
        ]
        if self.ledger:
            lines.append("  ledger: " + ", ".join(
                f"{k}={n}" for k, n in self.ledger.items()))
        for o in self.outcomes:
            if not o.ok:
                lines.append(f"  FAIL {o.scenario.label()}")
                lines += [f"    {line}" for line in o.failure()]
        return "\n".join(lines)


def campaign(
    report: CampaignReport,
    generate: Callable[[int, int], Any],
    execute: Callable[[Any], Any],
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """The one seeded loop: scenario ``i`` of ``report.seed`` is
    generated, executed and appended, ``report.count`` times."""
    t0 = time.monotonic()  # repro: allow(det-wallclock) campaign wall-clock reporting, host-side
    for i in range(report.count):
        sc = generate(report.seed, i)
        outcome = execute(sc)
        report.outcomes.append(outcome)
        if progress is not None:
            progress(f"[{i + 1}/{report.count}] {outcome.status:<13} "
                     f"{sc.label()}")
    report.wall_s = time.monotonic() - t0  # repro: allow(det-wallclock) campaign wall-clock reporting, host-side
    return report


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

def run_scenario(
    sc: ChaosScenario,
    *,
    store: Any = None,
    baselines: dict[str, JobResult] | None = None,
    replay: bool = True,
    extra_check: ExtraCheck | None = None,
    shrink: bool = True,
    shrink_budget: int = 24,
) -> ScenarioOutcome:
    """Execute one scenario end to end; see the module docstring."""
    # 1. fault-free twin (numerics reference + crash-window calibration)
    base_key = sc.base_spec.digest()
    base = baselines.get(base_key) if baselines is not None else None
    if base is None:
        try:
            _, base = run_spec_job(sc.base_spec, strict=False)
        except ReproError as e:
            return _liveness(sc, e)
        if baselines is not None:
            baselines[base_key] = base
    if base.unrecoverable_reason is not None:
        return ScenarioOutcome(
            scenario=sc, status="violation",
            reason=base.unrecoverable_reason,
            violations=[Violation(
                "taxonomy",
                f"fault-free twin died: {base.unrecoverable_reason}")],
            plan=None, run_id=None, timeline_sha256=None,
        )

    # 2. the faulted run
    plan = sc.plan(base)
    spec = sc.spec(plan)
    try:
        job, result = run_spec_job(spec, strict=False)
    except ReproError as e:
        outcome = _liveness(sc, e, plan)
        if shrink and plan is not None:
            shrunk, _ = _shrink_and_record(
                sc, plan, base, outcome.violations, None,
                extra_check=extra_check, budget=shrink_budget,
            )
            outcome.shrunk = shrunk.to_dict()
        return outcome

    # 3. invariants
    violations = check_run(spec, job, result, base)
    if extra_check is not None:
        violations += list(extra_check(result))

    record = file_run(spec, job, result, store).record
    if replay:
        v = check_replay(replay_record(record))
        if v is not None:
            violations.append(v)

    run_id = record.run_id
    shrunk: ShrinkResult | None = None
    if violations and shrink and plan is not None:
        shrunk, run_id = _shrink_and_record(
            sc, plan, base, violations, store,
            extra_check=extra_check, budget=shrink_budget,
        )

    status = ("violation" if violations
              else "unrecoverable" if result.unrecoverable_reason
              else "ok")
    return ScenarioOutcome(
        scenario=sc,
        status=status,
        reason=result.unrecoverable_reason,
        violations=violations,
        plan=plan.to_dict() if plan is not None else None,
        run_id=run_id,
        timeline_sha256=record.timeline_sha256,
        makespan_ns=result.makespan_ns,
        recoveries=result.recoveries,
        cascades=result.counters[EV_CASCADE],
        ckpt_fallbacks=result.counters[EV_CKPT_FALLBACK],
        shrunk=shrunk.to_dict() if shrunk is not None else None,
    )


def _liveness(sc: ChaosScenario, error: ReproError,
              plan: FaultPlan | None = None) -> ScenarioOutcome:
    """A run that raised instead of finishing (a deadlock, say): there is
    no record to file, so the scenario and its plan are the repro."""
    return ScenarioOutcome(
        scenario=sc, status="violation", reason=None,
        violations=[Violation("liveness", f"{type(error).__name__}: {error}")],
        plan=plan.to_dict() if plan is not None else None,
        run_id=None, timeline_sha256=None,
    )


def _shrink_and_record(
    sc: ChaosScenario,
    plan: FaultPlan,
    base: JobResult,
    original: list[Violation],
    store: Any,
    *,
    extra_check: ExtraCheck | None,
    budget: int,
) -> tuple[ShrinkResult, str | None]:
    """Minimize the failing plan; persist the shrunk repro's record."""
    # Re-checking replayability per candidate doubles every evaluation;
    # only pay for it when the original failure *was* a replay failure.
    replay_only = all(v.invariant == "replay" for v in original)

    def fails(candidate: FaultPlan) -> bool:
        spec_c = sc.spec(candidate)
        try:
            job_c, res_c = run_spec_job(spec_c, strict=False)
        except ReproError:
            return True             # a liveness violation
        v = check_run(spec_c, job_c, res_c, base)
        if extra_check is not None:
            v += list(extra_check(res_c))
        return bool(v) or (replay_only and not replay_record(
            file_run(spec_c, job_c, res_c, None).record).ok)

    shrunk = shrink_plan(plan, fails, budget=budget)

    run_id = None
    if store is not None:
        # One final run of the minimal plan, recorded with its event
        # stream: the repro `repro replay` re-executes.  A minimal plan
        # whose run never finishes has no record; its plan is the repro.
        try:
            run_id = record_run(sc.spec(shrunk.plan), store,
                                strict=False).record.run_id
        except ReproError:
            pass
    return shrunk, run_id


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def run_campaign(
    campaign_seed: int,
    count: int,
    *,
    store: Any = None,
    replay: bool = True,
    shrink: bool = True,
    shrink_budget: int = 24,
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Run ``count`` seeded scenarios; the campaign's shared baseline
    cache means matrix collisions (same fault-free twin) run once."""
    baselines: dict[str, JobResult] = {}
    return campaign(
        CampaignReport("chaos", campaign_seed, count), generate_scenario,
        lambda sc: run_scenario(
            sc, store=store, baselines=baselines, replay=replay,
            shrink=shrink, shrink_budget=shrink_budget),
        progress)


# ---------------------------------------------------------------------------
# The drill: a seeded known bug, end to end
# ---------------------------------------------------------------------------

@dataclass
class DrillReport:
    """Shrinker-convergence drill verdict (the CI gate)."""

    converged: bool          #: shrunk to <= max_faults faults
    n_faults: int            #: faults left in the minimal plan
    evaluations: int         #: predicate runs the shrinker spent
    replay_ok: bool          #: stored repro reproduced (no drift)
    run_id: str | None       #: the stored repro
    plan: dict | None        #: the minimal plan
    steps: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.converged and self.replay_ok

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "converged": self.converged,
            "n_faults": self.n_faults,
            "evaluations": self.evaluations,
            "replay_ok": self.replay_ok,
            "run_id": self.run_id,
            "plan": self.plan,
            "steps": self.steps,
        }


def drill_scenario(seed: int) -> ChaosScenario:
    """A guaranteed-recoverable three-crash scenario with wire noise —
    the haystack the drill's planted bug hides in."""
    spec = JobSpec(
        app="jacobi3d", nvp=8,
        app_config={"n": 10, "iters": 8, "reduce_every": 2,
                    "ckpt_period": 2, "compute_ns_per_cell": 500.0},
        method="pieglobals", machine="generic-linux",
        layout=(4, 1, 2), lb_strategy="greedyrefine",
        transport="priced", recovery="global", fault_plan=None,
    )
    return ChaosScenario(
        index=0, campaign_seed=seed, kind="crash", base_spec=spec,
        n_crashes=3,
        message_faults=MessageFaults(drop=0.05, corrupt=0.02),
        plan_seed=seed, cascade_window=False,
    )


def run_drill(seed: int, store: Any, *, budget: int = 32,
              max_faults: int = 2) -> DrillReport:
    """Plant a known 'bug' (any completed recovery is a violation) in a
    three-crash + wire-noise scenario, and prove the shrinker walks it
    down to a <= ``max_faults`` plan whose stored repro replays
    byte-identically.  This is the CI check that the shrinking machinery
    itself works.
    """
    def planted(result: JobResult) -> list[Violation]:
        if result.recoveries >= 1:
            return [Violation(
                "planted-bug",
                f"drill predicate: recoveries={result.recoveries} >= 1")]
        return []

    sc = drill_scenario(seed)
    outcome = run_scenario(
        sc, store=store, replay=False, extra_check=planted,
        shrink=True, shrink_budget=budget,
    )
    shrunk = outcome.shrunk or {}
    n_faults = shrunk.get("n_faults", -1)
    converged = bool(outcome.violations) and 0 <= n_faults <= max_faults

    replay_ok = (outcome.run_id is not None
                 and replay_record(store.get(outcome.run_id)).ok)
    return DrillReport(
        converged=converged,
        n_faults=n_faults,
        evaluations=shrunk.get("evaluations", 0),
        replay_ok=replay_ok,
        run_id=outcome.run_id,
        plan=shrunk.get("plan"),
        steps=shrunk.get("steps", []),
    )
