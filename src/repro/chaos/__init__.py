"""repro.chaos: deterministic multi-fault campaigns with plan shrinking.

Seeded random scenarios over the full job matrix (app x virtualization
x privatization x LB x fault plan x transport x recovery), each checked
against a machine-verifiable invariant suite; violations are minimized
by a delta-debugging shrinker and persisted as replayable provenance.
See ARCHITECTURE.md section 15.
"""

from repro.chaos.engine import (
    CampaignReport,
    DrillReport,
    ScenarioOutcome,
    drill_scenario,
    run_campaign,
    run_drill,
    run_scenario,
)
from repro.chaos.invariants import (
    Violation,
    check_fault_draws,
    check_replay,
    check_run,
)
from repro.chaos.scenario import (
    ChaosScenario,
    generate_scenario,
    generate_scenarios,
)
from repro.chaos.serve_faults import (
    ServeFaultOutcome,
    ServeFaultScenario,
    generate_serve_scenario,
    run_serve_campaign,
)
from repro.chaos.shrink import ShrinkResult, shrink_plan

__all__ = [
    "CampaignReport",
    "ChaosScenario",
    "DrillReport",
    "ScenarioOutcome",
    "ServeFaultOutcome",
    "ServeFaultScenario",
    "ShrinkResult",
    "Violation",
    "check_fault_draws",
    "check_replay",
    "check_run",
    "drill_scenario",
    "generate_scenario",
    "generate_scenarios",
    "generate_serve_scenario",
    "run_campaign",
    "run_drill",
    "run_scenario",
    "run_serve_campaign",
    "shrink_plan",
]
