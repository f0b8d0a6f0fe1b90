"""Dynamic load-balancing framework: measured-load strategies applied at
AMPI_Migrate sync points, with migrations executed by the migration
engine."""

from repro.charm.lb.strategies import (
    GreedyLB,
    GreedyRefineLB,
    LbStrategy,
    NullLB,
    RandomLB,
    RankStat,
    RotateLB,
    get_strategy,
    strategy_names,
)
from repro.charm.lb.instrumentation import LoadSummary, summarize_loads

__all__ = [
    "LbStrategy",
    "GreedyLB",
    "GreedyRefineLB",
    "RotateLB",
    "RandomLB",
    "NullLB",
    "RankStat",
    "get_strategy",
    "strategy_names",
    "LoadSummary",
    "summarize_loads",
]
