"""Dynamic load-balancing framework: measured-load strategies applied at
AMPI_Migrate sync points, with migrations executed by the migration
engine."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
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

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.charm.lb.strategies": (
        "LbStrategy", "GreedyLB", "GreedyRefineLB", "RotateLB", "RandomLB",
        "NullLB", "RankStat", "get_strategy", "strategy_names"),
    "repro.charm.lb.instrumentation": ("LoadSummary", "summarize_loads"),
})
