"""Performance-model substrate: simulated clocks, cost models, counters,
and an L1 instruction-cache simulator (the PAPI stand-in)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.clock import SimClock
    from repro.perf.costs import CostModel
    from repro.perf.counters import CounterSet
    from repro.perf.icache import SetAssociativeCache

# The icache simulator is the one numpy user here; clocks, costs and
# counters are on every job's path and must not pull it in.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.perf.clock": ("SimClock",),
    "repro.perf.costs": ("CostModel",),
    "repro.perf.counters": ("CounterSet",),
    "repro.perf.icache": ("SetAssociativeCache",),
})
