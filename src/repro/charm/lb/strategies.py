"""Load-balancing strategies.

Strategies are pure functions from measured per-rank loads to a new
rank->PE assignment; the LB driver measures, asks, migrates, and resets.
``GreedyRefineLB`` is the strategy the paper uses for ADCIRC: it reaches
for greedy-quality balance while *minimizing migrations* by keeping ranks
where they are unless moving them is needed to deflate an overloaded PE.
"""

from __future__ import annotations

import abc
import heapq
import random
from dataclasses import dataclass

from repro.errors import ReproError


@dataclass(frozen=True)
class RankStat:
    """Measured load of one rank over the last LB period."""

    vp: int
    load_ns: int
    pe: int     #: current PE index


class LbStrategy(abc.ABC):
    """rank loads -> new assignment (vp -> PE index)."""

    name: str = "abstract"

    @abc.abstractmethod
    def assign(self, stats: list[RankStat], n_pes: int) -> dict[int, int]:
        ...


class NullLB(LbStrategy):
    """Keep everything in place (measures LB overhead floor)."""

    name = "NullLB"

    def assign(self, stats: list[RankStat], n_pes: int) -> dict[int, int]:
        return {s.vp: s.pe for s in stats}


class GreedyLB(LbStrategy):
    """Classic greedy: heaviest rank first onto the least-loaded PE.

    Produces near-optimal balance but ignores current placement, so it
    migrates almost everything every time.
    """

    name = "GreedyLB"

    def assign(self, stats: list[RankStat], n_pes: int) -> dict[int, int]:
        if n_pes <= 0:
            raise ReproError("need at least one PE")
        heap: list[tuple[int, int]] = [(0, p) for p in range(n_pes)]
        heapq.heapify(heap)
        out: dict[int, int] = {}
        for s in sorted(stats, key=lambda s: (-s.load_ns, s.vp)):
            load, pe = heapq.heappop(heap)
            out[s.vp] = pe
            heapq.heappush(heap, (load + s.load_ns, pe))
        return out


class GreedyRefineLB(LbStrategy):
    """Greedy balance quality with migration-count restraint.

    Starting from the current placement, repeatedly move the best-fitting
    rank off the most overloaded PE onto the least loaded one, stopping
    once every PE is within ``tolerance`` of the average (or no move
    helps).  This mirrors Charm++'s GreedyRefineLB intent.
    """

    name = "GreedyRefineLB"

    def __init__(self, tolerance: float = 1.05, max_passes: int = 10_000):
        if tolerance < 1.0:
            raise ReproError("tolerance must be >= 1.0")
        self.tolerance = tolerance
        self.max_passes = max_passes

    def assign(self, stats: list[RankStat], n_pes: int) -> dict[int, int]:
        if n_pes <= 0:
            raise ReproError("need at least one PE")
        assignment = {s.vp: s.pe if 0 <= s.pe < n_pes else 0 for s in stats}
        by_pe: dict[int, list[RankStat]] = {p: [] for p in range(n_pes)}
        loads = [0] * n_pes
        for s in stats:
            by_pe[assignment[s.vp]].append(s)
            loads[assignment[s.vp]] += s.load_ns

        total = sum(loads)
        if total == 0:
            return assignment
        avg = total / n_pes
        threshold = avg * self.tolerance

        for _ in range(self.max_passes):
            donor = max(range(n_pes), key=lambda p: loads[p])
            if loads[donor] <= threshold or not by_pe[donor]:
                break
            receiver = min(range(n_pes), key=lambda p: loads[p])
            if donor == receiver:
                break
            # Move the donor rank that minimizes the resulting pairwise
            # max — this correctly relocates ranks *larger than the
            # average* (a lone hot rank sharing a PE moves to an idle
            # one), which budget-based refinement cannot do.
            current_max = loads[donor]
            pick = None
            pick_newmax = current_max
            for s in by_pe[donor]:
                newmax = max(loads[donor] - s.load_ns,
                             loads[receiver] + s.load_ns)
                if newmax < pick_newmax:
                    pick, pick_newmax = s, newmax
            if pick is None:
                break  # no single move improves the pair
            by_pe[donor].remove(pick)
            by_pe[receiver].append(pick)
            loads[donor] -= pick.load_ns
            loads[receiver] += pick.load_ns
            assignment[pick.vp] = receiver
        return assignment


class RotateLB(LbStrategy):
    """Shift every rank to the next PE — a stress test for migration."""

    name = "RotateLB"

    def assign(self, stats: list[RankStat], n_pes: int) -> dict[int, int]:
        return {s.vp: (s.pe + 1) % n_pes for s in stats}


class RandomLB(LbStrategy):
    """Uniformly random placement (seeded; a chaos baseline)."""

    name = "RandomLB"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def assign(self, stats: list[RankStat], n_pes: int) -> dict[int, int]:
        rng = random.Random(self.seed)
        return {s.vp: rng.randrange(n_pes) for s in stats}


_STRATEGIES = {
    "null": NullLB,
    "greedy": GreedyLB,
    "greedyrefine": GreedyRefineLB,
    "rotate": RotateLB,
    "random": RandomLB,
}


def strategy_names() -> list[str]:
    return sorted(_STRATEGIES)


def get_strategy(name_or_obj: "str | LbStrategy") -> LbStrategy:
    if isinstance(name_or_obj, LbStrategy):
        return name_or_obj
    try:
        return _STRATEGIES[name_or_obj.lower()]()
    except KeyError:
        raise ReproError(f"unknown LB strategy {name_or_obj!r}; known: "
                         f"{', '.join(strategy_names())}") from None
