"""Set-associative instruction-cache simulator.

Stands in for the PAPI hardware counters in the paper's Section 4.5
instruction-cache study.  Privatization methods change the *address trace*
of instruction fetches (shared code vs. per-rank duplicated code); this
model turns a fetch trace into hit/miss counts under a given cache
geometry, with true LRU replacement.
"""

from __future__ import annotations

import numpy as np

# CacheGeometry lives with the cost model so a machine preset can name its
# L1I without importing numpy; it stays importable from here.
from repro.perf.costs import CacheGeometry
from repro.perf.counters import CounterSet, PAPI_L1_ICA, PAPI_L1_ICM


class SetAssociativeCache:
    """True-LRU set-associative cache over simulated addresses."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        g = geometry
        self._set_mask = g.n_sets - 1
        self._line_shift = g.line_bytes.bit_length() - 1
        # tags[set, way]; -1 == invalid.  stamp[set, way] for LRU ordering.
        self._tags = np.full((g.n_sets, g.associativity), -1, dtype=np.int64)
        self._stamp = np.zeros((g.n_sets, g.associativity), dtype=np.int64)
        self._tick = 0
        self.counters = CounterSet()

    # -- core ---------------------------------------------------------------

    def access(self, address: int) -> bool:
        """Fetch one address; returns True on hit, False on miss."""
        line = address >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> 0  # full line number as tag (set bits redundant but harmless)
        self._tick += 1
        self.counters.incr(PAPI_L1_ICA)

        tags = self._tags[set_idx]
        hit_ways = np.nonzero(tags == tag)[0]
        if hit_ways.size:
            self._stamp[set_idx, hit_ways[0]] = self._tick
            return True

        self.counters.incr(PAPI_L1_ICM)
        victim = int(np.argmin(self._stamp[set_idx]))
        empties = np.nonzero(tags == -1)[0]
        if empties.size:
            victim = int(empties[0])
        self._tags[set_idx, victim] = tag
        self._stamp[set_idx, victim] = self._tick
        return False

    def access_block(self, start: int, nbytes: int) -> tuple[int, int]:
        """Fetch a contiguous block; returns (hits, misses) over its lines."""
        if nbytes <= 0:
            return (0, 0)
        line_bytes = self.geometry.line_bytes
        first = start - (start % line_bytes)
        hits = misses = 0
        for addr in range(first, start + nbytes, line_bytes):
            if self.access(addr):
                hits += 1
            else:
                misses += 1
        return hits, misses

    def run_trace(self, addresses: "np.ndarray | list[int]") -> tuple[int, int]:
        """Run a whole fetch trace; returns (hits, misses)."""
        hits = misses = 0
        for a in addresses:
            if self.access(int(a)):
                hits += 1
            else:
                misses += 1
        return hits, misses

    # -- reporting ------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.counters[PAPI_L1_ICA]

    @property
    def misses(self) -> int:
        return self.counters[PAPI_L1_ICM]

    @property
    def miss_rate(self) -> float:
        a = self.accesses
        return self.misses / a if a else 0.0

    def reset_counters(self) -> None:
        self.counters.reset()

    def flush(self) -> None:
        """Invalidate all lines (counters preserved)."""
        self._tags.fill(-1)
        self._stamp.fill(0)
