"""PAPI-style event counters.

The paper uses PAPI to count L1 instruction-cache misses (Section 4.5).
:class:`CounterSet` is the simulator's stand-in: a named bag of integer
event counts that subsystems increment as they run.
"""

from __future__ import annotations

from typing import Iterable, Iterator

# Canonical event names used across the simulator (PAPI-flavoured).
PAPI_L1_ICM = "PAPI_L1_ICM"   #: L1 instruction-cache misses
PAPI_L1_ICA = "PAPI_L1_ICA"   #: L1 instruction-cache accesses
PAPI_TOT_INS = "PAPI_TOT_INS"  #: instructions (simulated blocks)
EV_CTX_SWITCH = "ULT_CTX_SWITCH"
EV_MSG_SENT = "MSG_SENT"
EV_MSG_BYTES = "MSG_BYTES"
EV_MIGRATIONS = "MIGRATIONS"
EV_MIGRATION_BYTES = "MIGRATION_BYTES"
EV_GLOBAL_READ = "GLOBAL_READ"
EV_GLOBAL_WRITE = "GLOBAL_WRITE"
EV_DLOPEN = "DLOPEN"
EV_DLMOPEN = "DLMOPEN"
EV_FS_BYTES = "FS_BYTES_COPIED"
EV_SHIM_DISPATCH = "SHIM_DISPATCH"  #: MPI calls routed via the funcptr shim
EV_CKPT = "CKPT"                    #: buddy checkpoints taken
EV_CKPT_BYTES = "CKPT_BYTES"        #: bytes captured into buddy checkpoints
EV_FAULT = "FAULTS_INJECTED"        #: injected faults (crashes + messages)
EV_RECOVERY_NS = "RECOVERY_NS"      #: simulated ns spent in crash recovery
EV_MSG_FAULT_DROP = "MSG_FAULT_DROP"
EV_MSG_FAULT_DUP = "MSG_FAULT_DUP"
EV_MSG_FAULT_CORRUPT = "MSG_FAULT_CORRUPT"
EV_RETRANS = "RETRANS"              #: frames retransmitted after an RTO
EV_ACK = "ACKS"                     #: frames acknowledged by a receiver
EV_DEDUP_DROP = "DEDUP_DROPS"       #: duplicate frames dropped by seq window
EV_CKSUM_FAIL = "CHECKSUM_FAIL"     #: frames discarded on checksum mismatch
EV_REORDER_HOLD = "REORDER_HOLDS"   #: frames held for in-order delivery
EV_LOG_BYTES = "LOG_BYTES"          #: payload bytes retained by the msg log
EV_REPLAYED = "REPLAYED_MSGS"       #: messages re-delivered from the msg log
EV_RTO_CANCEL = "RTO_CANCELLED"     #: RTO chains squashed at crash time
EV_CASCADE = "CRASH_DURING_RECOVERY"  #: crashes absorbed mid-recovery
EV_CKPT_FALLBACK = "CKPT_FALLBACK"  #: recoveries served by the previous
                                    #: checkpoint generation (corruption)
EV_SAN_CHECK = "SAN_CHECK"          #: shadow-state checks by the sanitizer
EV_SAN_FINDING = "SAN_FINDING"      #: sanitizer findings emitted (pre-dedup cap)


class CounterSet:
    """A mutable multiset of named event counts.

    Supports addition/merging so that per-rank counters can be rolled up
    into per-PE and job-wide totals.
    """

    __slots__ = ("_counts",)

    def __init__(self, initial: dict[str, int] | None = None):
        # A plain dict: one is made per rank, per process and per job.
        self._counts: dict[str, int] = dict(initial) if initial else {}

    def incr(self, event: str, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counter increments must be non-negative")
        counts = self._counts
        counts[event] = counts.get(event, 0) + n

    def __getitem__(self, event: str) -> int:
        return self._counts.get(event, 0)

    def __contains__(self, event: str) -> bool:
        return event in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def items(self) -> Iterable[tuple[str, int]]:
        return self._counts.items()

    def merge(self, other: "CounterSet") -> None:
        """Add all of ``other``'s counts into this set."""
        counts = self._counts
        for event, n in other._counts.items():
            counts[event] = counts.get(event, 0) + n

    def __add__(self, other: "CounterSet") -> "CounterSet":
        out = CounterSet(dict(self._counts))
        out.merge(other)
        return out

    def reset(self) -> None:
        self._counts.clear()

    def total(self) -> int:
        """Sum of all event counts."""
        return sum(self._counts.values())

    def __len__(self) -> int:
        """Number of distinct events recorded."""
        return len(self._counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CounterSet):
            # an event never counted equals one counted zero times
            mine, theirs = self._counts, other._counts
            return all(mine.get(e, 0) == theirs.get(e, 0)
                       for e in mine.keys() | theirs.keys())
        return NotImplemented

    def snapshot(self) -> dict[str, int]:
        """An immutable-ish copy for reporting."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"CounterSet({inner})"
