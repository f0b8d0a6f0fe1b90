"""Virtual ranks: the migratable entities.

A :class:`VirtualRank` bundles everything one virtualized MPI rank owns:
its user-level thread (and hence its simulated clock), its heap and stack
(Isomalloc-backed), its globals view and code-segment instance (whatever
the privatization method decided), its MPI endpoint
(:class:`~repro.charm.messages.Mailbox`), and load-balancing
instrumentation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.charm.messages import Mailbox
from repro.mem.address_space import Mapping
from repro.mem.heap import RankHeap
from repro.mem.segments import CodeInstance, SegmentInstance
from repro.program.context import ExecutionContext
from repro.threads.ult import UserLevelThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import Pe


class VirtualRank:
    """One virtual MPI rank (an AMPI "VP")."""

    __slots__ = ("vp", "pe", "ult", "ctx", "heap", "stack_mapping",
                 "code", "tls_instance", "method_data",
                 "load_ns", "total_cpu_ns", "migrations", "finished",
                 "exit_value", "mailbox")

    def __init__(self, vp: int, pe: "Pe"):
        self.vp = vp
        self.pe = pe
        pe.resident[vp] = self

        self.ult: UserLevelThread | None = None
        self.ctx: ExecutionContext | None = None
        self.heap: RankHeap | None = None
        self.stack_mapping: Mapping | None = None

        # Set by the privatization method during setup:
        self.code: CodeInstance | None = None          #: code this rank executes
        self.tls_instance: SegmentInstance | None = None
        self.method_data: dict[str, Any] = {}          #: per-method bookkeeping

        # Load-balancing instrumentation:
        self.load_ns = 0          #: CPU ns since the last LB step
        self.total_cpu_ns = 0
        self.migrations = 0

        # MPI progress bookkeeping (owned by the AMPI layer):
        self.finished = False
        self.exit_value: Any = None
        self.mailbox = Mailbox()

    @property
    def clock(self):
        if self.ult is None:
            raise RuntimeError(f"rank {self.vp} has no ULT yet")
        return self.ult.clock

    @property
    def process(self):
        return self.pe.process

    def record_run(self, ns: int) -> None:
        self.load_ns += ns
        self.total_cpu_ns += ns

    def reset_load(self) -> None:
        self.load_ns = 0

    def move_to(self, pe: "Pe") -> None:
        """Re-home the rank (bookkeeping only; the migration engine does
        the memory movement and cost accounting)."""
        del self.pe.resident[self.vp]
        self.pe = pe
        pe.resident[self.vp] = self
        self.migrations += 1

    def memory_footprint(self) -> int:
        """Bytes of this rank's migratable memory in its current process."""
        return sum(
            m.size for m in self.process.vm.mappings_of_rank(self.vp)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualRank(vp={self.vp}, pe={self.pe.index})"
