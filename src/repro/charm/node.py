"""The machine hierarchy: job -> nodes -> OS processes -> PEs.

A *PE* (processing element) is one scheduler thread pinned to a core, the
Charm++ unit of execution.  Non-SMP mode runs one PE per OS process; SMP
mode runs many PEs per process sharing one address space — the mode
Swapglobals cannot support (one active GOT per process) and where
PIPglobals' namespace limit bites hardest (more ranks per process).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.machine import MachineModel
from repro.mem.address_space import VirtualMemory
from repro.mem.isomalloc import Isomalloc, IsomallocArena
from repro.net.network import Endpoint
from repro.perf.clock import SimClock
from repro.perf.counters import CounterSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.vrank import VirtualRank
    from repro.elf.loader import DynamicLoader


@dataclass(frozen=True)
class JobLayout:
    """How many nodes/processes/PEs a job runs with.

    ``smp_mode`` is implied by ``pes_per_process > 1``.
    """

    nodes: int = 1
    processes_per_node: int = 1
    pes_per_process: int = 1

    def __post_init__(self) -> None:
        if min(self.nodes, self.processes_per_node, self.pes_per_process) < 1:
            raise ReproError("layout dimensions must be >= 1")

    @property
    def smp_mode(self) -> bool:
        return self.pes_per_process > 1

    @property
    def total_processes(self) -> int:
        return self.nodes * self.processes_per_node

    @property
    def total_pes(self) -> int:
        return self.total_processes * self.pes_per_process

    @staticmethod
    def single(pes: int = 1) -> "JobLayout":
        """One SMP process on one node with ``pes`` scheduler threads."""
        return JobLayout(nodes=1, processes_per_node=1, pes_per_process=pes)


class Pe:
    """One processing element: a core running a message-driven scheduler."""

    def __init__(self, index: int, process: "OsProcess"):
        self.index = index                #: global PE number
        self.process = process
        self.busy_until = 0               #: ns at which this PE is next free
        self.busy_ns = 0                  #: accumulated execution time
        self.idle_ns = 0                  #: accumulated idle gaps
        self.ctx_switches = 0
        self.failed = False               #: set when the PE's node crashed
        self.last_rank: "VirtualRank | None" = None
        self.resident: dict[int, "VirtualRank"] = {}  #: vp -> rank
        #: cached — identical for every PE of the process, read on every
        #: message transfer
        self.endpoint = process.endpoint

    @property
    def node_index(self) -> int:
        return self.process.node.index

    def resident_ranks(self) -> list["VirtualRank"]:
        return list(self.resident.values())

    def any_resident(self) -> "VirtualRank | None":
        return next(iter(self.resident.values()), None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Pe({self.index}, proc={self.process.index}, "
            f"busy_until={self.busy_until}, ranks={sorted(self.resident)})"
        )


class OsProcess:
    """One OS process: an address space shared by its PEs and ranks."""

    def __init__(self, index: int, node: "Node", arena: IsomallocArena):
        self.index = index                #: global process number
        self.node = node
        self.vm = VirtualMemory(name=f"proc{index}")
        self.isomalloc = Isomalloc(arena, self.vm)
        self.pes: list[Pe] = []
        self.startup_clock = SimClock()   #: charges AMPI init / privatization setup
        self.counters = CounterSet()
        self.loader: "DynamicLoader | None" = None  # attached by the runtime
        #: cached — node/process numbers are fixed for the process's life
        self.endpoint = Endpoint(node=node.index, process=index)

    def resident_ranks(self) -> list["VirtualRank"]:
        out: list["VirtualRank"] = []
        for pe in self.pes:
            out.extend(pe.resident.values())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OsProcess({self.index}, node={self.node.index}, pes={len(self.pes)})"


class Node:
    """One physical node."""

    def __init__(self, index: int):
        self.index = index
        self.processes: list[OsProcess] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.index}, procs={len(self.processes)})"


def build_topology(
    layout: JobLayout, machine: MachineModel, arena: IsomallocArena
) -> tuple[list[Node], list[OsProcess], list[Pe]]:
    """Instantiate the node/process/PE tree for a layout.

    Raises if the layout oversubscribes the machine's cores per node.
    """
    cores_needed = layout.processes_per_node * layout.pes_per_process
    if cores_needed > machine.cores_per_node:
        raise ReproError(
            f"layout needs {cores_needed} cores/node but machine "
            f"{machine.name!r} has {machine.cores_per_node}"
        )
    nodes: list[Node] = []
    processes: list[OsProcess] = []
    pes: list[Pe] = []
    for n in range(layout.nodes):
        node = Node(n)
        nodes.append(node)
        for _ in range(layout.processes_per_node):
            proc = OsProcess(len(processes), node, arena)
            node.processes.append(proc)
            processes.append(proc)
            for _ in range(layout.pes_per_process):
                pe = Pe(len(pes), proc)
                proc.pes.append(pe)
                pes.append(pe)
    return nodes, processes, pes
