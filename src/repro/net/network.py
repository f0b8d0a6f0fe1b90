"""Latency/bandwidth interconnect model.

Three transfer regimes, matching AMPI on Charm++'s MPI layer:

* **same process** — a pointer hand-off plus a memcpy when needed;
* **same node, different process** — shared-memory transport;
* **different nodes** — the fabric (HDR InfiniBand on Bridges-2), with a
  rendezvous handshake above the eager threshold.

The network also prices rank migrations (Figure 8): a migration is one
large message carrying the rank's packed memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.costs import CostModel


@dataclass(frozen=True)
class Endpoint:
    """Physical location of a PE: (node, OS process within the job)."""

    node: int
    process: int


class Network:
    """Stateless cost oracle for transfers between endpoints."""

    def __init__(self, costs: CostModel):
        self.costs = costs

    def regime(self, src: Endpoint, dst: Endpoint) -> str:
        if src.process == dst.process:
            return "intraprocess"
        if src.node == dst.node:
            return "intranode"
        return "internode"

    def transfer_ns(self, nbytes: int, src: Endpoint, dst: Endpoint) -> int:
        """Time for one message of ``nbytes`` between two endpoints."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        # regime() written out: this runs once per message
        if src.process == dst.process:
            # In-process delivery: software overhead only; payload moves by
            # reference between ULTs sharing the address space.
            return self.costs.msg_overhead_ns
        return self.costs.msg_overhead_ns + self.costs.net_transfer_ns(
            nbytes, inter_node=src.node != dst.node
        )

    def migration_ns(self, nbytes: int, src: Endpoint, dst: Endpoint) -> int:
        """Time to move a packed rank of ``nbytes`` (pack cost included)."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        if src == dst:
            return self.costs.migration_pack_ns
        base = self.costs.migration_pack_ns + self.costs.memcpy_ns(nbytes)
        if self.regime(src, dst) == "intraprocess":
            return base
        return base + self.transfer_ns(nbytes, src, dst)
