"""Communicators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from repro.charm.messages import ANY_SOURCE, ANY_TAG  # re-exported
from repro.errors import MpiError

__all__ = ["ANY_SOURCE", "ANY_TAG", "Communicator"]

_comm_ids = itertools.count(0)


@dataclass(frozen=True)
class Communicator:
    """An ordered group of virtual ranks with a private tag space."""

    cid: int
    group: tuple[int, ...]    #: position (comm rank) -> vp
    name: str = "comm"

    @staticmethod
    def world(nvp: int) -> "Communicator":
        return Communicator(cid=next(_comm_ids), group=tuple(range(nvp)),
                            name="MPI_COMM_WORLD")

    @property
    def size(self) -> int:
        return len(self.group)

    @cached_property
    def rank_by_vp(self) -> dict[int, int]:
        """vp -> comm rank: the group inverted once (the send path reads it)."""
        return {vp: i for i, vp in enumerate(self.group)}

    def rank_of_vp(self, vp: int) -> int:
        if vp not in self.rank_by_vp:
            raise MpiError(f"vp {vp} is not a member of {self.name}")
        return self.rank_by_vp[vp]

    def vp_of_rank(self, rank: int) -> int:
        if not 0 <= rank < len(self.group):
            raise MpiError(f"rank {rank} out of range for {self.name} "
                           f"(size {self.size})")
        return self.group[rank]

    def __contains__(self, vp: int) -> bool:
        return vp in self.rank_by_vp

    def derive(self, group: tuple[int, ...], name: str) -> "Communicator":
        if not group:
            raise MpiError("cannot create an empty communicator")
        return Communicator(cid=next(_comm_ids), group=group, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator({self.name}, size={self.size})"
