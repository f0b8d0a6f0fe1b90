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
    def _rank_by_vp(self) -> dict[int, int]:
        # The linear tuple.index scan here was O(nvp) per send — at
        # paper-scale VP counts that made membership lookup quadratic
        # job-wide.  The group is immutable, so invert it once.
        return {vp: i for i, vp in enumerate(self.group)}

    def rank_of_vp(self, vp: int) -> int:
        try:
            return self._rank_by_vp[vp]
        except KeyError:
            raise MpiError(
                f"vp {vp} is not a member of {self.name}"
            ) from None

    def vp_of_rank(self, rank: int) -> int:
        if not 0 <= rank < len(self.group):
            raise MpiError(
                f"rank {rank} out of range for {self.name} (size {self.size})"
            )
        return self.group[rank]

    def __contains__(self, vp: int) -> bool:
        return vp in self._rank_by_vp

    def derive(self, group: tuple[int, ...], name: str) -> "Communicator":
        if not group:
            raise MpiError("cannot create an empty communicator")
        return Communicator(cid=next(_comm_ids), group=group, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator({self.name}, size={self.size})"
