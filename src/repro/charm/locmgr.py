"""Distributed location management of virtual ranks.

Charm++ tracks object placement so senders never need to know where a
rank currently lives; after a migration, messages are forwarded and the
sender's cache updated.  The simulator keeps one authoritative table (we
run in one process) but *charges* for the realistic behaviours: a lookup
hit is free, a stale-cache send pays a forwarding hop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import Pe
    from repro.charm.vrank import VirtualRank


class LocationManager:
    """vp -> PE mapping with per-sender caches for forwarding accounting."""

    def __init__(self) -> None:
        self._home: dict[int, "Pe"] = {}
        #: per-sender cached location: (sender_vp, target_vp) -> Pe
        self._caches: dict[tuple[int, int], "Pe"] = {}
        self.forwarded_messages = 0

    def register(self, rank: "VirtualRank") -> None:
        self._home[rank.vp] = rank.pe

    def unregister(self, vp: int) -> None:
        self._home.pop(vp, None)

    def pe_of(self, vp: int) -> "Pe":
        try:
            return self._home[vp]
        except KeyError:
            raise ReproError(f"location manager: unknown rank {vp}") from None

    def __contains__(self, vp: int) -> bool:
        return vp in self._home

    def __len__(self) -> int:
        return len(self._home)

    def ranks(self) -> Iterator[int]:
        return iter(self._home)

    def moved(self, rank: "VirtualRank", new_pe: "Pe") -> None:
        """Record a migration (caches become stale on purpose)."""
        self._home[rank.vp] = new_pe

    def lookup_for_send(self, sender_vp: int, target_vp: int) -> tuple["Pe", bool]:
        """Resolve a send target.

        Returns (current PE, was_forwarded): the first send after the
        target migrated hits the sender's stale cache and pays a
        forwarding hop, after which the cache is updated — mirroring
        Charm++'s location-update protocol.
        """
        current = self._home.get(target_vp)
        if current is None:
            current = self.pe_of(target_vp)   # raises: unknown rank
        key = (sender_vp, target_vp)
        cached = self._caches.get(key)
        self._caches[key] = current
        forwarded = cached is not None and cached is not current
        if forwarded:
            self.forwarded_messages += 1
        return current, forwarded
