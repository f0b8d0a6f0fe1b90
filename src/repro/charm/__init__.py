"""Charm++-style runtime substrate: the machine hierarchy
(node -> OS process -> PE), virtual ranks as migratable entities, the
location manager, the migration engine, and the load-balancing framework.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.node import JobLayout, Node, OsProcess, Pe
    from repro.charm.vrank import VirtualRank
    from repro.charm.messages import Message, Mailbox
    from repro.charm.locmgr import LocationManager
    from repro.charm.migration import MigrationEngine

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.charm.node": ("JobLayout", "Node", "OsProcess", "Pe"),
    "repro.charm.vrank": ("VirtualRank",),
    "repro.charm.messages": ("Message", "Mailbox"),
    "repro.charm.locmgr": ("LocationManager",),
    "repro.charm.migration": ("MigrationEngine",),
})
