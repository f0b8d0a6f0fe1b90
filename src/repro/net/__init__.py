"""Interconnect model: cost oracle + reliable delivery protocol."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network, Endpoint
    from repro.net.reliable import ChannelState, Frame, ReliableTransport

# Every job prices transfers with the Network oracle; only
# ``transport="reliable"`` jobs run the ack/retransmit protocol.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.net.network": ("Network", "Endpoint"),
    "repro.net.reliable": ("ChannelState", "Frame", "ReliableTransport"),
})
