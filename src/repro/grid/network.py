"""The network: host-pair link selection and FIFO delivery times.

The network owns one :class:`~repro.grid.link.Link` per (ordered) host
pair — in practice builders register one *intra-site* link shared by all
same-site pairs and one *inter-site* link per site pair, mirroring the
paper's fast-LAN / slow-WAN structure.

Delivery is FIFO per directed channel ``(src, dst)``: a message never
overtakes an earlier message on the same channel (TCP-like), which the
asynchronous convergence theory of AIAC algorithms permits and which the
paper's runtime (PM2 over TCP) provided.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.grid.host import Host
from repro.grid.link import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

__all__ = ["Network"]

#: Minimal spacing between two deliveries on one channel, to keep event
#: ordering strict when FIFO clamping collapses arrival times.
_FIFO_EPSILON = 1e-9


class Network:
    """Maps host pairs to links and computes arrival times."""

    def __init__(self, default_link: Link) -> None:
        self.default_link = default_link
        self._pair_links: dict[tuple[str, str], Link] = {}
        self._site_links: dict[tuple[str, str], Link] = {}
        #: Resolved link per directed host-name pair, filled by
        #: :meth:`link_for` and cleared whenever a link is registered.
        self._links: dict[tuple[str, str], Link] = {}
        self._last_arrival: dict[tuple[str, str], float] = {}
        #: Cumulative bytes injected, for diagnostics/ablations.
        self.bytes_sent = 0.0
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def set_pair_link(self, src: Host, dst: Host, link: Link) -> None:
        """Register a link for the directed pair ``src -> dst``."""
        self._pair_links[(src.name, dst.name)] = link
        self._links.clear()

    @staticmethod
    def _site_key(site_a: str, site_b: str) -> tuple[str, str]:
        """Canonical (order-independent) key for a site pair.

        ``set_site_link`` / ``link_for`` must agree on the key whichever
        way the caller names the two sites; storing the lexicographically
        sorted pair makes registration and lookup symmetric by
        construction (one entry per unordered pair).
        """
        return (site_a, site_b) if site_a <= site_b else (site_b, site_a)

    def set_site_link(self, site_a: str, site_b: str, link: Link) -> None:
        """Register a link for all pairs between two sites (both ways)."""
        self._site_links[self._site_key(site_a, site_b)] = link
        self._links.clear()

    def site_link(self, site_a: str, site_b: str) -> Link | None:
        """The registered link between two sites, if any (symmetric)."""
        return self._site_links.get(self._site_key(site_a, site_b))

    def iter_site_links(self) -> list[tuple[tuple[str, str], Link]]:
        """All registered site-pair links, in deterministic key order."""
        return sorted(self._site_links.items())

    def link_for(self, src: Host, dst: Host) -> Link:
        """Resolve the link used by ``src -> dst``.

        Priority: explicit pair link, then site-pair link, then default.
        The answer is cached per directed pair until the next
        registration.
        """
        channel = (src.name, dst.name)
        link = self._links.get(channel)
        if link is None:
            link = self._pair_links.get(channel)
            if link is None:
                link = self._site_links.get(
                    self._site_key(src.site, dst.site), self.default_link
                )
            self._links[channel] = link
        return link

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def arrival_time(self, src: Host, dst: Host, nbytes: float, now: float) -> float:
        """Absolute arrival time of a message sent now, with FIFO clamping."""
        channel = (src.name, dst.name)
        link = self.link_for(src, dst)
        arrival = now + link.transfer_time(nbytes, now)
        previous = self._last_arrival.get(channel)
        if previous is not None:
            arrival = max(arrival, previous + _FIFO_EPSILON)
        self._last_arrival[channel] = arrival
        self.bytes_sent += nbytes
        self.messages_sent += 1
        return arrival

    # ------------------------------------------------------------------
    # Lifecycle / export
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear per-run delivery state and traffic counters.

        The FIFO clamp state (``_last_arrival``) and the traffic
        counters otherwise leak from one run into the next when a
        platform object is reused: the second run's first message on a
        channel would be clamped behind the *previous run's* last
        arrival.  Experiment harnesses call this between runs; builders
        that hand each run a fresh platform are unaffected.
        """
        self._last_arrival.clear()
        self.bytes_sent = 0.0
        self.messages_sent = 0

    def export_metrics(self, registry: "MetricsRegistry", **labels) -> None:
        """Publish cumulative traffic totals into a metrics registry."""
        registry.counter("net.bytes_sent", **labels).add(self.bytes_sent)
        registry.counter("net.messages_sent", **labels).add(self.messages_sent)
        registry.gauge("net.active_channels", **labels).set(
            len(self._last_arrival)
        )
