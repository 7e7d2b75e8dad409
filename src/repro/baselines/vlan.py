"""VLAN / VPN partitioning.

"Using VLANs and VPNs require users and administrators to partition the
traffic on each client machine ahead of time, or to assign switch ports,
and thus entire machines, to specific VLANs." (§6)

The model assigns each host (by address) to a segment ahead of time;
flows are allowed only within a segment (plus explicitly whitelisted
inter-segment pairs, standing in for router ACL punch-throughs).  The
coarseness is the point: the comparison experiments show that the
per-application interaction ident++ allows (e.g. "skype may talk to
skype anywhere") cannot be expressed as a machine-level partition
without either merging the segments or breaking other traffic.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.baselines.base import ACTION_BLOCK, ACTION_PASS
from repro.identpp.flowspec import FlowSpec
from repro.netsim.addresses import IPv4Address, IPv4Network


class VLANSegmentation:
    """Machine-level partitioning of the network into segments."""

    def __init__(self, *, name: str = "vlan") -> None:
        self.name = name
        self._segments: dict[str, list[IPv4Network]] = {}
        self._allowed_pairs: set[tuple[str, str]] = set()
        self.decisions = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def assign(self, segment: str, prefixes: Iterable[IPv4Network | str]) -> None:
        """Assign address prefixes to a segment (a VLAN)."""
        networks = [p if isinstance(p, IPv4Network) else IPv4Network(p) for p in prefixes]
        self._segments.setdefault(segment, []).extend(networks)

    def allow_between(self, segment_a: str, segment_b: str) -> None:
        """Whitelist traffic between two segments (both directions)."""
        self._allowed_pairs.add((segment_a, segment_b))
        self._allowed_pairs.add((segment_b, segment_a))

    def segment_of(self, address: IPv4Address | str) -> Optional[str]:
        """Return the segment an address belongs to, or ``None``."""
        address = IPv4Address(address)
        for segment, networks in self._segments.items():
            if any(address in network for network in networks):
                return segment
        return None

    # ------------------------------------------------------------------
    # BaselinePolicy interface
    # ------------------------------------------------------------------

    def decide(self, flow: FlowSpec) -> str:
        """Intra-segment passes; inter-segment only if whitelisted; unknown hosts blocked."""
        self.decisions += 1
        src_segment = self.segment_of(flow.src_ip)
        dst_segment = self.segment_of(flow.dst_ip)
        if src_segment is None or dst_segment is None:
            return ACTION_BLOCK
        if src_segment == dst_segment:
            return ACTION_PASS
        if (src_segment, dst_segment) in self._allowed_pairs:
            return ACTION_PASS
        return ACTION_BLOCK
