"""Multi-node GPU topology (the paper's future-work extension).

The paper's conclusion plans to "extend the design of MICCO to a
multi-node cluster with GPUs" and to optimize "both intra-node and
inter-node communications".  :class:`Topology` models that setting:
devices are grouped into nodes; device-to-device transfers within a
node use the fast local link, transfers across nodes pay network
bandwidth and extra latency.  Host↔device traffic is node-local and
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class Topology:
    """Node grouping and link speeds of a GPU cluster.

    Parameters
    ----------
    num_devices:
        Total devices across the cluster.
    devices_per_node:
        Devices per node; node id = device id // devices_per_node.
    intra_node_bandwidth:
        Bytes/second between devices of one node (PCIe/xGMI class).
    inter_node_bandwidth:
        Bytes/second across nodes (InfiniBand class; typically several
        times slower than the local link).
    inter_node_extra_latency_s:
        Additional fixed latency per cross-node transfer.
    """

    num_devices: int
    devices_per_node: int
    intra_node_bandwidth: float = 18e9
    inter_node_bandwidth: float = 6e9
    inter_node_extra_latency_s: float = 5e-6

    def __post_init__(self):
        check_positive("num_devices", self.num_devices)
        check_positive("devices_per_node", self.devices_per_node)
        check_positive("intra_node_bandwidth", self.intra_node_bandwidth)
        check_positive("inter_node_bandwidth", self.inter_node_bandwidth)
        check_non_negative("inter_node_extra_latency_s", self.inter_node_extra_latency_s)
        if self.num_devices % self.devices_per_node:
            raise ConfigurationError(
                f"num_devices ({self.num_devices}) must be a multiple of "
                f"devices_per_node ({self.devices_per_node})"
            )

    @property
    def num_nodes(self) -> int:
        return self.num_devices // self.devices_per_node

    def node_of(self, device_id: int) -> int:
        """Node index hosting ``device_id``."""
        if not 0 <= device_id < self.num_devices:
            raise ConfigurationError(f"device id {device_id} outside 0..{self.num_devices - 1}")
        return device_id // self.devices_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def devices_of_node(self, node: int) -> list[int]:
        """Device ids hosted by ``node``, ascending.

        The inverse of :meth:`node_of`; failure-domain faults use it to
        expand one ``node_lost`` event into the full blast radius.
        """
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(f"node id {node} outside 0..{self.num_nodes - 1}")
        start = node * self.devices_per_node
        return list(range(start, start + self.devices_per_node))

    def node_mask(self, node: int) -> int:
        """Device bitmask of ``node``: bit ``d`` set for each device it hosts."""
        return ((1 << self.devices_per_node) - 1) << (node * self.devices_per_node)

    def d2d_time(self, src: int, dst: int, nbytes: int, base_latency_s: float) -> float:
        """Seconds to move ``nbytes`` from ``src`` to ``dst``."""
        if self.same_node(src, dst):
            return base_latency_s + nbytes / self.intra_node_bandwidth
        return (
            base_latency_s
            + self.inter_node_extra_latency_s
            + nbytes / self.inter_node_bandwidth
        )
