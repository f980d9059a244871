"""Top-level configuration for a MICCO run."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import GIB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class MiccoConfig:
    """Cluster + cost-model configuration.

    Defaults mirror the paper's platform: eight 32 GB MI100-class GPUs.

    Parameters
    ----------
    num_devices:
        GPUs in the simulated node.
    memory_bytes:
        Usable memory per device (lowered by the oversubscription
        experiments).
    peak_gflops:
        Per-device peak arithmetic rate.
    cost_model:
        Event→seconds mapping; shared by every scheduler under test.
    keep_outputs:
        If True, contraction outputs stay device-resident after their
        vector (multi-stage pipelines); otherwise they drain to host.
    eviction_policy:
        Per-device victim selection: ``"lru"`` (default), ``"fifo"``,
        or ``"largest"`` (see :mod:`repro.gpusim.memory`).  In an
        offline run (:meth:`Micco.run`) every policy first evicts
        tensors that no later pair reads.
    """

    num_devices: int = 8
    memory_bytes: int = 32 * GIB
    peak_gflops: float = 23_000.0
    cost_model: CostModel = field(default_factory=CostModel)
    keep_outputs: bool = False
    eviction_policy: str = "lru"

    def __post_init__(self):
        check_positive("num_devices", self.num_devices)
        check_positive("memory_bytes", self.memory_bytes)
        check_positive("peak_gflops", self.peak_gflops)

    def with_(self, **kwargs) -> "MiccoConfig":
        """Copy with overrides (sweep convenience)."""
        return replace(self, **kwargs)
