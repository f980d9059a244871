"""Declarative fault plans: what breaks, where, and when.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records —
pure data, no runtime behaviour (that lives in
:mod:`repro.faults.injector`).  Plans are either written by hand /
loaded from JSON (reproducing a specific incident) or generated from a
seed via :meth:`FaultPlan.generate`, which draws every timestamp and
device through :func:`repro.utils.rng.as_generator` so identical seeds
give identical fault timelines — chaos runs are replayable bit for bit.

Eight fault kinds model the failure modes a long-lived serving cluster
actually sees:

* ``transient``   — a pair's kernel execution fails and must retry,
* ``device_lost`` — a device (and every tensor resident on it) vanishes
  permanently,
* ``straggler``   — a device's effective GFLOPs degrade for a window,
* ``transfer``    — a D2D/H2D fetch fails and is re-fetched from host,
* ``node_lost``   — a *correlated* failure domain: every device in the
  node hosting ``device`` dies at once (rack power loss, network
  partition).  The blast radius is resolved at apply time through
  :meth:`~repro.gpusim.topology.Topology.node_of`; without a topology
  the node degenerates to the single named device,
* ``link_lost``   — partial-node degradation: the node hosting
  ``device`` loses its inter-node links.  Its devices stay alive and
  keep computing, but D2D fetches crossing the severed links are staged
  through the host instead, and the sharded router routes around the
  degraded node.

Two *gray* kinds model failures that are never announced — the control
plane has to infer them from missing heartbeats (see
:mod:`repro.serve.health`):

* ``heartbeat_loss`` — the node hosting ``device`` stays alive and
  keeps computing, but stops reporting for ``duration_s`` seconds: no
  heartbeats, no digests.  Purely a control-plane signal loss,
* ``node_flap``   — repeated short loss/restore cycles: the node's
  devices all fail, come back cold ``duration_s`` later, and repeat
  ``count`` times every ``period_s`` seconds (default ``2×duration_s``).
  Unlike ``node_lost`` the failure is *not* announced to the router —
  its digest merely goes stale while the node is down.

Two *integrity* kinds model silent data corruption — the device reports
success but the answer is wrong (see :mod:`repro.integrity`):

* ``data_corruption`` — for ``duration_s`` seconds starting at
  ``time_s``, every contraction ``device`` executes silently corrupts
  its output with probability ``probability`` (a deterministic hash
  draw per kernel, replayable bit for bit),
* ``tensor_bitflip`` — at ``time_s`` one tensor copy resident on
  ``device`` is corrupted in place; every later pair that consumes the
  copy (directly or via D2D propagation) inherits the taint.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

from repro.errors import ConfigurationError
from repro.utils.rng import as_generator


class FaultKind(str, Enum):
    """The ten injectable failure modes."""

    TRANSIENT = "transient"
    DEVICE_LOST = "device_lost"
    STRAGGLER = "straggler"
    TRANSFER = "transfer"
    NODE_LOST = "node_lost"
    LINK_LOST = "link_lost"
    HEARTBEAT_LOSS = "heartbeat_loss"
    NODE_FLAP = "node_flap"
    DATA_CORRUPTION = "data_corruption"
    TENSOR_BITFLIP = "tensor_bitflip"


#: Kinds whose ``device`` names a node: the event hits every device of
#: the node hosting it (resolved through the topology when applied).
NODE_SCOPED = frozenset(
    {FaultKind.NODE_LOST, FaultKind.LINK_LOST, FaultKind.NODE_FLAP, FaultKind.HEARTBEAT_LOSS}
)


#: Every numeric :class:`FaultEvent` field; each must be finite.
_NUMERIC_FIELDS = (
    "time_s", "device", "duration_s", "slow_factor", "count", "period_s", "probability",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        Failure mode (see :class:`FaultKind`).
    time_s:
        Simulated timestamp at which the fault becomes active.
    device:
        Target device id.  For a node-scoped kind (see
        :data:`NODE_SCOPED`) this names *any* device of the affected
        node; the fault hits every device of that node (grouping via
        :meth:`~repro.gpusim.topology.Topology.node_of`).
    duration_s:
        Window length: straggler slowdown window, ``heartbeat_loss``
        silence window, or ``node_flap`` down time per cycle (ignored
        for other kinds).
    slow_factor:
        Straggler kernel-time multiplier, > 1 (ignored otherwise).
    count:
        Consecutive failures to inject for ``transient``/``transfer``
        faults before the operation succeeds again, or loss/restore
        cycles for ``node_flap``.
    period_s:
        ``node_flap`` cycle period — down phases start every
        ``period_s`` seconds.  0 (the default) means ``2 × duration_s``
        (equal down and up time); ignored for other kinds.
    probability:
        ``data_corruption`` per-kernel corruption probability over the
        window, in ``(0, 1]``.  Must stay 0 for every other kind.

    Every numeric field must be finite.
    """

    kind: FaultKind
    time_s: float
    device: int
    duration_s: float = 0.0
    slow_factor: float = 1.0
    count: int = 1
    period_s: float = 0.0
    probability: float = 0.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", FaultKind(self.kind))
        except ValueError:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{[k.value for k in FaultKind]}"
            ) from None
        # NaN passes every range check below, and a NaN or infinite time
        # would stall the injector's time-ordered queue.
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"fault {name} must be finite, got {value}")
        if self.time_s < 0:
            raise ConfigurationError(f"fault time_s must be >= 0, got {self.time_s}")
        if self.device < 0:
            raise ConfigurationError(f"fault device must be >= 0, got {self.device}")
        if self.count < 1:
            raise ConfigurationError(f"fault count must be >= 1, got {self.count}")
        if self.period_s < 0:
            raise ConfigurationError(f"fault period_s must be >= 0, got {self.period_s}")
        if self.kind is FaultKind.STRAGGLER:
            if self.duration_s <= 0:
                raise ConfigurationError(
                    f"straggler duration_s must be > 0, got {self.duration_s}"
                )
            if self.slow_factor <= 1.0:
                raise ConfigurationError(
                    f"straggler slow_factor must be > 1, got {self.slow_factor}"
                )
        if self.kind is FaultKind.HEARTBEAT_LOSS and self.duration_s <= 0:
            raise ConfigurationError(
                f"heartbeat_loss duration_s must be > 0, got {self.duration_s}"
            )
        if self.kind is FaultKind.NODE_FLAP:
            if self.duration_s <= 0:
                raise ConfigurationError(
                    f"node_flap duration_s must be > 0, got {self.duration_s}"
                )
            if self.period_s and self.period_s < self.duration_s:
                raise ConfigurationError(
                    f"node_flap period_s must be >= duration_s "
                    f"({self.duration_s}), got {self.period_s}"
                )
        if self.kind is FaultKind.DATA_CORRUPTION:
            if self.duration_s <= 0:
                raise ConfigurationError(
                    f"data_corruption duration_s must be > 0, got {self.duration_s}"
                )
            if not 0 < self.probability <= 1:
                raise ConfigurationError(
                    f"data_corruption probability must be in (0, 1], "
                    f"got {self.probability}"
                )
        elif self.probability != 0.0:
            raise ConfigurationError(
                f"probability is only meaningful for data_corruption events, "
                f"got {self.probability} on a {self.kind.value} event"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kind"] = self.kind.value
        return d


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted fault schedule."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time_s, e.device, e.kind.value))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: FaultKind | str) -> list[FaultEvent]:
        kind = FaultKind(kind)
        return [e for e in self.events if e.kind is kind]

    def validate_devices(self, num_devices: int) -> None:
        """Check every event targets a device inside ``0..num_devices-1``.

        Hand-written JSON plans can name devices the cluster does not
        have (device 12 on an 8-GPU pool); catching that when the
        injector arms the plan turns a late silent no-op into an
        immediate :class:`~repro.errors.ConfigurationError` naming the
        offending event.
        """
        if num_devices < 1:
            raise ConfigurationError(f"num_devices must be >= 1, got {num_devices}")
        for event in self.events:
            if event.device >= num_devices:
                raise ConfigurationError(
                    f"{event.kind.value} fault event targets device "
                    f"{event.device} but the cluster has {num_devices} devices "
                    f"(0..{num_devices - 1}): {event.to_dict()}"
                )

    # ------------------------------------------------------------ generation
    @classmethod
    def generate(
        cls,
        seed,
        *,
        num_devices: int,
        horizon_s: float,
        n_transient: int = 2,
        n_transfer: int = 2,
        n_straggler: int = 1,
        n_device_lost: int = 1,
        n_node_lost: int = 0,
        n_link_lost: int = 0,
        n_heartbeat_loss: int = 0,
        n_node_flap: int = 0,
        n_data_corruption: int = 0,
        n_tensor_bitflip: int = 0,
        straggler_factor: float = 4.0,
        straggler_window_frac: float = 0.25,
        silence_window_frac: float = 0.25,
        flap_cycles: int = 2,
        flap_down_frac: float = 0.05,
        corruption_prob: float = 0.5,
        corruption_window_frac: float = 0.25,
    ) -> "FaultPlan":
        """Draw a random plan over ``[0, horizon_s)`` from ``seed``.

        Device-loss targets are sampled *without replacement* and capped
        at ``num_devices - 1`` so at least one device always survives —
        a plan that kills the whole pool is a configuration error, not
        chaos.  Stragglers slow a device by ``straggler_factor`` for a
        window of ``straggler_window_frac × horizon_s``.  Node losses
        (``n_node_lost``) target a uniformly drawn device each; the
        blast radius — every device sharing that device's node — is
        resolved at apply time from the run's topology, so the generator
        cannot (and does not try to) guarantee survivors across domains.
        Link losses (``n_link_lost``) likewise target a uniformly drawn
        device; the node containing it keeps computing but loses its
        inter-node links.  Gray faults: heartbeat losses
        (``n_heartbeat_loss``) silence a uniformly drawn device's node
        for ``silence_window_frac × horizon_s``; node flaps
        (``n_node_flap``) cycle a node down/up ``flap_cycles`` times,
        ``flap_down_frac × horizon_s`` down per cycle with equal up
        time between cycles.  Integrity faults: data corruptions
        (``n_data_corruption``) silently corrupt a uniformly drawn
        device's kernel outputs with probability ``corruption_prob``
        for a ``corruption_window_frac × horizon_s`` window; tensor
        bitflips (``n_tensor_bitflip``) corrupt one resident tensor
        copy in place on a uniformly drawn device.
        """
        if num_devices < 1:
            raise ConfigurationError(f"num_devices must be >= 1, got {num_devices}")
        if horizon_s <= 0:
            raise ConfigurationError(f"horizon_s must be > 0, got {horizon_s}")
        for name, n in (
            ("n_transient", n_transient),
            ("n_transfer", n_transfer),
            ("n_straggler", n_straggler),
            ("n_device_lost", n_device_lost),
            ("n_node_lost", n_node_lost),
            ("n_link_lost", n_link_lost),
            ("n_heartbeat_loss", n_heartbeat_loss),
            ("n_node_flap", n_node_flap),
            ("n_data_corruption", n_data_corruption),
            ("n_tensor_bitflip", n_tensor_bitflip),
        ):
            if n < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {n}")
        if n_data_corruption and not 0 < corruption_prob <= 1:
            raise ConfigurationError(
                f"corruption_prob must be in (0, 1], got {corruption_prob}"
            )
        rng = as_generator(seed)
        events: list[FaultEvent] = []

        def times(n: int) -> list[float]:
            return [float(t) for t in rng.uniform(0.0, horizon_s, size=n)]

        for t in times(n_transient):
            events.append(
                FaultEvent(
                    FaultKind.TRANSIENT,
                    t,
                    int(rng.integers(num_devices)),
                    count=int(rng.integers(1, 3)),
                )
            )
        for t in times(n_transfer):
            events.append(
                FaultEvent(
                    FaultKind.TRANSFER,
                    t,
                    int(rng.integers(num_devices)),
                    count=int(rng.integers(1, 3)),
                )
            )
        for t in times(n_straggler):
            events.append(
                FaultEvent(
                    FaultKind.STRAGGLER,
                    t,
                    int(rng.integers(num_devices)),
                    duration_s=straggler_window_frac * horizon_s,
                    slow_factor=straggler_factor,
                )
            )
        n_lost = min(n_device_lost, max(num_devices - 1, 0))
        victims = rng.permutation(num_devices)[:n_lost]
        for t, dev in zip(times(n_lost), victims):
            events.append(FaultEvent(FaultKind.DEVICE_LOST, t, int(dev)))
        for t in times(n_node_lost):
            events.append(
                FaultEvent(FaultKind.NODE_LOST, t, int(rng.integers(num_devices)))
            )
        for t in times(n_link_lost):
            events.append(
                FaultEvent(FaultKind.LINK_LOST, t, int(rng.integers(num_devices)))
            )
        for t in times(n_heartbeat_loss):
            events.append(
                FaultEvent(
                    FaultKind.HEARTBEAT_LOSS,
                    t,
                    int(rng.integers(num_devices)),
                    duration_s=silence_window_frac * horizon_s,
                )
            )
        flap_down = flap_down_frac * horizon_s
        for t in times(n_node_flap):
            events.append(
                FaultEvent(
                    FaultKind.NODE_FLAP,
                    t,
                    int(rng.integers(num_devices)),
                    duration_s=flap_down,
                    count=max(flap_cycles, 1),
                    period_s=2.0 * flap_down,
                )
            )
        for t in times(n_data_corruption):
            events.append(
                FaultEvent(
                    FaultKind.DATA_CORRUPTION,
                    t,
                    int(rng.integers(num_devices)),
                    duration_s=corruption_window_frac * horizon_s,
                    probability=corruption_prob,
                )
            )
        for t in times(n_tensor_bitflip):
            events.append(
                FaultEvent(
                    FaultKind.TENSOR_BITFLIP,
                    t,
                    int(rng.integers(num_devices)),
                )
            )
        return cls(tuple(events))

    # ----------------------------------------------------------- persistence
    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_dicts(cls, records) -> "FaultPlan":
        """Build a plan from plain dicts, rejecting malformed records.

        Every record must be a dict carrying only :class:`FaultEvent`
        fields; anything else (extra keys, wrong types, unknown kinds,
        out-of-range values) raises
        :class:`~repro.errors.ConfigurationError` instead of tracing
        back — corrupt plans are a user error, not a crash.
        """
        if isinstance(records, (str, bytes)) or not hasattr(records, "__iter__"):
            raise ConfigurationError(
                f"fault plan records must be a list of objects, got {records!r}"
            )
        known = {
            "kind", "time_s", "device", "duration_s", "slow_factor", "count",
            "period_s", "probability",
        }
        events = []
        for i, r in enumerate(records):
            if not isinstance(r, dict):
                raise ConfigurationError(
                    f"fault event {i} must be a JSON object, got {r!r}"
                )
            unknown = set(r) - known
            if unknown:
                raise ConfigurationError(
                    f"fault event {i} has unknown keys {sorted(unknown)}; "
                    f"expected a subset of {sorted(known)}"
                )
            try:
                events.append(FaultEvent(**r))
            except TypeError as exc:
                raise ConfigurationError(f"fault event {i} is malformed: {exc}") from None
            except ConfigurationError as exc:
                raise ConfigurationError(f"fault event {i}: {exc}") from None
        return cls(tuple(events))

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"faults": self.to_dicts()}, indent=2))

    @classmethod
    def from_json(cls, path: str | Path) -> "FaultPlan":
        """Load a plan written by :meth:`to_json` (or a bare event list)."""
        payload = json.loads(Path(path).read_text())
        if isinstance(payload, dict):
            if "faults" not in payload:
                raise ConfigurationError(
                    f"fault plan {path} must be {{'faults': [...]}} or a bare "
                    f"list, got an object with keys {sorted(payload)}"
                )
            records = payload["faults"]
        else:
            records = payload
        return cls.from_dicts(records)
