"""Runtime fault injection: arms planned faults as simulated time passes.

The :class:`FaultInjector` sits between a :class:`~repro.faults.plan.FaultPlan`
and the machinery that experiences the faults.  The driver protocol is
*poll, then apply; the run recovers tickets*:

* the *driver* (the serving loop, or any clock owner) calls
  :meth:`poll` as simulated time advances.  Due transient/transfer
  faults are armed against their device and straggler and corruption
  windows open; every other due event is returned;
* the driver hands each returned event to :meth:`apply`, which does
  everything cluster-side — the node-scoped blast radius, link and
  heartbeat loss, the bitflip victim, failing devices and the fault
  accounting — and returns ``{device: orphaned uids}`` for the devices
  it killed;
* the driver recovers the work in flight on those devices (that needs
  its router, shards and tickets, which the injector does not have);
* the *engine* consults :meth:`take_kernel_fault` /
  :meth:`take_transfer_fault` at each operation (consuming one armed
  failure per call) and :meth:`compute_factor` for straggler slowdowns.

All state transitions are functions of the plan and the polled clock,
so a seeded plan replays identically.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError
from repro.faults.plan import NODE_SCOPED, FaultEvent, FaultKind, FaultPlan
from repro.faults.recovery import FaultStats
from repro.gpusim.cluster import POOL, mask_ids, up
from repro.integrity import mix64

_2_64 = float(1 << 64)


class FaultInjector:
    """Consumable runtime view of one :class:`FaultPlan`.

    One injector serves one run; build a fresh one per run (its armed
    faults and clock are consumed as the run progresses).

    Parameters
    ----------
    plan:
        The fault schedule to arm.
    num_devices:
        When given, every plan event's device id is validated against
        ``0..num_devices-1`` up front — a hand-written plan targeting a
        device the cluster does not have raises
        :class:`~repro.errors.ConfigurationError` here instead of
        failing late (or silently arming faults nothing ever consumes).
    """

    def __init__(self, plan: FaultPlan, num_devices: int | None = None):
        if num_devices is not None:
            plan.validate_devices(num_devices)
        self.plan = plan
        # Expand multi-cycle node_flap events into one single-cycle event
        # per down phase so each loss/restore pair is polled (and counted
        # in ``injected``) on its own clock tick.
        expanded: list[FaultEvent] = []
        for event in plan.events:
            if event.kind is FaultKind.NODE_FLAP and event.count > 1:
                period = event.period_s or 2.0 * event.duration_s
                for i in range(event.count):
                    expanded.append(
                        FaultEvent(
                            FaultKind.NODE_FLAP,
                            event.time_s + i * period,
                            event.device,
                            duration_s=event.duration_s,
                            period_s=period,
                        )
                    )
            else:
                expanded.append(event)
        expanded.sort(key=lambda e: (e.time_s, e.device, e.kind.value))
        self._pending = deque(expanded)
        self.stats = FaultStats()
        #: Current simulated time, advanced by :meth:`poll`.
        self.now = 0.0
        # device -> remaining consecutive failures to inject.
        self._armed_kernel: dict[int, int] = {}
        self._armed_transfer: dict[int, int] = {}
        # (device, start_s, end_s, slow_factor) active/known windows.
        self._slow: list[tuple[int, float, float, float]] = []
        #: Bitmask of the devices whose node lost its inter-node links
        #: (``link_lost``); they stay alive but are D2D-unreachable from
        #: other nodes.
        self._linkless: int = 0
        #: (device, start_s, end_s) heartbeat-silence windows — the
        #: device computes normally but its node reports nothing.
        self._silent: list[tuple[int, float, float]] = []
        #: (device, start_s, end_s, probability, salt) silent-corruption
        #: windows — kernels on the device succeed but may emit wrong
        #: outputs (see :meth:`take_corruption`).
        self._corrupt: list[tuple[int, float, float, float, int]] = []
        # device -> corruption draws taken so far (advances only while a
        # window is active, so the draw sequence is a pure function of
        # the plan and the kernels executed inside windows).
        self._corrupt_seq: dict[int, int] = {}
        self._corrupt_salt = 0

    # ------------------------------------------------------------ driver side
    def poll(self, now: float) -> list[FaultEvent]:
        """Advance to ``now``; arm due faults, return the driver-side ones.

        Transient/transfer faults arm against their device (the next
        ``count`` matching operations fail); straggler and corruption
        windows open.  Every other due event — device, node and link
        loss, node flaps, heartbeat loss and bitflips — is *returned*;
        the driver passes each one to :meth:`apply`.
        """
        self.now = max(self.now, now)
        losses: list[FaultEvent] = []
        while self._pending and self._pending[0].time_s <= now:
            fault = self._pending.popleft()
            self.stats.injected[fault.kind.value] += 1
            if fault.kind is FaultKind.TRANSIENT:
                self._armed_kernel[fault.device] = (
                    self._armed_kernel.get(fault.device, 0) + fault.count
                )
            elif fault.kind is FaultKind.TRANSFER:
                self._armed_transfer[fault.device] = (
                    self._armed_transfer.get(fault.device, 0) + fault.count
                )
            elif fault.kind is FaultKind.STRAGGLER:
                window = (
                    fault.device,
                    fault.time_s,
                    fault.time_s + fault.duration_s,
                    fault.slow_factor,
                )
                self._slow.append(window)
                self.stats.straggler_windows.append(window)
            elif fault.kind is FaultKind.DATA_CORRUPTION:
                self._corrupt.append(
                    (
                        fault.device,
                        fault.time_s,
                        fault.time_s + fault.duration_s,
                        fault.probability,
                        self._corrupt_salt,
                    )
                )
                self._corrupt_salt += 1
            else:  # losses, gray faults and bitflips: see apply()
                losses.append(fault)
        return losses

    def apply(
        self, fault: FaultEvent, cluster, *, topology=None, integrity=None
    ) -> dict[int, list[int]]:
        """Apply one event :meth:`poll` returned to ``cluster``.

        Returns ``{device: orphaned tensor uids}`` for every device the
        event killed or took down; the caller recovers the work in flight
        there.  The map is empty for the kinds that kill nothing and for
        a loss that finds nothing left to kill.

        A node-scoped kind (:data:`~repro.faults.plan.NODE_SCOPED`) hits
        every device of the node hosting ``fault.device``, through
        ``topology``; without one it hits the named device only.

        * ``link_lost``: the node's alive devices keep computing, but
          fetches across their severed inter-node links are staged
          through the host (see :meth:`reachable_holders`).
        * ``heartbeat_loss``: the node's alive devices keep computing
          but stop reporting for ``duration_s`` (:meth:`silent_devices`).
        * ``tensor_bitflip``: the lowest-uid tensor resident on the alive
          device is corrupted in place, in ``integrity`` when given;
          without it the flip is recorded but untracked.
        * ``device_lost``, ``node_lost`` and ``node_flap``: the radius's
          devices fail (or go down) atomically, so no orphan can land
          on a doomed sibling.

        A link or heartbeat loss on a dead node, a duplicate link loss
        and a loss whose radius is already dead record nothing.
        """
        kind = fault.kind
        stats = self.stats
        devices = [fault.device]
        if kind in NODE_SCOPED and topology is not None and fault.device < topology.num_devices:
            devices = topology.devices_of_node(topology.node_of(fault.device))
        if kind is FaultKind.LINK_LOST:
            devices = [d for d in devices if cluster.is_alive(d) and not self._linkless >> d & 1]
            if devices:
                stats.link_losses += 1
                for d in devices:
                    self._linkless |= 1 << d
                stats.record_event(
                    "fault", fault.device, fault.time_s, 0.0,
                    label=f"link lost: devices {devices} host-staged",
                )
            return {}
        if kind is FaultKind.HEARTBEAT_LOSS:
            devices = [d for d in devices if cluster.is_alive(d)]
            if devices:
                self.note_heartbeat_loss(devices, fault.time_s, fault.time_s + fault.duration_s)
                stats.record_event(
                    "fault", fault.device, fault.time_s, fault.duration_s,
                    label="heartbeat loss",
                )
            return {}
        if kind is FaultKind.TENSOR_BITFLIP:
            resident = (
                cluster.pools[fault.device].resident_uids()
                if cluster.is_alive(fault.device)
                else ()
            )
            uid = min(resident) if resident else None
            if uid is not None and integrity is not None:
                integrity.flip(uid, fault.device, self.now)
            stats.record_event(
                "fault", fault.device, fault.time_s, 0.0,
                label=(
                    f"tensor bitflip: uid {uid}" if uid is not None
                    else "tensor bitflip: no resident tensor"
                ),
            )
            return {}
        if kind not in (FaultKind.DEVICE_LOST, FaultKind.NODE_LOST, FaultKind.NODE_FLAP):
            raise ConfigurationError(
                f"{kind.value} faults are armed by poll(); apply() takes the events it returns"
            )
        flap = kind is FaultKind.NODE_FLAP
        if flap:
            taken = cluster.flap_down(devices)
            lost = {d: o for d, o in taken.items() if up(cluster.state(d)) in POOL}
        else:
            taken = lost = cluster.fail_node(devices)
        if not taken:
            return {}  # nothing left to take: a duplicate, or only spares
        if kind is FaultKind.NODE_LOST:
            stats.node_losses += 1
        for dev, orphans in sorted(lost.items()):
            self.note_device_lost(dev, fault.time_s, len(orphans))
            stats.record_event(
                "fault", dev, fault.time_s,
                fault.duration_s if flap else 0.0,
                label="node flap down" if flap else kind.value.replace("_", " "),
            )
        return taken

    def drain(self) -> list[FaultEvent]:
        """Arm every remaining fault regardless of time (end-of-run flush)."""
        return self.poll(float("inf")) if self._pending else []

    def note_device_lost(self, device: int, time_s: float, orphans: int) -> None:
        """Record an applied device loss for availability accounting."""
        self.stats.device_losses += 1
        self.stats.orphaned_tensors += orphans
        self.stats.lost_at.setdefault(device, float(time_s))
        self.stats.open_down_window(device, time_s)
        # A dead device can no longer fault, straggle or corrupt.
        self._armed_kernel.pop(device, None)
        self._armed_transfer.pop(device, None)
        self._slow = [w for w in self._slow if w[0] != device]
        self._corrupt = [w for w in self._corrupt if w[0] != device]

    def note_device_restored(self, device: int, time_s: float) -> None:
        """Record an applied restore (``node_flap`` up phase)."""
        self.stats.device_restores += 1
        self.stats.close_down_window(device, time_s)

    def note_heartbeat_loss(self, devices, start_s: float, end_s: float) -> None:
        """Record an applied gray silence: ``devices`` stop reporting.

        The devices keep computing — only the control-plane signal is
        lost for ``[start_s, end_s)``; health monitoring has to notice.
        """
        self.stats.heartbeat_losses += 1
        for d in devices:
            self._silent.append((int(d), float(start_s), float(end_s)))

    def silent_devices(self, now: float) -> frozenset[int]:
        """Devices inside an active heartbeat-silence window at ``now``."""
        return frozenset(
            d for d, start, end in self._silent if start <= now < end
        )

    @property
    def linkless_devices(self) -> frozenset[int]:
        """Devices currently isolated by ``link_lost`` faults."""
        return frozenset(mask_ids(self._linkless))

    def reachable_holders(self, holders: int, dst: int, topology) -> int:
        """The holders in mask ``holders`` that ``dst`` can still reach over D2D.

        A holder is reachable when it shares ``dst``'s node (intra-node
        links survive a ``link_lost``) or when *neither* endpoint sits
        on a link-degraded node.  Returns the reachable holders' mask.
        """
        local = topology.node_mask(topology.node_of(dst))
        if self._linkless >> dst & 1:
            return holders & local
        return holders & (local | ~self._linkless)

    # ------------------------------------------------------------ engine side
    def take_kernel_fault(self, device: int) -> bool:
        """Consume one armed kernel failure for ``device`` (True if it fails)."""
        return self._take(self._armed_kernel, device)

    def take_transfer_fault(self, device: int) -> bool:
        """Consume one armed transfer failure for ``device``."""
        return self._take(self._armed_transfer, device)

    @staticmethod
    def _take(armed: dict[int, int], device: int) -> bool:
        left = armed.get(device, 0)
        if left <= 0:
            return False
        if left == 1:
            del armed[device]
        else:
            armed[device] = left - 1
        return True

    def take_corruption(self, device: int) -> bool:
        """Draw one silent-corruption Bernoulli for a kernel on ``device``.

        Returns True when the kernel's output should be silently wrong.
        Outside any active ``data_corruption`` window the draw sequence
        does not advance, so runs that never enter a window consume no
        randomness and a seeded plan replays identically regardless of
        how many kernels run outside its windows.  Overlapping windows
        draw independently (any hit corrupts).
        """
        active = [
            (prob, salt)
            for dev, start, end, prob, salt in self._corrupt
            if dev == device and start <= self.now < end
        ]
        if not active:
            return False
        n = self._corrupt_seq.get(device, 0)
        self._corrupt_seq[device] = n + 1
        return any(
            mix64(0x5EEDC0DE, salt, device, n) < prob * _2_64
            for prob, salt in active
        )

    def compute_factor(self, device: int) -> float:
        """Kernel-time multiplier for ``device`` at the polled clock.

        Overlapping straggler windows compound multiplicatively.
        """
        factor = 1.0
        for dev, start, end, slow in self._slow:
            if dev == device and start <= self.now < end:
                factor *= slow
        return factor
