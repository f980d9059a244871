"""Shared multi-GPU cluster state read by schedulers, written by the engine.

This is the concrete realisation of the paper's three scheduler maps
(Table III):

* ``mapGPUTensor`` — which tensors are resident on which GPU
  (here: each device's :class:`~repro.gpusim.memory.MemoryPool`),
* ``mapGPUCom``   — accumulated computation cost per GPU,
* ``mapGPUMem``   — memory bytes used per GPU,

plus the per-vector tensor-slot counters the availability test
``assigned[g] < reuseBd[k] + balanceNum`` is evaluated against
(reuse bounds cap a GPU's *share of the current vector*, see
DESIGN.md §5).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError
from repro.gpusim.device import DeviceSpec, mi100_like
from repro.gpusim.memory import MemoryPool
from repro.tensor.spec import TensorSpec


class ClusterState:
    """Mutable state of a simulated multi-GPU node.

    Parameters
    ----------
    devices:
        Device specs; one :class:`MemoryPool` is created per device.
    """

    def __init__(self, devices: list[DeviceSpec], eviction_policy: str = "lru"):
        if not devices:
            raise SchedulingError("cluster needs at least one device")
        ids = [d.device_id for d in devices]
        if ids != list(range(len(devices))):
            raise SchedulingError(f"device ids must be 0..n-1 in order, got {ids}")
        self.devices = list(devices)
        self.eviction_policy = eviction_policy
        self.pools = [MemoryPool(d.memory_bytes, policy=eviction_policy) for d in devices]
        # The per-device counters below are plain lists, updated one
        # entry per pair: a list element add costs a fifth of an
        # ndarray scalar add.  numpy only appears where a whole counter
        # is reduced (``busy_s``).  Views (``ShardView``) and the
        # serving loop hold references to these lists, so they are
        # cleared in place and never rebound.
        n = len(devices)
        # mapGPUCom: accumulated simulated compute seconds per device.
        self.compute_s: list[float] = [0.0] * n
        # Accumulated memory-operation seconds per device (for
        # earliest-available-device baselines that watch busy time).
        self.memop_s: list[float] = [0.0] * n
        # uid -> set of device ids currently holding a copy.
        self._holders: dict[int, set[int]] = {}
        # Per-vector load counters (the paper's availability test).
        self.assigned_slots: list[int] = [0] * n
        self.balance_num: float = 0.0
        # Slot-indexed device horizon: the simulated time until which
        # each device is busy.  Owned by the serving loop; the batch
        # paths leave it at zero.
        self.busy_until: list[float] = [0.0] * n
        # Device health: offline devices stay in ``devices`` (ids keep
        # their meaning) but leave this set.  A device goes offline by
        # *failing* (permanent, also enters ``_failed``) or by being
        # *retired* (autoscaler scale-down; may come back online cold
        # via :meth:`activate_device`).
        self._alive: set[int] = set(range(len(devices)))
        self._failed: set[int] = set()
        # Cached ascending id list, invalidated by the lifecycle methods
        # (``alive_ids`` sits on every scheduler's hot path).
        self._alive_cache: list[int] | None = list(range(len(devices)))
        #: Optional :class:`~repro.faults.journal.ResidencyJournal`
        #: observing residency deltas (attached per run by the serving
        #: loop; ``None`` keeps the batch paths journal-free).
        self.journal = None

    # ------------------------------------------------------------------ reads
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_alive(self) -> int:
        """Devices still healthy (total minus permanently lost)."""
        return len(self._alive)

    def is_alive(self, device_id: int) -> bool:
        return device_id in self._alive

    def alive_ids(self) -> list[int]:
        """Healthy device ids, ascending (the schedulable pool).

        The list is cached between alive-set changes — callers must
        treat it as read-only.
        """
        if self._alive_cache is None:
            self._alive_cache = sorted(self._alive)
        return self._alive_cache

    def _alive_changed(self) -> None:
        """Invalidate the alive-id cache after a lifecycle transition."""
        self._alive_cache = None

    def is_failed(self, device_id: int) -> bool:
        """True when the device was permanently lost (never reactivatable)."""
        return device_id in self._failed

    def offline_ids(self) -> list[int]:
        """Retired-but-healthy device ids, ascending (scale-up candidates)."""
        return sorted(
            d for d in range(self.num_devices)
            if d not in self._alive and d not in self._failed
        )

    def devices_holding(self, uid: int) -> frozenset[int]:
        """``mapGPUTensor.find(tensor)``: devices with a resident copy."""
        return frozenset(self._holders.get(uid, ()))

    def is_resident(self, uid: int, device_id: int) -> bool:
        return device_id in self._holders.get(uid, ())

    def resident_count(self, device_id: int) -> int:
        """Number of tensors resident on a device."""
        return len(self.pools[device_id])

    def used_bytes(self, device_id: int) -> int:
        """``mapGPUMem``: bytes used on a device."""
        return self.pools[device_id].used_bytes

    def free_bytes(self, device_id: int) -> int:
        return self.pools[device_id].free_bytes

    def total_resident_tensors(self) -> int:
        return sum(len(p) for p in self.pools)

    # ------------------------------------------------------- vector lifecycle
    def begin_vector(self, num_tensors: int) -> None:
        """Reset per-vector balance counters for a vector of ``num_tensors`` slots.

        ``balanceNum`` spreads the vector over the *surviving* pool:
        after a device loss the balanced share is recomputed as
        ``numTensor / numAliveGPU`` so the remaining devices absorb the
        lost capacity instead of chasing an unreachable target.
        """
        if num_tensors <= 0:
            raise SchedulingError(f"vector must have positive tensor slots, got {num_tensors}")
        if not self._alive:
            raise SchedulingError("cannot begin a vector: every device has been lost")
        self.assigned_slots[:] = [0] * self.num_devices
        self.balance_num = num_tensors / self.num_alive

    def record_assignment(self, device_id: int, slots: int = 2) -> None:
        """Charge ``slots`` tensor slots of the current vector to a device."""
        self.assigned_slots[device_id] += slots

    # ------------------------------------------------------ residency updates
    def register(self, spec: TensorSpec, device_id: int, protect: set[int] | frozenset[int] = frozenset()):
        """Make ``spec`` resident on ``device_id``; returns evicted residencies."""
        uid = spec.uid
        holders_map = self._holders
        evicted = self.pools[device_id].allocate(uid, spec.nbytes, protect=protect)
        if evicted:
            for r in evicted:
                holders = holders_map.get(r.uid)
                if holders is not None:
                    holders.discard(device_id)
                    if not holders:
                        del holders_map[r.uid]
                if self.journal is not None:
                    self.journal.note_drop(r.uid, device_id, "evict")
        h = holders_map.get(uid)
        if h is None:
            holders_map[uid] = {device_id}
        else:
            h.add(device_id)
        if self.journal is not None:
            self.journal.note_put(uid, device_id, spec.nbytes)
        return evicted

    def touch(self, uid: int, device_id: int) -> None:
        """Refresh LRU recency of a reused tensor."""
        self.pools[device_id].touch(uid)

    def drop(self, uid: int, device_id: int, reason: str = "drain") -> int:
        """Explicitly free a tensor from one device; returns bytes freed.

        ``reason`` is journaled verbatim (see
        :attr:`~repro.faults.ResidencyJournal.DROP_REASONS`): the default
        ``"drain"`` means the data is finished with (completed outputs),
        while a copy freed because it moved elsewhere should pass
        ``"migrate"`` so the hot-set estimate keeps ranking it.
        """
        nbytes = self.pools[device_id].free(uid)
        if nbytes:
            holders = self._holders.get(uid)
            if holders is not None:
                holders.discard(device_id)
                if not holders:
                    del self._holders[uid]
            if self.journal is not None:
                self.journal.note_drop(uid, device_id, reason)
        return nbytes

    def drop_everywhere(self, uid: int, reason: str = "drain") -> int:
        """Free a tensor from every device; returns total bytes freed."""
        total = 0
        for dev in list(self._holders.get(uid, ())):
            total += self.drop(uid, dev, reason)
        return total

    def _take_offline(self, device_id: int) -> list[int]:
        """Remove a device from the alive set and clear its residency.

        Returns the orphaned tensor uids (uids whose *only* copy lived
        there must be re-fetched from the host if referenced again).
        No-op returning ``[]`` when the device is already offline.
        """
        if not (0 <= device_id < self.num_devices):
            raise SchedulingError(
                f"device id {device_id} out of range 0..{self.num_devices - 1}"
            )
        if device_id not in self._alive:
            return []
        self._alive.discard(device_id)
        self._alive_changed()
        orphans = list(self.pools[device_id].resident_uids())
        for uid in orphans:
            self.pools[device_id].free(uid)
            holders = self._holders.get(uid)
            if holders is not None:
                holders.discard(device_id)
                if not holders:
                    del self._holders[uid]
            if self.journal is not None:
                self.journal.note_drop(uid, device_id, "lost")
        return orphans

    def fail_device(self, device_id: int) -> list[int]:
        """Permanently lose a device; returns the orphaned tensor uids.

        The device keeps its id (and its accumulated time counters, for
        reporting) but is excluded from ``alive_ids``, rejected by the
        engine, and can never be reactivated.  Failing an already-dead
        device is a no-op returning ``[]`` (but still marks it failed,
        so a retired device that dies stays dead).
        """
        orphans = self._take_offline(device_id)
        self._failed.add(device_id)
        return orphans

    def fail_node(self, device_ids) -> dict[int, list[int]]:
        """Atomically lose a whole failure domain (every device of a node).

        All member devices leave the alive set *before* any recovery can
        run, so orphaned work cannot be re-scheduled onto a doomed
        sibling of the same rack.  Returns ``{device: orphan uids}`` for
        the members that were actually alive (already-dead members
        contribute nothing, like :meth:`fail_device`).
        """
        orphaned: dict[int, list[int]] = {}
        for device_id in device_ids:
            was_alive = self.is_alive(device_id)
            orphans = self.fail_device(device_id)
            if was_alive:
                orphaned[device_id] = orphans
        return orphaned

    def prewarm(self, uid: int, nbytes: int, device_id: int) -> bool:
        """Pre-load a journal-replayed tensor onto an alive device.

        Used by warm restore: the tensor becomes resident as if fetched,
        but only while it fits in free memory — pre-warming must never
        evict live residency.  Returns False (no-op) when the device is
        offline, the tensor is already resident there, or space is
        short.
        """
        if not self.is_alive(device_id):
            return False
        pool = self.pools[device_id]
        if uid in pool or nbytes > pool.free_bytes:
            return False
        pool.allocate(uid, nbytes)
        self._holders.setdefault(uid, set()).add(device_id)
        if self.journal is not None:
            self.journal.note_put(uid, device_id, nbytes)
        return True

    def retire_device(self, device_id: int) -> list[int]:
        """Gracefully take a healthy device offline (scale-down).

        Same residency consequences as :meth:`fail_device` — resident
        tensors are dropped, orphan uids returned — but the device stays
        healthy and can rejoin the pool later via
        :meth:`activate_device`.  Retiring a failed or already-offline
        device is a no-op returning ``[]``.
        """
        return self._take_offline(device_id)

    def activate_device(self, device_id: int) -> None:
        """Bring a retired device back online with a cold memory pool.

        The device rejoins ``alive_ids`` holding no resident tensors
        (warm-up happened off-pool; nothing survives it).  Activating an
        alive device is a no-op; activating a permanently failed device
        raises.
        """
        if not (0 <= device_id < self.num_devices):
            raise SchedulingError(
                f"device id {device_id} out of range 0..{self.num_devices - 1}"
            )
        if device_id in self._failed:
            raise SchedulingError(
                f"device {device_id} was permanently lost and cannot be reactivated"
            )
        if device_id in self._alive:
            return
        self.pools[device_id].clear()
        self._alive.add(device_id)
        self._alive_changed()

    def restore_device(self, device_id: int) -> None:
        """Bring a *failed* device back online with a cold memory pool.

        The flap-recovery counterpart of :meth:`activate_device`: a
        device that died in a ``node_flap`` down phase rejoins the pool
        when the node comes back.  The failure mark is cleared — the
        device is healthy again — but nothing survives the bounce: the
        pool restarts cold and residency must be re-fetched (or
        pre-warmed via journal replay).  Restoring an alive device is a
        no-op.
        """
        if not (0 <= device_id < self.num_devices):
            raise SchedulingError(
                f"device id {device_id} out of range 0..{self.num_devices - 1}"
            )
        if device_id in self._alive:
            return
        self._failed.discard(device_id)
        self.pools[device_id].clear()
        self._alive.add(device_id)
        self._alive_changed()

    def check_invariants(self) -> None:
        """Assert pool accounting and the residency index agree.

        Each pool's own invariants must hold, and the ``_holders``
        reverse index must name exactly the devices whose pools contain
        each uid: every resident ``(uid, device)`` is indexed, no index
        entry is empty, and the index counts as many copies as the pools
        hold (so it names no copy the pools lack).  The walk copies
        neither the pools nor the index.  Raises :class:`AssertionError`
        on violation.
        """
        holders_map = self._holders
        resident = 0
        for dev, pool in enumerate(self.pools):
            pool.check_invariants()
            for uid in pool._resident:
                holders = holders_map.get(uid)
                assert holders is not None and dev in holders, (
                    f"holders index out of sync: device {dev} holds uid {uid}, "
                    f"index says {holders}"
                )
            resident += len(pool)
        indexed = 0
        for uid, holders in holders_map.items():
            assert holders, f"holders index out of sync: empty holder set for uid {uid}"
            indexed += len(holders)
        assert indexed == resident, (
            f"holders index out of sync: index counts {indexed} copies, pools hold {resident}"
        )

    def add_compute(self, device_id: int, seconds: float) -> None:
        self.compute_s[device_id] += seconds

    def add_memop(self, device_id: int, seconds: float) -> None:
        self.memop_s[device_id] += seconds

    @property
    def busy_s(self) -> np.ndarray:
        """Total accumulated busy time per device, as a fresh array."""
        return np.asarray(self.compute_s) + np.asarray(self.memop_s)

    def reset(self) -> None:
        """Clear all residency and counters (fresh cluster)."""
        for p in self.pools:
            p.clear()
        n = self.num_devices
        self.compute_s[:] = [0.0] * n
        self.memop_s[:] = [0.0] * n
        self._holders.clear()
        self.assigned_slots[:] = [0] * n
        self.balance_num = 0.0
        self.busy_until[:] = [0.0] * n
        self._alive = set(range(self.num_devices))
        self._failed = set()
        self._alive_changed()

    def clone(self) -> "ClusterState":
        """Deep copy — used by look-ahead / exhaustive oracles."""
        import copy

        other = ClusterState(self.devices, eviction_policy=self.eviction_policy)
        other.compute_s[:] = self.compute_s
        other.memop_s[:] = self.memop_s
        other.pools = copy.deepcopy(self.pools)
        other._holders = {uid: set(devs) for uid, devs in self._holders.items()}
        other.assigned_slots[:] = self.assigned_slots
        other.balance_num = self.balance_num
        other.busy_until[:] = self.busy_until
        other._alive = set(self._alive)
        other._failed = set(self._failed)
        other._alive_changed()
        # Look-ahead clones must not pollute the real run's journal.
        other.journal = None
        return other

    # -------------------------------------------------------------- factories
    @classmethod
    def homogeneous(cls, num_devices: int, memory_bytes: int, peak_gflops: float = 23_000.0) -> "ClusterState":
        return cls(mi100_like(num_devices, memory_bytes=memory_bytes, peak_gflops=peak_gflops))
