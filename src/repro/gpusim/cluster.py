"""Shared multi-GPU cluster state read by schedulers, written by the engine.

This is the concrete realisation of the paper's three scheduler maps
(Table III):

* ``mapGPUTensor`` — which tensors are resident on which GPU
  (here: each device's :class:`~repro.gpusim.memory.MemoryPool`, and
  the reverse index ``uid -> device bitmask``, bit ``d`` set while
  device ``d`` holds a copy),
* ``mapGPUCom``   — accumulated computation cost per GPU,
* ``mapGPUMem``   — memory bytes used per GPU,

plus the per-vector tensor-slot counters the availability test
``assigned[g] < reuseBd[k] + balanceNum`` is evaluated against
(reuse bounds cap a GPU's *share of the current vector*, see
DESIGN.md §5), over the devices in the pool.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import LifecycleError, SchedulingError
from repro.gpusim.device import DeviceSpec, mi100_like
from repro.gpusim.memory import MemoryPool
from repro.tensor.spec import TensorSpec


# A bounded table of the masks decoded most recently: placement decodes
# the same few masks over and over, and the bound keeps its memory flat
# however many distinct masks a run produces.
@lru_cache(maxsize=1024)
def mask_ids(mask: int) -> tuple[int, ...]:
    """The device ids whose bits are set in ``mask``, ascending."""
    return tuple(d for d in range(mask.bit_length()) if mask >> d & 1)


def lowest_id(mask: int) -> int:
    """The lowest device id set in a non-empty ``mask`` (``min`` of its ids)."""
    return (mask & -mask).bit_length() - 1


# Device lifecycle states (DESIGN.md §5).  In the pool: ``active``, and
# ``condemned`` (blamed for corruption while the last device of its shard
# or cluster: it serves on, and leaves the pool only for quarantine).
ACTIVE, CONDEMNED = "active", "condemned"
POOL = (ACTIVE, CONDEMNED)
# Out of it: a scale-up takes a ``spare``, which is ``warming`` until its
# warm-up event fires; ``quarantined`` and ``failed`` are for good, and
# a node flap takes any other state ``S`` to ``down(S)`` and back.
SPARE, WARMING, QUARANTINED, FAILED = "spare", "warming", "quarantined", "failed"


def down(state: str) -> str:
    """The state of a device that a node flap took down from ``state``."""
    return f"down({state})"


def up(state: str) -> str | None:
    """The state a ``down(S)`` device returns to (``S``); ``None`` otherwise."""
    return state[5:-1] if state.startswith("down(") else None


#: Legal lifecycle edges, ``from -> {to}`` (read-only).
EDGES: dict[str, set[str]] = {
    ACTIVE: {SPARE, CONDEMNED, QUARANTINED, FAILED, down(ACTIVE)},
    CONDEMNED: {QUARANTINED, FAILED, down(CONDEMNED)},
    SPARE: {WARMING, QUARANTINED, FAILED, down(SPARE)},
    WARMING: {ACTIVE, QUARANTINED, FAILED, down(WARMING)},
    QUARANTINED: {FAILED},
    FAILED: set(),
    down(ACTIVE): {ACTIVE, QUARANTINED, FAILED},
    down(CONDEMNED): {CONDEMNED, QUARANTINED, FAILED},
    down(SPARE): {SPARE, QUARANTINED, FAILED},
    down(WARMING): {WARMING, down(SPARE), QUARANTINED, FAILED},
}


class ClusterState:
    """Mutable state of a simulated multi-GPU node.

    ``mapGPUTensor`` is kept twice: forward, as each device's memory
    pool, and in reverse, as ``_holders``, a ``uid -> device bitmask``
    dict (bit ``d`` set while device ``d`` holds a copy; tensors with no
    copy have no entry).  A single-holder entry stores the shared int
    ``_bits[d]``, so indexing a copy allocates nothing beyond its dict
    slot.

    Each device has one lifecycle state, changed only by
    :meth:`transition`; ``alive_mask`` holds the pool's devices.

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
        # uid -> bitmask of the devices currently holding a copy.
        self._holders: dict[int, int] = {}
        # Shared per-device bit objects: every writer stores these, so a
        # single-holder entry allocates no int of its own.
        self._bits: list[int] = [1 << d for d in range(n)]
        # Devices candidates may come from; a ShardView narrows it.
        self._device_mask: int = (1 << n) - 1
        # Per-vector load counters (the paper's availability test).
        self.assigned_slots: list[int] = [0] * n
        self.balance_num: float = 0.0
        # Slot-indexed device horizon: the simulated time until which
        # each device is busy.  Owned by the serving loop; the batch
        # paths leave it at zero.
        self.busy_until: list[float] = [0.0] * n
        # Each state's devices, as a mask (every device in exactly one).
        # Devices out of the pool keep their ids (and time counters).
        self._members: dict[str, int] = {ACTIVE: (1 << n) - 1}
        self.alive_mask: int = (1 << n) - 1
        # Ascending id list, rebuilt on every pool change (``alive_ids``
        # sits on every scheduler's hot path).
        self._alive_ids: list[int] = list(range(n))
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
        """Devices in the pool."""
        return self.alive_mask.bit_count()

    def is_alive(self, device_id: int) -> bool:
        return self.alive_mask >> device_id & 1 == 1

    def alive_ids(self) -> list[int]:
        """Ids of the devices in the pool, ascending (the schedulable pool).

        The list is cached between pool changes — callers must
        treat it as read-only.
        """
        return self._alive_ids

    def state(self, device_id: int) -> str:
        """The device's lifecycle state (a key of :data:`EDGES`)."""
        if not (0 <= device_id < self.num_devices):
            raise SchedulingError(f"device id {device_id} out of range 0..{self.num_devices - 1}")
        bit = self._bits[device_id]
        return next(state for state, mask in self._members.items() if mask & bit)

    def members(self, state: str) -> int:
        """The mask of the devices in lifecycle ``state``."""
        return self._members.get(state, 0)

    def devices_holding(self, uid: int) -> frozenset[int]:
        """``mapGPUTensor.find(tensor)``: devices with a resident copy."""
        return frozenset(mask_ids(self._holders.get(uid, 0)))

    def is_resident(self, uid: int, device_id: int) -> bool:
        return self._holders.get(uid, 0) >> device_id & 1 == 1

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
        if not self.alive_mask:
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
        bit = self._bits[device_id]
        evicted = self.pools[device_id].allocate(uid, spec.nbytes, protect=protect)
        if evicted:
            for r in evicted:
                self._unhold(r.uid, bit)
                if self.journal is not None:
                    self.journal.note_drop(r.uid, device_id, "evict")
        self._hold(uid, bit)
        if self.journal is not None:
            self.journal.note_put(uid, device_id, spec.nbytes)
        return evicted

    def _hold(self, uid: int, bit: int) -> None:
        """Set a device's shared ``bit`` in ``uid``'s holder mask."""
        h = self._holders.get(uid)
        if h is None:
            self._holders[uid] = bit
        elif not h & bit:
            self._holders[uid] = h | bit

    def _unhold(self, uid: int, bit: int) -> None:
        """Clear a device's ``bit`` from ``uid``'s holder mask.

        An emptied entry is deleted, and a mask left with one holder
        stores that device's shared bit again.
        """
        h = self._holders.get(uid, 0)
        if h & bit:
            h ^= bit
            if not h:
                del self._holders[uid]
            else:
                self._holders[uid] = h if h & (h - 1) else self._bits[h.bit_length() - 1]

    def touch(self, uid: int, device_id: int) -> None:
        """Refresh LRU recency of a reused tensor."""
        self.pools[device_id].touch(uid)

    def demote(self, uid: int) -> None:
        """Put every resident copy of ``uid`` first in its pool's eviction
        order: no later pair reads it (see :meth:`MemoryPool.demote`)."""
        holders = self._holders.get(uid)
        if not holders:
            return
        if holders & (holders - 1):
            for d in mask_ids(holders):
                self.pools[d].demote(uid)
            return
        pool = self.pools[holders.bit_length() - 1]
        if pool._track_insertion:
            pool.demote(uid)
        else:
            # MemoryPool.demote inlined for LRU with a single holder,
            # the common case: the call costs as much as the move.
            pool._resident.move_to_end(uid, False)

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
            self._unhold(uid, self._bits[device_id])
            if self.journal is not None:
                self.journal.note_drop(uid, device_id, reason)
        return nbytes

    def transition(self, device_id: int, to: str) -> list[int]:
        """Move a device along one :data:`EDGES` edge, else raise
        :class:`~repro.errors.LifecycleError` and change nothing.

        A device leaving the pool drops its residency and returns the
        orphaned uids; one joining it starts cold.
        """
        state = self.state(device_id)
        if to not in EDGES[state]:
            raise LifecycleError(device_id, state, to)
        bit = self._bits[device_id]
        members = self._members
        members[state] ^= bit
        members[to] = members.get(to, 0) | bit
        if (to in POOL) == (state in POOL):
            return []
        self.alive_mask ^= bit
        self._alive_ids = list(mask_ids(self.alive_mask))
        if to in POOL:
            return []
        pool = self.pools[device_id]
        orphans = list(pool.resident_uids())
        for uid in orphans:
            pool.free(uid)
            self._unhold(uid, bit)
            if self.journal is not None:
                self.journal.note_drop(uid, device_id, "lost")
        return orphans

    def fail_node(self, device_ids) -> dict[int, list[int]]:
        """Fail every member not failed yet, before any recovery runs.

        Returns ``{device: orphan uids}`` for the members that were in
        the pool or a flap had taken down from it.
        """
        orphaned: dict[int, list[int]] = {}
        for device_id in device_ids:
            state = self.state(device_id)
            if state != FAILED:
                orphans = self.transition(device_id, FAILED)
                if state in POOL or up(state) in POOL:
                    orphaned[device_id] = orphans
        return orphaned

    def fail_device(self, device_id: int) -> list[int]:
        """Fail one device; returns the orphaned tensor uids."""
        return self.fail_node((device_id,)).get(device_id, [])

    def flap_down(self, device_ids) -> dict[int, list[int]]:
        """Take every member that may go down from ``S`` to ``down(S)``.

        Returns ``{device: orphan uids}`` for each member taken down.
        """
        taken: dict[int, list[int]] = {}
        for device_id in device_ids:
            state = self.state(device_id)
            if down(state) in EDGES[state]:
                taken[device_id] = self.transition(device_id, down(state))
        return taken

    def flap_up(self, device_id: int) -> bool:
        """``down(S) -> S`` (a failed device stays failed); True if back in the pool."""
        back = up(self.state(device_id))
        if back is not None:
            self.transition(device_id, back)
        return back in POOL

    def retire_device(self, device_id: int) -> list[int]:
        """Scale-down: ``active -> spare``, ``condemned -> quarantined``."""
        to = QUARANTINED if self.state(device_id) == CONDEMNED else SPARE
        return self.transition(device_id, to)

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
        self._hold(uid, self._bits[device_id])
        if self.journal is not None:
            self.journal.note_put(uid, device_id, nbytes)
        return True

    def check_invariants(self) -> None:
        """Assert pool accounting and the residency index agree.

        Each pool's own invariants must hold; the state masks partition
        the devices, ``alive_mask`` and ``alive_ids`` match them, and a
        device out of the pool holds nothing and is in no holder mask.  The ``_holders``
        reverse index must name exactly the devices whose pools contain
        each uid: every resident ``(uid, device)`` has its bit set, no
        index entry is an empty mask, and the masks count as many copies
        as the pools hold (when they count more, the first copy the
        pools lack is named).  The walk copies neither the pools nor the
        index.  Raises :class:`AssertionError` on violation.
        """
        holders_map = self._holders
        bits = self._bits
        pools = self.pools
        resident = placed = 0
        for mask in self._members.values():
            assert not placed & mask, f"device {lowest_id(placed & mask)} is in two states"
            placed |= mask
        assert placed == (1 << len(pools)) - 1, f"device {lowest_id(~placed)} has no state"
        alive = self.members(ACTIVE) | self.members(CONDEMNED)
        for dev, pool in enumerate(pools):
            pool.check_invariants()
            bit = bits[dev]
            for uid in pool._resident:
                holders = holders_map.get(uid, 0)
                assert holders & bit, (
                    f"holders index out of sync: device {dev} holds uid {uid}, "
                    f"index says {list(mask_ids(holders))}"
                )
            resident += len(pool)
            if not alive & bit:
                assert not pool, f"{self.state(dev)} device {dev} holds {len(pool)} tensors"
        ids = list(mask_ids(alive))
        assert alive == self.alive_mask, (
            f"alive mask names devices {list(mask_ids(self.alive_mask))}, states say {ids}"
        )
        assert self._alive_ids == ids, f"cached alive ids {self._alive_ids}, states say {ids}"
        indexed = held = 0
        for uid, holders in holders_map.items():
            assert holders, f"holders index out of sync: empty holder mask for uid {uid}"
            indexed += holders.bit_count()
            held |= holders
        stray = held & ~alive & ((1 << len(pools)) - 1)
        dev = lowest_id(stray)
        assert not stray, f"holders index names {self.state(dev)} device {dev} as a holder"
        if indexed != resident:
            uid, dev = next(
                (uid, d)
                for uid, holders in holders_map.items()
                for d in mask_ids(holders)
                if d >= len(pools) or uid not in pools[d]._resident
            )
            raise AssertionError(
                f"holders index out of sync: index says device {dev} holds uid {uid}, "
                f"its pool does not (index counts {indexed} copies, pools hold {resident})"
            )

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
        self._members = {ACTIVE: (1 << n) - 1}
        self.alive_mask = (1 << n) - 1
        self._alive_ids = list(range(n))

    def clone(self) -> "ClusterState":
        """Deep copy — used by look-ahead / exhaustive oracles."""
        import copy

        other = ClusterState(self.devices, eviction_policy=self.eviction_policy)
        other.compute_s[:] = self.compute_s
        other.memop_s[:] = self.memop_s
        other.pools = copy.deepcopy(self.pools)
        # Masks are immutable ints, so a shallow copy is a deep one.
        other._holders = dict(self._holders)
        other._bits = self._bits
        other.assigned_slots[:] = self.assigned_slots
        other.balance_num = self.balance_num
        other.busy_until[:] = self.busy_until
        other._members = dict(self._members)
        other.alive_mask = self.alive_mask
        other._alive_ids = list(self._alive_ids)
        # Look-ahead clones must not pollute the real run's journal.
        other.journal = None
        return other

    # -------------------------------------------------------------- factories
    @classmethod
    def homogeneous(cls, num_devices: int, memory_bytes: int, peak_gflops: float = 23_000.0) -> "ClusterState":
        return cls(mi100_like(num_devices, memory_bytes=memory_bytes, peak_gflops=peak_gflops))
