"""Per-device memory pool with pluggable eviction policy (LRU default).

Models the behaviour MICCO's memory-eviction-sensitive policy reacts
to: when a device is oversubscribed, allocating a new tensor forces
resident tensors out (they must be re-fetched from the host if needed
again).  Tensors participating in the current contraction are
*protected* and never evicted mid-kernel.

Eviction policies (the ablation bench compares them):

* ``"lru"`` — least recently used first (production default),
* ``"fifo"`` — oldest allocation first, recency ignored,
* ``"largest"`` — biggest tensor first (frees space fastest).

A run that knows its whole stream (``run_stream``) *demotes* each
tensor after the pair that reads it last (:meth:`MemoryPool.demote`).
Every policy evicts demoted tensors before any live one, and keeps its
own order for live tensors.  Evicting a dead tensor never costs a later
fetch.  On the f0 Redstar streams every victim of Belady's MIN is dead,
so dead-first LRU makes MIN's exact run there.  Serving never demotes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from repro.errors import CapacityError
from repro.utils.validation import check_in, check_positive

EVICTION_POLICIES = ("lru", "fifo", "largest")

#: Names the simulator's victim choice.  Change it whenever victims
#: change, so that caches of results simulated under the old choice
#: (the experiments' trained predictors) are not reused.
EVICTION_SEMANTICS = "dead-first"


class Residency(NamedTuple):
    """One resident tensor: identity plus footprint."""

    uid: int
    nbytes: int


class MemoryPool:
    """Policy-managed device memory.

    Parameters
    ----------
    capacity_bytes:
        Usable capacity.  Allocations beyond it trigger evictions.
    policy:
        Victim-selection policy; one of :data:`EVICTION_POLICIES`.
    """

    def __init__(self, capacity_bytes: int, policy: str = "lru"):
        check_positive("capacity_bytes", capacity_bytes)
        check_in("policy", policy, EVICTION_POLICIES)
        self.capacity_bytes = int(capacity_bytes)
        self.policy = policy
        self._resident: OrderedDict[int, int] = OrderedDict()  # uid -> nbytes, LRU first
        self._used = 0
        # Resident uids in allocation order, oldest first (FIFO and
        # "largest"): a key is added on allocation and dropped on free
        # and evict, so a re-allocated uid goes to the back.  A demoted
        # uid moves to the front and its value becomes True.
        self._insertion: OrderedDict[int, bool | None] = OrderedDict()
        # LRU never reads allocation order (recency order lives in the
        # OrderedDict itself), so skip maintaining it on that policy's
        # hot path.
        self._track_insertion = policy != "lru"

    # ------------------------------------------------------------------ reads
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def __contains__(self, uid: int) -> bool:
        return uid in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def resident_uids(self) -> list[int]:
        """Resident tensor uids, least recently used first."""
        return list(self._resident)

    def nbytes_of(self, uid: int) -> int:
        return self._resident[uid]

    def would_evict(self, nbytes: int, protect: frozenset[int] | set[int] = frozenset()) -> bool:
        """True if allocating ``nbytes`` now would force evictions."""
        return nbytes > self.free_bytes and any(u not in protect for u in self._resident)

    def fits(self, nbytes: int) -> bool:
        """True if ``nbytes`` fits without any eviction."""
        return nbytes <= self.free_bytes

    # ----------------------------------------------------------------- writes
    def touch(self, uid: int) -> None:
        """Mark ``uid`` most-recently-used (a reuse hit)."""
        self._resident.move_to_end(uid)

    def demote(self, uid: int) -> None:
        """Put resident ``uid`` first in eviction order: no later pair reads it.

        LRU moves the uid to the front of its recency order, FIFO and
        "largest" to the front of the allocation-order map.  So LRU and
        FIFO evict the most recently demoted first, and "largest" the
        biggest demoted first.
        """
        # ``last`` is passed by position: a keyword costs a tenth of the call.
        if self._track_insertion:
            self._insertion[uid] = True
            self._insertion.move_to_end(uid, False)
        else:
            self._resident.move_to_end(uid, False)

    def _victim_order(self, protect) -> list[int]:
        """Unprotected uids in FIFO/largest eviction-preference order.

        The allocation-order map already iterates demoted uids first,
        then oldest first, so FIFO needs no sort (as LRU needs none: its
        OrderedDict iterates least recently used first, see
        :meth:`allocate`).
        """
        insertion = self._insertion
        candidates = [u for u in insertion if u not in protect]
        if self.policy == "fifo":
            return candidates
        # "largest": demoted first, then biggest footprint first; the
        # stable sort keeps ties in allocation-map order.
        resident = self._resident
        return sorted(candidates, key=lambda u: (insertion[u] is None, -resident[u]))

    def allocate(self, uid: int, nbytes: int, protect: set[int] | frozenset[int] = frozenset()) -> list[Residency]:
        """Allocate ``nbytes`` for ``uid``, evicting victims if needed.

        Returns the list of evicted residencies (possibly empty), in
        eviction order.  Raises :class:`CapacityError` if the tensor
        cannot fit even after evicting every unprotected tensor.
        """
        resident = self._resident
        if uid in resident:
            # Idempotent: already resident, just refresh recency.
            resident.move_to_end(uid)
            return []
        capacity = self.capacity_bytes
        if nbytes > capacity:
            raise CapacityError(
                f"tensor of {nbytes} bytes exceeds device capacity {capacity}"
            )
        evicted: list[Residency] = []
        if nbytes > capacity - self._used:
            # Two-phase: pick victims first (no mutation while the scan
            # walks the resident dict), then evict them.
            short = nbytes - (capacity - self._used)
            victims: list[int] = []
            # LRU scans the OrderedDict directly (its order *is* the
            # preference order) and stops at the first fit.
            order = resident if self.policy == "lru" else self._victim_order(protect)
            for victim in order:
                if victim in protect:
                    continue
                victims.append(victim)
                short -= resident[victim]
                if short <= 0:
                    break
            insertion = self._insertion
            # ``tuple.__new__`` skips the NamedTuple constructor's
            # argument handling (a third of its cost), once per eviction.
            new = tuple.__new__
            for victim in victims:
                vb = resident.pop(victim)
                if insertion:
                    insertion.pop(victim, None)
                self._used -= vb
                evicted.append(new(Residency, (victim, vb)))
            if nbytes > capacity - self._used:
                # Roll back is unnecessary: evictions already happened on the
                # simulated device; report the capacity failure.
                raise CapacityError(
                    f"cannot fit {nbytes} bytes: only {self.free_bytes} free after "
                    f"evicting all unprotected tensors (capacity {capacity})"
                )
        resident[uid] = nbytes
        if self._track_insertion:
            self._insertion[uid] = None
        self._used += nbytes
        return evicted

    def check_invariants(self) -> None:
        """Assert the pool's internal accounting is consistent.

        Recovery paths free tensors out-of-band (device loss wipes a
        pool while the engine holds references), so the accounting must
        stay airtight under any alloc/evict/free interleaving:

        * ``used_bytes`` equals the sum of resident footprints,
        * usage never exceeds capacity,
        * the insertion map covers exactly the resident set.

        Raises :class:`AssertionError` on the first violation.
        """
        resident_sum = sum(self._resident.values())
        assert self._used == resident_sum, (
            f"used_bytes {self._used} != sum of residencies {resident_sum}"
        )
        assert 0 <= self._used <= self.capacity_bytes, (
            f"used_bytes {self._used} outside [0, {self.capacity_bytes}]"
        )
        if self._track_insertion:
            assert self._insertion.keys() == self._resident.keys(), (
                "insertion map out of sync with resident set: "
                f"{sorted(self._insertion)} vs {sorted(self._resident)}"
            )
        else:
            assert not self._insertion, (
                f"LRU pool should not track allocation order, found {self._insertion}"
            )

    def free(self, uid: int) -> int:
        """Explicitly release a tensor; returns its size (0 if absent)."""
        nbytes = self._resident.pop(uid, None)
        if nbytes is None:
            return 0
        if self._track_insertion:
            self._insertion.pop(uid, None)
        self._used -= nbytes
        return nbytes

    def clear(self) -> None:
        self._resident.clear()
        self._insertion.clear()
        self._used = 0
