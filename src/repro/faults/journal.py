"""Residency journaling: bounded placement/eviction log + warm restore.

A :class:`ResidencyJournal` shadows a
:class:`~repro.gpusim.cluster.ClusterState` during a serving run,
recording every residency delta — a tensor becoming resident on a
device (``put``) or leaving it (``drop``) — stamped with the simulated
clock the serving loop advances via :meth:`advance`.  The log is
append-only and bounded (a ring of the most recent ``capacity``
entries), so journaling a long run costs O(capacity) memory, and the
whole journal round-trips through JSON for offline inspection or
cross-run replay.

Its purpose is **warm restore**: when the autoscaler activates a
replacement device after a loss (or a retired device rejoins the pool),
the server replays the journal onto it (:meth:`warm_restore`) —
:meth:`hot_tensors` ranks uids by how often and how recently they were
resident — and pre-warms the hottest tensors, instead of letting
every one of them be re-fetched from the host on the critical path of
the next vectors.  TENSILE-style dynamic memory scheduling motivates
exactly this: residency history is a prediction of near-future demand.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.errors import ConfigurationError
from repro.gpusim.cluster import lowest_id
from repro.reporting import dump_json


class ResidencyJournal:
    """Bounded append-only log of cluster residency deltas.

    Parameters
    ----------
    capacity:
        Maximum retained entries; older deltas rotate out (the hot-set
        estimate only needs recent history).
    """

    #: Valid ``note_drop`` reasons: ``"evict"`` (capacity eviction by the
    #: pool's replacement policy), ``"drain"`` (explicit free of finished
    #: data — e.g. completed outputs drained off-device), ``"migrate"``
    #: (the copy moved to another device), ``"lost"`` (the device
    #: holding the copy died or was retired), ``"corrupt"`` (the copy was
    #: invalidated by an integrity check — tainted data, see
    #: :mod:`repro.integrity`).
    DROP_REASONS = ("evict", "drain", "migrate", "lost", "corrupt")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError(f"journal capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        #: (op, time_s, uid, device, nbytes, reason) ring, oldest first
        #: (``reason`` is ``""`` for puts).
        self._entries: deque[tuple[str, float, int, int, int, str]] = deque(maxlen=capacity)
        #: Simulated clock used to stamp entries (see :meth:`advance`).
        self.now = 0.0
        #: Deltas ever recorded, including rotated-out ones.
        self.total_recorded = 0
        # Warm-restore accounting (see :meth:`warm_restore`).
        self.restores = 0
        self.prewarmed_tensors = 0
        self.prewarm_cost_s = 0.0

    # ---------------------------------------------------------------- writing
    def advance(self, now: float) -> None:
        """Move the journal clock forward (never backwards)."""
        self.now = max(self.now, now)

    def note_put(self, uid: int, device: int, nbytes: int) -> None:
        """A tensor became resident on ``device``.

        Arguments are stored as given: the simulator passes plain ints,
        and :meth:`from_json` coerces what it reads.
        """
        self._entries.append(("put", self.now, uid, device, nbytes, ""))
        self.total_recorded += 1

    def note_drop(self, uid: int, device: int, reason: str = "evict") -> None:
        """A tensor left ``device``; ``reason`` says why (see DROP_REASONS).

        The reason matters to :meth:`hot_tensors`: a ``"drain"`` drop
        with no later put means the tensor was explicitly freed as
        no-longer-needed (a completed output drained off-device) —
        ranking it as a prewarm candidate would re-load data nothing
        will ask for.  ``"evict"`` (capacity pressure, not a demand
        signal), ``"migrate"`` (the copy moved, the tensor is still
        wanted) and ``"lost"`` (the device died under it) leave the
        tensor ranked for warm restore.
        """
        if reason not in _DROP_REASONS:
            raise ConfigurationError(
                f"unknown drop reason {reason!r}; expected one of {self.DROP_REASONS}"
            )
        self._entries.append(("drop", self.now, uid, device, 0, reason))
        self.total_recorded += 1

    def note_restore(self, device: int, tensors: int, cost_s: float) -> None:
        """Record one warm restore applied to an activated device."""
        self.restores += 1
        self.prewarmed_tensors += int(tensors)
        self.prewarm_cost_s += float(cost_s)

    def warm_restore(self, device: int, cluster, cost_model, budget: float) -> tuple[int, float]:
        """Replay the hot set onto a just-activated ``device``.

        The hottest tensors (:meth:`hot_tensors`) not yet resident on
        the device are pre-loaded while its used memory stays within
        ``budget`` bytes.  Each one is sourced over a D2D link when a
        live copy survives elsewhere, from the host otherwise.  The
        point is to hand a fresh device the pool's hot working set while
        it is still idle, so the first vectors it serves reuse resident
        inputs instead of stalling on fetches.  Returns ``(tensors
        restored, simulated seconds spent)``; the caller charges the
        seconds to the device's busy horizon.
        """
        restored = 0
        cost = 0.0
        holders_map = cluster._holders
        for uid, nbytes in self.hot_tensors():
            holders = holders_map.get(uid, 0)
            if holders >> device & 1:
                continue
            if cluster.used_bytes(device) + nbytes > budget:
                continue
            if not cluster.prewarm(uid, nbytes, device):
                continue
            if holders:
                copy_t = cost_model.d2d_time(nbytes, lowest_id(holders), device)
            else:
                copy_t = cost_model.h2d_time(nbytes)
            cost += copy_t + cost_model.alloc_time(nbytes)
            restored += 1
        if restored:
            self.note_restore(device, restored, cost)
        return restored, cost

    # ---------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[dict]:
        """The retained deltas as JSON-ready dicts, oldest first.

        Drop entries carry a ``reason`` key; puts do not.
        """
        out = []
        for op, t, uid, dev, nbytes, reason in self._entries:
            e = {"op": op, "time_s": t, "uid": uid, "device": dev, "nbytes": nbytes}
            if op == "drop":
                e["reason"] = reason
            out.append(e)
        return out

    def hot_tensors(self) -> list[tuple[int, int]]:
        """Rank journaled tensors hot-first: ``[(uid, nbytes), ...]``.

        Hotness orders by placement count (how many times the tensor
        became resident inside the retained window — a proxy for reuse
        frequency), then by recency of the last placement.  ``nbytes``
        is taken from the most recent ``put`` so a warm restore knows
        each candidate's footprint without a tensor catalogue.

        Tensors whose *latest* event is a ``"drain"`` drop and that were
        never re-put are excluded: a drain is an explicit this-data-is-
        finished free (completed outputs drained off-device), so
        pre-warming them onto a fresh device would waste its memory
        budget on data nothing will request.  ``"evict"`` drops do NOT
        exclude — capacity eviction says the pool was full, not that
        the tensor is cold (evicted repeated tensors are re-fetched on
        their next use and are exactly what prewarming saves) — and
        ``"migrate"``/``"lost"`` drops keep the tensor ranked too: the
        data is still wanted, it just changed (or lost) its home.
        """
        count: dict[int, int] = {}
        last_put: dict[int, float] = {}
        nbytes_of: dict[int, int] = {}
        #: uids whose most recent journal event is a drain drop.
        gone: set[int] = set()
        for op, t, uid, _dev, nbytes, reason in self._entries:
            if op == "put":
                count[uid] = count.get(uid, 0) + 1
                last_put[uid] = t
                nbytes_of[uid] = nbytes
                gone.discard(uid)
            elif reason == "drain":
                gone.add(uid)
            else:  # "evict"/"migrate"/"lost"/"corrupt": not a cold signal, keep ranked
                gone.discard(uid)
        ranked = sorted(
            (uid for uid in count if uid not in gone),
            key=lambda uid: (-count[uid], -last_put[uid], uid),
        )
        return [(uid, nbytes_of[uid]) for uid in ranked]

    def summary(self) -> dict:
        """JSON-ready journal section for the serving report."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "total_recorded": self.total_recorded,
            "restores": self.restores,
            "prewarmed_tensors": self.prewarmed_tensors,
            "prewarm_cost_s": self.prewarm_cost_s,
        }

    # ------------------------------------------------------------ persistence
    def to_json(self, path: str | Path) -> None:
        """Persist the retained window (plus counters) as JSON."""
        dump_json(path, {"version": 1, **self.summary(), "log": self.entries()})

    @classmethod
    def from_json(cls, path: str | Path) -> "ResidencyJournal":
        """Rebuild a journal from :meth:`to_json` output."""
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict) or "log" not in payload:
            raise ConfigurationError(
                f"residency journal {path} must be an object with a 'log' list"
            )
        journal = cls(capacity=payload.get("capacity", 4096))
        for i, e in enumerate(payload["log"]):
            try:
                journal.advance(float(e["time_s"]))
                if e["op"] == "put":
                    journal.note_put(int(e["uid"]), int(e["device"]), int(e["nbytes"]))
                elif e["op"] == "drop":
                    journal.note_drop(
                        int(e["uid"]), int(e["device"]), e.get("reason", "evict")
                    )
                else:
                    raise ConfigurationError(
                        f"journal entry {i} has unknown op {e['op']!r}"
                    )
            except (KeyError, TypeError) as exc:
                raise ConfigurationError(f"journal entry {i} is malformed: {exc}") from None
        journal.restores = int(payload.get("restores", 0))
        journal.prewarmed_tensors = int(payload.get("prewarmed_tensors", 0))
        journal.prewarm_cost_s = float(payload.get("prewarm_cost_s", 0.0))
        journal.total_recorded = max(
            journal.total_recorded, int(payload.get("total_recorded", 0))
        )
        return journal


#: :attr:`ResidencyJournal.DROP_REASONS` as a set, for the membership
#: test on every drop.
_DROP_REASONS = frozenset(ResidencyJournal.DROP_REASONS)
