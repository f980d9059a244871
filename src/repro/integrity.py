"""End-to-end result integrity: checksum lineage, audits and blame.

Every other fault the simulator injects eventually *announces itself*
(a crash, a lost node, a silent heartbeat).  Silent data corruption
does not: a device computes a wrong contraction, reports success, and
the wrong tensor propagates through every downstream pair that reuses
it.  This module is the defense:

* :class:`IntegrityConfig` — the ``integrity`` block of ``ServeConfig``
  (schema v7): detection mode, audit sampling fraction, audit/recompute
  budget, blame thresholds.
* :class:`IntegrityState` — the per-run state machine shared by the
  engine and the serving loop.  It keeps the *checksum ledger* (which
  tensor copies are corrupt, who corrupted them, and which injected
  root taint they descend from), attributes blame per device with a
  corruption EWMA and a ``trusted → suspect → quarantined`` lifecycle,
  and carries every integrity counter the report surfaces.

Checksums are modelled, not computed: each tensor uid has a
deterministic *true* content version (:meth:`IntegrityState.true_version`)
and each device copy an *actual* version that diverges from it exactly
when the copy is corrupt (:meth:`IntegrityState.copy_version`).  A
contraction derives its output's version from its inputs' versions, so
taint propagates through the lineage the same way a real end-to-end
checksum chain would reveal it — and an audit recomputation on a clean
device "recomputes" the true version and exposes the mismatch.

Detection never consults ground truth to decide *what* to check: audit
sampling is a deterministic hash draw, transfer verification runs on
every receipt, and suspicion comes from previously attributed
detections.  Ground truth is only read where a real checksum
comparison would physically reveal it (the audit/receipt mismatch) and
in the report's ``escaped`` counter (corrupt results that made it into
reported completions — the caveat the README documents).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.codec import JsonConfig

#: Detection modes of the integrity subsystem.
#:
#: * ``"off"`` — no ledger, no audits; corruption goes unobserved.
#: * ``"spot"`` — sampled audit recomputation of completed pairs on a
#:   *different* device (``audit_fraction`` of pairs), escalating to a
#:   full audit of a ticket once one of its pairs fails, and to always
#:   auditing pairs produced by already-suspect devices.
#: * ``"suspect-full"`` — ``"spot"`` plus dual-checking *every* pair of
#:   any ticket that touched a suspect device.
INTEGRITY_MODES = ("off", "spot", "suspect-full")

#: Device blame lifecycle states (alongside the shard-level health
#: lifecycle of :mod:`repro.serve.health`).
BLAME_STATES = ("trusted", "suspect", "quarantined")

_MASK64 = (1 << 64) - 1
_2_64 = float(1 << 64)


def mix64(*values: int) -> int:
    """Deterministic 64-bit hash of a tuple of ints (splitmix64-style).

    The integrity layer's only randomness source: corruption draws,
    audit sampling and content versions all come from this mix, so a
    fixed seed replays bit-identically — there is no hidden RNG state
    to diverge between runs.
    """
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h ^ (v & _MASK64)) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


@dataclass(frozen=True)
class IntegrityConfig(JsonConfig):
    """The ``integrity`` block of ``ServeConfig`` (schema v7).

    Parameters
    ----------
    mode:
        One of :data:`INTEGRITY_MODES` (``"off"`` disables everything).
    audit_fraction:
        Probability (deterministic hash draw per pair) that a completed
        pair is spot-audited by recomputation on another device.
    audit_budget_frac:
        Ceiling on total audit/recompute seconds as a fraction of the
        run's cumulative compute seconds.  Past it, sampled audits are
        skipped and suspect tickets degrade to the
        ``integrity-unverified`` outcome instead of a recompute storm.
    blame_threshold:
        Corruption-EWMA level at which a device is quarantined.
    blame_alpha:
        EWMA smoothing factor: each attributed detection moves the
        device's score toward 1, each clean audit of its work decays it.
    verify_transfers:
        Verify checksums on D2D receipt: a corrupt copy is caught at
        the transfer boundary, re-fetched clean from the host, and its
        source copy invalidated.
    quarantine_devices:
        Let a quarantined blame state actually retire the device from
        the serving pool (the last alive device is never retired).
    """

    BLOCK = "integrity"

    mode: str = "off"
    audit_fraction: float = 0.25
    audit_budget_frac: float = 0.5
    blame_threshold: float = 0.4
    blame_alpha: float = 0.25
    verify_transfers: bool = True
    quarantine_devices: bool = True

    def __post_init__(self):
        if self.mode not in INTEGRITY_MODES:
            raise ConfigurationError(
                f"unknown integrity mode {self.mode!r}; expected one of {INTEGRITY_MODES}"
            )
        if not 0 < self.audit_fraction <= 1:
            raise ConfigurationError(
                f"audit_fraction must be in (0, 1], got {self.audit_fraction}"
            )
        if not 0 < self.audit_budget_frac <= 1:
            raise ConfigurationError(
                f"audit_budget_frac must be in (0, 1], got {self.audit_budget_frac}"
            )
        if not 0 < self.blame_threshold <= 1:
            raise ConfigurationError(
                f"blame_threshold must be in (0, 1], got {self.blame_threshold}"
            )
        if not 0 < self.blame_alpha < 1:
            raise ConfigurationError(
                f"blame_alpha must be in (0, 1), got {self.blame_alpha}"
            )


class IntegrityState:
    """Checksum ledger, blame tracker and integrity counters of one run.

    The *ledger* maps each corrupt tensor copy ``(uid, device)`` to the
    device that corrupted it and the *root* uid the taint descends from
    (the tensor where a corruption event was actually injected).  Clean
    copies are simply absent — steady-state overhead with no corruption
    is a handful of dictionary misses per pair.

    Attached to the engine as ``engine.integrity`` for the run (like
    the fault injector).  The serving loop calls :meth:`audit` on each
    completed ticket and :meth:`invalidate_quarantined` on each device
    :meth:`poll_quarantines` returns, and acts on the tickets itself.
    """

    def __init__(self, config: IntegrityConfig, num_devices: int):
        if num_devices < 1:
            raise ConfigurationError(f"num_devices must be >= 1, got {num_devices}")
        self.config = config
        self.num_devices = num_devices
        #: uid → {device: (blame_device, root_uid)} for corrupt copies.
        self._dirty: dict[int, dict[int, tuple[int, int]]] = {}
        #: root uid → taint creation time (first corruption of that uid).
        self._born: dict[int, float] = {}
        #: root uids where corruption was actually injected / detected.
        self._injected_roots: set[int] = set()
        self._detected_roots: set[int] = set()
        # Blame lifecycle.
        self.ewma = [0.0] * num_devices
        self.device_detections = [0] * num_devices
        self.blame_state = ["trusted"] * num_devices
        self.blame_log: list[dict] = []
        self._pending_quarantine: list[int] = []
        # Counters.
        self.injected = 0            # corruption events fired (computes + bitflips)
        self.detected = 0            # mismatches caught (audits + transfer receipts)
        self.repaired = 0            # detected taints replaced by a clean recompute
        self.flagged = 0             # detected taints shed as integrity-unverified
        self.escaped = 0             # corrupt outputs inside reported completions
        self.audited_pairs = 0
        self.audit_spent_s = 0.0
        self.transfer_detections = 0
        self.budget_skipped = 0
        self.unverified_tickets = 0
        self.detection_latency_s: list[float] = []

    # ------------------------------------------------------------- checksums
    def true_version(self, uid: int) -> int:
        """The tensor's true content version (what a clean copy hashes to)."""
        return mix64(0xC0FFEE, uid)

    def copy_version(self, uid: int, device: int) -> int:
        """The version the copy on ``device`` actually carries.

        Diverges from :meth:`true_version` exactly when the copy is
        corrupt; the divergent value is itself a deterministic function
        of the corruption's provenance, so ledger snapshots compare
        equal across same-seed runs.
        """
        entry = self._dirty.get(uid, {}).get(device)
        if entry is None:
            return self.true_version(uid)
        blame, root = entry
        return mix64(0xBAD5EED, uid, blame, root)

    def derived_version(self, out_uid: int, left_uid: int, right_uid: int, device: int) -> int:
        """Output version a contraction on ``device`` would produce.

        Derived from the *actual* input copy versions — corrupt inputs
        yield a corrupt output version, which is how lineage taint
        survives into every downstream checksum.
        """
        return mix64(
            0xDE21BED,
            out_uid,
            self.copy_version(left_uid, device),
            self.copy_version(right_uid, device),
        )

    # ---------------------------------------------------- engine-facing hooks
    @property
    def verify_transfers_active(self) -> bool:
        return self.config.mode != "off" and self.config.verify_transfers

    def note_h2d(self, uid: int, device: int) -> None:
        """A host fetch landed: the host copy is authoritative and clean."""
        devs = self._dirty.get(uid)
        if devs is not None:
            devs.pop(device, None)
            if not devs:
                del self._dirty[uid]

    def note_d2d(self, uid: int, src: int, dst: int) -> tuple[int, int] | None:
        """A D2D copy landed on ``dst``; returns the ``(blame, root)``
        provenance when the received copy is corrupt, else ``None``.

        Corruption propagates with the copy: a dirty source makes a
        dirty destination (the checksum travels with the bytes)."""
        devs = self._dirty.get(uid)
        entry = devs.get(src) if devs is not None else None
        if entry is None:
            self.note_h2d(uid, dst)  # same clean-copy bookkeeping
            return None
        devs[dst] = entry
        return entry

    def clear_copy(self, uid: int, device: int) -> None:
        """Forget a copy's ledger entry (the copy itself is gone)."""
        self.note_h2d(uid, device)

    def transfer_detected(
        self, uid: int, src: int, dst: int, entry: tuple[int, int], now: float
    ) -> None:
        """Verify-on-receipt caught a corrupt transfer.

        The receiving copy was re-fetched clean from the host (the
        engine charges that), the dirty source copy is invalidated, and
        the producer is blamed.  Counts as detected *and* repaired —
        the clean re-fetch is the repair.
        """
        blame, root = entry
        self.clear_copy(uid, dst)
        self.clear_copy(uid, src)
        self.detected += 1
        self.repaired += 1
        self.transfer_detections += 1
        self._note_root_detected(root, now)
        self._blame(blame, now)

    def note_compute(self, pair, device: int, corrupt: bool, now: float) -> None:
        """A contraction ran on ``device``; derive the output's taint.

        ``corrupt`` is the injector's corruption draw for this kernel.
        A clean kernel over a dirty input copy still yields a dirty
        output (lineage propagation), blamed on the original corruptor.
        """
        out_uid = pair.out.uid
        entry = None
        if corrupt:
            entry = (device, out_uid)
            self.injected += 1
            self._injected_roots.add(out_uid)
            if out_uid not in self._born:
                self._born[out_uid] = now
        else:
            devs_l = self._dirty.get(pair.left.uid)
            if devs_l is not None:
                entry = devs_l.get(device)
            if entry is None:
                devs_r = self._dirty.get(pair.right.uid)
                if devs_r is not None:
                    entry = devs_r.get(device)
        if entry is None:
            self.clear_copy(out_uid, device)
            return
        self._dirty.setdefault(out_uid, {})[device] = entry

    def flip(self, uid: int, device: int, now: float) -> None:
        """A ``tensor_bitflip`` fault corrupted a resident copy in place."""
        self._dirty.setdefault(uid, {})[device] = (device, uid)
        self.injected += 1
        self._injected_roots.add(uid)
        if uid not in self._born:
            self._born[uid] = now

    # --------------------------------------------------------- audit support
    def sampled(self, vector_id: int, pair_index: int) -> bool:
        """Deterministic spot-audit draw for one completed pair."""
        return (
            mix64(0xAD017, vector_id, pair_index)
            < self.config.audit_fraction * _2_64
        )

    def output_entry(self, uid: int, producer: int) -> tuple[int, int] | None:
        """The corrupt-copy provenance an audit of ``uid`` would expose.

        Prefers the producing device's copy; falls back to any corrupt
        copy of the uid (lowest device id, deterministic)."""
        devs = self._dirty.get(uid)
        if not devs:
            return None
        entry = devs.get(producer)
        if entry is not None:
            return entry
        return devs[min(devs)]

    def audit_detected(self, uid: int, now: float) -> list[int]:
        """An audit recomputation exposed a corrupt output.

        The recompute on the clean auditor device *is* the repair, so
        the taint counts detected and (provisionally) repaired —
        :meth:`audit` later reclassifies it as flagged if the owning
        ticket is shed unverified.  Returns the devices whose copies of
        the uid must be invalidated (journal drop reason ``corrupt``)."""
        devs = self._dirty.pop(uid, {})
        entries = set(devs.values())
        self.detected += 1
        self.repaired += 1
        for blame, root in sorted(entries):
            self._note_root_detected(root, now)
            self._blame(blame, now)
            break  # one provenance per output: blame the closest producer
        return sorted(devs)

    def audit(
        self, vector, assignment, now: float, cluster, cost_model, compute_s: float, stats
    ) -> tuple[str, float]:
        """Audit one completed-but-unreported vector's pair outputs.

        ``assignment`` maps each pair to its producer, ``compute_s`` is
        the run's cumulative compute seconds and ``stats`` (the fault
        stats, or ``None``) records the mismatch events.  The audit set
        is every pair whose producer is already suspect (in
        ``suspect-full`` mode, every pair of a vector that touched a
        suspect device) plus a deterministic ``audit_fraction`` sample
        of the rest.  Each audited pair is recomputed on the least-busy
        alive device that is neither its producer (which would reproduce
        its own corruption) nor suspect, ties on id, charging the kernel
        time to that device's ``cluster.busy_until``.  A checksum
        mismatch invalidates every resident copy of the output (journal
        drop reason ``corrupt``), blames the producer, and *escalates*:
        all remaining pairs join the mandatory set.

        The recomputation on the clean device is itself the repair, so
        a mismatch returns ``("repair", ready_s)`` with ``ready_s`` the
        horizon where the last audit lands.  Audit seconds beyond
        ``audit_budget_frac`` of ``compute_s`` are not spent: sampled
        audits are skipped (counted), while a mandatory one — or a
        mandatory pair with no clean auditor — degrades the vector to
        ``("flag", now)``, to be shed as ``integrity-unverified``
        instead of fueling a recompute storm; its detected taints move
        from ``repaired`` to ``flagged``, keeping ``detected ==
        repaired + flagged`` exact.  Clean throughout returns
        ``("clean", now)``.
        """
        cfg = self.config
        vid = vector.vector_id
        busy_until = cluster.busy_until
        budget_s = cfg.audit_budget_frac * compute_s
        suspect_full = cfg.mode == "suspect-full" and any(
            self.is_suspect(d) for d in set(assignment)
        )
        to_audit: list[tuple[int, bool]] = []
        for i in range(len(vector.pairs)):
            if self.is_suspect(assignment[i]) or suspect_full:
                to_audit.append((i, True))
            elif self.sampled(vid, i):
                to_audit.append((i, False))
        audited: set[int] = set()
        detected = 0
        flag = False
        ready = now
        k = 0
        while k < len(to_audit):
            i, mandatory = to_audit[k]
            k += 1
            if i in audited:
                continue
            # After a detection every remaining pair is mandatory: a
            # sampled entry reached first stands in for its escalated one.
            mandatory = mandatory or detected > 0
            audited.add(i)
            pair = vector.pairs[i]
            producer = assignment[i]
            clean = [
                (busy_until[dev], dev)
                for dev in cluster.alive_ids()
                if dev != producer and not self.is_suspect(dev)
            ]
            if not clean:
                if mandatory:
                    flag = True
                continue
            auditor = min(clean)[1]
            cost = cost_model.kernel_time(pair, cluster.devices[auditor])
            if self.audit_spent_s + cost > budget_s:
                if mandatory:
                    flag = True
                else:
                    self.budget_skipped += 1
                continue
            self.audited_pairs += 1
            self.audit_spent_s += cost
            busy_until[auditor] = max(busy_until[auditor], now) + cost
            ready = max(ready, busy_until[auditor])
            if self.output_entry(pair.out.uid, producer) is None:
                # The producer's output matched: decay its blame.
                self.ewma[producer] *= 1.0 - cfg.blame_alpha
                continue
            detected += 1
            for dev in self.audit_detected(pair.out.uid, now):
                if cluster.is_resident(pair.out.uid, dev):
                    cluster.drop(pair.out.uid, dev, reason="corrupt")
            if stats is not None:
                stats.record_event(
                    "audit", auditor, now, cost,
                    label=f"audit mismatch: pair {i} of v{vid} (device {producer})",
                )
                stats.record_event(
                    "taint", producer, now, 0.0,
                    label=f"invalidated output {pair.out.uid}",
                )
            for j in range(len(vector.pairs)):
                if j not in audited:
                    to_audit.append((j, True))
        if flag:
            self.repaired -= detected
            self.flagged += detected
            self.unverified_tickets += 1
            return "flag", now
        if detected:
            return "repair", ready
        return "clean", now

    def invalidate_quarantined(self, device: int, now: float, cluster, stats) -> None:
        """Drop a newly quarantined device's resident corrupt copies.

        Journal drop reason ``corrupt``, so nothing can fetch them over
        D2D; ``stats`` (the fault stats, or ``None``) records the
        ``blame`` event."""
        for uid in self.dirty_uids_on(device):
            if cluster.is_resident(uid, device):
                cluster.drop(uid, device, reason="corrupt")
        if stats is not None:
            stats.record_event(
                "blame", device, now, 0.0,
                label=f"quarantined (corruption ewma {self.ewma[device]:.3f})",
            )

    def note_reported(self, vector, assignment) -> None:
        """A completion is being reported: count corrupt outputs that
        escaped detection (report-only; behavior never depends on it)."""
        for pair in vector.pairs:
            if self._dirty.get(pair.out.uid):
                self.escaped += 1

    def dirty_uids_on(self, device: int) -> list[int]:
        """Uids with a corrupt copy on ``device`` (sorted, for invalidation)."""
        return sorted(uid for uid, devs in self._dirty.items() if device in devs)

    # ----------------------------------------------------------------- blame
    def is_suspect(self, device: int) -> bool:
        """Device has at least one attributed detection (not ``trusted``)."""
        return self.blame_state[device] != "trusted"

    def _note_root_detected(self, root: int, now: float) -> None:
        if root in self._detected_roots:
            return
        self._detected_roots.add(root)
        born = self._born.get(root)
        if born is not None:
            self.detection_latency_s.append(now - born)

    def _blame(self, device: int, now: float) -> None:
        self.device_detections[device] += 1
        a = self.config.blame_alpha
        self.ewma[device] = (1.0 - a) * self.ewma[device] + a
        if self.blame_state[device] == "trusted":
            self._transition(device, "suspect", now)
        if (
            self.ewma[device] >= self.config.blame_threshold
            and self.blame_state[device] != "quarantined"
        ):
            self._transition(device, "quarantined", now)
            if self.config.quarantine_devices:
                self._pending_quarantine.append(device)

    def _transition(self, device: int, to: str, now: float) -> None:
        self.blame_log.append(
            {
                "time_s": now,
                "device": device,
                "from": self.blame_state[device],
                "to": to,
                "ewma": self.ewma[device],
            }
        )
        self.blame_state[device] = to

    def poll_quarantines(self) -> list[int]:
        """Devices newly crossing the blame threshold (each once)."""
        if not self._pending_quarantine:
            return []
        out = self._pending_quarantine
        self._pending_quarantine = []
        return out

    def quarantined_devices(self) -> list[int]:
        return [d for d in range(self.num_devices) if self.blame_state[d] == "quarantined"]

    # --------------------------------------------------------------- summary
    def detection_rate(self) -> float:
        """Fraction of injected root taints that were detected."""
        if not self._injected_roots:
            return 1.0
        return len(self._injected_roots & self._detected_roots) / len(self._injected_roots)

    def summary(self, compute_s: float) -> dict:
        """The ``result.integrity`` report section."""
        lat = self.detection_latency_s
        return {
            "mode": self.config.mode,
            "injected": self.injected,
            "detected": self.detected,
            "repaired": self.repaired,
            "flagged": self.flagged,
            "escaped": self.escaped,
            "detection_rate": self.detection_rate(),
            "audited_pairs": self.audited_pairs,
            "audit_s": self.audit_spent_s,
            "audit_overhead_frac": (self.audit_spent_s / compute_s) if compute_s > 0 else 0.0,
            "transfer_detections": self.transfer_detections,
            "budget_skipped": self.budget_skipped,
            "unverified_tickets": self.unverified_tickets,
            "mean_detection_latency_s": (sum(lat) / len(lat)) if lat else 0.0,
            "max_detection_latency_s": max(lat, default=0.0),
            "blame": {
                "states": {str(d): self.blame_state[d] for d in range(self.num_devices)},
                "ewma": list(self.ewma),
                "detections": list(self.device_detections),
                "quarantined": self.quarantined_devices(),
                "transitions": list(self.blame_log),
            },
        }
