"""Execution engine: replays pair→GPU assignments against the cluster.

The engine is the simulated runtime under every scheduler.  For each
assigned pair it resolves both inputs (reuse hit / D2D fetch / H2D
fetch), allocates the output, applies LRU evictions when the device is
oversubscribed, and charges the cost model's simulated seconds to the
owning device.  Optionally it also runs the *real* NumPy contraction
through a :class:`~repro.tensor.storage.TensorStore` so numeric
correctness can be asserted end-to-end.
"""

from __future__ import annotations

from repro.errors import DeviceLostError, SchedulingError, TransientFaultError
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RetryPolicy
from repro.gpusim.cluster import ClusterState
from repro.gpusim.costmodel import CostModel
from repro.gpusim.metrics import ExecutionMetrics
from repro.gpusim.trace import TraceRecorder
from repro.tensor.flops import pair_flops
from repro.tensor.spec import TensorPair, VectorSpec
from repro.tensor.storage import TensorStore


class ExecutionEngine:
    """Applies assignments to a :class:`ClusterState` and accounts costs.

    Parameters
    ----------
    cluster:
        Shared cluster state (mutated in place).
    cost_model:
        Maps events to simulated seconds.
    store:
        Optional host tensor store; when given, every pair's contraction
        is actually computed with NumPy (slow, for validation/examples).
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; when
        set, kernels and fetches consult it for armed faults and
        straggler slowdowns, and recovery costs (retries, backoff,
        host re-fetches) are charged in simulated time.
    retry:
        Transient-fault retry budget (defaults to
        :class:`~repro.faults.recovery.RetryPolicy`'s defaults); only
        consulted when an injector is present.
    """

    def __init__(
        self,
        cluster: ClusterState,
        cost_model: CostModel | None = None,
        store: TensorStore | None = None,
        trace: "TraceRecorder | None" = None,
        injector: "FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
    ):
        self.cluster = cluster
        self.cost_model = cost_model or CostModel()
        self.store = store
        #: Optional event recorder; events carry raw (pre-overlap) durations.
        self.trace = trace
        #: Optional fault source; set per run by chaos drivers.
        self.injector = injector
        #: Optional :class:`~repro.integrity.IntegrityState`; set per run
        #: by serving loops running with an ``integrity`` block.  When
        #: attached alongside an injector, kernels draw silent-corruption
        #: Bernoullis, the checksum ledger tracks tainted copies, and
        #: D2D fetches verify-on-receipt (a mismatch falls back to a
        #: clean host fetch, like a detected transfer fault).
        self.integrity = None
        self.retry = retry or RetryPolicy()
        #: Per-device ``peak_gflops * 1e9`` cache for the fast path,
        #: keyed on the cluster's device-list identity (device specs are
        #: immutable; the list is only ever replaced wholesale).
        self._peak9: list[float] | None = None
        self._peak9_devices = None

    # ------------------------------------------------------------- single pair
    def execute_pair(self, pair: TensorPair, device_id: int, metrics: ExecutionMetrics) -> None:
        """Run one contraction on ``device_id``, accumulating into ``metrics``."""
        if self.injector is None and self.trace is None and self.store is None:
            return self._execute_pair_fast(pair, device_id, metrics)
        return self._execute_pair_full(pair, device_id, metrics)

    def pair_runner(self):
        """The per-pair executor for the engine's *current* attachments.

        Serving loops bind this once per scheduling round instead of
        paying the dispatch check on every pair.  Must be re-fetched
        whenever ``injector``/``trace``/``store`` change.
        """
        if self.injector is None and self.trace is None and self.store is None:
            return self._execute_pair_fast
        return self._execute_pair_full

    def _execute_pair_full(self, pair: TensorPair, device_id: int, metrics: ExecutionMetrics) -> None:
        """General path: fault injection, tracing, and real math."""
        cl = self.cluster
        if not (0 <= device_id < cl.num_devices):
            raise SchedulingError(f"device id {device_id} out of range 0..{cl.num_devices - 1}")
        if not cl.is_alive(device_id):
            raise DeviceLostError(device_id)
        cm = self.cost_model
        protect = {pair.left.uid, pair.right.uid, pair.out.uid}

        # Memory-op seconds of this pair, accumulated locally so the
        # async-copy model can overlap them with the pair's kernel.
        pair_memop_s = 0.0

        # Resolve inputs.  A pair may reference the same tensor twice
        # (e.g. a hadron contracted with itself); fetch it once.
        resolved: set[int] = set()
        for spec in pair.inputs:
            if spec.uid in resolved:
                metrics.counts.reuse_hits += 1
                continue
            resolved.add(spec.uid)
            if cl.is_resident(spec.uid, device_id):
                metrics.counts.reuse_hits += 1
                cl.touch(spec.uid, device_id)
                continue
            holders = cl.devices_holding(spec.uid)
            host_staged = False
            if holders and self.injector is not None and cm.topology is not None:
                # Partial-node degradation: a ``link_lost`` fault severs
                # a node's inter-node links while its devices stay
                # alive.  Holders unreachable over D2D are dropped; if
                # that empties the set the fetch is staged through the
                # host instead (the copy exists on-device, but only the
                # PCIe path can reach it).
                reachable = self.injector.reachable_holders(holders, device_id, cm.topology)
                if not reachable:
                    host_staged = True
                    self.injector.stats.host_staged_fetches += 1
                holders = reachable
            if holders:
                # Fetch from the cheapest holder (ties break on lowest
                # id) — on a multi-node Topology an intra-node peer
                # beats a remote one.
                source = min(holders, key=lambda h: (cm.d2d_time(spec.nbytes, src=h, dst=device_id), h))
                copy_t = cm.d2d_time(spec.nbytes, src=source, dst=device_id)
                copy_kind = "d2d"
            else:
                source = None
                copy_t = cm.h2d_time(spec.nbytes)
                copy_kind = "h2d"
                if host_staged:
                    self._note_fault(
                        "xnode", device_id, copy_t, f"host-staged fetch {spec.uid} (links down)"
                    )
            if self.injector is not None and self.injector.take_transfer_fault(device_id):
                # The fetch failed mid-flight: the attempt's link time
                # is wasted (the source keeps its copy) and the tensor
                # is recovered with a fresh fetch from the host.
                wasted_t = copy_t
                self._note_fault("fault", device_id, wasted_t, f"transfer {spec.uid}")
                copy_t = cm.h2d_time(spec.nbytes)
                copy_kind = "h2d"
                pair_memop_s += wasted_t
                self.injector.stats.transfer_refetches += 1
                self.injector.stats.record_recovery("transfer", wasted_t + copy_t)
                self._note_fault("retry", device_id, copy_t, f"refetch {spec.uid}")
            elif copy_kind == "d2d" and cm.d2d_moves:
                # Single-residency runtime: the source copy migrates.
                cl.drop(spec.uid, source, reason="migrate")
            if self.integrity is not None:
                if copy_kind == "h2d":
                    # Host copies are ground truth: a fresh H2D fetch
                    # replaces whatever (possibly tainted) copy the
                    # device had.
                    self.integrity.note_h2d(spec.uid, device_id)
                else:
                    entry = self.integrity.note_d2d(spec.uid, source, device_id)
                    if entry is not None and self.integrity.verify_transfers_active:
                        # Verify-on-receipt caught a checksum mismatch:
                        # the D2D attempt is wasted, both copies are
                        # invalidated, and the tensor is re-fetched from
                        # the host (clean), like a detected transfer
                        # fault.
                        wasted_t = copy_t
                        pair_memop_s += wasted_t
                        copy_t = cm.h2d_time(spec.nbytes)
                        copy_kind = "h2d"
                        if cl.is_resident(spec.uid, source):
                            cl.drop(spec.uid, source, reason="corrupt")
                        now = self.injector.now if self.injector is not None else 0.0
                        self.integrity.transfer_detected(
                            spec.uid, source, device_id, entry, now
                        )
                        self._note_fault(
                            "taint",
                            device_id,
                            wasted_t,
                            f"corrupt transfer {spec.uid} from {source}",
                        )
            if (
                copy_kind == "d2d"
                and cm.topology is not None
                and not cm.topology.same_node(source, device_id)
            ):
                metrics.counts.cross_node_fetches += 1
                if self.injector is not None:
                    # Traffic on the slow inter-node link: make the
                    # cross-node cost visible in the fault trace lanes.
                    self.injector.stats.cross_node_fetches += 1
                    self._note_fault(
                        "xnode", device_id, copy_t, f"cross-node fetch {spec.uid} from {source}"
                    )
            if copy_kind == "d2d":
                metrics.counts.d2d_transfers += 1
            else:
                metrics.counts.h2d_transfers += 1
            evicted = cl.register(spec, device_id, protect=protect)
            pair_memop_s += self._charge_evictions(evicted, metrics, device_id)
            alloc_t = cm.alloc_time(spec.nbytes)
            pair_memop_s += alloc_t + copy_t
            metrics.counts.allocations += 1
            metrics.counts.transferred_bytes += spec.nbytes
            if self.trace is not None:
                self.trace.record("alloc", device_id, alloc_t, uid=spec.uid, nbytes=spec.nbytes)
                self.trace.record(copy_kind, device_id, copy_t, uid=spec.uid, nbytes=spec.nbytes, label=spec.label)

        # Allocate the output on the same device.
        evicted = cl.register(pair.out, device_id, protect=protect)
        pair_memop_s += self._charge_evictions(evicted, metrics, device_id)
        out_alloc_t = cm.alloc_time(pair.out.nbytes)
        pair_memop_s += out_alloc_t
        metrics.counts.allocations += 1
        if self.trace is not None:
            self.trace.record("alloc", device_id, out_alloc_t, uid=pair.out.uid, nbytes=pair.out.nbytes)

        # Kernel; memory ops may overlap it (async-copy model).
        kt = cm.kernel_time(pair, cl.devices[device_id])
        fault_extra_s = 0.0
        if self.injector is not None:
            # Stragglers stretch the kernel for the window's duration.
            kt *= self.injector.compute_factor(device_id)
            # Transient faults: each armed failure wastes one kernel
            # attempt plus an exponential backoff, all in simulated
            # time; past the retry budget the pair is abandoned.
            attempt = 0
            while self.injector.take_kernel_fault(device_id):
                attempt += 1
                backoff = self.retry.backoff_s(attempt)
                fault_extra_s += kt + backoff
                self.injector.stats.transient_failures += 1
                self._note_fault("fault", device_id, kt, f"kernel attempt {attempt}")
                self._note_fault("retry", device_id, backoff, f"backoff {attempt}")
                if attempt >= self.retry.max_attempts:
                    self.injector.stats.transient_abandoned += 1
                    # The wasted attempts still occupied the device.
                    metrics.compute_s[device_id] += fault_extra_s
                    cl.add_compute(device_id, fault_extra_s)
                    raise TransientFaultError(
                        f"kernel on device {device_id} failed {attempt} times "
                        f"(retry budget {self.retry.max_attempts})"
                    )
            if attempt:
                self.injector.stats.transient_recovered += 1
                self.injector.stats.record_recovery("transient", fault_extra_s)
        effective_memop = cm.effective_memop_time(pair_memop_s, kt)
        metrics.compute_s[device_id] += kt + fault_extra_s
        metrics.memop_s[device_id] += effective_memop
        cl.add_compute(device_id, kt + fault_extra_s)
        cl.add_memop(device_id, effective_memop)
        metrics.total_flops += pair_flops(pair)
        metrics.pairs_executed += 1
        metrics.pairs_per_device[device_id] += 1
        cl.record_assignment(device_id, 2)
        if self.integrity is not None:
            # Silent-corruption draw: inside an armed window the kernel
            # may succeed while emitting a wrong output; the ledger
            # records where the output's checksum diverges (dirt also
            # derives from tainted inputs even without a fresh draw).
            corrupt = self.injector is not None and self.injector.take_corruption(device_id)
            self.integrity.note_compute(
                pair,
                device_id,
                corrupt,
                self.injector.now if self.injector is not None else 0.0,
            )
        if self.trace is not None:
            self.trace.record("kernel", device_id, kt, uid=pair.out.uid, label=pair.out.label)

        if self.store is not None:
            self.store.execute_pair(pair)

    def _execute_pair_fast(self, pair: TensorPair, device_id: int, metrics: ExecutionMetrics) -> None:
        """:meth:`execute_pair` fused for the serving hot path.

        Active when no injector, trace recorder, or tensor store is
        attached (the serving-loop configuration).  Bit-identical
        accounting to the general path — the same cost expressions in
        the same evaluation order — with per-pair invariants hoisted,
        holder sets read in place instead of copied, and fault/trace
        branches dropped.
        """
        cl = self.cluster
        if not (0 <= device_id < cl.num_devices):
            raise SchedulingError(f"device id {device_id} out of range 0..{cl.num_devices - 1}")
        if device_id not in cl._alive:
            raise DeviceLostError(device_id)
        cm = self.cost_model
        counts = metrics.counts
        pools = cl.pools
        pool = pools[device_id]
        holders_map = cl._holders
        journal = cl.journal
        interconnect = cm.interconnect
        topo = cm.topology
        alloc_latency = cm.alloc_latency_s
        alloc_bw = cm.alloc_bandwidth
        left, right, out = pair.left, pair.right, pair.out
        # A tuple is cheaper to build than a set and `in` over three
        # elements beats hashing at this size.
        protect = (left.uid, right.uid, out.uid)
        pair_memop_s = 0.0

        # Resolve inputs; a duplicated input resolves once and the
        # second slot counts as a reuse hit (same as the general path's
        # ``resolved`` set, without building it).
        if right.uid == left.uid:
            inputs = (left,)
            counts.reuse_hits += 1
        else:
            inputs = (left, right)
        for spec in inputs:
            uid = spec.uid
            holders = holders_map.get(uid)
            if holders is not None and device_id in holders:
                counts.reuse_hits += 1
                pool.touch(uid)
                continue
            nb = spec.nbytes
            if holders:
                if topo is None:
                    # Constant D2D cost: the tie break picks the lowest id.
                    source = min(holders)
                    copy_t = interconnect.d2d_time(nb)
                else:
                    if len(holders) == 1:
                        # Single holder (the common case under
                        # ``d2d_moves``): no tie break to run.
                        source = next(iter(holders))
                    else:
                        lat = interconnect.latency_s
                        source = min(
                            holders, key=lambda h: (topo.d2d_time(h, device_id, nb, lat), h)
                        )
                    copy_t = topo.d2d_time(source, device_id, nb, interconnect.latency_s)
                if cm.d2d_moves:
                    cl.drop(uid, source, reason="migrate")
                if topo is not None and not topo.same_node(source, device_id):
                    counts.cross_node_fetches += 1
                counts.d2d_transfers += 1
            else:
                copy_t = interconnect.h2d_time(nb)
                counts.h2d_transfers += 1
            # Inline ClusterState.register: pool allocation plus holder-
            # index and journal maintenance, without the call layers.
            # The non-evicting insert (fits, not yet resident) skips the
            # allocate() call entirely; anything else — oversubscribed
            # or idempotent — takes the full path.
            resident = pool._resident
            if nb <= pool.capacity_bytes - pool._used and uid not in resident:
                resident[uid] = nb
                pool._used += nb
                if pool._track_insertion:
                    pool._insertion[uid] = pool._clock
                    pool._clock += 1
            else:
                evicted = pool.allocate(uid, nb, protect)
                if evicted:
                    pair_memop_s += self._settle_evictions(
                        evicted, metrics, device_id, holders_map, journal, cm
                    )
            h = holders_map.get(uid)
            if h is None:
                holders_map[uid] = {device_id}
            else:
                h.add(device_id)
            if journal is not None:
                journal.note_put(uid, device_id, nb)
            pair_memop_s += alloc_latency + nb / alloc_bw + copy_t
            counts.allocations += 1
            counts.transferred_bytes += nb

        # Allocate the output on the same device (same inline shape as
        # the inputs; a hedged re-execution's already-resident output
        # falls through to allocate()'s idempotent branch).
        out_uid = out.uid
        out_nb = out.nbytes
        resident = pool._resident
        if out_nb <= pool.capacity_bytes - pool._used and out_uid not in resident:
            resident[out_uid] = out_nb
            pool._used += out_nb
            if pool._track_insertion:
                pool._insertion[out_uid] = pool._clock
                pool._clock += 1
        else:
            evicted = pool.allocate(out_uid, out_nb, protect)
            if evicted:
                pair_memop_s += self._settle_evictions(
                    evicted, metrics, device_id, holders_map, journal, cm
                )
        h = holders_map.get(out_uid)
        if h is None:
            holders_map[out_uid] = {device_id}
        else:
            h.add(device_id)
        if journal is not None:
            journal.note_put(out_uid, device_id, out_nb)
        pair_memop_s += alloc_latency + out_nb / alloc_bw
        counts.allocations += 1

        # Kernel; flops are computed once and reused for the
        # throughput counter.
        flops = pair_flops(pair)
        size = left.size
        devices = cl.devices
        if self._peak9_devices is not devices:
            self._peak9 = [d.peak_gflops * 1e9 for d in devices]
            self._peak9_devices = devices
        # ``peak * 1e9 * eff`` associates left-to-right, so hoisting the
        # first product preserves the exact float result.
        rate = self._peak9[device_id] * (size / (size + cm.efficiency_half_size))
        kt = cm.kernel_launch_s + flops / rate
        if cm.overlap_fraction == 0.0:
            effective_memop = pair_memop_s
        else:
            effective_memop = cm.effective_memop_time(pair_memop_s, kt)
        metrics.compute_s[device_id] += kt
        metrics.memop_s[device_id] += effective_memop
        cl.compute_s[device_id] += kt
        cl.memop_s[device_id] += effective_memop
        metrics.total_flops += flops
        metrics.pairs_executed += 1
        metrics.pairs_per_device[device_id] += 1
        cl.assigned_slots[device_id] += 2

    def _settle_evictions(self, evicted, metrics, device_id, holders_map, journal, cm) -> float:
        """Fast-path eviction settlement: holder index + counters + cost.

        Fuses what the general path splits between
        :meth:`ClusterState.register` (holder/journal bookkeeping) and
        :meth:`_charge_evictions` (cost + counters), with the eviction
        cost expression inlined — same terms, same order.
        """
        counts = metrics.counts
        writeback = cm.eviction_writeback
        ev_lat = cm.eviction_latency_s
        interconnect = cm.interconnect
        total = 0.0
        for r in evicted:
            r_uid = r.uid
            holders = holders_map.get(r_uid)
            if holders is not None:
                holders.discard(device_id)
                if not holders:
                    del holders_map[r_uid]
            if journal is not None:
                journal.note_drop(r_uid, device_id, "evict")
            nb = r.nbytes
            ev_t = ev_lat
            if writeback:
                ev_t += interconnect.d2h_time(nb)
            total += ev_t
            counts.evictions += 1
            counts.eviction_bytes += nb
        return total

    def _note_fault(self, kind: str, device_id: int, duration_s: float, label: str) -> None:
        """Log a fault-lifecycle event to the injector stats and the trace."""
        self.injector.stats.record_event(kind, device_id, self.injector.now, duration_s, label)
        if self.trace is not None:
            self.trace.record(kind, device_id, duration_s, label=label)

    def _charge_evictions(self, evicted, metrics: ExecutionMetrics, device_id: int) -> float:
        """Account eviction counters; returns their memory-op seconds."""
        total = 0.0
        for r in evicted:
            ev_t = self.cost_model.eviction_time(r.nbytes)
            total += ev_t
            metrics.counts.evictions += 1
            metrics.counts.eviction_bytes += r.nbytes
            if self.trace is not None:
                self.trace.record("evict", device_id, ev_t, uid=r.uid, nbytes=r.nbytes)
        return total

    # ------------------------------------------------------------ full vector
    def execute_vector(
        self,
        vector: VectorSpec,
        assignment: list[int],
        *,
        keep_outputs: bool = False,
    ) -> ExecutionMetrics:
        """Execute every pair of ``vector`` per ``assignment``.

        ``assignment[i]`` is the device for ``vector.pairs[i]``.  With
        ``keep_outputs=False`` (the synthetic-benchmark default) outputs
        are drained back to the host after the vector — paying one D2H
        transfer each — and freed; with ``keep_outputs=True`` (the
        Redstar multi-stage pipeline) they stay resident to be reused as
        next-stage inputs.
        """
        if len(assignment) != len(vector.pairs):
            raise SchedulingError(
                f"assignment length {len(assignment)} != vector pairs {len(vector.pairs)}"
            )
        metrics = ExecutionMetrics(num_devices=self.cluster.num_devices)
        self.cluster.begin_vector(vector.num_tensors)
        for i, (pair, dev) in enumerate(zip(vector.pairs, assignment)):
            try:
                self.execute_pair(pair, int(dev), metrics)
            except DeviceLostError as exc:
                # Point at the offending slot so recovery (or a human)
                # knows exactly which pairs are orphaned.
                raise DeviceLostError(exc.device_id, pair_index=i) from None
        if not keep_outputs:
            self.drain_outputs(vector, assignment, metrics)
        return metrics

    def drain_outputs(self, vector: VectorSpec, assignment: list[int], metrics: ExecutionMetrics) -> None:
        """Copy every vector output back to the host and free it.

        The output may already have been evicted (oversubscription); in
        that case the writeback happened at eviction time and only the
        free is skipped here.
        """
        cm = self.cost_model
        if self.trace is None and not cm.drain_writeback:
            # No cost is charged and nothing is recorded: drop each
            # still-resident output directly against the pool and the
            # holder index (same effect as ``is_resident`` + ``drop``).
            cl = self.cluster
            holders_map = cl._holders
            pools = cl.pools
            journal = cl.journal
            for pair, dev in zip(vector.pairs, assignment):
                uid = pair.out.uid
                dev = int(dev)
                holders = holders_map.get(uid)
                if holders is None or dev not in holders:
                    continue
                if pools[dev].free(uid):
                    holders.discard(dev)
                    if not holders:
                        del holders_map[uid]
                    if journal is not None:
                        journal.note_drop(uid, dev, "drain")
            return
        for pair, dev in zip(vector.pairs, assignment):
            dev = int(dev)
            if self.cluster.is_resident(pair.out.uid, dev):
                if cm.drain_writeback:
                    d2h_t = cm.interconnect.d2h_time(pair.out.nbytes)
                    metrics.memop_s[dev] += d2h_t
                    self.cluster.add_memop(dev, d2h_t)
                    if self.trace is not None:
                        self.trace.record("drain", dev, d2h_t, uid=pair.out.uid, nbytes=pair.out.nbytes)
                self.cluster.drop(pair.out.uid, dev)
