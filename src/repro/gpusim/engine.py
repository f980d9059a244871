"""Execution engine: replays pair→GPU assignments against the cluster.

The engine is the simulated runtime under every scheduler.  For each
assigned pair it resolves both inputs (reuse hit / D2D fetch / H2D
fetch), allocates the output, applies LRU evictions when the device is
oversubscribed, and charges the cost model's simulated seconds to the
owning device.  Optionally it also runs the *real* NumPy contraction
through a :class:`~repro.tensor.storage.TensorStore` so numeric
correctness can be asserted end-to-end.

One executor, :meth:`ExecutionEngine.execute_pair`, serves every
configuration.  A fault injector, an integrity ledger, a trace recorder
and a tensor store each add their work behind a single test, so a run
with a recorder attached simulates exactly what a bare run does.
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
        #: Per-device ``peak_gflops * 1e9`` cache for the kernel rate,
        #: keyed on the cluster's device-list identity (device specs are
        #: immutable; the list is only ever replaced wholesale).
        self._peak9: list[float] | None = None
        self._peak9_devices = None

    # ------------------------------------------------------------- single pair
    def execute_pair(self, pair: TensorPair, device_id: int, metrics: ExecutionMetrics) -> None:
        """Run one contraction on ``device_id``, accumulating into ``metrics``.

        One executor serves every attachment combination.  The injector,
        integrity ledger, trace recorder and tensor store are read into
        locals once per pair and each one's work sits behind a single
        ``is not None`` test, so a bare engine pays only those tests.
        Costs are the cost model's expressions in its own evaluation
        order (the kernel rate hoists ``peak * 1e9``, which associates
        left-to-right, so the float result is unchanged), and trace and
        fault events keep their per-lane order: host-staging, transfer
        fault, taint and cross-node notes, then evict → alloc → copy per
        input, then the output's evict → alloc, then the kernel.
        """
        cl = self.cluster
        devices = cl.devices
        if not (0 <= device_id < len(devices)):
            raise SchedulingError(f"device id {device_id} out of range 0..{len(devices) - 1}")
        if device_id not in cl._alive:
            raise DeviceLostError(device_id)
        injector = self.injector
        integrity = self.integrity
        trace = self.trace
        cm = self.cost_model
        counts = metrics.counts
        pool = cl.pools[device_id]
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
        # Memory-op seconds of this pair, accumulated locally so the
        # async-copy model can overlap them with the pair's kernel.
        pair_memop_s = 0.0

        # Resolve inputs.  A pair may reference the same tensor twice
        # (e.g. a hadron contracted with itself): it resolves once and
        # the second slot counts as a reuse hit.
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
            if holders and injector is not None and topo is not None and injector._linkless:
                # Partial-node degradation: a ``link_lost`` fault severs
                # a node's inter-node links while its devices stay
                # alive.  Holders unreachable over D2D are dropped; if
                # that empties the set the fetch is staged through the
                # host instead (the copy exists on-device, but only the
                # PCIe path can reach it).
                holders = injector.reachable_holders(holders, device_id, topo)
                if not holders:
                    injector.stats.host_staged_fetches += 1
                    self._note_fault(
                        "xnode", device_id, interconnect.h2d_time(nb),
                        f"host-staged fetch {uid} (links down)",
                    )
            if holders:
                # Fetch from the cheapest holder (ties break on the
                # lowest id) — on a multi-node Topology an intra-node
                # peer beats a remote one.
                d2d = True
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
            else:
                d2d = False
                source = None
                copy_t = interconnect.h2d_time(nb)
            if (
                injector is not None
                and injector._armed_transfer
                and injector.take_transfer_fault(device_id)
            ):
                # The fetch failed mid-flight: the attempt's link time
                # is wasted (the source keeps its copy) and the tensor
                # is recovered with a fresh fetch from the host.
                wasted_t = copy_t
                self._note_fault("fault", device_id, wasted_t, f"transfer {uid}")
                copy_t = interconnect.h2d_time(nb)
                d2d = False
                pair_memop_s += wasted_t
                injector.stats.transfer_refetches += 1
                injector.stats.record_recovery("transfer", wasted_t + copy_t)
                self._note_fault("retry", device_id, copy_t, f"refetch {uid}")
            elif d2d and cm.d2d_moves:
                # Single-residency runtime: the source copy migrates.
                cl.drop(uid, source, reason="migrate")
            if integrity is not None:
                if not d2d:
                    # Host copies are ground truth: a fresh H2D fetch
                    # replaces whatever (possibly tainted) copy the
                    # device had.
                    integrity.note_h2d(uid, device_id)
                else:
                    entry = integrity.note_d2d(uid, source, device_id)
                    if entry is not None and integrity.verify_transfers_active:
                        # Verify-on-receipt caught a checksum mismatch:
                        # the D2D attempt is wasted, both copies are
                        # invalidated, and the tensor is re-fetched from
                        # the host (clean), like a detected transfer
                        # fault.
                        wasted_t = copy_t
                        pair_memop_s += wasted_t
                        copy_t = interconnect.h2d_time(nb)
                        d2d = False
                        if cl.is_resident(uid, source):
                            cl.drop(uid, source, reason="corrupt")
                        now = injector.now if injector is not None else 0.0
                        integrity.transfer_detected(uid, source, device_id, entry, now)
                        self._note_fault(
                            "taint", device_id, wasted_t, f"corrupt transfer {uid} from {source}"
                        )
            if d2d:
                if topo is not None and not topo.same_node(source, device_id):
                    counts.cross_node_fetches += 1
                    if injector is not None:
                        # Traffic on the slow inter-node link: make the
                        # cross-node cost visible in the fault trace lanes.
                        injector.stats.cross_node_fetches += 1
                        self._note_fault(
                            "xnode", device_id, copy_t, f"cross-node fetch {uid} from {source}"
                        )
                counts.d2d_transfers += 1
            else:
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
                    pool._insertion[uid] = None
            else:
                evicted = pool.allocate(uid, nb, protect)
                if evicted:
                    pair_memop_s += self._settle_evictions(
                        evicted, counts, device_id, holders_map, journal, trace
                    )
            h = holders_map.get(uid)
            if h is None:
                holders_map[uid] = {device_id}
            else:
                h.add(device_id)
            if journal is not None:
                journal.note_put(uid, device_id, nb)
            alloc_t = alloc_latency + nb / alloc_bw
            pair_memop_s += alloc_t + copy_t
            counts.allocations += 1
            counts.transferred_bytes += nb
            if trace is not None:
                trace.record("alloc", device_id, alloc_t, uid=uid, nbytes=nb)
                trace.record("d2d" if d2d else "h2d", device_id, copy_t, uid=uid, nbytes=nb, label=spec.label)

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
                pool._insertion[out_uid] = None
        else:
            evicted = pool.allocate(out_uid, out_nb, protect)
            if evicted:
                pair_memop_s += self._settle_evictions(
                    evicted, counts, device_id, holders_map, journal, trace
                )
        h = holders_map.get(out_uid)
        if h is None:
            holders_map[out_uid] = {device_id}
        else:
            h.add(device_id)
        if journal is not None:
            journal.note_put(out_uid, device_id, out_nb)
        out_alloc_t = alloc_latency + out_nb / alloc_bw
        pair_memop_s += out_alloc_t
        counts.allocations += 1
        if trace is not None:
            trace.record("alloc", device_id, out_alloc_t, uid=out_uid, nbytes=out_nb)

        # Kernel; flops are computed once and reused for the
        # throughput counter.  Memory ops may overlap the kernel
        # (async-copy model).
        flops = pair_flops(pair)
        size = left.size
        if self._peak9_devices is not devices:
            self._peak9 = [d.peak_gflops * 1e9 for d in devices]
            self._peak9_devices = devices
        rate = self._peak9[device_id] * (size / (size + cm.efficiency_half_size))
        kt = cm.kernel_launch_s + flops / rate
        busy = kt
        if injector is not None:
            # The private reads skip calls that would find nothing: no
            # straggler window open (factor 1.0) or no kernel fault armed.
            if injector._slow:
                # Stragglers stretch the kernel for the window's duration.
                kt *= injector.compute_factor(device_id)
                busy = kt
            if injector._armed_kernel:
                busy = kt + self._retry_kernel(kt, device_id, metrics)
        if cm.overlap_fraction == 0.0:
            effective_memop = pair_memop_s
        else:
            effective_memop = cm.effective_memop_time(pair_memop_s, kt)
        metrics.compute_s[device_id] += busy
        metrics.memop_s[device_id] += effective_memop
        cl.compute_s[device_id] += busy
        cl.memop_s[device_id] += effective_memop
        metrics.total_flops += flops
        metrics.pairs_executed += 1
        metrics.pairs_per_device[device_id] += 1
        cl.assigned_slots[device_id] += 2
        if integrity is not None:
            # Silent-corruption draw: inside an armed window the kernel
            # may succeed while emitting a wrong output; the ledger
            # records where the output's checksum diverges (dirt also
            # derives from tainted inputs even without a fresh draw).
            corrupt = injector is not None and injector.take_corruption(device_id)
            integrity.note_compute(
                pair, device_id, corrupt, injector.now if injector is not None else 0.0
            )
        if trace is not None:
            trace.record("kernel", device_id, kt, uid=out_uid, label=out.label)
        if self.store is not None:
            self.store.execute_pair(pair)

    #: The executor :meth:`pair_runner` hands out: ``execute_pair`` under
    #: a second name, so a wrapper installed on ``execute_pair`` (e.g. a
    #: profiler) is not applied twice to runner calls.
    _execute = execute_pair

    def pair_runner(self):
        """The per-pair executor, for loops that bind it once per round.

        It is :meth:`execute_pair` itself: attachments are read on every
        call, so the bound executor stays valid when ``injector``,
        ``integrity``, ``trace`` or ``store`` change.
        """
        return self._execute

    def _retry_kernel(self, kt: float, device_id: int, metrics: ExecutionMetrics) -> float:
        """Consume the device's armed transient faults; returns the wasted seconds.

        Each armed failure wastes one kernel attempt plus an exponential
        backoff, all in simulated time; past the retry budget the wasted
        attempts are charged to the device and the pair is abandoned
        with :class:`~repro.errors.TransientFaultError`.
        """
        injector = self.injector
        fault_extra_s = 0.0
        attempt = 0
        while injector.take_kernel_fault(device_id):
            attempt += 1
            backoff = self.retry.backoff_s(attempt)
            fault_extra_s += kt + backoff
            injector.stats.transient_failures += 1
            self._note_fault("fault", device_id, kt, f"kernel attempt {attempt}")
            self._note_fault("retry", device_id, backoff, f"backoff {attempt}")
            if attempt >= self.retry.max_attempts:
                injector.stats.transient_abandoned += 1
                # The wasted attempts still occupied the device.
                metrics.compute_s[device_id] += fault_extra_s
                self.cluster.compute_s[device_id] += fault_extra_s
                raise TransientFaultError(
                    f"kernel on device {device_id} failed {attempt} times "
                    f"(retry budget {self.retry.max_attempts})"
                )
        if attempt:
            injector.stats.transient_recovered += 1
            injector.stats.record_recovery("transient", fault_extra_s)
        return fault_extra_s

    def _settle_evictions(self, evicted, counts, device_id, holders_map, journal, trace) -> float:
        """Settle one allocation's evictions; returns their memory-op seconds.

        Drops each victim from the holder index and the journal, counts
        it, records its ``evict`` trace event and sums the cost model's
        eviction time (same terms, same order, inlined).
        """
        cm = self.cost_model
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
            if trace is not None:
                trace.record("evict", device_id, ev_t, uid=r_uid, nbytes=nb)
        return total

    def _note_fault(self, kind: str, device_id: int, duration_s: float, label: str) -> None:
        """Log a fault-lifecycle event to the injector stats and the trace."""
        self.injector.stats.record_event(kind, device_id, self.injector.now, duration_s, label)
        if self.trace is not None:
            self.trace.record(kind, device_id, duration_s, label=label)

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
        free is skipped here.  The D2H copy is charged (and traced) only
        when the cost model's ``drain_writeback`` is on.
        """
        cl = self.cluster
        cm = self.cost_model
        trace = self.trace
        writeback = cm.drain_writeback
        holders_map = cl._holders
        pools = cl.pools
        journal = cl.journal
        for pair, dev in zip(vector.pairs, assignment):
            out = pair.out
            uid = out.uid
            dev = int(dev)
            holders = holders_map.get(uid)
            if holders is None or dev not in holders:
                continue
            if writeback:
                d2h_t = cm.interconnect.d2h_time(out.nbytes)
                metrics.memop_s[dev] += d2h_t
                cl.memop_s[dev] += d2h_t
                if trace is not None:
                    trace.record("drain", dev, d2h_t, uid=uid, nbytes=out.nbytes)
            # ClusterState.drop, inlined.
            if pools[dev].free(uid):
                holders.discard(dev)
                if not holders:
                    del holders_map[uid]
                if journal is not None:
                    journal.note_drop(uid, dev, "drain")
