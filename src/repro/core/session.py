"""Run-session driver: schedule and execute a vector stream.

Implements the Fig. 6 workflow: per vector, (1) measure data
characteristics and (2) run regression inference to obtain reuse bounds
(when a predictor is attached and the scheduler accepts bounds), then
(3) schedule pair-by-pair and execute on the simulated cluster.
Without a predictor the loop does only per-pair work: the per-vector
records are built when :attr:`RunResult.per_vector` is first read.

The whole stream is known before it runs, so after each pair every
tensor that pair reads for the last time is demoted on every device
holding it (:meth:`ClusterState.demote`): eviction takes dead tensors
before live ones.

Real wall-clock time of the scheduling decisions and of the model
inference is measured separately (Table V's overhead split); simulated
device time comes from the execution metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

from repro.gpusim.cluster import ClusterState
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.schedulers.base import Scheduler
from repro.tensor.spec import VectorSpec
from repro.utils.timing import Stopwatch
from repro.workloads.characteristics import CharacteristicsTracker


@dataclass
class RunResult:
    """Outcome of one scheduled stream.

    The per-vector records (:attr:`per_vector`) are built on first read
    from what the run kept of each vector, so a run that never reads
    them pays only for its pairs.
    """

    metrics: ExecutionMetrics
    #: Real seconds spent inside scheduler decisions (Alg. 1 + Alg. 2).
    schedule_overhead_s: float = 0.0
    #: Real seconds spent in regression-model inference.
    inference_overhead_s: float = 0.0
    #: Local-reuse-pattern histogram ({pattern name: count}) when the
    #: scheduler classifies pairs (MICCO); empty otherwise.
    pattern_counts: dict[str, int] = field(default_factory=dict)
    #: One ``(vector, metrics, characteristics, bounds, assignment)``
    #: tuple per vector, in stream order; ``characteristics`` is None
    #: unless a predictor needed it during the run.
    records: list[tuple] = field(default_factory=list, repr=False)

    @cached_property
    def per_vector(self) -> list[dict]:
        """Per-vector summaries (gflops, counters, characteristics,
        bounds used, assignment), built on first read.

        Characteristics the run did not measure are measured here by a
        fresh tracker replayed over the stream in order, which is what
        the run's own tracker would have seen: each run starts one.
        """
        tracker = CharacteristicsTracker()
        per_vector = []
        for vector, metrics, chars, bounds, assignment in self.records:
            summary = metrics.summary()
            summary["vector_id"] = vector.vector_id
            summary["characteristics"] = chars if chars is not None else tracker.observe(vector)
            summary["bounds"] = bounds
            summary["assignment"] = assignment
            per_vector.append(summary)
        return per_vector

    @property
    def total_overhead_s(self) -> float:
        return self.schedule_overhead_s + self.inference_overhead_s

    @property
    def gflops(self) -> float:
        return self.metrics.gflops

    @property
    def makespan_s(self) -> float:
        return self.metrics.makespan_s


def last_uses(vectors: list[VectorSpec], keep_outputs: bool) -> list[list[int]]:
    """For each vector of the stream and each of its pairs, which of the
    pair's tensors no later pair uses: bit 0 the left input, bit 1 the
    right input, bit 2 the output.

    One backward pass: a uid not met yet is at its last use.  With
    ``keep_outputs`` off, the drain at the end of its vector is an
    output's last use (and frees it at no writeback cost), so no output
    bit is set.  The codes are small ints, which CPython caches: a
    tuple of uids per pair would make the garbage collector run during
    the stream.
    """
    seen: set[int] = set()
    if not keep_outputs:
        seen.update(pair.out.uid for vector in vectors for pair in vector.pairs)
    add = seen.add
    codes: list[list[int]] = []
    # Unrolled over the pair's three tensors: a loop over them costs
    # twice as much.
    for vector in reversed(vectors):
        per_pair = []
        for pair in reversed(vector.pairs):
            code = 0
            uid = pair.out.uid
            if uid not in seen:
                add(uid)
                code = 4
            uid = pair.right.uid
            if uid not in seen:
                add(uid)
                code |= 2
            uid = pair.left.uid
            if uid not in seen:
                add(uid)
                code |= 1
            per_pair.append(code)
        per_pair.reverse()
        codes.append(per_pair)
    codes.reverse()
    return codes


def run_stream(
    vectors: list[VectorSpec],
    scheduler: Scheduler,
    cluster: ClusterState,
    engine: ExecutionEngine,
    *,
    predictor=None,
    keep_outputs: bool = False,
    reset_cluster: bool = True,
) -> RunResult:
    """Schedule and execute ``vectors`` with ``scheduler`` on ``cluster``.

    Parameters
    ----------
    predictor:
        Optional object with ``predict_bounds(chars) -> ReuseBounds``;
        used only if the scheduler exposes ``set_bounds`` (i.e. MICCO).
    keep_outputs:
        Forwarded to the engine's output-drain behaviour.
    reset_cluster:
        Start from an empty cluster (the default for experiments).
    """
    if reset_cluster:
        cluster.reset()
        if hasattr(scheduler, "reset_stats"):
            scheduler.reset_stats()
    sw = Stopwatch()
    total = ExecutionMetrics(num_devices=cluster.num_devices)
    records: list[tuple] = []
    wants_bounds = predictor is not None and hasattr(scheduler, "set_bounds")
    # Characteristics are measured during the run only for the
    # predictor; RunResult.per_vector measures them on demand otherwise.
    tracker = CharacteristicsTracker() if wants_bounds else None
    choose = scheduler.choose
    execute_pair = engine.execute_pair
    demote = cluster.demote

    for vector, last in zip(vectors, last_uses(vectors, keep_outputs)):
        chars = bounds_used = None
        if wants_bounds:
            chars = tracker.observe(vector)
            with sw.measure("inference"):
                bounds = predictor.predict_bounds(chars)
            scheduler.set_bounds(bounds)
            bounds_used = bounds.as_tuple()

        cluster.begin_vector(vector.num_tensors)
        # Inline clock reads: a Stopwatch context per decision costs ~1 µs.
        t0 = perf_counter()
        scheduler.begin_vector(vector, cluster)
        schedule_s = perf_counter() - t0
        vec_metrics = ExecutionMetrics(num_devices=cluster.num_devices)
        assignment: list[int] = []
        for pair, dead in zip(vector.pairs, last):
            t0 = perf_counter()
            g = choose(pair, cluster)
            schedule_s += perf_counter() - t0
            execute_pair(pair, g, vec_metrics)
            assignment.append(g)
            if dead & 1:
                demote(pair.left.uid)
            if dead & 2:
                demote(pair.right.uid)
            if dead & 4:
                demote(pair.out.uid)
        sw.add("schedule", schedule_s)
        if not keep_outputs:
            engine.drain_outputs(vector, assignment, vec_metrics)
        records.append((vector, vec_metrics, chars, bounds_used, assignment))
        total.merge(vec_metrics)

    pattern_counts: dict[str, int] = {}
    if hasattr(scheduler, "pattern_counts"):
        pattern_counts = {p.value: n for p, n in scheduler.pattern_counts.items()}
    return RunResult(
        metrics=total,
        schedule_overhead_s=sw.total("schedule"),
        inference_overhead_s=sw.total("inference"),
        pattern_counts=pattern_counts,
        records=records,
    )
