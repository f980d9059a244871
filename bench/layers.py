"""Outside-in per-layer tracing by wrapping each layer's public functions.

:class:`LayerTracer` monkeypatches the functions named in :data:`LAYERS`
from outside the library (``src/`` is not touched).  Every wrapped call
is a span; a layer's self time is its spans' time minus the time of
the spans nested inside them.  The calibrated cost of an empty wrapper
is charged to each nested call rather than to its caller, where the
wrapper's own bookkeeping would otherwise land.  Accumulators cover the
whole traced run; a bounded sample of raw spans (name, start, end,
parent) is kept for a Chrome trace.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns

#: layer -> (module, attribute path) of every wrapped callable.  Module
#: functions are patched where they are *used*, because the serving
#: loops import them by name.  ``ExecutionEngine.pair_runner`` is
#: special-cased: the executor it returns is wrapped.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "timeline": (
        ("repro.serve.timeline", "Timeline.push"),
        ("repro.serve.timeline", "Timeline.pop"),
    ),
    "queueing": (
        ("repro.serve.queueing", "AdmissionQueue.offer"),
        ("repro.serve.queueing", "AdmissionQueue.pop"),
        ("repro.serve.queueing", "AdmissionQueue.pop_batch"),
    ),
    "batching": (
        ("repro.serve.server", "merge_vectors"),
        ("repro.serve.server", "split_assignment"),
        ("repro.serve.sharded.server", "merge_vectors"),
        ("repro.serve.sharded.server", "split_assignment"),
    ),
    "routing": (
        ("repro.serve.sharded.server", "GlobalScheduler.route"),
        ("repro.serve.sharded.server", "GlobalScheduler.sync"),
        ("repro.serve.sharded.server", "GlobalScheduler.charge"),
        ("repro.serve.sharded.server", "GlobalScheduler.discharge"),
        ("repro.serve.sharded.server", "GlobalScheduler.note_completion"),
    ),
    "learned": (
        ("repro.serve.sharded.learned", "LearnedRouting.choose"),
        ("repro.serve.sharded.learned", "LearnedRouting.note_outcome"),
        ("repro.ml.online", "SlidingWindowRegressor.observe"),
        ("repro.ml.online", "SlidingWindowRegressor.predict_one"),
    ),
    "health": (
        ("repro.serve.health", "HealthMonitor.beat"),
        ("repro.serve.health", "HealthMonitor.evaluate"),
        ("repro.serve.health", "CircuitBreaker.allow"),
    ),
    "placement": (("repro.schedulers.micco", "MiccoScheduler.choose"),),
    "costmodel": (("repro.gpusim.costmodel", "CostModel.score_batch"),),
    "engine": (
        ("repro.gpusim.engine", "ExecutionEngine.execute_pair"),
        ("repro.gpusim.engine", "ExecutionEngine.pair_runner"),
        ("repro.gpusim.engine", "ExecutionEngine.drain_outputs"),
    ),
    "memory": (
        ("repro.gpusim.memory", "MemoryPool.allocate"),
        ("repro.gpusim.memory", "MemoryPool.free"),
        ("repro.gpusim.cluster", "ClusterState.register"),
        ("repro.gpusim.cluster", "ClusterState.drop"),
    ),
    "integrity": (
        ("repro.integrity", "IntegrityState.note_compute"),
        ("repro.integrity", "IntegrityState.note_h2d"),
        ("repro.integrity", "IntegrityState.note_d2d"),
        ("repro.integrity", "IntegrityState.sampled"),
        ("repro.integrity", "IntegrityState.audit_detected"),
    ),
    "faults": (("repro.faults.injector", "FaultInjector.poll"),),
    "trace": (
        ("repro.gpusim.trace", "TraceRecorder.record"),
        ("repro.gpusim.trace", "TraceRecorder.record_at"),
    ),
    "slo": (
        ("repro.serve.slo", "LatencyReport.add_completion"),
        ("repro.serve.slo", "LatencyReport.add_drop"),
        ("repro.serve.server", "ServeResult.summary"),
    ),
    "workloads": (
        ("repro.serve.server", "build_streams"),
        ("repro.serve.sharded.server", "build_streams"),
        ("repro.workloads.synth", "SyntheticWorkload.vectors"),
        ("repro.redstar.pipeline", "RedstarPipeline.vectors"),
    ),
}

#: Raw spans kept for the Chrome trace; accumulators are unbounded.
MAX_SPANS = 50_000


class LayerTracer:
    """Per-layer call counts and self time, plus a bounded span sample."""

    def __init__(self):
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.width_sum = 0  # candidates scored by CostModel.score_batch
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent index
        self._stack: list[list] = []  # [child ns, span index] per open span
        self._undo: list[tuple[object, str, object]] = []
        self.wrapper_ns = 0.0

    # ------------------------------------------------------------ wrappers
    def _wrap(self, layer: str, name: str, fn):
        calls, self_ns, spans, stack = self.calls, self.self_ns, self.spans, self._stack
        overhead = self.wrapper_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            if index < MAX_SPANS:
                spans.append((name, 0, 0, parent))
            else:
                index = -1
            frame = [0, index]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                total = t1 - t0
                calls[layer] += 1
                self_ns[layer] += total - frame[0]
                if stack:
                    stack[-1][0] += total + overhead
                if index >= 0:
                    spans[index] = (name, t0, t1, parent)

        return span

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "LayerTracer":
        """Wrap every callable in :data:`LAYERS`; :meth:`uninstall` undoes it."""
        self.wrapper_ns = self._calibrate()
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = owner.__dict__[attr]
                name = f"{layer}:{path}"
                if path == "ExecutionEngine.pair_runner":
                    self._patch(owner, attr, self._wrap_runner(layer, name, fn))
                elif path == "CostModel.score_batch":
                    self._patch(owner, attr, self._wrap(layer, name, self._count_width(fn)))
                else:
                    self._patch(owner, attr, self._wrap(layer, name, fn))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap_runner(self, layer: str, name: str, pair_runner):
        wrap = self._wrap

        @functools.wraps(pair_runner)
        def traced_pair_runner(engine):
            return wrap(layer, name + "()", pair_runner(engine))

        return traced_pair_runner

    def _count_width(self, score_batch):
        @functools.wraps(score_batch)
        def counted(cost_model, device_ids, *args, **kwargs):
            self.width_sum += len(device_ids)
            return score_batch(cost_model, device_ids, *args, **kwargs)

        return counted

    def _calibrate(self, n: int = 100_000) -> float:
        """Per-call cost (ns) of an empty wrapper, over a bare call."""

        def noop():
            return None

        probe = LayerTracer()
        wrapped = probe._wrap("timeline", "calibrate", noop)
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter_ns()
            for _ in range(n):
                noop()
            t1 = perf_counter_ns()
            for _ in range(n):
                wrapped()
            t2 = perf_counter_ns()
            best = min(best, ((t2 - t1) - (t1 - t0)) / n)
            probe.spans.clear()
        return max(best, 0.0)

    # -------------------------------------------------------------- results
    def metrics(self) -> dict:
        """``<layer>.calls/.self_ms/.ns_per_call`` and the scoring width."""
        out = {}
        for layer in LAYERS:
            calls = self.calls[layer]
            self_ns = max(self.self_ns[layer], 0)
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_ms"] = self_ns / 1e6
            out[f"{layer}.ns_per_call"] = self_ns / calls if calls else 0.0
        scored = self.calls["costmodel"]
        out["costmodel.mean_width"] = self.width_sum / scored if scored else 0.0
        return out

    def save_chrome_trace(self, path) -> None:
        """Write the span sample as Chrome-trace JSON (``chrome://tracing``)."""
        if not self.spans:
            events = []
        else:
            origin = self.spans[0][1]
            events = [
                {
                    "name": name,
                    "cat": name.split(":", 1)[0],
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": (t0 - origin) / 1e3,
                    "dur": (t1 - t0) / 1e3,
                    "args": {"id": i, "parent": parent},
                }
                for i, (name, t0, t1, parent) in enumerate(self.spans)
                if t1
            ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
