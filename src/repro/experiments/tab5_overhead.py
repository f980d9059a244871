"""Table V — scheduling overhead vs total execution time.

The paper measures MICCO-optimal's decision cost (Alg. 1 + Alg. 2 plus
regression inference) against total execution time for ten vectors of
size 64 at 50 % repeated rate: 8.27 ms / 4925 ms (Uniform, 0.17 %) and
8.52 ms / 1550 ms (Gaussian).  Here the overhead is *real* wall-clock
of the Python scheduler; total time is the simulated makespan — the
reproducible claim is that the scheduler is a negligible fraction of
execution.  The default batch (512) sizes per-pair work to the paper's
multi-second totals; decisions are batch-independent, so the overhead
numerator is unchanged.

Each distribution first runs one untimed warm-up vector, so one-off
costs of a fresh process (first forest descent, lazy imports) stay out
of the row; the reported decision time is the median over
:data:`TIMED_RUNS` runs.  The simulated total is the same in every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MiccoConfig
from repro.core.framework import Micco
from repro.experiments.common import get_default_predictor, pressured_config
from repro.experiments.report import Table
from repro.workloads.synth import SyntheticWorkload, WorkloadParams

#: Timed runs per distribution; the row reports the median one.
TIMED_RUNS = 3


@dataclass
class Tab5Result:
    rows: list[dict] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            "Table V — Execution time (ms), sum of 10 vectors",
            ["dist", "sched overhead", "inference", "total (simulated)", "overhead %"],
        )
        for r in self.rows:
            t.add_row(
                r["distribution"],
                r["schedule_ms"],
                r["inference_ms"],
                r["total_ms"],
                100.0 * r["overhead_fraction"],
            )
        return t


def run(
    *,
    distributions=("uniform", "gaussian"),
    vector_size: int = 64,
    tensor_size: int = 384,
    repeated_rate: float = 0.5,
    num_devices: int = 8,
    num_vectors: int = 10,
    batch: int = 512,
    subscription: float | None = 0.9,
    seed: int = 7,
    quick: bool = True,
    predictor=None,
) -> Tab5Result:
    """Measure MICCO-optimal's real decision overhead on the Table V setup."""
    base = MiccoConfig(num_devices=num_devices)
    if predictor is None:
        predictor = get_default_predictor(base, quick=quick, seed=seed)
    result = Tab5Result()
    for dist in distributions:
        params = WorkloadParams(
            vector_size=vector_size,
            tensor_size=tensor_size,
            repeated_rate=repeated_rate,
            distribution=dist,
            num_vectors=num_vectors,
            batch=batch,
        )
        vectors = SyntheticWorkload(params, seed=seed).vectors()
        config = pressured_config(vectors, base, subscription)
        Micco.optimal(predictor, config).run(vectors[:1])  # untimed warm-up
        runs = [Micco.optimal(predictor, config).run(vectors) for _ in range(TIMED_RUNS)]
        run_result = sorted(runs, key=lambda r: r.total_overhead_s)[TIMED_RUNS // 2]
        total_s = run_result.makespan_s
        overhead_s = run_result.total_overhead_s
        result.rows.append(
            {
                "distribution": dist,
                "schedule_ms": 1e3 * run_result.schedule_overhead_s,
                "inference_ms": 1e3 * run_result.inference_overhead_s,
                "total_ms": 1e3 * total_s,
                "overhead_fraction": overhead_s / (overhead_s + total_s),
            }
        )
    return result


def main(quick: bool = True) -> str:
    res = run(quick=quick)
    lines = [res.table().to_text(), ""]
    lines.append("paper: 8.27 ms / 4925.73 ms (uniform), 8.52 ms / 1550.88 ms (gaussian)")
    return "\n".join(lines)
