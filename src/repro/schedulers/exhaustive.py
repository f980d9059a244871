"""Exhaustive oracle scheduler — brute force over every assignment.

Test/validation tool only: enumerates all ``numGPU ** numPairs``
assignments of one vector, simulates each on a cloned cluster, and
returns the assignment with the smallest makespan.  This is the
"exhaustive search [that] is easy to be proved an NP problem" the paper
rules out for production; here it calibrates how close the heuristic
gets on tiny instances.
"""

from __future__ import annotations

from itertools import product

from repro.errors import SchedulingError
from repro.gpusim.cluster import ClusterState
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.schedulers.base import Scheduler
from repro.tensor.spec import TensorPair, VectorSpec

#: Refuse to enumerate beyond this many candidate assignments.
MAX_SEARCH_SPACE = 300_000


class ExhaustiveScheduler(Scheduler):
    """Optimal (minimum-makespan) assignment by enumeration.

    Unlike the online schedulers this one needs the whole vector up
    front: call :meth:`begin_vector` (the session does), after which
    :meth:`choose` replays the precomputed optimum pair by pair.
    """

    name = "exhaustive"

    def __init__(self, cost_model: CostModel | None = None, *, keep_outputs: bool = False):
        self.cost_model = cost_model or CostModel()
        self.keep_outputs = keep_outputs
        self._plan: list[int] = []
        self._cursor = 0
        self.best_metrics: ExecutionMetrics | None = None

    def begin_vector(self, vector: VectorSpec, cluster: ClusterState) -> None:
        self._plan = self.search(vector, cluster)
        self._cursor = 0

    def choose(self, pair: TensorPair, cluster: ClusterState) -> int:
        if self._cursor >= len(self._plan):
            raise SchedulingError("exhaustive plan exhausted; was begin_vector called?")
        g = self._plan[self._cursor]
        self._cursor += 1
        return g

    def search(self, vector: VectorSpec, cluster: ClusterState) -> list[int]:
        """Return the minimum-makespan assignment for ``vector``.

        The makespan accounts for the cluster's accumulated busy time,
        so the optimum is global-so-far, not per-vector-greedy.
        """
        n_pairs = len(vector.pairs)
        n_dev = cluster.num_devices
        space = n_dev**n_pairs
        if space > MAX_SEARCH_SPACE:
            raise SchedulingError(
                f"search space {space} exceeds limit {MAX_SEARCH_SPACE} "
                f"({n_dev} devices ** {n_pairs} pairs); exhaustive scheduling "
                "is for tiny validation instances only"
            )
        best_assignment: list[int] | None = None
        best_span = float("inf")
        best_metrics: ExecutionMetrics | None = None
        base_busy = cluster.busy_s
        for assignment in product(range(n_dev), repeat=n_pairs):
            trial = cluster.clone()
            engine = ExecutionEngine(trial, self.cost_model)
            metrics = engine.execute_vector(vector, list(assignment), keep_outputs=self.keep_outputs)
            span = float((base_busy + metrics.device_time_s).max())
            if span < best_span:
                best_span = span
                best_assignment = list(assignment)
                best_metrics = metrics
        assert best_assignment is not None  # space >= 1 always
        self.best_metrics = best_metrics
        return best_assignment
