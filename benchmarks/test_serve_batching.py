"""Bench: batched scheduling rounds vs one-vector-at-a-time dispatch.

An overlap-heavy stream (85% repeated tensors) saturates a small pool.
Coalescing mergeable queued vectors into merged scheduling rounds must
beat unbatched dispatch on *both* sustained throughput and p99 latency:
a round moves several vectors through the single scheduling slot
together (pipelining the backlog) and schedules their pairs as one
super-vector, so tensors shared across the members are placed once and
reused instead of re-fetched per vector.  Both runs see byte-identical
workloads and arrivals; everything is seeded and replayable.
"""

from benchmarks.conftest import run_once
from repro.core.config import MiccoConfig
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.serve import MiccoServer, PoissonArrivals, ServeConfig
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2
SEED = 9
SATURATING_RATE = 5_000.0
BATCH_LIMIT = 4


def overlap_heavy_vectors():
    params = WorkloadParams(
        vector_size=12, tensor_size=192, repeated_rate=0.85,
        num_vectors=32, batch=4,
    )
    return SyntheticWorkload(params, seed=SEED).vectors()


def run_serve(max_batch_vectors):
    server = MiccoServer(
        MiccoScheduler(ReuseBounds(0, 4, 0)),
        MiccoConfig(num_devices=4, memory_bytes=256 * MIB),
        ServeConfig(max_batch_vectors=max_batch_vectors, queue_capacity=256),
    )
    return server.run(overlap_heavy_vectors(), PoissonArrivals(SATURATING_RATE), seed=SEED)


def test_batched_beats_unbatched_on_throughput_and_p99(benchmark):
    def both():
        return run_serve(1), run_serve(BATCH_LIMIT)

    unbatched, batched = run_once(benchmark, both)
    su, sb = unbatched.summary(), batched.summary()

    # Everything completes either way; batching changes *when*, not *if*.
    assert su["completed"] == sb["completed"] == 32
    assert sb["batching"]["batched_rounds"] > 0
    assert sb["batching"]["max_round_vectors"] > 1
    assert su["batching"]["batched_rounds"] == 0

    # The paper-level claim: coalesced rounds sustain higher throughput
    # and a lower tail on an overlap-heavy backlog.
    assert sb["throughput_vps"] > su["throughput_vps"]
    assert sb["p99_s"] < su["p99_s"]

    # Amortized dispatch cost per vector drops with occupancy.
    assert (
        sb["batching"]["amortized_schedule_s"]
        < su["batching"]["amortized_schedule_s"]
    )


def test_batched_run_is_seed_stable(benchmark):
    a = run_once(benchmark, run_serve, BATCH_LIMIT)
    b = run_serve(BATCH_LIMIT)
    assert a.summary() == b.summary()
    assert a.rounds == b.rounds
