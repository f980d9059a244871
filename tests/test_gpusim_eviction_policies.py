"""Unit tests for the pluggable eviction policies and dead-first eviction."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MiccoConfig
from repro.core.framework import Micco
from repro.errors import CapacityError, ConfigurationError
from repro.experiments.ablations import mixed_size_stream
from repro.experiments.common import pressured_config
from repro.gpusim.cluster import ClusterState
from repro.gpusim.memory import EVICTION_POLICIES, MemoryPool
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.workloads import WorkloadParams
from tests.conftest import make_cluster, make_tensor


class TestPolicySelection:
    def test_known_policies(self):
        assert set(EVICTION_POLICIES) == {"lru", "fifo", "largest"}
        for policy in EVICTION_POLICIES:
            MemoryPool(100, policy=policy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryPool(100, policy="random")


class TestFifo:
    def test_ignores_recency(self):
        pool = MemoryPool(100, policy="fifo")
        pool.allocate(1, 40)
        pool.allocate(2, 40)
        pool.touch(1)  # LRU would now evict 2; FIFO still evicts 1.
        evicted = pool.allocate(3, 40)
        assert [r.uid for r in evicted] == [1]

    def test_order_is_insertion(self):
        pool = MemoryPool(100, policy="fifo")
        for uid in (5, 3, 9):
            pool.allocate(uid, 30)
        evicted = pool.allocate(10, 90)
        assert [r.uid for r in evicted] == [5, 3, 9]


class TestLargest:
    def test_biggest_victim_first(self):
        pool = MemoryPool(100, policy="largest")
        pool.allocate(1, 10)
        pool.allocate(2, 60)
        pool.allocate(3, 20)
        evicted = pool.allocate(4, 50)
        assert [r.uid for r in evicted] == [2]
        assert 1 in pool and 3 in pool

    def test_tie_breaks_oldest(self):
        pool = MemoryPool(100, policy="largest")
        pool.allocate(1, 40)
        pool.allocate(2, 40)
        evicted = pool.allocate(3, 30)
        assert [r.uid for r in evicted] == [1]


CAPACITY = 100


class ListPool:
    """Plain-list reference for FIFO/largest: ``[(uid, nbytes), ...]``
    in allocation order, oldest first."""

    def __init__(self, policy):
        self.policy = policy
        self.entries: list[tuple[int, int]] = []

    def allocate(self, uid, nbytes, protect):
        """Evicted ``(uid, nbytes)`` list, or ``None`` if the tensor
        cannot fit even after the evictions."""
        if any(u == uid for u, _ in self.entries):
            return []
        short = nbytes - (CAPACITY - sum(b for _, b in self.entries))
        order = [(u, b) for u, b in self.entries if u not in protect]
        if self.policy == "largest":
            # Biggest first; ties keep allocation order (oldest first).
            order = sorted(order, key=lambda e: -e[1])
        victims = []
        for entry in order:
            if short <= 0:
                break
            victims.append(entry)
            short -= entry[1]
        self.entries = [e for e in self.entries if e not in victims]
        if short > 0:
            return None
        self.entries.append((uid, nbytes))
        return victims

    def free(self, uid):
        self.entries = [e for e in self.entries if e[0] != uid]


UIDS = st.integers(0, 7)
ALLOC = st.tuples(
    st.just("alloc"), UIDS, st.sampled_from([10, 20, 30, 40, 60]),
    st.frozensets(UIDS, max_size=3),
)
OPS = st.one_of(ALLOC, st.tuples(st.just("free"), UIDS), st.tuples(st.just("touch"), UIDS))


@st.composite
def op_sequences(draw):
    """Random alloc/free/touch sequences, each with one uid that is
    allocated, freed and allocated again partway through."""
    ops = draw(st.lists(OPS, max_size=40))
    uid = draw(UIDS)
    at = draw(st.integers(0, len(ops)))
    realloc = [("alloc", uid, 20, frozenset()), ("free", uid), ("alloc", uid, 30, frozenset())]
    return ops[:at] + realloc + ops[at:] + draw(st.lists(ALLOC, min_size=1, max_size=5))


class TestVictimsMatchListReference:
    @pytest.mark.parametrize("policy", ["fifo", "largest"])
    @given(ops=op_sequences())
    @settings(max_examples=300, deadline=None)
    def test_victims_match(self, policy, ops):
        pool, ref = MemoryPool(CAPACITY, policy=policy), ListPool(policy)
        for op in ops:
            if op[0] == "alloc":
                _, uid, nbytes, protect = op
                expected = ref.allocate(uid, nbytes, protect)
                if expected is None:
                    with pytest.raises(CapacityError):
                        pool.allocate(uid, nbytes, protect)
                else:
                    assert [tuple(r) for r in pool.allocate(uid, nbytes, protect)] == expected
            elif op[0] == "free":
                pool.free(op[1])
                ref.free(op[1])
            elif op[1] in pool:
                pool.touch(op[1])  # recency only: neither policy reads it
            assert sorted(pool.resident_uids()) == sorted(u for u, _ in ref.entries)
            pool.check_invariants()

    @pytest.mark.parametrize("policy", ["fifo", "largest"])
    def test_reallocated_uid_goes_to_the_back(self, policy):
        pool = MemoryPool(CAPACITY, policy=policy)
        for uid in (1, 2, 3):
            pool.allocate(uid, 30)
        pool.free(1)
        pool.allocate(1, 30)
        evicted = pool.allocate(4, 70)
        assert [r.uid for r in evicted] == [2, 3]


class TestPolicyRespectsProtection:
    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_protected_never_victim(self, policy):
        pool = MemoryPool(100, policy=policy)
        pool.allocate(1, 50)
        pool.allocate(2, 40)
        evicted = pool.allocate(3, 50, protect={1})
        assert all(r.uid != 1 for r in evicted)


class TestClusterIntegration:
    def test_cluster_propagates_policy(self):
        cl = make_cluster()
        assert cl.eviction_policy == "lru"
        from repro.gpusim.device import mi100_like

        cl2 = ClusterState(mi100_like(2, memory_bytes=1024**2), eviction_policy="fifo")
        assert all(p.policy == "fifo" for p in cl2.pools)
        assert cl2.clone().eviction_policy == "fifo"

    def test_config_propagates_policy(self):
        from repro.core.config import MiccoConfig
        from repro.core.framework import Micco

        m = Micco.naive(MiccoConfig(num_devices=2, eviction_policy="largest"))
        assert all(p.policy == "largest" for p in m.cluster.pools)


class TestDemote:
    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_demoted_go_first_most_recent_first(self, policy):
        pool = MemoryPool(100, policy=policy)
        for uid, nbytes in ((1, 10), (2, 40), (3, 20), (4, 30)):
            pool.allocate(uid, nbytes)
        pool.demote(3)
        pool.demote(1)
        # Every policy takes 1 and 3 (demoted) before touching a live
        # tensor ("largest" would otherwise take 2): LRU and FIFO the
        # latest demoted first, "largest" the biggest first.
        evicted = pool.allocate(5, 30)
        assert [r.uid for r in evicted] == ([3, 1] if policy == "largest" else [1, 3])
        pool.check_invariants()

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_protected_demoted_tensor_is_skipped(self, policy):
        pool = MemoryPool(100, policy=policy)
        for uid in (1, 2):
            pool.allocate(uid, 50)
        pool.demote(2)
        evicted = pool.allocate(3, 50, protect={2})
        assert [r.uid for r in evicted] == [1]

    @pytest.mark.parametrize("policy", ["fifo", "largest"])
    def test_reallocated_uid_is_live_again(self, policy):
        pool = MemoryPool(100, policy=policy)
        for uid in (1, 2):
            pool.allocate(uid, 50)
        pool.demote(2)
        pool.free(2)
        pool.allocate(2, 50)
        evicted = pool.allocate(3, 50)
        assert [r.uid for r in evicted] == [1]
        pool.check_invariants()

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_cluster_demotes_every_copy(self, policy):
        from repro.gpusim.device import mi100_like

        cl = ClusterState(mi100_like(3, memory_bytes=10_000), eviction_policy=policy)
        t, solo, other = make_tensor(), make_tensor(), make_tensor()
        for d in (0, 1, 2):
            cl.register(other, d)
        for d in (0, 2):
            cl.register(t, d)
        cl.register(solo, 1)
        cl.demote(t.uid)
        cl.demote(solo.uid)
        cl.demote(make_tensor().uid)  # a tensor with no copy: nothing to do
        for d, uid in ((0, t.uid), (1, solo.uid), (2, t.uid)):
            evicted = cl.pools[d].allocate(-1, 10_000 - other.nbytes)
            assert [r.uid for r in evicted] == [uid]


def lru_misses(capacity, accesses, dead_first):
    """Misses of one LRU pool of ``capacity`` unit tensors over ``accesses``;
    with ``dead_first`` each tensor is demoted after its last access."""
    last = {uid: i for i, uid in enumerate(accesses)}
    pool = MemoryPool(capacity, policy="lru")
    misses = 0
    for i, uid in enumerate(accesses):
        if uid in pool:
            pool.touch(uid)
        else:
            misses += 1
            pool.allocate(uid, 1, protect=(uid,))
        if dead_first and last[uid] == i:
            pool.demote(uid)
    return misses


class TestDeadFirstOracle:
    @given(capacity=st.integers(1, 4), accesses=st.lists(st.integers(0, 7), max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_dead_first_lru_never_misses_more(self, capacity, accesses):
        assert lru_misses(capacity, accesses, True) <= lru_misses(capacity, accesses, False)

    def test_dead_first_lru_can_miss_less(self):
        # 1 is dead after its one access; plain LRU evicts the live 2.
        accesses = [2, 1, 3, 2]
        assert lru_misses(2, accesses, True) == 3 < lru_misses(2, accesses, False)


def pressured_stream():
    """A mixed-size synthetic stream and a 300 %-subscribed 4-GPU config."""
    params = WorkloadParams(vector_size=16, tensor_size=96, num_vectors=4, batch=8)
    vectors = mixed_size_stream(params, 3)
    return vectors, pressured_config(vectors, MiccoConfig(num_devices=4), 3.0)


def record_demotes(monkeypatch) -> list[int]:
    demoted: list[int] = []
    original = ClusterState.demote

    def demote(cluster, uid):
        demoted.append(uid)
        original(cluster, uid)

    monkeypatch.setattr(ClusterState, "demote", demote)
    return demoted


class TestDeadFirstRuns:
    @pytest.mark.parametrize("keep_outputs", [True, False])
    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_no_live_victim_while_a_dead_tensor_is_resident(self, policy, keep_outputs, monkeypatch):
        vectors, config = pressured_stream()
        config = config.with_(eviction_policy=policy, keep_outputs=keep_outputs)
        pairs = [p for v in vectors for p in v.pairs]
        uses = defaultdict(list)
        for i, p in enumerate(pairs):
            for t in (p.left, p.right, p.out):
                uses[t.uid].append(i)
        # An output waits for its drain when outputs are not kept.
        undying = set() if keep_outputs else {p.out.uid for p in pairs}

        def dead(uid, i):
            return uid not in undying and uses[uid][-1] < i

        micco = Micco(config, scheduler=MiccoScheduler(ReuseBounds(0, 4, 0)))
        now = [-1]
        execute = micco.engine.execute_pair

        def execute_pair(pair, device, metrics):
            now[0] += 1
            execute(pair, device, metrics)

        allocate = MemoryPool.allocate
        victims = {"dead": 0, "live": 0}

        def checked_allocate(pool, uid, nbytes, protect=frozenset()):
            i = now[0]
            dead_before = {u for u in pool._resident if u not in protect and dead(u, i)}
            evicted = allocate(pool, uid, nbytes, protect)
            uids = {r.uid for r in evicted}
            live = [u for u in uids if not dead(u, i)]
            if live:
                assert dead_before <= uids, (
                    f"pair {i}: live {live} evicted while dead "
                    f"{sorted(dead_before - uids)} stayed resident"
                )
            victims["live"] += len(live)
            victims["dead"] += len(uids) - len(live)
            return evicted

        monkeypatch.setattr(micco.engine, "execute_pair", execute_pair)
        monkeypatch.setattr(MemoryPool, "allocate", checked_allocate)
        micco.run(vectors)
        assert now[0] == len(pairs) - 1
        assert victims["dead"] > 0 and victims["live"] > 0

    def test_outputs_not_kept_are_never_demoted(self, monkeypatch):
        vectors, config = pressured_stream()
        demoted = record_demotes(monkeypatch)
        Micco(config.with_(keep_outputs=False), scheduler=MiccoScheduler()).run(vectors)
        outputs = {p.out.uid for v in vectors for p in v.pairs}
        assert demoted and not outputs & set(demoted)

    def test_kept_outputs_are_demoted(self, monkeypatch):
        vectors, config = pressured_stream()
        demoted = record_demotes(monkeypatch)
        Micco(config.with_(keep_outputs=True), scheduler=MiccoScheduler()).run(vectors)
        assert {p.out.uid for v in vectors for p in v.pairs} & set(demoted)

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_earlier_stream_tensors_are_never_demoted(self, policy, monkeypatch):
        vectors, config = pressured_stream()
        micco = Micco(config.with_(eviction_policy=policy, keep_outputs=True), scheduler=MiccoScheduler())
        first, second = vectors[:4], vectors[4:]
        micco.run(first)
        earlier = {u for pool in micco.cluster.pools for u in pool.resident_uids()}
        second_uids = {t.uid for v in second for p in v.pairs for t in (p.left, p.right, p.out)}
        assert earlier - second_uids  # some earlier-only tensors are still resident
        demoted = record_demotes(monkeypatch)
        micco.run(second, reset=False)
        assert demoted and set(demoted) <= second_uids
