"""Unit tests for the pluggable eviction policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigurationError
from repro.gpusim.memory import EVICTION_POLICIES, MemoryPool
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
        from repro.gpusim.cluster import ClusterState
        from repro.gpusim.device import mi100_like

        cl2 = ClusterState(mi100_like(2, memory_bytes=1024**2), eviction_policy="fifo")
        assert all(p.policy == "fifo" for p in cl2.pools)
        assert cl2.clone().eviction_policy == "fifo"

    def test_config_propagates_policy(self):
        from repro.core.config import MiccoConfig
        from repro.core.framework import Micco

        m = Micco.naive(MiccoConfig(num_devices=2, eviction_policy="largest"))
        assert all(p.policy == "largest" for p in m.cluster.pools)
