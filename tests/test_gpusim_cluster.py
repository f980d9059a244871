"""Unit tests for ClusterState (the scheduler-visible maps)."""

import pytest

from repro.errors import LifecycleError, SchedulingError
from repro.gpusim.cluster import ACTIVE, FAILED, SPARE, WARMING, ClusterState
from repro.gpusim.device import DeviceSpec
from tests.conftest import MIB, make_cluster, make_tensor


class TestConstruction:
    def test_requires_devices(self):
        with pytest.raises(SchedulingError):
            ClusterState([])

    def test_requires_ordered_ids(self):
        with pytest.raises(SchedulingError):
            ClusterState([DeviceSpec(device_id=1), DeviceSpec(device_id=0)])

    def test_homogeneous_factory(self):
        cl = ClusterState.homogeneous(3, memory_bytes=MIB)
        assert cl.num_devices == 3
        assert all(p.capacity_bytes == MIB for p in cl.pools)


class TestResidency:
    def test_register_and_find(self):
        cl = make_cluster()
        t = make_tensor()
        cl.register(t, 0)
        assert cl.devices_holding(t.uid) == {0}
        assert cl.is_resident(t.uid, 0)
        assert not cl.is_resident(t.uid, 1)

    def test_multi_device_copies(self):
        cl = make_cluster()
        t = make_tensor()
        cl.register(t, 0)
        cl.register(t, 1)
        assert cl.devices_holding(t.uid) == {0, 1}

    def test_drop_one_copy(self):
        cl = make_cluster()
        t = make_tensor()
        cl.register(t, 0)
        cl.register(t, 1)
        freed = cl.drop(t.uid, 0)
        assert freed == t.nbytes
        assert cl.devices_holding(t.uid) == {1}

    def test_drop_everywhere(self):
        cl = make_cluster()
        t = make_tensor()
        cl.register(t, 0)
        cl.register(t, 1)
        assert sum(cl.drop(t.uid, d) for d in cl.devices_holding(t.uid)) == 2 * t.nbytes
        assert cl.devices_holding(t.uid) == frozenset()
        assert t.uid not in cl._holders

    def test_eviction_updates_holders(self):
        cl = make_cluster(memory_bytes=2 * make_tensor(size=64, batch=8).nbytes)
        big = [make_tensor(size=64, batch=8) for _ in range(3)]
        cl.register(big[0], 0)
        cl.register(big[1], 0)
        cl.register(big[2], 0)  # evicts big[0]
        assert cl.devices_holding(big[0].uid) == frozenset()
        assert len(cl.pools[0]) == 2

    def test_used_and_free_bytes(self):
        cl = make_cluster(memory_bytes=MIB)
        t = make_tensor(size=16, batch=1)
        cl.register(t, 1)
        assert cl.used_bytes(1) == t.nbytes
        assert cl.free_bytes(1) == MIB - t.nbytes
        assert cl.used_bytes(0) == 0


class TestVectorCounters:
    def test_begin_vector_sets_balance(self):
        cl = make_cluster(num_devices=4)
        cl.begin_vector(64)
        assert cl.balance_num == 16.0
        assert sum(cl.assigned_slots) == 0

    def test_record_assignment(self):
        cl = make_cluster()
        cl.begin_vector(8)
        cl.record_assignment(1)
        cl.record_assignment(1)
        assert cl.assigned_slots[1] == 4

    def test_begin_vector_rejects_zero(self):
        with pytest.raises(SchedulingError):
            make_cluster().begin_vector(0)


class TestBusyAndClone:
    def test_busy_is_compute_plus_memop(self):
        cl = make_cluster()
        cl.compute_s[0] += 1.0
        cl.memop_s[0] += 0.5
        assert cl.busy_s[0] == pytest.approx(1.5)

    def test_reset(self):
        cl = make_cluster()
        cl.register(make_tensor(), 0)
        cl.compute_s[0] += 1.0
        cl.reset()
        assert cl.total_resident_tensors() == 0
        assert cl.busy_s.sum() == 0

    def test_clone_is_independent(self):
        cl = make_cluster()
        t = make_tensor()
        cl.register(t, 0)
        cl.compute_s[0] += 2.0
        other = cl.clone()
        other.drop(t.uid, 0)
        other.compute_s[0] += 5.0
        assert cl.is_resident(t.uid, 0)
        assert cl.compute_s[0] == pytest.approx(2.0)

    def test_clone_preserves_state(self):
        cl = make_cluster()
        t = make_tensor()
        cl.register(t, 1)
        cl.begin_vector(10)
        cl.record_assignment(1)
        other = cl.clone()
        assert other.is_resident(t.uid, 1)
        assert other.balance_num == cl.balance_num
        assert other.assigned_slots[1] == 2


class TestDevicePoolShrink:
    def test_fail_device_orphans_and_frees(self):
        cl = make_cluster()
        t1, t2 = make_tensor(), make_tensor()
        cl.register(t1, 0)
        cl.register(t2, 0)
        cl.register(t2, 1)  # second copy survives
        orphans = cl.fail_device(0)
        assert sorted(orphans) == sorted([t1.uid, t2.uid])
        assert cl.used_bytes(0) == 0
        assert cl.devices_holding(t1.uid) == set()
        assert cl.devices_holding(t2.uid) == {1}
        assert not cl.is_alive(0) and cl.is_alive(1)
        assert cl.alive_ids() == [1]
        assert cl.num_alive == 1
        cl.check_invariants()

    def test_fail_device_is_idempotent(self):
        cl = make_cluster()
        cl.register(make_tensor(), 1)
        assert cl.fail_device(1)
        assert cl.fail_device(1) == []

    def test_fail_device_out_of_range(self):
        with pytest.raises(SchedulingError):
            make_cluster().fail_device(99)

    def test_begin_vector_balances_over_survivors(self):
        cl = make_cluster(num_devices=4)
        cl.fail_device(3)
        cl.begin_vector(12)
        assert cl.balance_num == pytest.approx(12 / 3)

    def test_begin_vector_with_no_survivors_raises(self):
        cl = make_cluster()
        cl.fail_device(0)
        cl.fail_device(1)
        with pytest.raises(SchedulingError):
            cl.begin_vector(4)

    def test_reset_revives_the_pool(self):
        cl = make_cluster()
        cl.fail_device(0)
        cl.reset()
        assert cl.num_alive == 2

    def test_clone_copies_liveness(self):
        cl = make_cluster()
        cl.fail_device(0)
        other = cl.clone()
        assert not other.is_alive(0)
        other.reset()
        assert not cl.is_alive(0) or cl.num_alive == 2  # clone is independent
        assert cl.num_alive == 1


class TestElasticPool:
    def test_retire_then_activate_round_trip(self):
        cl = make_cluster(num_devices=4)
        t = make_tensor()
        cl.register(t, 3)
        orphans = cl.retire_device(3)
        assert orphans == [t.uid]
        assert cl.alive_ids() == [0, 1, 2]
        assert cl.state(3) == SPARE
        cl.transition(3, WARMING)
        cl.transition(3, ACTIVE)
        assert cl.alive_ids() == [0, 1, 2, 3]
        assert len(cl.pools[3]) == 0  # comes back cold
        cl.check_invariants()

    def test_retire_offline_device_raises(self):
        cl = make_cluster()
        cl.retire_device(0)
        with pytest.raises(LifecycleError, match="device 0 cannot go from spare to spare"):
            cl.retire_device(0)
        assert cl.state(0) == SPARE

    def test_activate_alive_device_raises(self):
        cl = make_cluster()
        t = make_tensor()
        cl.register(t, 0)
        with pytest.raises(LifecycleError):
            cl.transition(0, ACTIVE)
        assert len(cl.pools[0]) == 1  # no accidental pool clear

    def test_activate_failed_device_raises(self):
        cl = make_cluster()
        cl.fail_device(0)
        assert cl.state(0) == FAILED  # failed, not retirable stock
        with pytest.raises(SchedulingError):
            cl.transition(0, WARMING)

    def test_retired_device_that_fails_stays_dead(self):
        cl = make_cluster(num_devices=3)
        cl.retire_device(2)
        cl.fail_device(2)
        assert cl.state(2) == FAILED
        with pytest.raises(SchedulingError):
            cl.transition(2, WARMING)

    def test_activate_out_of_range(self):
        with pytest.raises(SchedulingError):
            make_cluster().transition(7, ACTIVE)

    def test_reset_clears_failures(self):
        cl = make_cluster()
        cl.fail_device(0)
        cl.reset()
        assert cl.state(0) == ACTIVE
        cl.retire_device(0)  # allowed again after reset

    def test_clone_copies_failed_set(self):
        cl = make_cluster(num_devices=3)
        cl.fail_device(1)
        cl.retire_device(2)
        other = cl.clone()
        assert [other.state(d) for d in range(3)] == [ACTIVE, FAILED, SPARE]
        other.transition(2, WARMING)
        assert cl.state(2) == SPARE  # the clone is independent


class TestFailureDomains:
    def test_fail_node_kills_every_member(self):
        cl = make_cluster(num_devices=4)
        a, b = make_tensor(), make_tensor()
        cl.register(a, 0)
        cl.register(b, 1)
        orphaned = cl.fail_node([0, 1])
        assert set(orphaned) == {0, 1}
        assert orphaned[0] == [a.uid] and orphaned[1] == [b.uid]
        assert cl.alive_ids() == [2, 3]
        assert cl.state(0) == cl.state(1) == FAILED
        cl.check_invariants()

    def test_fail_node_skips_already_dead_members(self):
        cl = make_cluster(num_devices=4)
        cl.fail_device(1)
        orphaned = cl.fail_node([0, 1])
        assert set(orphaned) == {0}  # 1 was already gone

    def test_fail_node_atomic_before_recovery(self):
        # After fail_node returns, no member is alive: recovery code
        # consulting alive_ids can never pick a doomed sibling.
        cl = make_cluster(num_devices=4)
        orphaned = cl.fail_node([2, 3])
        assert set(orphaned) == {2, 3}
        assert all(not cl.is_alive(d) for d in (2, 3))


class TestPrewarm:
    def test_prewarm_places_tensor_in_free_space(self):
        cl = make_cluster(num_devices=2)
        assert cl.prewarm(uid=99, nbytes=MIB, device_id=0)
        assert cl.is_resident(99, 0)
        assert cl.used_bytes(0) == MIB
        cl.check_invariants()

    def test_prewarm_never_evicts(self):
        cl = make_cluster(num_devices=1, memory_bytes=2 * MIB)
        t = make_tensor(size=256, batch=4)  # 256*256*4 floats = 1 MiB
        cl.register(t, 0)
        assert not cl.prewarm(uid=98, nbytes=2 * MIB, device_id=0)
        assert cl.is_resident(t.uid, 0)  # existing residency untouched

    def test_prewarm_rejects_offline_and_duplicate(self):
        cl = make_cluster(num_devices=2)
        cl.retire_device(1)
        assert not cl.prewarm(uid=1, nbytes=64, device_id=1)
        assert cl.prewarm(uid=1, nbytes=64, device_id=0)
        assert not cl.prewarm(uid=1, nbytes=64, device_id=0)  # already there


class TestJournalHooks:
    def test_register_drop_and_offline_notify_journal(self):
        from repro.faults import ResidencyJournal

        cl = make_cluster(num_devices=2)
        cl.journal = ResidencyJournal()
        t = make_tensor()
        cl.register(t, 0)
        cl.drop(t.uid, 0)
        cl.register(t, 1)
        cl.fail_device(1)
        ops = [e["op"] for e in cl.journal.entries()]
        assert ops == ["put", "drop", "put", "drop"]

    def test_clone_does_not_share_journal(self):
        from repro.faults import ResidencyJournal

        cl = make_cluster(num_devices=2)
        cl.journal = ResidencyJournal()
        assert cl.clone().journal is None


class TestCheckInvariants:
    @staticmethod
    def cluster_with_copies():
        cl = make_cluster(num_devices=3)
        a, b = make_tensor(), make_tensor()
        cl.register(a, 0)
        cl.register(a, 1)
        cl.register(b, 2)
        cl.check_invariants()
        return cl, a, b

    def test_resident_uid_missing_from_index(self):
        cl, a, _ = self.cluster_with_copies()
        cl._holders[a.uid] &= ~(1 << 1)
        with pytest.raises(AssertionError, match=f"device 1 holds uid {a.uid}, index says \\[0\\]"):
            cl.check_invariants()

    def test_index_names_a_device_whose_pool_lacks_the_uid(self):
        cl, _, b = self.cluster_with_copies()
        cl._holders[b.uid] |= 1 << 0
        with pytest.raises(
            AssertionError,
            match=f"device 0 holds uid {b.uid}, its pool does not .index counts 4 copies, pools hold 3",
        ):
            cl.check_invariants()

    def test_empty_holder_set(self):
        cl, _, _ = self.cluster_with_copies()
        cl._holders[10**9] = 0
        with pytest.raises(AssertionError, match=f"empty holder mask for uid {10**9}"):
            cl.check_invariants()

    def test_extra_copy_of_a_uid_no_pool_holds(self):
        cl, _, _ = self.cluster_with_copies()
        cl._holders[10**9] = 1 << 2
        with pytest.raises(AssertionError, match=f"device 2 holds uid {10**9}, its pool does not"):
            cl.check_invariants()

    def test_device_out_of_the_pool_holds_tensors(self):
        cl, a, _ = self.cluster_with_copies()
        cl._members[ACTIVE] &= ~(1 << 1)
        cl._members[SPARE] = 1 << 1
        cl.alive_mask &= ~(1 << 1)
        cl._alive_ids = [0, 2]
        with pytest.raises(AssertionError, match="spare device 1 holds 1 tensors"):
            cl.check_invariants()

    def test_device_in_two_states(self):
        cl, _, _ = self.cluster_with_copies()
        cl._members[FAILED] = 1 << 2
        with pytest.raises(AssertionError, match="device 2 is in two states"):
            cl.check_invariants()

    def test_device_in_no_state(self):
        cl, _, _ = self.cluster_with_copies()
        cl._members[ACTIVE] &= ~(1 << 1)
        with pytest.raises(AssertionError, match="device 1 has no state"):
            cl.check_invariants()

    def test_holder_mask_names_a_device_out_of_the_pool(self):
        cl, _, b = self.cluster_with_copies()
        cl.retire_device(1)
        cl._holders[b.uid] |= 1 << 1
        with pytest.raises(AssertionError, match="index names spare device 1 as a holder"):
            cl.check_invariants()

    def test_alive_mask_disagrees_with_states(self):
        cl, _, _ = self.cluster_with_copies()
        cl.retire_device(1)
        cl.alive_mask |= 1 << 1
        with pytest.raises(AssertionError, match=r"alive mask names devices \[0, 1, 2\], states say \[0, 2\]"):
            cl.check_invariants()

    def test_cached_alive_ids_disagree_with_states(self):
        cl, _, _ = self.cluster_with_copies()
        cl.fail_device(2)
        cl.alive_ids()
        cl._alive_ids.append(2)
        with pytest.raises(AssertionError, match=r"cached alive ids \[0, 1, 2\], states say \[0, 1\]"):
            cl.check_invariants()

    def test_bit_past_the_last_device(self):
        cl, a, _ = self.cluster_with_copies()
        cl._holders[a.uid] |= 1 << 3
        with pytest.raises(AssertionError, match=f"device 3 holds uid {a.uid}, its pool does not"):
            cl.check_invariants()

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_check_copies_neither_pools_nor_index(self, policy):
        import tracemalloc

        cl = ClusterState(
            [DeviceSpec(device_id=i, memory_bytes=64 * MIB) for i in range(4)],
            eviction_policy=policy,
        )
        for uid in range(16_000):
            assert cl.prewarm(uid, 64, uid % 4)
        cl.check_invariants()  # warm any lazily built state first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cl.check_invariants()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 64 * 1024
