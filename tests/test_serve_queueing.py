"""Unit tests for the bounded admission queue and its dispatch policies."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.queueing import (
    QUEUE_POLICIES,
    AdmissionQueue,
    FaultAware,
    Fifo,
    QueuePolicy,
    Sjf,
    WeightedFair,
    make_policy,
)
from repro.serve.timeline import Ticket
from tests.conftest import make_vector


def ticket(n_pairs=2, vector_id=0, arrival_s=0.0, tenant=None):
    return Ticket(
        vector=make_vector(n_pairs=n_pairs, vector_id=vector_id),
        arrival_s=arrival_s,
        tenant=tenant,
    )


class TestFifo:
    def test_fifo_order(self):
        q = AdmissionQueue(capacity=4)
        tickets = [ticket(vector_id=i) for i in range(3)]
        for t in tickets:
            assert q.offer(t)
        assert [q.pop() for _ in range(3)] == tickets

    def test_pop_empty_returns_none(self):
        assert AdmissionQueue().pop() is None

    def test_shed_when_full(self):
        q = AdmissionQueue(capacity=2)
        assert q.offer(ticket())
        assert q.offer(ticket())
        assert not q.offer(ticket())
        assert q.dropped == 1
        assert q.admitted == 2
        assert len(q) == 2 and q.is_full

    def test_peak_depth_high_water(self):
        q = AdmissionQueue(capacity=8)
        for i in range(3):
            q.offer(ticket(vector_id=i))
        q.pop()
        q.pop()
        q.offer(ticket(vector_id=9))
        assert q.peak_depth == 3

    def test_counters_snapshot(self):
        q = AdmissionQueue(capacity=1, policy=Fifo())
        q.offer(ticket())
        q.offer(ticket())
        assert q.counters() == {
            "capacity": 1,
            "policy": "fifo",
            "admitted": 1,
            "dropped": 1,
            "peak_depth": 1,
        }


class TestSjf:
    def test_shortest_vector_first(self):
        q = AdmissionQueue(capacity=4, policy=Sjf())
        big = ticket(n_pairs=8, vector_id=0)
        small = ticket(n_pairs=1, vector_id=1)
        mid = ticket(n_pairs=4, vector_id=2)
        for t in (big, small, mid):
            q.offer(t)
        assert [q.pop() for _ in range(3)] == [small, mid, big]

    def test_fifo_among_equals(self):
        q = AdmissionQueue(capacity=4, policy=Sjf())
        first = ticket(n_pairs=2, vector_id=0)
        second = ticket(n_pairs=2, vector_id=1)
        q.offer(first)
        q.offer(second)
        assert q.pop() is first


class TestWeightedFair:
    def drain_tenants(self, q, n):
        return [q.pop().tenant for _ in range(n)]

    def test_proportional_interleave(self):
        # Tenant a (weight 3) and b (weight 1), equal-size vectors: under
        # a full backlog a should get 3 of every 4 dispatches.
        q = AdmissionQueue(capacity=32, policy=WeightedFair({"a": 3.0, "b": 1.0}))
        for i in range(8):
            q.offer(ticket(vector_id=i, tenant="a"))
            q.offer(ticket(vector_id=100 + i, tenant="b"))
        first8 = self.drain_tenants(q, 8)
        assert first8.count("a") == 6
        assert first8.count("b") == 2

    def test_equal_weights_alternate(self):
        q = AdmissionQueue(capacity=16, policy=WeightedFair({"a": 1.0, "b": 1.0}))
        for i in range(4):
            q.offer(ticket(vector_id=i, tenant="a"))
            q.offer(ticket(vector_id=100 + i, tenant="b"))
        order = self.drain_tenants(q, 8)
        assert order.count("a") == 4 and order.count("b") == 4
        # No tenant ever gets two-ahead of the other.
        lead = 0
        for t in order:
            lead += 1 if t == "a" else -1
            assert abs(lead) <= 1

    def test_idle_tenant_cannot_bank_credit(self):
        # b idles while a drains; when b shows up its virtual clock is
        # floored at the queue's virtual time, so it gets its fair share
        # from now on rather than a catch-up monopoly.
        q = AdmissionQueue(capacity=32, policy=WeightedFair({"a": 1.0, "b": 1.0}))
        for i in range(4):
            q.offer(ticket(vector_id=i, tenant="a"))
        for _ in range(4):
            q.pop()
        for i in range(2):
            q.offer(ticket(vector_id=10 + i, tenant="a"))
            q.offer(ticket(vector_id=20 + i, tenant="b"))
        order = self.drain_tenants(q, 4)
        assert order.count("b") == 2 and order.count("a") == 2
        assert abs(order[:2].count("b") - 1) <= 1  # interleaved, not b,b,a,a

    def test_unknown_tenant_uses_default_weight(self):
        p = WeightedFair({"a": 4.0}, default_weight=2.0)
        assert p.weight_of("a") == 4.0
        assert p.weight_of("stranger") == 2.0
        assert p.weight_of(None) == 2.0

    def test_bad_weights(self):
        with pytest.raises(ConfigurationError):
            WeightedFair({"a": 0.0})
        with pytest.raises(ConfigurationError):
            WeightedFair({"a": float("inf")})
        with pytest.raises(ConfigurationError):
            WeightedFair(default_weight=-1.0)

    def test_reset_clears_clocks(self):
        p = WeightedFair({"a": 1.0})
        p.key(ticket(tenant="a"), 0)
        p.observe_pop((5.0,))
        p.reset()
        assert p._vtime == 0.0 and p._finish == {}


class TestWeightedFairPurity:
    """key() must be side-effect free; clocks commit only on enqueue."""

    def test_key_is_pure(self):
        p = WeightedFair({"a": 1.0})
        k1 = p.key(ticket(tenant="a"), 0)
        k2 = p.key(ticket(tenant="a"), 1)
        # Repeated probes without an offer see the same virtual clock.
        assert k1[0] == k2[0]
        assert p._finish == {}

    def test_shed_at_full_queue_does_not_charge_virtual_time(self):
        # Regression: a tenant whose ticket is shed (queue full) must not
        # have its virtual finish clock advanced — otherwise overload
        # *punishes* the shed tenant's future share under saturation.
        p = WeightedFair({"a": 1.0, "b": 1.0})
        q = AdmissionQueue(capacity=2, policy=p)
        assert q.offer(ticket(vector_id=0, tenant="a"))
        assert q.offer(ticket(vector_id=1, tenant="b"))
        clocks = dict(p._finish)
        assert not q.offer(ticket(vector_id=2, tenant="b"))  # full: shed
        assert p._finish == clocks

    def test_offer_commits_exactly_once(self):
        p = WeightedFair({"a": 2.0})
        q = AdmissionQueue(capacity=8, policy=p)
        t = ticket(n_pairs=2, tenant="a")  # 4 tensor slots, weight 2
        q.offer(t)
        assert p._finish["a"] == pytest.approx(t.vector.num_tensors / 2.0)

    def test_shed_tenant_keeps_fair_share_after_overload(self):
        # b's shed tickets charge nothing, so once capacity frees up the
        # a/b interleave is as if the overload never happened.
        p = WeightedFair({"a": 1.0, "b": 1.0})
        q = AdmissionQueue(capacity=4, policy=p)
        for i in range(2):
            q.offer(ticket(vector_id=i, tenant="a"))
            q.offer(ticket(vector_id=100 + i, tenant="b"))
        for i in range(3):  # queue full: all shed
            assert not q.offer(ticket(vector_id=200 + i, tenant="b"))
        order = [q.pop().tenant for _ in range(4)]
        assert order.count("a") == 2 and order.count("b") == 2


class TestPopBatch:
    def test_empty_queue_returns_empty_batch(self):
        assert AdmissionQueue().pop_batch(4) == []

    def test_limit_validated(self):
        q = AdmissionQueue()
        with pytest.raises(ConfigurationError):
            q.pop_batch(0)

    def test_takes_up_to_limit_in_policy_order(self):
        q = AdmissionQueue(capacity=8)
        tickets = [ticket(vector_id=i) for i in range(5)]
        for t in tickets:
            q.offer(t)
        batch = q.pop_batch(3)
        assert batch == tickets[:3]
        assert len(q) == 2

    def test_head_always_taken_even_when_accept_rejects(self):
        q = AdmissionQueue(capacity=8)
        a, b = ticket(vector_id=0), ticket(vector_id=1)
        q.offer(a)
        q.offer(b)
        batch = q.pop_batch(4, accept=lambda members, cand: False)
        assert batch == [a]
        assert q.pop() is b  # skipped ticket kept its position

    def test_skipped_tickets_keep_relative_order(self):
        q = AdmissionQueue(capacity=8, policy=Sjf())
        small = ticket(n_pairs=1, vector_id=0)
        mid = ticket(n_pairs=2, vector_id=1)
        big = ticket(n_pairs=8, vector_id=2)
        for t in (big, small, mid):
            q.offer(t)
        # Accept only vectors matching the head's pair count: mid and big
        # are skipped and must pop later in unchanged sjf order.
        batch = q.pop_batch(
            4, accept=lambda m, c: len(c.vector.pairs) == len(m[0].vector.pairs)
        )
        assert batch == [small]
        assert [q.pop() for _ in range(2)] == [mid, big]

    def test_accept_sees_growing_member_list(self):
        q = AdmissionQueue(capacity=8)
        for i in range(4):
            q.offer(ticket(vector_id=i))
        sizes = []

        def accept(members, cand):
            sizes.append(len(members))
            return True

        q.pop_batch(4, accept=accept)
        assert sizes == [1, 2, 3]

    def test_weighted_fair_vtime_advances_only_for_taken(self):
        p = WeightedFair({"a": 1.0, "b": 1.0})
        q = AdmissionQueue(capacity=8, policy=p)
        q.offer(ticket(vector_id=0, tenant="a"))
        q.offer(ticket(vector_id=1, tenant="b"))
        q.pop_batch(2, accept=lambda m, c: False)  # only the head taken
        vtime_after = p._vtime
        # The skipped b ticket still pops with its original finish tag
        # and only then advances the queue's virtual time.
        t = q.pop()
        assert t.tenant == "b"
        assert p._vtime >= vtime_after


class TestPolicyProtocol:
    def test_registry_names(self):
        assert QUEUE_POLICIES == ("fifo", "sjf", "weighted")

    def test_make_policy(self):
        assert isinstance(make_policy("fifo"), Fifo)
        assert isinstance(make_policy("sjf"), Sjf)
        wf = make_policy("weighted", weights={"a": 2.0})
        assert isinstance(wf, WeightedFair) and wf.weights == {"a": 2.0}

    def test_make_policy_unknown(self):
        with pytest.raises(ConfigurationError):
            make_policy("lifo")

    def test_string_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="QueuePolicy instance"):
            AdmissionQueue(capacity=4, policy="sjf")

    def test_custom_policy_object(self):
        class Lifo(QueuePolicy):
            name = "lifo"

            def key(self, t, seq):
                return (-seq,)

        q = AdmissionQueue(capacity=4, policy=Lifo())
        a, b = ticket(vector_id=0), ticket(vector_id=1)
        q.offer(a)
        q.offer(b)
        assert q.pop() is b
        assert q.counters()["policy"] == "lifo"


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(capacity=0)

    def test_bad_policy(self):
        with pytest.raises(ConfigurationError, match="Fifo.*Sjf.*WeightedFair"):
            AdmissionQueue(policy="lifo")

    def test_non_policy_object_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(policy=42)


class TestFaultAware:
    def test_default_policy_admits_everything(self):
        assert Fifo().admit(ticket(), now=0.0)

    def test_no_faults_means_admission(self):
        p = FaultAware(Fifo())
        p.observe(0.0, fault_events=0, alive=4, total=4)
        assert p.success_probability(ticket(), now=0.0) == pytest.approx(1.0)
        assert p.admit(ticket(), now=0.0)
        assert p.shed_predicted == 0

    def test_fault_burst_sheds_then_decays(self):
        p = FaultAware(Fifo(), tau_s=0.1, min_success_prob=0.9,
                       exposure_s_per_pair=1e-2)
        p.observe(1.0, fault_events=5, alive=4, total=4)
        # rate = 5/0.1 = 50/s; hazard = 50 * 1e-2 * 2 = 1.0 -> p ~ 0.37.
        assert not p.admit(ticket(n_pairs=2), now=1.0)
        assert p.shed_predicted == 1
        # Well past the time constant the rate has decayed away.
        assert p.admit(ticket(n_pairs=2), now=3.0)

    def test_shrunken_pool_raises_hazard(self):
        p = FaultAware(Fifo())
        p.observe(0.0, fault_events=2, alive=4, total=4)
        full = p.success_probability(ticket(n_pairs=4), now=0.0)
        p.observe(0.0, fault_events=2, alive=1, total=4)
        quarter = p.success_probability(ticket(n_pairs=4), now=0.0)
        assert quarter < full

    def test_dead_pool_sheds_everything(self):
        p = FaultAware(Fifo())
        p.observe(0.0, fault_events=0, alive=0, total=4)
        assert p.success_probability(ticket(), now=0.0) == 0.0
        assert not p.admit(ticket(), now=0.0)

    def test_observe_diffs_cumulative_counts(self):
        p = FaultAware(Fifo(), tau_s=1.0)
        p.observe(0.0, fault_events=3, alive=4, total=4)
        r1 = p.fault_rate(0.0)
        p.observe(0.0, fault_events=3, alive=4, total=4)  # same cumulative
        assert p.fault_rate(0.0) == pytest.approx(r1)  # nothing new counted

    def test_dispatch_order_delegates_to_inner(self):
        q = AdmissionQueue(capacity=8, policy=FaultAware(Sjf()))
        big, small = ticket(n_pairs=6, vector_id=0), ticket(n_pairs=1, vector_id=1)
        q.offer(big)
        q.offer(small)
        assert q.pop().vector.vector_id == 1  # sjf order preserved
        assert q.counters()["policy"] == "fault-aware(sjf)"

    def test_reset_clears_rate_and_inner(self):
        inner = WeightedFair({"a": 1.0})
        p = FaultAware(inner)
        p.observe(1.0, fault_events=9, alive=2, total=4)
        p.admit(ticket(n_pairs=50), now=1.0)
        p.reset()
        assert p.fault_rate(1.0) == 0.0
        assert p.shed_predicted == 0
        assert inner._vtime == 0.0

    def test_observe_offer_delegates_to_inner(self):
        # Offering through a FaultAware-wrapped queue must advance the
        # wrapped WeightedFair's clocks exactly as offering directly would.
        inner = WeightedFair({"a": 1.0})
        q = AdmissionQueue(capacity=8, policy=FaultAware(inner))
        t = ticket(n_pairs=2, tenant="a")
        q.offer(t)
        assert inner._finish["a"] == pytest.approx(float(t.vector.num_tensors))

    def test_counters_merge_inner_counters(self):
        class Counting(Fifo):
            def counters(self):
                return {"inner_stat": 42}

        p = FaultAware(Counting(), min_success_prob=0.9,
                       exposure_s_per_pair=1e-2, tau_s=0.1)
        p.observe(1.0, fault_events=5, alive=4, total=4)
        p.admit(ticket(n_pairs=2), now=1.0)  # shed
        assert p.counters() == {"inner_stat": 42, "shed_predicted": 1}

    def test_queue_counters_include_policy_counters(self):
        q = AdmissionQueue(capacity=4, policy=FaultAware(Fifo()))
        assert q.counters()["shed_predicted"] == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultAware("fifo")
        with pytest.raises(ConfigurationError):
            FaultAware(FaultAware(Fifo()))  # no double wrapping
        with pytest.raises(ConfigurationError):
            FaultAware(Fifo(), tau_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultAware(Fifo(), min_success_prob=1.0)
        with pytest.raises(ConfigurationError):
            FaultAware(Fifo(), exposure_s_per_pair=-1.0)
