"""One device lifecycle, owned by ``ClusterState``.

Each device has one state (``active``, ``condemned``, ``spare``,
``warming``, ``quarantined``, ``failed`` or ``down(S)``) and changes it
only along an edge of ``repro.gpusim.cluster.EDGES``.  The table tests
pin the edges; a hypothesis sequence test drives a bare 8-device,
2-node cluster through random lifecycle moves; the serving tests replay
two runs whose flaps used to lose devices for good.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LifecycleError, SchedulingError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpusim.cluster import (
    ACTIVE,
    CONDEMNED,
    EDGES,
    FAILED,
    POOL,
    QUARANTINED,
    SPARE,
    WARMING,
    down,
    up,
)
from repro.serve import AutoscalerConfig, PoissonArrivals, ServeConfig, make_server
from repro.tensor.spec import reset_uid_counter
from tests import golden_modes as golden
from tests.conftest import make_cluster, make_tensor

#: The states a flap takes down (and brings back).
BASE = (ACTIVE, CONDEMNED, SPARE, WARMING)


class TestEdgeTable:
    def test_every_state_has_a_row(self):
        states = {*BASE, QUARANTINED, FAILED, *(down(s) for s in BASE)}
        assert set(EDGES) == states
        for targets in EDGES.values():
            assert targets <= states

    def test_every_live_state_can_fail_be_quarantined_or_go_down(self):
        assert EDGES[FAILED] == set()
        assert EDGES[QUARANTINED] == {FAILED}
        for s in BASE:
            assert {QUARANTINED, FAILED, down(s)} <= EDGES[s]
            assert {s, QUARANTINED, FAILED} <= EDGES[down(s)]

    def test_only_a_warm_up_or_a_flap_joins_the_pool(self):
        for s, targets in EDGES.items():
            if ACTIVE in targets:
                assert s in (WARMING, down(ACTIVE))
            if CONDEMNED in targets:
                assert s in (ACTIVE, down(CONDEMNED))
        assert SPARE not in EDGES[CONDEMNED]

    def test_up_inverts_down(self):
        for s in BASE:
            assert up(down(s)) == s
            assert up(s) is None
        assert up(QUARANTINED) is up(FAILED) is None


class TestTransition:
    def test_illegal_edge_raises_and_changes_nothing(self):
        cl = make_cluster(num_devices=4)
        cl.retire_device(3)
        with pytest.raises(LifecycleError, match="device 3 cannot go from spare to active") as err:
            cl.transition(3, ACTIVE)
        assert (err.value.device_id, err.value.from_state, err.value.to_state) == (3, SPARE, ACTIVE)
        assert isinstance(err.value, SchedulingError)
        assert cl.state(3) == SPARE
        assert cl.alive_ids() == [0, 1, 2]

    def test_out_of_range(self):
        with pytest.raises(SchedulingError, match="out of range"):
            make_cluster().transition(-1, SPARE)

    def test_warm_up_joins_cold(self):
        cl = make_cluster(num_devices=2)
        cl.register(make_tensor(), 1)
        cl.retire_device(1)
        assert cl.transition(1, WARMING) == []
        assert cl.alive_ids() == [0]
        cl.transition(1, ACTIVE)
        assert cl.alive_ids() == [0, 1]
        assert len(cl.pools[1]) == 0
        cl.check_invariants()

    def test_flap_takes_every_live_member_down_and_back(self):
        cl = make_cluster(num_devices=4)
        t = make_tensor()
        cl.register(t, 0)
        cl.retire_device(1)
        cl.retire_device(2)
        cl.transition(2, WARMING)
        cl.transition(3, QUARANTINED)
        taken = cl.flap_down([0, 1, 2, 3])
        assert taken == {0: [t.uid], 1: [], 2: []}  # quarantined stays as it is
        assert [cl.state(d) for d in range(4)] == [
            down(ACTIVE), down(SPARE), down(WARMING), QUARANTINED
        ]
        assert cl.num_alive == 0
        assert cl.flap_down([0, 1, 2, 3]) == {}  # an overlapping flap takes nothing
        assert [cl.flap_up(d) for d in range(4)] == [True, False, False, False]
        assert [cl.state(d) for d in range(4)] == [ACTIVE, SPARE, WARMING, QUARANTINED]
        assert len(cl.pools[0]) == 0  # back cold
        cl.check_invariants()

    def test_loss_during_a_flap_is_permanent(self):
        cl = make_cluster(num_devices=3)
        cl.flap_down([0, 1])
        assert cl.fail_node([0, 1]) == {0: [], 1: []}  # down from the pool: lost
        assert cl.flap_up(0) is False
        assert [cl.state(d) for d in range(3)] == [FAILED, FAILED, ACTIVE]
        assert cl.fail_node([0, 1]) == {}

    def test_warm_up_ending_during_a_flap_leaves_a_spare(self):
        cl = make_cluster(num_devices=2)
        cl.retire_device(1)
        cl.transition(1, WARMING)
        cl.flap_down([1])
        cl.transition(1, down(SPARE))
        assert cl.flap_up(1) is False
        assert cl.state(1) == SPARE

    def test_condemned_device_stays_then_leaves_for_good(self):
        cl = make_cluster(num_devices=2)
        cl.register(make_tensor(), 0)
        cl.transition(0, CONDEMNED)
        assert cl.alive_ids() == [0, 1]
        assert len(cl.pools[0]) == 1  # still serving
        cl.flap_down([0])
        assert cl.flap_up(0) is True
        assert cl.state(0) == CONDEMNED
        cl.retire_device(0)
        assert cl.state(0) == QUARANTINED
        with pytest.raises(LifecycleError):
            cl.transition(0, WARMING)
        cl.check_invariants()


# ----------------------------------------------------- random sequences
N = 8
NODES = ((0, 1, 2, 3), (4, 5, 6, 7))
DEVICE_OPS = ("fail", "retire", "request", "warmed", "activate", "quarantine", "condemn", "register")
OP = st.one_of(
    st.tuples(st.sampled_from(DEVICE_OPS), st.integers(0, N - 1)),
    st.tuples(st.sampled_from(("node_loss", "flap_down", "flap_up")), st.integers(0, 1)),
)


def snapshot(cl):
    return (
        dict(cl._members), cl.alive_mask, list(cl.alive_ids()),
        dict(cl._holders), [len(p) for p in cl.pools],
    )


class TestLifecycleSequences:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(OP, min_size=1, max_size=60))
    def test_random_sequences_keep_the_lifecycle_consistent(self, ops):
        cl = make_cluster(num_devices=N)
        # Flapped members that no loss hit: the state each must return to.
        returns: dict[int, str] = {}
        lost: set[int] = set()

        def attempt(dev, to):
            before = snapshot(cl)
            if to in EDGES[cl.state(dev)]:
                cl.transition(dev, to)
                return True
            with pytest.raises(LifecycleError) as err:
                cl.transition(dev, to)
            assert (err.value.device_id, err.value.to_state) == (dev, to)
            assert snapshot(cl) == before
            return False

        for op, arg in ops:
            if op == "fail":
                cl.fail_device(arg)
            elif op == "node_loss":
                cl.fail_node(NODES[arg])
            elif op == "flap_down":
                before = {d: cl.state(d) for d in NODES[arg]}
                for d in cl.flap_down(NODES[arg]):
                    returns[d] = before[d]
            elif op == "flap_up":
                for d in NODES[arg]:
                    cl.flap_up(d)
                    if d in returns:
                        assert cl.state(d) == returns.pop(d)
                    elif d in lost:
                        assert cl.state(d) == FAILED
            elif op == "retire":
                to = QUARANTINED if cl.state(arg) == CONDEMNED else SPARE
                attempt(arg, to)
            elif op == "request":
                attempt(arg, WARMING)
            elif op == "warmed":
                # A warm-up event: warming joins, a flap's warm-up ends spare.
                if cl.state(arg) == down(WARMING) and attempt(arg, down(SPARE)):
                    returns[arg] = SPARE
                elif cl.state(arg) == WARMING:
                    attempt(arg, ACTIVE)
            elif op == "activate":
                attempt(arg, ACTIVE)
            elif op == "quarantine":
                if attempt(arg, QUARANTINED) and arg in returns:
                    returns[arg] = QUARANTINED
            elif op == "condemn":
                attempt(arg, CONDEMNED)
            elif cl.is_alive(arg):
                cl.register(make_tensor(size=8), arg)
            for d in list(returns):
                state = cl.state(d)
                if state == FAILED:
                    del returns[d]
                    lost.add(d)
                elif up(state) is None and state != QUARANTINED:
                    # Back up before its node (``down(S) -> S`` is an
                    # edge any transition may take): flap_up leaves it.
                    del returns[d]
            assert cl.alive_ids() == [d for d in range(N) if cl.state(d) in POOL]
            cl.check_invariants()


# --------------------------------------------------------- serving runs
def autoscaled_flap_run():
    """One shard over two nodes; node 0 flaps for 2 ms at t = 2 ms while
    device 1 warms up and devices 2-3 are spares."""
    reset_uid_counter()
    plan = FaultPlan((FaultEvent(FaultKind.NODE_FLAP, 0.002, 0, duration_s=0.002),))
    cfg = ServeConfig(
        autoscaler=AutoscalerConfig(
            min_devices=1, max_devices=8, initial_devices=2, up_queue_depth=2,
            warmup_s=1e-3, cooldown_s=1e-3,
        )
    )
    server = make_server(cfg, cluster=golden._cluster(8, devices_per_node=4), scheduler=golden._scheduler())
    result = server.run(golden._stream(3, n=40), PoissonArrivals(4_000.0), seed=12, faults=plan)
    return server, result


class TestFlapKeepsSpares:
    def test_flapped_spares_and_warm_up_come_back(self):
        server, result = autoscaled_flap_run()
        actions = [(a["time_s"], a["action"], a["device"]) for a in result.autoscale["actions"]]
        warming = [dev for t, kind, dev in actions if kind == "up" and t < 0.002]
        assert warming == [1]  # device 1 was warming when the flap hit
        assert [server.cluster.state(d) for d in (1, 2, 3)] == [SPARE] * 3
        assert all(server.cluster.state(d) != FAILED for d in range(8))
        first_up_after = next(dev for t, kind, dev in actions if kind == "up" and t >= 0.004)
        assert first_up_after == 1  # not node 1's device 4
        server.cluster.check_invariants()


def loss_during_flap_run(sharded: bool, loss=FaultKind.NODE_LOST, victim: int = 1):
    reset_uid_counter()
    plan = FaultPlan((
        FaultEvent(FaultKind.NODE_FLAP, 0.002, 0, duration_s=0.003),
        FaultEvent(loss, 0.003, victim),
    ))
    server = make_server(
        ServeConfig(sharded=sharded),
        cluster=golden._cluster(8, devices_per_node=4), scheduler=golden._scheduler(),
    )
    result = server.run(golden._stream(3, n=40), PoissonArrivals(4_000.0), seed=12, faults=plan)
    return server, result


class TestLossDuringFlap:
    @pytest.mark.parametrize("sharded", [False, True], ids=["one-shard", "sharded"])
    def test_loss_during_the_down_phase_is_permanent(self, sharded):
        server, result = loss_during_flap_run(sharded)
        assert [server.cluster.state(d) for d in range(4)] == [FAILED] * 4
        assert server.cluster.alive_ids() == [4, 5, 6, 7]
        assert result.faults["node_losses"] == 1
        restores = [
            e for e in result.fault_events
            if e["kind"] == "restore" and e["label"].startswith("node flap up")
        ]
        assert restores == []
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"]
        if sharded:
            assert [x["dead"] for x in result.sharding["shards"]] == [True, False]
        server.cluster.check_invariants()

    def test_a_device_lost_while_its_shard_flaps_leaves_the_shard_standing(self):
        server, result = loss_during_flap_run(True, FaultKind.DEVICE_LOST, victim=1)
        assert [server.cluster.state(d) for d in range(4)] == [ACTIVE, FAILED, ACTIVE, ACTIVE]
        assert [x["dead"] for x in result.sharding["shards"]] == [False, False]
        assert result.faults["node_losses"] == 0
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"]
        server.cluster.check_invariants()


class TestBlameQuarantine:
    def test_last_device_is_condemned_then_quarantined_when_it_leaves(self):
        from repro.core.config import MiccoConfig
        from repro.integrity import IntegrityConfig
        from repro.serve.server import ServeRun
        from repro.serve.timeline import Timeline

        cfg = ServeConfig(
            integrity=IntegrityConfig(mode="spot"),
            autoscaler=AutoscalerConfig(
                min_devices=1, max_devices=2, initial_devices=2, cooldown_s=0.0
            ),
        )
        server = make_server(cfg, cluster=MiccoConfig(num_devices=2), scheduler=golden._scheduler())
        run = ServeRun(server, [], None, 0)
        cluster, shard = run.cluster, run.shards[0]
        cluster.retire_device(0)
        run.quarantine_device(1, 0.0)  # the last alive device stays, condemned
        assert [cluster.state(d) for d in (0, 1)] == [SPARE, CONDEMNED]
        assert cluster.alive_ids() == [1]
        timeline = Timeline()
        assert shard.scaler.request_device(0.0, shard, timeline, "grow")
        shard.scaler.online(0.0, 0, shard, lambda *_: 0)
        shard.scaler.step(1.0, shard, timeline, lambda *_: 0)  # idle: scale down
        assert [cluster.state(d) for d in (0, 1)] == [ACTIVE, QUARANTINED]
        assert not shard.scaler.request_device(2.0, shard, timeline, "grow")
        run.quarantine_device(0, 2.0)  # the last device again: condemned, never dropped
        assert cluster.state(0) == CONDEMNED and cluster.alive_ids() == [0]
        cluster.check_invariants()
