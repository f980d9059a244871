"""ServeConfig JSON codec: nested-block validation and byte-stable round trips."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpusim.trace import TraceConfig
from repro.serve import (
    AutoscalerConfig,
    BurstyArrivals,
    HealthConfig,
    IntegrityConfig,
    PoissonArrivals,
    ServeConfig,
    SloTargets,
    TenantSpec,
    WeightedFair,
)
from repro.workloads import WorkloadParams


def every_block_config() -> ServeConfig:
    """A v8 config with every nested block set to a non-default value."""
    workload = WorkloadParams(vector_size=8, tensor_size=32, num_vectors=6)
    return ServeConfig(
        queue_capacity=16,
        queue_policy="weighted",
        tenants=(
            TenantSpec("heavy", PoissonArrivals(250.0), workload, weight=3.0,
                       slo=SloTargets(p99_s=0.5, max_drop_rate=0.1)),
            TenantSpec("light", BurstyArrivals(80.0, 5.0, mean_on_s=0.2), workload,
                       slo=SloTargets(p50_s=0.1)),
        ),
        autoscaler=AutoscalerConfig(max_devices=4, p99_target_s=0.1, replace_lost=True),
        faults=FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 0.01, 1),)),
        warm_restore=True,
        max_batch_vectors=4,
        sharded=True,
        routing="learned",
        health=HealthConfig(hedging=True, adaptive_hedging=True),
        trace=TraceConfig(mode="sampling", sample_stride=4),
        integrity=IntegrityConfig(mode="spot", audit_fraction=0.1),
    )


class TestRoundTrip:
    def test_every_block_round_trips_byte_identical(self, tmp_path):
        cfg = every_block_config()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        cfg.to_json(first)
        loaded = ServeConfig.from_json(first)
        loaded.to_json(second)
        assert second.read_bytes() == first.read_bytes()
        assert loaded == cfg

    def test_policy_instance_is_written_as_its_name(self):
        cfg = ServeConfig(queue_policy=WeightedFair({"a": 2.0}))
        assert cfg.to_dict()["queue_policy"] == "weighted"

    def test_empty_fault_plan_is_written_as_no_plan(self):
        assert ServeConfig(faults=FaultPlan(())).to_dict()["faults"] is None


#: Every nested block of a serve config document, as a key path from
#: the document root, and the path the error message must name.  A bad
#: ``tenants[i].workload`` block used to escape as a bare TypeError.
NESTED_BLOCKS = [
    (("tenants", 0), "tenants[0]"),
    (("tenants", 1, "arrivals"), "tenants[1].arrivals"),
    (("tenants", 0, "workload"), "tenants[0].workload"),
    (("tenants", 1, "slo"), "tenants[1].slo"),
    (("autoscaler",), "autoscaler"),
    (("health",), "health"),
    (("trace",), "trace"),
    (("integrity",), "integrity"),
]


def document_with(keys, mutate):
    doc = {"version": ServeConfig.CONFIG_VERSION, **every_block_config().to_dict()}
    parent = doc
    for k in keys[:-1]:
        parent = parent[k]
    parent[keys[-1]] = mutate(parent[keys[-1]])
    return doc


class TestMalformedNestedInput:
    @pytest.mark.parametrize("keys, path", NESTED_BLOCKS, ids=[p for _, p in NESTED_BLOCKS])
    def test_unknown_key_or_non_object_names_the_block(self, keys, path):
        for mutate, named in [
            (lambda block: {**block, "bogus_knob": 1}, "bogus_knob"),
            (lambda block: "oops", "'oops'"),
            (lambda block: 7, "7"),
            (lambda block: [1, 2], "[1, 2]"),
        ]:
            with pytest.raises(ConfigurationError) as info:
                ServeConfig.from_dict(document_with(keys, mutate))
            assert path in str(info.value) and named in str(info.value)

    def test_tenants_must_be_a_list(self):
        with pytest.raises(ConfigurationError, match="tenants must be a JSON list"):
            ServeConfig.from_dict({"tenants": {"name": "a"}})

    def test_missing_required_tenant_key_is_named(self):
        doc = document_with(("tenants", 0), lambda t: {"name": t["name"]})
        with pytest.raises(ConfigurationError, match=r"tenants\[0\].*'arrivals'"):
            ServeConfig.from_dict(doc)

    def test_wrong_value_type_is_a_configuration_error(self):
        doc = document_with(("health",), lambda h: {**h, "alpha": "high"})
        with pytest.raises(ConfigurationError, match="health"):
            ServeConfig.from_dict(doc)

    def test_null_block_means_default(self):
        doc = document_with(("tenants", 0, "slo"), lambda s: None)
        assert ServeConfig.from_dict(doc).tenants[0].slo == SloTargets()

