"""Smoke tests of the benchmark itself: ``python -m pytest bench -q``.

Runs the suite at smoke scale once and checks that every metric is
reported with its unit, that each layer's wrappers see calls where the
layer is exercised and none where it is bypassed (so a refactor cannot
silently route around a wrapper), and that the driver-mode JSON line
has the agreed shape.
"""

import json
import subprocess
import sys

import pytest

from bench import compare, run

ROOT = run.ROOT
sys.path.insert(0, str(ROOT / "src"))  # bench.workloads imports repro

SERVING = ("tenants-burst", "sharded-gray", "chaos-integrity")

#: Workloads each layer must see calls on; every other workload must
#: see none.
HEAVY = {
    "timeline": SERVING,
    "queueing": SERVING,
    "batching": SERVING,
    "routing": ("sharded-gray",),
    "learned": ("sharded-gray",),
    "health": ("sharded-gray",),
    "placement": run.WORKLOADS,
    "costmodel": ("tenants-burst",),  # 16 GPUs: wide candidate sets
    "engine": run.WORKLOADS,
    "memory": run.WORKLOADS,
    "integrity": ("chaos-integrity",),
    "faults": ("sharded-gray", "chaos-integrity"),
    "trace": ("chaos-integrity",),
    "slo": SERVING,
    "workloads": run.WORKLOADS,
}

#: End-to-end metrics beyond the ones every workload has.
ONLY = {
    "events_per_s": SERVING,
    "wall_events_per_s": SERVING,
    "sim_p50_ms": SERVING,
    "sim_p99_ms": SERVING,
    "sim_slo_attainment": SERVING,
    "sim_capacity_vps": ("tenants-burst", "sharded-gray"),
    "sim_speedup_vs_groute": ("redstar-f0d2",),
    "sim_undetected_corrupt_frac": ("chaos-integrity",),
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--reps", "2", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def driver(*args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_present_with_unit(smoke):
    assert set(smoke["workloads"]) == set(run.WORKLOADS)
    for wl, w in smoke["workloads"].items():
        expected = {m for m in run.METRICS if wl in ONLY.get(m, run.WORKLOADS)}
        assert set(w["metrics"]) == expected, wl
        for name, m in w["metrics"].items():
            assert m["unit"] == run.METRICS[name][0]
            assert m["n"] >= 1 and m["q1"] <= m["median"] <= m["q3"]
        assert set(w["layers"]) == set(run.layer_units()), wl
        assert all(m["unit"] for m in w["layers"].values())
        assert w["failed"] == 0 and w["attempted"] > 0


def test_layer_calls_match_the_predicted_pattern(smoke):
    for layer, heavy in HEAVY.items():
        for wl in run.WORKLOADS:
            calls = smoke["workloads"][wl]["layers"][f"{layer}.calls"]["value"]
            if wl in heavy:
                assert calls > 0, f"{layer} saw no calls on {wl}"
            else:
                assert calls == 0, f"{layer} saw {calls} calls on {wl}"


def test_traced_and_untraced_outputs_agree():
    same = {"digests": ["a"], "passes": []}
    run.check_digests("w", [same, same])
    with pytest.raises(run.BenchError, match="w: simulated outputs differ"):
        run.check_digests("w", [same, {"digests": ["b"], "passes": []}])


def test_driver_json_line():
    untraced = driver("--workload", "redstar-f0d2", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] is True and untraced["failed"] == 0
    assert untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == list(run.GATED)
    for name, m in untraced["metrics"].items():
        assert m["unit"] == run.METRICS[name][0] and m["value"] > 0
    traced = driver("--workload", "redstar-f0d2", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert set(traced["metrics"]) == set(run.layer_units())


def test_manifest_matches_the_code():
    from bench import workloads

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.REGISTRY) == list(run.WORKLOADS)
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.GATED)
    for m in manifest["end_to_end"]:
        unit, better, bound, kind = run.METRICS[m["name"]]
        assert (m["unit"], m["better"], m["bound"], kind) == (unit, better, bound, "rel")
    units = run.layer_units()
    assert {m["name"] for m in manifest["per_layer"]} == set(units)
    for m in manifest["per_layer"]:
        assert (m["unit"], m["better"]) == units[m["name"]]


def test_compare_verdicts():
    def metric(samples, better="higher", bound=0.1):
        values = sorted(samples)
        n = len(values)
        return {"median": values[n // 2], "q1": values[n // 4], "q3": values[(3 * n) // 4],
                "samples": samples, "better": better, "bound": bound, "bound_kind": "rel"}

    parent = metric([100, 101, 102, 103])
    assert compare.verdict(parent, metric([100, 101, 102, 103])) == "unchanged"
    assert compare.verdict(parent, metric([80, 81, 82, 83])) == "worse"
    assert compare.verdict(parent, metric([120, 121, 122, 123])) == "better"
    assert compare.verdict(metric([50, 100, 150, 200]), metric([60, 110, 160, 210])) == "unresolved"
    lower = metric([10, 10, 10], better="lower", bound=0.0)
    assert compare.verdict(lower, metric([11, 11, 11], better="lower")) == "worse"
