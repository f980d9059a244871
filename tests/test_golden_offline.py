"""Frozen golden fixture for the offline path (``Micco.run``).

``tests/golden/offline-f0d2.json`` pins the paper's f0d2 correlator
(16 time slices, 8 GPUs, outputs kept resident) under MICCO-naive with
LRU and with FIFO eviction, and under Groute.  Each run stores its
metrics summary with floats as ``float.hex``, its reuse-pattern
histogram and a digest of every vector's assignment, so a change to
placement, the engine or the memory pool that moves one bit shows up
here.  Regenerate deliberately with
``python tools/regen_golden.py --write offline-f0d2``.
"""

import pytest

from repro.gpusim.memory import MemoryPool
from tests import golden_modes as golden

RUNS = ("micco-naive-lru", "micco-naive-fifo", "groute")


@pytest.fixture(scope="module")
def fresh():
    return golden.offline_fingerprint()


@pytest.mark.parametrize("run", RUNS)
def test_offline_run_matches_fixture(run, fresh):
    stored = golden.load_offline()["runs"][run]
    now = fresh["runs"][run]
    assert now["summary"] == stored["summary"]
    assert now["pattern_counts"] == stored["pattern_counts"]
    assert now["assignments_sha256"] == stored["assignments_sha256"]


def test_fixture_names_exactly_these_runs():
    assert set(golden.load_offline()["runs"]) == set(RUNS)


def test_fifo_run_reaches_victim_order(monkeypatch):
    calls = []
    original = MemoryPool._victim_order

    def spy(self, protect):
        calls.append(self.policy)
        return original(self, protect)

    monkeypatch.setattr(MemoryPool, "_victim_order", spy)
    golden.offline_fingerprint()
    assert calls and set(calls) == {"fifo"}
