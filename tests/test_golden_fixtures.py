"""Frozen golden fixtures: every serving mode's artifacts, pinned by digest.

Each ``tests/golden/<mode>-s<seed>.json`` holds the SHA-256 of a
fixed-seed run's report JSON, its Chrome trace and (when one is
recorded) its engine trace, plus a readable summary.  Recomputing a
fingerprint also parses every trace as strict JSON.  Any behaviour
change in any serving path shows up here as a digest mismatch, with the
summary diff naming what moved.  Regenerate deliberately with
``python tools/regen_golden.py --write``.
"""

import pytest

from tests import golden_modes as golden

CASES = [(mode, seed) for mode in golden.FIXTURE_MODES for seed in golden.SEEDS]


@pytest.fixture(scope="module")
def fresh():
    """Recomputed fingerprints, one run per (mode, seed)."""
    cache = {}

    def get(mode, seed):
        if (mode, seed) not in cache:
            cache[mode, seed] = golden.fingerprint(mode, seed)
        return cache[mode, seed]

    return get


@pytest.mark.parametrize("mode,seed", CASES, ids=[f"{m}-s{s}" for m, s in CASES])
def test_fixture_matches(mode, seed, fresh):
    stored = golden.load(mode, seed)
    now = fresh(mode, seed)
    assert now["summary"] == stored["summary"]
    for key in ("report_sha256", "trace_sha256", "engine_trace_sha256"):
        assert now[key] == stored[key], f"{mode}-s{seed}: {key} changed"


@pytest.mark.parametrize("mode,seed", CASES, ids=[f"{m}-s{s}" for m, s in CASES])
def test_fixture_covers_its_path(mode, seed):
    assert golden.coverage_gaps(mode, golden.load(mode, seed)["summary"]) == []


def test_every_mode_has_a_coverage_rule():
    assert set(golden.COVERAGE) == set(golden.FIXTURE_MODES)
