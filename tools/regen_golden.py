#!/usr/bin/env python
"""Recompute the golden serving fixtures and report what changed.

Usage::

    PYTHONPATH=src python tools/regen_golden.py           # check only
    PYTHONPATH=src python tools/regen_golden.py --write   # rewrite fixtures

Every (mode, seed) fixture under ``tests/golden/`` is recomputed, the
in-process serving modes and the ``cli-*`` modes that run ``micco serve``
/ ``micco chaos`` alike, and so are the offline ``offline-f0d2``, the
``ml-models`` and the ``redstar-streams`` fixtures (name a mode, e.g.
``cli-gray``, to check or ``--write`` it alone).  For
each mismatch the digests that moved and a field-by-field summary diff
are printed.  Exits 1 when any fixture differs (or is missing), 0 when
all match.  Files are written only with ``--write``; the exit status
still reports whether anything differed before the rewrite.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests import golden_modes as golden  # noqa: E402

DIGESTS = ("report_sha256", "trace_sha256", "engine_trace_sha256")


def diff(old: dict | None, new: dict) -> list[str]:
    """Readable differences between a stored and a fresh fingerprint."""
    if old is None:
        return ["fixture missing"]
    lines = [f"{k}: {old.get(k)} -> {new[k]}" for k in DIGESTS if old.get(k) != new[k]]
    before, after = old.get("summary", {}), new["summary"]
    for field in sorted(set(before) | set(after)):
        if before.get(field) != after.get(field):
            lines.append(f"  {field}: {before.get(field)!r} -> {after.get(field)!r}")
    return lines


def diff_offline(old: dict | None, new: dict) -> list[str]:
    """Readable differences between two offline fingerprints, run by run."""
    if old is None:
        return ["fixture missing"]
    lines = []
    for run in sorted(set(old["runs"]) | set(new["runs"])):
        before, after = old["runs"].get(run, {}), new["runs"].get(run, {})
        for key in ("assignments_sha256", "pattern_counts"):
            if before.get(key) != after.get(key):
                lines.append(f"{run}.{key}: {before.get(key)} -> {after.get(key)}")
        b_sum, a_sum = before.get("summary", {}), after.get("summary", {})
        for field in sorted(set(b_sum) | set(a_sum)):
            if b_sum.get(field) != a_sum.get(field):
                lines.append(f"  {run}.{field}: {b_sum.get(field)!r} -> {a_sum.get(field)!r}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite the fixture files")
    ap.add_argument("modes", nargs="*", help="restrict to these modes (default: all)")
    args = ap.parse_args(argv)
    known = [*golden.FIXTURE_MODES, golden.OFFLINE_MODE, golden.ML_MODE, golden.STREAMS_MODE]
    unknown = set(args.modes) - set(known)
    if unknown:
        ap.error(f"unknown modes {sorted(unknown)}; choose from {known}")
    modes = args.modes or known
    changed = 0
    if golden.OFFLINE_MODE in modes:
        fresh = golden.offline_fingerprint()
        path = golden.OFFLINE_PATH
        lines = diff_offline(golden.load_offline() if path.exists() else None, fresh)
        print(f"{golden.OFFLINE_MODE}: {'changed' if lines else 'ok'}")
        for line in lines:
            print(f"  {line}")
        if lines:
            changed += 1
            if args.write:
                path.write_text(golden.dump(fresh))
    named = (
        (golden.ML_MODE, golden.ml_fingerprint, golden.ML_PATH, "models",
         "node counts, depths or predictions moved"),
        (golden.STREAMS_MODE, golden.stream_fingerprint, golden.STREAMS_PATH, "datasets",
         "stream digest or pipeline stats moved"),
    )
    for mode, fingerprint, path, section, what in named:
        if mode not in modes:
            continue
        fresh = fingerprint()
        stored = json.loads(path.read_text()) if path.exists() else {section: {}}
        moved = sorted(
            name
            for name in set(stored[section]) | set(fresh[section])
            if stored[section].get(name) != fresh[section].get(name)
        )
        print(f"{mode}: {'changed' if moved else 'ok'}")
        for name in moved:
            print(f"  {name}: {what}")
        if moved:
            changed += 1
            if args.write:
                path.write_text(golden.dump(fresh))
    special = (golden.OFFLINE_MODE, golden.ML_MODE, golden.STREAMS_MODE)
    for mode in (m for m in modes if m not in special):
        for seed in golden.SEEDS:
            fresh = golden.fingerprint(mode, seed)
            path = golden.fixture_path(mode, seed)
            stored = golden.load(mode, seed) if path.exists() else None
            lines = diff(stored, fresh)
            gaps = golden.coverage_gaps(mode, fresh["summary"])
            status = "changed" if lines else "ok"
            print(f"{mode}-s{seed}: {status}")
            for line in lines + [f"  coverage gap: {g}" for g in gaps]:
                print(f"  {line}")
            if lines:
                changed += 1
                if args.write:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(golden.dump(fresh))
    if changed:
        verb = "rewritten" if args.write else "differ (rerun with --write to accept)"
        print(f"{changed} fixture(s) {verb}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
