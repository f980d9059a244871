"""Compare two suite results: ``python3 bench/compare.py PARENT.json CHANGE.json``.

For every workload and end-to-end metric present in both files, prints
both medians and quartiles, the metric's bound and a verdict:

* ``unresolved`` — the run-to-run spread (the wider of the two
  interquartile ranges) exceeds the bound, unless every run of one
  side beats every run of the other;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``better`` — better by more than the bound and by more than the
  parent's own interquartile range;
* ``unchanged`` — otherwise.

Simulated metrics are exact at a fixed seed, so their spread is zero
and any move past the bound is real.  The last lines say whether the
simulated outputs are bit-identical (same digest per workload).  Exits
1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys


def verdict(parent: dict, change: dict) -> str:
    sign = 1.0 if parent["better"] == "higher" else -1.0
    tol = parent["bound"]
    if parent["bound_kind"] == "rel":
        tol *= abs(parent["median"])
    gain = sign * (change["median"] - parent["median"])
    spread = max(parent["q3"] - parent["q1"], change["q3"] - change["q1"])
    if spread > tol:
        # "Goodness" of each run: larger is better for either direction.
        parent_runs = [sign * x for x in parent["samples"]]
        change_runs = [sign * x for x in change["samples"]]
        if min(change_runs) > max(parent_runs):
            return "better"
        if max(change_runs) < min(parent_runs):
            return "worse"
        return "unresolved"
    if gain < -tol:
        return "worse"
    if gain > max(tol, parent["q3"] - parent["q1"]):
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        parent = json.load(fh)
    with open(argv[1]) as fh:
        change = json.load(fh)
    if parent["seed"] != change["seed"] or parent["scale"] != change["scale"]:
        print(f"warning: comparing seed {parent['seed']} scale {parent['scale']} against "
              f"seed {change['seed']} scale {change['scale']}")
    worse = False
    print(f"{'workload':16s} {'metric':28s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'bound':>9s}  verdict")
    for wl, pw in parent["workloads"].items():
        cw = change["workloads"].get(wl)
        if cw is None:
            print(f"{wl:16s} missing from {argv[1]}")
            continue
        for name, pm in pw["metrics"].items():
            cm = cw["metrics"].get(name)
            if cm is None:
                continue
            v = verdict(pm, cm)
            worse |= v == "worse"
            bound = f"{pm['bound']:.1%}" if pm["bound_kind"] == "rel" else f"{pm['bound']:g} abs"
            print(f"{wl:16s} {name:28s} "
                  f"{pm['median']:12.6g} [{pm['q1']:9.4g}, {pm['q3']:9.4g}] "
                  f"{cm['median']:12.6g} [{cm['q1']:9.4g}, {cm['q3']:9.4g}] {bound:>9s}  {v}")
    for wl, pw in parent["workloads"].items():
        cw = change["workloads"].get(wl)
        if cw is not None:
            same = "identical" if pw["digest"] == cw["digest"] else "CHANGED"
            print(f"{wl:16s} simulated outputs {same}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
