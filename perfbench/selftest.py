#!/usr/bin/env python3
"""Self-test of the span tracer.

    python3 perfbench/selftest.py

1. Calls inside a module are intercepted: geometry.linear_image must open a
   convex_hull child span and exact.exterior_power must reach det through
   exact.minor.  Uninstalling restores the original functions.
2. For every workload, two traced one-pass runs of seed 1 report identical
   counts (every *.calls, lift attempts, powers scanned, search attempts and
   precision bits), because counts are exact.

Exits non-zero when a check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

SEED = 1
COUNT_SUFFIXES = (".calls", ".lift_attempts", ".powers_scanned", ".attempts",
                  ".certified_ratio", ".precision_bits")


def check_intra_module():
    from monomap import exact, geometry
    from tracer import LAYERS, Tracer

    originals = {(layer, fn): getattr(module, fn)
                 for layer, (module, fns) in LAYERS.items() for fn in fns}
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job(geometry.linear_image, exact.Matrix.from_rows([[2, 1], [1, 1]]),
                   geometry.standard_simplex(2))
        tracer.job(exact.exterior_power, exact.Matrix.from_rows([[1, 2], [3, 4]]), 2)
    finally:
        tracer.restore()
    problems = []
    names = [tracer.names[f] for f in tracer.fid]
    parents = [names[p] if p >= 0 else None for p in tracer.parent]
    if ("geometry.convex_hull", "geometry.linear_image") not in zip(names, parents):
        problems.append("linear_image -> convex_hull was not traced")
    if ("exact.det", "exact.exterior_power") not in zip(names, parents):
        problems.append("exterior_power -> minor -> det was not traced")
    stats = tracer.stats()
    if stats["geometry.convex_hull.calls"] != 1 or stats["exact.exterior_power.calls"] != 1:
        problems.append("unexpected call counts")
    restored = all(getattr(module, fn) is originals[(layer, fn)]
                   for layer, (module, fns) in LAYERS.items() for fn in fns)
    if not restored:
        problems.append("restore left wrappers installed")
    return problems


def traced_counts(workload, seed):
    """Exact counts of a traced run of one pass."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def check_repeatable(workload, first):
    """Problems where a fresh traced run of SEED differs from `first`."""
    again = traced_counts(workload, SEED)
    return [f"{workload}: {k} {first[k]} != {v}" for k, v in again.items() if first[k] != v]


def main():
    problems = check_intra_module()
    for workload in WORKLOADS:
        problems += check_repeatable(workload, traced_counts(workload, SEED))
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
