#!/usr/bin/env python3
"""Baseline of every workload on two seeds, untraced and traced.

    python3 perfbench/suite.py [--out FILE]

Runs the workloads of BENCHMARK.json and mixed-volumes, which is kept out
of BENCHMARK.json only to fit its time budget, on seeds 1 and 2 for the
run_seconds of BENCHMARK.json.  Traced runs report their first pass, so
they run for one pass.  Prints every end-to-end metric by name and unit
for each workload and seed,
the documented verdict counts, the tracing overhead (untraced minus traced
jobs_per_s), each layer's share of traced job time, and the tracer
self-test.  Writes all of it, with a description of the machine, to FILE
(default perfbench/baseline.json).  Timings compare only with runs made on
the same machine.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import selftest  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    info = json.loads(next(line[5:] for line in lines if line.startswith("info ")))
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    return info, metrics


def layer_shares(layers):
    """Self time of each layer as a share of traced job time."""
    total = layers["bench.job.total_s"]
    shares = {name: sum(layers[f"{name}.{fn}.self_s"] for fn in fns) / total
              for name, (_, fns) in LAYERS.items()}
    shares["bench"] = layers["bench.job.self_s"] / total
    return shares


def machine():
    import mpmath
    import numpy
    import sympy

    src_commit = subprocess.run(
        ["git", "log", "-1", "--format=%H", "--", "src"], cwd=HERE.parent,
        capture_output=True, text=True).stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "mpmath": mpmath.__version__, "platform": platform.platform(),
            "src_commit": src_commit}


def main():
    p = argparse.ArgumentParser(description="Baseline of every workload on two seeds.")
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"machine": machine(), "seconds": seconds,
              "comparable": "only with runs on the same machine", "workloads": {}}
    problems = selftest.check_intra_module()
    for workload in WORKLOADS:
        rows = {}
        for seed in SEEDS:
            info, e2e = run(workload, seed, seconds, 0)
            _, layers = run(workload, seed, 0, 1)
            rows[seed] = {
                "end_to_end": e2e,
                "jobs": info["jobs"], "passes": info["passes"],
                "jobs_per_pass": info["jobs_per_pass"],
                "tail_percentile": info["tail_percentile"],
                "failed_share": info["failed_share"], "verdicts": info["verdicts"],
                "trace_overhead_jobs_per_s": e2e["jobs_per_s"] - layers["bench.jobs_per_s"],
                "layer_self_share": layer_shares(layers),
                "per_layer": layers,
            }
            print(f"{workload} seed {seed}: {info['jobs']} jobs, "
                  f"tail = p{info['tail_percentile']:.1f}, verdicts {info['verdicts']}")
            for name, value in e2e.items():
                print(f"  {name} {value:.6g}")
            print(f"  failed_share {info['failed_share']:.6g}")
            print(f"  trace overhead {rows[seed]['trace_overhead_jobs_per_s']:.4g} jobs/s")
            print("  self share " + ", ".join(
                f"{k} {v:.2f}" for k, v in rows[seed]["layer_self_share"].items()))
        problems += selftest.check_repeatable(workload, rows[selftest.SEED]["per_layer"])
        report["workloads"][workload] = rows

    split = report["workloads"]
    report["split"] = {
        "geometry_self_share": {w: [r["layer_self_share"]["geometry"] for r in rows.values()]
                                for w, rows in split.items()},
        "geometry_calls_on_certify": [
            sum(v for k, v in r["per_layer"].items()
                if k.startswith("geometry.") and k.endswith(".calls"))
            for r in split["certify"].values()],
    }
    report["selftest"] = {"passed": not problems, "problems": problems}
    print(f"split: {json.dumps(report['split'])}")
    print("selftest " + ("passed" if not problems else f"FAILED: {problems}"))
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
