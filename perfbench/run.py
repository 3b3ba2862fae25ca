#!/usr/bin/env python3
"""Closed-loop benchmark of monomap's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues jobs back to back, each only after the previous one has
returned.  A pass is one pool of jobs built from the seed and the pass
number; the run makes whole passes until S seconds have elapsed, and at
least MIN_PASSES of them.  Throughput and median latency are medians over
passes, so a slow spell of the machine during one pass does not set them.
Set-up time is the median of SETUP_PROBES fresh processes, one started
before each pass and the rest after the last, so that the probes sample the
machine over the whole run rather than over one moment of it.
The tail comes from the first MIN_PASSES passes, so its percentile does not
depend on how many passes fit in the run.  Every answer is checked afterwards by an
independent exact route (perfbench/oracle.py).  The last line of stdout is
one JSON object: end-to-end metrics with --trace 0, per-layer metrics of
the first pass (perfbench/tracer.py) with --trace 1.  The exit code is
non-zero when any answer is wrong.  The library is imported from ../src of
this file, so run it from a source checkout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
MIN_PASSES = 3
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile


def import_library():
    if not (SRC / "monomap" / "__init__.py").is_file():
        sys.exit(f"perfbench: monomap sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import monomap

    if Path(monomap.__file__).resolve().parent != SRC / "monomap":
        sys.exit(f"perfbench: imported monomap from {monomap.__file__}, not {SRC}")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="import, build the inputs, print 'ready' and exit")
    return p.parse_args()


def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter to the first job ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: setup probe failed ({proc.returncode})")
    return elapsed


def run_passes(first_pool, build, run_job, seconds, min_passes, tracer, before_pass):
    """Whole passes until `seconds` of passes have elapsed and at least
    `min_passes` are done; pools after the first are built, and
    `before_pass` is called, between passes, outside their wall time.
    Returns per pass (jobs, [(latency, output or the exception raised)])
    and the wall time of each pass."""
    passes, walls = [], []
    jobs = first_pool
    while len(passes) < min_passes or sum(walls) < seconds:
        if jobs is None:
            jobs = build(len(passes))
        before_pass()
        if tracer is not None:
            tracer.mark_pass()
        records = []
        t_pass = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            try:
                out = run_job(job) if tracer is None else tracer.job(run_job, job)
            except Exception as exc:  # a failed job is counted, not fatal
                out = exc
            records.append((time.perf_counter() - t0, out))
        walls.append(time.perf_counter() - t_pass)
        passes.append((jobs, records))
        jobs = None
    return passes, walls


def verify(passes, check_job):
    """Check every answer; returns wrong answers per pass and some problems."""
    wrong = []
    problems = []
    for jobs, records in passes:
        wrong.append(0)
        for job, (_, out) in zip(jobs, records):
            if isinstance(out, Exception):
                found = [f"{type(out).__name__}: {out}"]
            else:
                try:
                    found = check_job(job, out)
                except Exception as exc:
                    found = [f"checker raised {type(exc).__name__}: {exc}"]
            wrong[-1] += bool(found)
            problems += [f"{job.label}: {p}" for p in found]
    return wrong, problems[:20]


def tail(latencies):
    """Latency at the highest percentile with >= TAIL_BEYOND jobs beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main():
    args = parse_args()
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    build, run_job, check_job = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        build(args.seed, 0)
        print("ready", flush=True)
        return 0

    first_pool = build(args.seed, 0)
    tracer = None
    setup_times = []

    def probe():
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup(args.workload, args.seed))

    if args.trace:
        from tracer import Tracer, metric_units

        tracer = Tracer()
        tracer.install()
    try:
        passes, walls = run_passes(first_pool, lambda i: build(args.seed, i), run_job,
                                   args.seconds, 1 if tracer else MIN_PASSES, tracer,
                                   (lambda: None) if tracer else probe)
    finally:
        if tracer is not None:
            tracer.restore()
    while tracer is None and len(setup_times) < SETUP_PROBES:
        probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong, problems = verify(passes, check_job)

    attempted, failed = sum(len(records) for _, records in passes), sum(wrong)
    jobs_per_s = statistics.median(
        (len(jobs) - bad) / wall for (jobs, _), bad, wall in zip(passes, wrong, walls))
    tail_s, tail_pct = tail([lat for _, records in passes[:MIN_PASSES]
                             for lat, _ in records])
    kinds = Counter(kind for _, records in passes for _, out in records
                    if isinstance(out, dict) for kind in out.get("verdicts", ()))

    print("info " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "jobs": attempted, "jobs_per_pass": len(first_pool),
        "wall_s": sum(walls), "tail_percentile": tail_pct,
        "failed_share": failed / attempted, "verdicts": kinds,
    }, sort_keys=True))
    for p in problems:
        print(f"WRONG {p}")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "jobs_per_s": (jobs_per_s, "jobs/s"),
            "job_p50_s": (statistics.median(
                statistics.median(lat for lat, _ in records) for _, records in passes), "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        stats = tracer.stats()
        stats["bench.jobs_per_s"] = jobs_per_s
        metrics = {name: (stats[name], unit) for name, unit in metric_units()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
