"""One workload in one fresh process.

Imports polyflag from the checkout's ``src``, generates the seeded inputs,
prints ``READY`` (the parent times set-up up to that line), then runs
closed-loop passes over the jobs for the requested number of seconds and
prints one JSON line with the raw measurements.  With ``--probe`` it exits
right after ``READY``.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 35
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def run_pass(workload, jobs, tracer, first, check_failed):
    """Run every job once; returns per-job latencies, outcome counts and
    failure messages.  A raised exception or a failed check is a failure."""
    latencies, outcomes, failures = [], Counter(), []
    for n, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = n
        start = time.perf_counter()
        try:
            result = workload.run(job)
        except Exception:
            latencies.append(time.perf_counter() - start)
            outcomes["failed"] += 1
            failures.append(f"{job['label']}: {traceback.format_exc()}")
            continue
        latencies.append(time.perf_counter() - start)
        try:
            outcomes[workload.check(job, result, first)] += 1
        except check_failed as exc:
            outcomes["failed"] += 1
            failures.append(str(exc))
        del result
    return latencies, outcomes, failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import polyflag
    if Path(polyflag.__file__).resolve().parent != ROOT / "src" / "polyflag":
        sys.exit(f"polyflag imported from {polyflag.__file__},"
                 f" not from {ROOT / 'src'}")
    import jobs as jobs_module

    workload = jobs_module.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    jobs = workload.jobs(args.seed, OUT)
    print("READY", flush=True)
    if args.probe:
        return 0

    tracer_module = None
    if args.trace:
        import tracing as tracer_module
    passes = []  # (traced, wall seconds, per-layer metrics or None)
    latencies = []  # per untraced pass, one latency per job
    outcomes, failures = Counter(), []
    tracer = None
    begin = time.perf_counter()
    # start another pass only if it should end within half a pass of the
    # deadline, so that a run measures about --seconds on average
    while (len(passes) < (2 if args.trace else 1)
           or time.perf_counter() - begin + passes[-1][1] / 2 < args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        patched = []
        if traced:
            tracer = tracer_module.Tracer()
            patched = tracer.install()
        try:
            lat, out, fail = run_pass(workload, jobs,
                                      tracer if traced else None,
                                      not passes, jobs_module.CheckFailed)
        finally:
            if patched:
                tracer_module.uninstall(patched)
        metrics = tracer_module.layer_metrics(tracer) if traced else None
        passes.append((traced, sum(lat), metrics))
        if not traced:
            latencies.append(lat)
        outcomes.update(out)
        failures.extend(fail)
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    layers = None
    if args.trace:
        traced_runs = [m for t, _, m in passes if t]
        layers = {key: statistics.median(m[key] for m in traced_runs)
                  for key in traced_runs[0]}
    print(json.dumps({
        "jobs": len(jobs),
        "passes": [[traced, wall] for traced, wall, _ in passes],
        "latencies": latencies,
        "outcomes": outcomes,
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
