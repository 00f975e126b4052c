#!/usr/bin/env python3
"""polyflag benchmark: three closed-loop workloads, one client, one thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh processes started from the checkout's ``src``:
set-up probes (interpreter start, ``import polyflag`` and input
generation, timed up to the worker's READY line) before and after one
measuring worker that runs passes over the seeded jobs for ``--seconds``.
Every result is checked outside the timed region.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced pass with ``--trace 1``.  The exit code is 1
when any check fails, 2 when the program is missing or a worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("reflection-ladder", "chiral-cover", "sweep")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
SETUP_PROBES = 6  # plus the measuring worker's own set-up
WORKER_TIMEOUT = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not measure: no program, or a worker died."""


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def worker_env():
    env = dict(os.environ)
    env.pop("POLYFLAG_MAX_COSETS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, *extra):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} worker failed during set-up")
    return proc, setup


def finish(proc, workload):
    """Wait for a worker, killing it if it overruns; returns its output."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker timed out") from None
    return out


def probe(args):
    proc, setup = start_worker(args, "--probe")
    finish(proc, args.workload)
    return setup


def measure(args):
    """The measuring worker between two halves of the set-up probes, so
    that set-up is sampled at both ends of the run; returns its report."""
    setups = [probe(args) for _ in range(SETUP_PROBES // 2)]
    proc, setup = start_worker(args)
    setups.append(setup)
    out = finish(proc, args.workload)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    setups += [probe(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    report = json.loads(out.strip().splitlines()[-1])
    report["setups"] = setups
    return report


def metrics_of(report, trace):
    """Metric name -> value, from one worker report."""
    if trace:
        walls = [wall for traced, wall in report["passes"] if not traced]
        traced = [wall for is_traced, wall in report["passes"] if is_traced]
        out = dict(report["layers"])
        out["trace.untraced_wall_s"] = statistics.median(walls)
        out["trace.traced_wall_s"] = statistics.median(traced)
        out["trace.overhead_s"] = (out["trace.traced_wall_s"]
                                   - out["trace.untraced_wall_s"])
        return out
    # each job's median over passes: robust to a slow pass, and the
    # percentiles do not depend on how many passes fit in the run
    per_job = [statistics.median(times) for times in zip(*report["latencies"])]
    wall = sum(per_job)
    attempted = report["jobs"] * len(report["passes"])
    decided = 1 - report["outcomes"].get("failed", 0) / attempted
    return {
        "setup_s": statistics.median(report["setups"]),
        "wall_s": wall,
        "verdicts_per_s": len(per_job) * decided / wall,
        "latency_p50_s": statistics.median(per_job),
        "latency_p90_s": statistics.quantiles(per_job, n=10,
                                              method="inclusive")[8],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def describe(name, args, report, metrics):
    passes = report["passes"]
    attempted = report["jobs"] * len(passes)
    failed = report["outcomes"].get("failed", 0)
    print(f"== {name}  seed {args.seed}  {report['jobs']} jobs x"
          f" {len(passes)} passes  trace {args.trace}")
    for key, value in metrics.items():
        unit = END_TO_END_UNITS.get(key) or layer_unit(key)
        print(f"  {key:40s} {value:>16.6g} {unit}")
    print(f"  {'failed_share':40s} {failed / attempted:>16.6g} share")
    print("  outcomes " + " ".join(
        f"{k}={v}" for k, v in sorted(report["outcomes"].items())))
    print(f"  untraced passes per job {len(report['latencies'])}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    return attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polyflag" / "__init__.py").is_file():
        print(f"no polyflag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    combined = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            report = measure(one)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        metrics = metrics_of(report, args.trace)
        n, bad = describe(name, one, report, metrics)
        attempted += n
        failed += bad
        for key, value in metrics.items():
            unit = END_TO_END_UNITS.get(key) or layer_unit(key)
            label = key if len(names) == 1 else f"{name}/{key}"
            combined[label] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
