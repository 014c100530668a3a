#!/usr/bin/env python3
"""Pipeline benchmark for seplat.

Runs one workload, or with `--workload all` (the default) each workload
one after another:

    certify    the group layer: automorphism search, P0-P5 with full
               factor groups, transitivity and invariant subsets
    construct  the lattice, kernel and product layers: both product
               routes, validation, join checks and characterize on the
               larger MO(m)xMO(n) products
    documents  the io and cli layers: the user's CLI flow on documents

A pass runs the workload's instance list once on freshly relabeled inputs
(see workloads.py).  Every pass runs in a fresh single-threaded process,
so nothing the library keeps in memory can carry over from one pass to the
next; passes repeat while they fit in --seconds (by default `run_seconds`
of BENCHMARK.json).  Every instance compares its outputs with frozen
values.  The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the run first times untraced passes, then passes with the
wrappers of tracing.py installed, and reports per-layer metrics and the
tracing overhead.

Usage:
    python3 pipebench/run.py [--workload certify|construct|documents|all]
                             [--seed N] [--seconds S] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "construct", "documents")
SETUP_SAMPLES = 12
CHILD_TIMEOUT_S = 170


def bootstrap() -> None:
    """Import seplat from this checkout's sources, never from elsewhere."""
    if not (SRC / "seplat" / "__init__.py").is_file():
        sys.exit(f"pipebench: no seplat sources under {SRC}")
    sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def units(spec: dict, section: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec[section]}


def commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def describe(samples: list[float]) -> dict:
    """Median, quartiles and count, plus the highest percentile that still
    has at least ten samples above it (None below eleven samples).  The
    quartiles interpolate between samples and never leave their range."""
    ordered = sorted(samples)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive") if n > 1 else ordered * 3
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": n, "tail": tail}


# -- one pass, in a fresh process -------------------------------------------------


def child(args) -> int:
    """Set up the inputs of pass `--pass-index` and print the wall-clock
    time they were ready; with `--child pass`, then run the pass (traced
    with --trace 1) and print its time, outcomes and per-layer metrics.
    Output is one JSON line."""
    bootstrap()
    import seplat
    import workloads

    with contextlib.ExitStack() as stack:
        workdir = None
        if args.workload == "documents":
            workdir = stack.enter_context(tempfile.TemporaryDirectory(prefix=".pipebench-", dir=ROOT))
        inputs = workloads.make_inputs(args.workload, args.seed, args.pass_index, workdir)
        report = {"ready": time.time(), "backend": seplat.BACKEND}
        if args.child == "pass":
            tracer = None
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                stack.callback(tracer.uninstall)
            t0 = time.perf_counter()
            outcome = workloads.run_pass(args.workload, inputs)
            elapsed = time.perf_counter() - t0
            report.update(
                pass_s=elapsed,
                outcome=outcome,
                layers=tracer.metrics(elapsed) if tracer else None,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
    print(json.dumps(report))
    return 0


def spawn(args, kind: str, pass_index: int, trace: int) -> dict:
    """Run one child process and return its report, with `setup_s` (from
    starting the process to its inputs being ready) and `wall_s` added."""
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--child", kind, "--pass-index", str(pass_index),
    ]
    started = time.time()
    done = subprocess.run(
        cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    report["wall_s"] = time.time() - started
    return report


def measure(args, budget_s: float, first_pass: int, trace: int) -> list[dict]:
    """Run passes for up to `budget_s`: at least one, and another only
    while the median pass so far would still end within the budget."""
    reports = []
    start = time.perf_counter()
    index = first_pass
    while not reports or (
        time.perf_counter() - start + statistics.median(r["wall_s"] for r in reports) <= budget_s
    ):
        reports.append(spawn(args, "pass", index, trace))
        index += 1
    return reports


# -- one workload ------------------------------------------------------------------


def run_workload(args, spec: dict) -> dict:
    start = time.perf_counter()
    plain = measure(args, args.seconds / 2 if args.trace else args.seconds, 0, 0)
    traced = []
    if args.trace:
        traced = measure(args, args.seconds - (time.perf_counter() - start), len(plain), 1)
    reports = plain + traced

    attempted = sum(len(r["outcome"]) for r in reports)
    failures = [(i, name, msg) for i, r in enumerate(reports) for name, msg in r["outcome"].items() if msg]
    for i, name, msg in failures[:20]:
        print(f"pipebench: pass {i} instance {name} failed: {msg}", file=sys.stderr)
    correct = not failures
    times = [r["pass_s"] for r in plain]

    setup = []
    if args.trace:
        layers = [r["layers"] for r in traced]
        metrics = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        for name in tracing.EXACT_COUNTS:
            if len({m[name] for m in layers}) != 1:
                correct = False
                print(f"pipebench: {name} differs between passes", file=sys.stderr)
        metrics["trace.pass_s"] = statistics.median(r["pass_s"] for r in traced)
        metrics["trace.overhead"] = metrics["trace.pass_s"] / statistics.median(times)
        metric_units = units(spec, "per_layer")
    else:
        # Every pass child's set-up is a sample; fresh set-up-only children
        # make up the rest, so that the median rests on enough samples.
        setup = [r["setup_s"] for r in plain]
        setup += [spawn(args, "setup", 0, 0)["setup_s"] for _ in range(SETUP_SAMPLES - len(setup))]
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_share": (attempted - len(failures)) / attempted,
        }
        metric_units = units(spec, "end_to_end")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": list(reports[0]["outcome"]),
        "backend": reports[0]["backend"],
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "setup_s_samples": setup,
        "pass_s": describe(times),
        "traced_pass_s": describe([r["pass_s"] for r in traced]) if traced else None,
    }
    print(json.dumps({"provenance": provenance}))
    for name, value in metrics.items():
        print(f"{args.workload:<10} {name:<52} {value:>14.6g} {metric_units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": metric_units[name]} for name, v in metrics.items()},
    }


def run_all(args, spec: dict) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}), spec)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="seplat pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child:
        return child(args)
    bootstrap()
    result = run_all(args, spec) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
