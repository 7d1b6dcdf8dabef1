#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 twbench/run.py --workload classify-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, a closed loop with one caller: each case
is called only after the previous one returned, and the run does a fixed
list of cases made from the seed, ``--seconds`` blocks of about one second
each on the reference machine.  Every output is checked against
``reference``.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
of a traced pass, which follows an untraced pass of the same cases.
"""

import argparse
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("classify-sweep", "group-witness", "word-elim", "numeric-crosscheck")
SETUP_SAMPLES = 4  # fresh interpreters before the timed pass, and as many after it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup(args):
    """Cold start of the CLI module, then the workload's fixtures."""
    import triangle_words.cli  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    return workload, workload.fixtures()


def reference_loop_ms() -> float:
    """Time of a fixed loop that does not use the program, to tell a drift
    of the machine apart from a change of the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


def measure_setup(args, warm_up: bool) -> list[float]:
    """Seconds from starting a fresh interpreter to its "ready" line, for
    SETUP_SAMPLES interpreters; with ``warm_up``, after one discarded start
    that fills the bytecode cache."""
    import subprocess

    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    samples = []
    for i in range(SETUP_SAMPLES + warm_up):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            if child.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up child failed: {line!r}")
        if i or not warm_up:
            samples.append(elapsed)
    return samples


def cli_import(samples: int = 3):
    """Median time and sys.modules size of `import triangle_words.cli` in
    fresh interpreters."""
    import json
    import statistics
    import subprocess

    code = (
        "import sys, time, json; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import triangle_words.cli; "
        "print(json.dumps([time.perf_counter() - t, len(sys.modules)]))"
    )
    runs = [
        json.loads(subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                                  text=True, check=True).stdout)
        for _ in range(samples)
    ]
    return statistics.median(r[0] for r in runs) * 1000.0, runs[-1][1]


def run_cases(args, workload, fx, tracer=None):
    """Call every case once; only the calls are timed.  Each output is
    checked right after its call and each block is made just before it
    runs, so neither outputs nor inputs pile up in memory."""
    times, errors, failed, attempted = [], [], 0, 0
    perf = time.perf_counter
    for block in workload.blocks(fx, args.seed, args.seconds):
        for case in block:
            attempted += 1
            if tracer is not None:
                tracer.case_id = attempted
            t0 = perf()
            try:
                out = workload.call(fx, case)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                errors.append(f"case {attempted} {case!r:.200}: {type(exc).__name__}: {exc}")
                continue
            times.append(perf() - t0)
            error = workload.check(fx, case, out)
            if error is not None:
                errors.append(f"case {attempted}: {error}")
    return times, attempted, failed, errors


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "triangle_words", "__init__.py")):
        print(f"error: no package at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]

    if args.setup_only:
        setup(args)
        print("ready", flush=True)
        return 0

    import json
    import platform
    import resource
    import statistics

    import reference

    reference.selftest()
    ref_start = reference_loop_ms()
    setup_samples = [] if args.trace else measure_setup(args, warm_up=True)
    workload, fx = setup(args)
    errors = []
    error = workload.check_fixtures(fx)
    if error is not None:
        errors.append(f"fixtures: {error}")

    times, attempted, failed, case_errors = run_cases(args, workload, fx)
    errors += case_errors
    if not times:
        print("error: every case failed", *errors[:3], sep="\n", file=sys.stderr)
        return 1
    if not args.trace:
        setup_samples += measure_setup(args, warm_up=False)
    ref_end = reference_loop_ms()
    times.sort()
    busy = sum(times)
    cases_per_s = len(times) / busy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import triangle_words

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    print(f"backend: {triangle_words.BACKEND}  python: {platform.python_version()}  "
          f"nproc: {len(os.sched_getaffinity(0))}")
    print(f"cases: {attempted}  failed: {failed}  timed pass: {busy:.3f} s")
    if setup_samples:
        print(f"set-up samples (s): {' '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"reference_loop_ms: start {ref_start:.2f} end {ref_end:.2f}")

    if args.trace:
        metrics, traced_attempted, traced_failed, extra_errors = traced_run(
            args, workload, cases_per_s
        )
        errors += extra_errors
        attempted += traced_attempted
        failed += traced_failed
    else:
        metrics = {
            "cases_per_s": (cases_per_s, "1/s"),
            "case_p50_ms": (percentile(times, 0.5) * 1000.0, "ms"),
            "case_p90_ms": (percentile(times, 0.9) * 1000.0, "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for error in errors[:10]:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, workload, untraced_cases_per_s):
    """Set up and run the same cases again with spans on; return the
    per-layer metrics and the attempted cases, failed cases and check
    errors of the traced pass."""
    import tracemalloc
    from pathlib import Path

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        _, fx = setup(args)
        times, attempted, failed, errors = run_cases(args, workload, fx, tracer)
    finally:
        tracer.uninstall()
    if not times:
        return {}, attempted, failed, errors + ["traced pass: every case failed"]
    traced_cases_per_s = len(times) / sum(times)
    table = tracer.layer_table()
    metrics = tracer.layer_metrics(table)
    print(f"{'layer':<38} {'calls':>8} {'total ms':>11} {'self ms':>11}")
    for name, (calls, total, own) in table.items():
        if calls:
            print(f"{name:<38} {calls:>8} {total:>11.2f} {own:>11.2f}")

    peak_alloc_mb = 0.0
    if tracer.largest_group is not None:
        from triangle_words import groups

        _, gargs, gkwargs = tracer.largest_group
        tracemalloc.start()
        groups.enumerate_group(*gargs, **gkwargs)
        peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    metrics["groups.enumerate_group.peak_alloc_mb"] = (peak_alloc_mb, "MB")
    import_ms, modules = cli_import()
    metrics["cli.import.ms"] = (import_ms, "ms")
    metrics["cli.import.modules"] = (modules, "count")
    overhead = untraced_cases_per_s - traced_cases_per_s
    metrics["trace.overhead.cases_per_s"] = (overhead, "1/s")

    path = Path(HERE) / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
    spans = tracer.write(path)
    print(f"tracing overhead: untraced {untraced_cases_per_s:.2f} - traced "
          f"{traced_cases_per_s:.2f} = {overhead:.2f} cases/s "
          f"({100.0 * overhead / untraced_cases_per_s:.1f}%)")
    print(f"spans: {spans} written to {os.path.relpath(path)}")
    return metrics, attempted, failed, errors


if __name__ == "__main__":
    sys.exit(main())
