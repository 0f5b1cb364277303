"""Benchmark for recsplit: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload split-long --seed 1 --seconds 20 --trace 0

It imports recsplit from the checkout's src/, generates the workload's inputs
from the seed, runs operations in a closed loop (one caller, one operation at
a time) for the given number of seconds, checks every output, and prints as
its last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it is a JSON object describing the run (environment, sample
count, the tail op time with its percentile, problems found).

--trace 0 reports the end-to-end metrics, from untraced operations.
--trace 1 alternates untraced and traced operations on the same inputs,
derives self time per layer from the spans and the tracing overhead from
the whole operations' wall times, runs the per-layer probes (smaller ones
below 5 seconds), and writes the spans to .perfbench/ in the checkout.

Each operation runs pinned to one CPU; the CPUs the process may use take
turns of 50 ms. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time

from common import BENCH_DIR, OUT_DIR, ROOT, BenchSetupError, import_package, median, percentile, tail

MIN_OPS = 11          # the tail in the info line needs at least 11 samples
SETUP_RUNS = 15       # fresh interpreters timed per run, after one warm-up
TRACE_SHARE = 0.6     # share of --seconds spent on untraced/traced pairs in a traced run
SPAN_BUDGET = 200_000
SETTLE_JOIN = 1.0
SETUP_TIMEOUT = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().split()[:3]
    except OSError:
        return None


def setup_once(workload):
    """Seconds for one set-up in a fresh interpreter."""
    command = [sys.executable, "-I", os.path.join(BENCH_DIR, "setup_child.py")]
    command += [str(value) for spec in workload.specs() for value in spec]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT, check=False)
    if done.returncode != 0:
        raise BenchSetupError(f"set-up failed: {done.stderr.strip()[-2000:]}")
    return float(done.stdout.strip())


def run_loop(workload, seconds, tracer=None, setups=None):
    """Run ops for the given seconds; with a setups list, also time
    SETUP_RUNS set-ups spread evenly over the run."""
    untraced, traced = [], []
    start = time.perf_counter()
    if setups is not None:
        setup_once(workload)  # writes the bytecode caches; not counted
    while True:
        elapsed = time.perf_counter() - start
        if setups is not None and len(setups) < SETUP_RUNS and (
            elapsed >= len(setups) * seconds / SETUP_RUNS or elapsed >= seconds
        ):
            setups.append(setup_once(workload))
            continue
        if len(untraced) >= MIN_OPS and elapsed >= seconds:
            break
        if tracer is not None and len(tracer.spans) > SPAN_BUDGET:
            break
        ops, traced_ops = workload.batch(len(untraced), tracer)
        untraced += ops
        traced += traced_ops
    return untraced, traced


def throughput(ops, cycle):
    """Median over whole rounds of inputs of items per second of op time."""
    rates = []
    for first in range(0, len(ops) - cycle + 1, cycle):
        chunk = ops[first:first + cycle]
        rates.append(sum(op.items for op in chunk) / (sum(op.dur_ns for op in chunk) / 1e9))
    if not rates:
        rates.append(sum(op.items for op in ops) / (sum(op.dur_ns for op in ops) / 1e9))
    return median(rates)


def settled_thread_count():
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(SETTLE_JOIN)
    return threading.active_count()


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def problems_of(ops):
    return [problem for op in ops for problem in op.problems]


def untraced_run(workload, args, info):
    threads_before = threading.active_count()
    setups = []
    ops, _ = run_loop(workload, args.seconds, setups=setups)
    if workload.healthy:
        threads_after = settled_thread_count()
    else:
        threads_after = median(workload.child_threads_after)
    durations = [op.dur_ns for op in ops]
    tail_ns, tail_percentile = tail(durations)
    attempted = len(ops)
    failed = sum(1 for op in ops if op.problems)
    problems = problems_of(ops)
    if workload.healthy and threads_after != threads_before:
        problems.append(f"{threads_after - threads_before} thread(s) outlived the workload")
    op_seconds = sum(durations) / 1e9
    info.update(
        ops=attempted,
        op_tail_ms=tail_ns / 1e6,
        tail_percentile=round(tail_percentile, 2),
        failed_frac=failed / attempted,
        threads_before=threads_before,
        threads_after=threads_after,
        handshakes_per_s=sum(op.handshakes for op in ops) / op_seconds,
        setups=setups,
    )
    metrics = {
        "setup_s": (median(setups), "s"),
        "op_p50_ms": (median(durations) / 1e6, "ms"),
        "op_p90_ms": (percentile(durations, 90) / 1e6, "ms"),
        "items_per_s": (throughput(ops, workload.cycle), "1/s"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "threads_alive_after": (threads_after, "count"),
    }
    return attempted, failed, problems, metrics


def traced_run(workload, args, info):
    import layers
    from spans import Tracer, self_times_ns

    tracer = Tracer()
    untraced, traced = run_loop(workload, args.seconds * TRACE_SHARE, tracer)
    pairs = list(zip(untraced, traced))
    mismatched = [u.k for u, t in pairs if u.sig != t.sig or bool(u.problems) != bool(t.problems)]
    problems = problems_of(untraced) + problems_of(traced)
    if mismatched:
        problems.append(f"traced outputs differ from untraced ones at ops {mismatched[:10]}")
    overhead_ms = median([t.overhead_ns for t in traced]) / 1e6
    self_ms = {layer: total / len(traced) / 1e6 for layer, total in self_times_ns(tracer.spans).items()}
    probes, probe_problems = layers.probe_all(workload, args.seconds)
    problems += probe_problems
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl")
    tracer.write(span_file)
    info.update(
        ops=len(pairs),
        spans=len(tracer.spans),
        span_file=os.path.relpath(span_file, ROOT),
        self_ms_per_op=self_ms,
        traced_op_p50_ms=median([t.dur_ns for t in traced]) / 1e6,
        untraced_op_p50_ms=median([u.dur_ns for u in untraced]) / 1e6,
    )
    metrics = {name: (value, UNITS[name]) for name, value in probes.items()}
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    attempted = len(untraced) + len(traced)
    failed = sum(1 for op in untraced + traced if op.problems)
    return attempted, failed, problems, metrics


UNITS = {
    "scheme.make_scheme_us": "us",
    "producer.compile_us": "us",
    "scheme.eval_recursive_us": "us",
    "scheme.expected_emissions_us": "us",
    "producer.run_sequential_us": "us",
    "harness.protocol_check_us": "us",
    "harness.fixed_us": "us",
    "harness.postcheck_us": "us",
    "revir.run_forward_us": "us",
    "revir.us_per_emission": "us",
    "revir.run_inverse_us": "us",
    "revir.invert_us": "us",
    "chan.raw_handshake_us": "us",
    "chan.probe_put_blocked_us": "us",
    "chan.probe_get_blocked_us": "us",
    "chan.inject_blocked_us": "us",
    "chan.handshakes": "count",
    "chan.handshakes_per_s": "1/s",
    "consumer.fold_us": "us",
    "consumer.compute_us": "us",
    "producer.agent_compute_us": "us",
    "harness.stall_overshoot_ms": "ms",
    "harness.threads_leaked_per_stall": "count",
    "cli.run_process_ms": "ms",
}


def main(argv=None):
    args = parse_args(argv)
    try:
        import_package()
    except BenchSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    allowed = sorted(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload](args.seed, cpus=allowed)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": f"ops pinned to one CPU at a time, CPUs {allowed} taking turns",
        "loadavg_start": loadavg(),
    }
    run = traced_run if args.trace else untraced_run
    try:
        attempted, failed, problems, metrics = run(workload, args, info)
    except BenchSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info["loadavg_end"] = loadavg()
    info["problems"] = problems[:10]
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
