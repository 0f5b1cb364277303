"""Per-layer probes: each times one public call of one layer on the
workload's own inputs and checks its output.

Every probe runs on every workload, so each traced run reports every
per-layer metric. Times are medians in microseconds unless the name says
otherwise.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from types import SimpleNamespace

from common import ROOT, child_env, median, ns
from spans import Tracer, TracedSplit
from workloads import STALL_TIMEOUT, StallDetect, split_problems
from recsplit.chan import ProbeChannel
from recsplit.consumer import ConsumerConfig, run_consumer
from recsplit.harness import channel_protocol_problems, run_split
from recsplit.producer import compile_producer, run_sequential
from recsplit.revir import PlainCell, RecordingSink, Store, discard, invert, run
from recsplit.scheme import eval_recursive, expected_emissions, make_scheme

CLI_TIMEOUT = 60


def _us(values_ns):
    return median(values_ns) / 1000


SMALL_RUN_SECONDS = 5


class Sizes:
    """How much each probe does; runs shorter than SMALL_RUN_SECONDS shrink all of it."""

    def __init__(self, seconds: float):
        tiny = seconds < SMALL_RUN_SECONDS
        self.reps = 3 if tiny else 20
        self.split_cases = 3 if tiny else 12
        self.revir_cases = 4 if tiny else 28
        self.composed = 2 if tiny else 6
        self.handshakes = 200 if tiny else 2000
        self.cli_runs = 1 if tiny else 3


def probe_setup(workload, sizes, out, problems):
    made, compiled = [], []
    for _ in range(sizes.reps):
        for delta, base, step in workload.specs():
            start = ns()
            scheme = make_scheme(delta, base, step)
            mid = ns()
            compile_producer(scheme)
            made.append(mid - start)
            compiled.append(ns() - mid)
    out["scheme.make_scheme_us"] = _us(made)
    out["producer.compile_us"] = _us(compiled)


def probe_oracles_and_harness(workload, sizes, out, problems):
    recursive, plans, sequential, protocol, postcheck = [], [], [], [], []
    split_ns = handshakes = 0
    for pair, delta, x0 in workload.split_cases(sizes.split_cases):
        scheme, program = workload.compiled(pair, delta)
        start = ns()
        want_y = eval_recursive(scheme, x0)
        recursive.append(ns() - start)
        start = ns()
        expected_emissions(scheme, x0)
        plans.append(ns() - start)
        start = ns()
        seq_y = run_sequential(scheme, x0)[0]
        sequential.append(ns() - start)
        if seq_y != want_y:
            problems.append(f"run_sequential x0={x0}: {seq_y} != {want_y}")
        start = ns()
        report = run_split(scheme, x0, program=program)
        call_ns = ns() - start
        postcheck.append(call_ns - int(report.wall_time * 1e9))
        split_ns += call_ns
        handshakes += len(report.emissions)
        start = ns()
        channel_protocol_problems(report.channel_log)
        protocol.append(ns() - start)
        problems.extend(
            split_problems(scheme, x0, report.y, report.emissions, report.residuals,
                           report.channel_log)
        )
    pair, delta, _ = workload.split_cases(1)[0]
    scheme, program = workload.compiled(pair, delta)
    fixed = []
    for _ in range(sizes.reps):
        start = ns()
        run_split(scheme, 0, program=program)
        fixed.append(ns() - start)
    out["scheme.eval_recursive_us"] = _us(recursive)
    out["scheme.expected_emissions_us"] = _us(plans)
    out["producer.run_sequential_us"] = _us(sequential)
    out["harness.protocol_check_us"] = _us(protocol)
    out["harness.postcheck_us"] = _us(postcheck)
    out["harness.fixed_us"] = _us(fixed)
    out["chan.handshakes_per_s"] = handshakes / (split_ns / 1e9)


def probe_revir(workload, sizes, out, problems):
    forward, inverse, inverting = [], [], []
    forward_total = emissions = 0
    for program, registers, cell_values in workload.revir_cases(sizes.revir_cases):
        start = ns()
        inverted = invert(program)
        inverting.append(ns() - start)
        initial = Store(registers)
        cells = {name: PlainCell(value) for name, value in cell_values.items()}
        sinks = {port: RecordingSink() for port in program.ports}
        start = ns()
        middle = run(program, initial, sinks=sinks, cells=cells)
        forward.append(ns() - start)
        forward_total += forward[-1]
        emissions += sum(len(sink.values) for sink in sinks.values())
        start = ns()
        final = run(inverted, middle, sinks={port: discard for port in program.ports}, cells=cells)
        inverse.append(ns() - start)
        restored = {name: cell.value for name, cell in cells.items()}
        if final != initial or restored != cell_values:
            problems.append(f"forward then inverse did not restore {registers}, {cell_values}")
    out["revir.run_forward_us"] = _us(forward)
    out["revir.run_inverse_us"] = _us(inverse)
    out["revir.invert_us"] = _us(inverting)
    out["revir.us_per_emission"] = forward_total / 1000 / max(emissions, 1)


def probe_raw_handshake(workload, sizes, out, problems):
    per_handshake = []
    for _ in range(3):
        probe = ProbeChannel()
        received = []

        def consume():
            for _ in range(sizes.handshakes):
                received.append(probe.get())

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        start = ns()
        for value in range(sizes.handshakes):
            probe.put(value)
        thread.join(CLI_TIMEOUT)
        per_handshake.append((ns() - start) / sizes.handshakes)
        if received != list(range(sizes.handshakes)):
            problems.append("raw ping-pong lost or reordered values")
    out["chan.raw_handshake_us"] = _us(per_handshake)


def probe_composed_split(workload, sizes, out, problems):
    """The traced composition of run_split, for blocked and compute time."""
    tracer = Tracer()
    put, get, inject, handshakes, consumer, producer = [], [], [], [], [], []
    for op_id, (pair, delta, x0) in enumerate(workload.split_cases(sizes.composed)):
        scheme, program = workload.compiled(pair, delta)
        traced = TracedSplit(tracer, op_id, scheme, program, x0)
        if traced.error:
            problems.append(f"traced split x0={x0}: {traced.error}")
            continue
        plan = expected_emissions(scheme, x0)
        if traced.probe_put.calls != plan.iterations + 2 or traced.y != eval_recursive(scheme, x0):
            problems.append(f"traced split x0={x0}: wrong result or handshake count")
        put.append(traced.probe_put.blocked_ns / traced.probe_put.calls)
        get.append(traced.probe_get.blocked_ns / traced.probe_get.calls)
        inject.append(traced.inject_blocked_ns)
        handshakes.append(traced.probe_put.calls)
        consumer.append(traced.consumer_compute_ns)
        producer.append(traced.producer_compute_ns)
    out["chan.probe_put_blocked_us"] = _us(put)
    out["chan.probe_get_blocked_us"] = _us(get)
    out["chan.inject_blocked_us"] = _us(inject)
    out["chan.handshakes"] = sum(handshakes) / max(len(handshakes), 1)
    out["consumer.compute_us"] = _us(consumer)
    out["producer.agent_compute_us"] = _us(producer)


def probe_fold(workload, sizes, out, problems):
    folds = []
    for pair, delta, x0 in workload.split_cases(sizes.split_cases):
        scheme = workload.compiled(pair, delta)[0]
        plan = expected_emissions(scheme, x0)
        script = iter([plan.iterations, plan.base_arg, *plan.h_args])
        config = ConsumerConfig.from_scheme(scheme, x0)
        start = ns()
        y = run_consumer(config, SimpleNamespace(put=lambda value: None),
                         SimpleNamespace(get=script.__next__))
        folds.append(ns() - start)
        if y != eval_recursive(scheme, x0):
            problems.append(f"scripted fold x0={x0}: {y}")
    out["consumer.fold_us"] = _us(folds)


def probe_stalls(workload, sizes, out, problems):
    stalls = StallDetect(workload.seed)
    ops, _ = stalls.batch(0)
    problems.extend(problem for op in ops for problem in op.problems)
    out["harness.stall_overshoot_ms"] = median([op.dur_ns / 1e6 for op in ops]) - STALL_TIMEOUT * 1e3
    out["harness.threads_leaked_per_stall"] = sum(op.leaked for op in ops) / len(ops)


def probe_cli(workload, sizes, out, problems):
    pair, delta, x0 = workload.split_cases(1)[0]
    x0 = min(x0, 40)
    scheme = workload.compiled(pair, delta)[0]
    command = [sys.executable, "-m", "recsplit.cli", "run", "--mode", "split",
               f"--delta={delta}", "--base", pair[0], "--step", pair[1], "--input", str(x0)]
    want = f"y = {eval_recursive(scheme, x0)}"
    times = []
    for _ in range(sizes.cli_runs):
        start = ns()
        done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT, check=False)
        times.append(ns() - start)
        if done.returncode != 0 or done.stdout.strip() != want:
            problems.append(f"cli run printed {done.stdout.strip()!r}, exit {done.returncode}")
    out["cli.run_process_ms"] = median(times) / 1e6


PROBES = (
    probe_setup,
    probe_oracles_and_harness,
    probe_revir,
    probe_raw_handshake,
    probe_composed_split,
    probe_fold,
    probe_stalls,
    probe_cli,
)


def probe_all(workload, seconds):
    """All per-layer metrics for one workload, and the problems found."""
    sizes = Sizes(seconds)
    out, problems = {}, []
    for probe in PROBES:
        try:
            probe(workload, sizes, out, problems)
        except Exception as exc:  # a probe that breaks is a failed check, not a crash
            problems.append(f"{probe.__name__}: {type(exc).__name__}: {exc}")
    return out, problems
