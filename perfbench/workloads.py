"""Seeded inputs, timed operations and output checks for the four workloads.

An operation is identified by its index k. Its inputs depend only on the
seed and k, so an untraced and a traced run of the same index see the same
inputs. Only the public call that makes up the operation is timed; the
checks of its outputs run after the clock stops. The whole operation, checks
and spans included, is timed separately for the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass

from common import BENCH_DIR, ROOT, ns
from spans import NULL, TracedSplit
from recsplit.harness import (
    DeadlockTimeout,
    channel_protocol_problems,
    check_reversibility,
    random_preloads,
    run_split,
    sweep,
)
from recsplit.producer import compile_producer, expected_residuals, residuals_from_store
from recsplit.revir import Emit, RevProgram, SwapCell
from recsplit.scheme import eval_recursive, expected_emissions, make_scheme

PAIRS = (("x", "x+y"), ("x+1", "x*y+1"))
BLOCKS = tuple((pair, delta) for pair in PAIRS for delta in range(-7, 0))
GOLDEN = (5 ** 0.5 - 1) / 2
STALL_TIMEOUT = 0.05
STALLS_PER_CHILD = 4
CHILD_TIMEOUT = 120
PIN_TURN = 0.05


@dataclass
class Op:
    """One timed operation; sig is a digest of its checked outputs.

    dur_ns times the public call, wall_ns the whole operation with its
    checks (and spans, when traced); overhead_ns is set on traced ops."""

    k: int
    dur_ns: int
    items: int
    problems: list
    sig: object
    handshakes: int = 0
    leaked: int = 0
    wall_ns: int = 0
    overhead_ns: int = 0

    def __post_init__(self):
        if not isinstance(self.sig, str):
            self.sig = hashlib.sha1(repr(self.sig).encode()).hexdigest()


def timed(call, *args, **kwargs):
    """(result, elapsed ns, exception or None) of one public call."""
    start = ns()
    try:
        result = call(*args, **kwargs)
    except Exception as exc:  # the caller decides whether this is a failure
        return None, ns() - start, exc
    return result, ns() - start, None


def describe(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def split_problems(scheme, x0, y, emissions, residuals, events, tracer=NULL, op_id=0):
    """Every check a finished split run must pass."""
    problems = []
    with tracer.span("scheme.eval_recursive", op_id):
        want_y = eval_recursive(scheme, x0)
    if y != want_y:
        problems.append(f"x0={x0}: y {y} != recursive {want_y}")
    with tracer.span("scheme.expected_emissions", op_id):
        plan = expected_emissions(scheme, x0)
    if list(emissions) != [plan.iterations, plan.base_arg, *plan.h_args]:
        problems.append(f"x0={x0}: emissions differ from the plan")
    if len(emissions) != plan.iterations + 2:
        problems.append(f"x0={x0}: {len(emissions)} handshakes, expected {plan.iterations + 2}")
    with tracer.span("producer.expected_residuals", op_id):
        want_residuals = expected_residuals(x0, scheme.pred.delta)
    if residuals != want_residuals:
        problems.append(f"x0={x0}: residuals off profile")
    with tracer.span("harness.channel_protocol_problems", op_id):
        problems.extend(channel_protocol_problems(events))
    return problems


class Workload:
    name = ""
    cycle = 1          # ops per balanced round of inputs; throughput windows are whole rounds
    batch_size = 1     # ops run per call of batch()
    healthy = True     # no thread may outlive an operation

    def __init__(self, seed: int, cpus=()):
        self.seed = seed
        self.cpus = tuple(cpus)
        self._compiled = {}
        self._turn = -1
        self._turn_started = float("-inf")

    def compiled(self, pair, delta):
        key = (pair, delta)
        if key not in self._compiled:
            scheme = make_scheme(delta, *pair)
            self._compiled[key] = (scheme, compile_producer(scheme))
        return self._compiled[key]

    def specs(self):
        """(delta, base, step) of every scheme the workload uses."""
        raise NotImplementedError

    def op(self, k, tracer=NULL) -> Op:
        raise NotImplementedError

    def split_cases(self, count):
        """(pair, delta, x0) cases for the per-layer probes."""
        raise NotImplementedError

    def revir_cases(self, count):
        """(program, registers, cells) preloads for the IR probes."""
        out = []
        for pair, delta, x0 in self.split_cases(count):
            out.append((self.compiled(pair, delta)[1], {}, {"inject": x0}))
        return out

    def whole_op(self, k, tracer=NULL, **kwargs) -> Op:
        start = ns()
        op = self.op(k, tracer, **kwargs)
        op.wall_ns = ns() - start
        return op

    def untraced_twin(self, k):
        """The op on the traced op's code path with tracing off."""
        return self.whole_op(k)

    def batch(self, k0, tracer=None):
        """Run ops k0.. untraced and, with a tracer, each again traced.

        A traced op's overhead_ns is its wall time minus that of its
        untraced twin, run right after it. The twin is not the first op
        after pin(), which runs slower on a freshly switched CPU.
        Returns (untraced ops, traced ops)."""
        untraced, traced = [], []
        for k in range(k0, k0 + self.batch_size):
            self.pin()
            untraced.append(self.whole_op(k))
            if tracer is None:
                continue
            op = self.whole_op(k, tracer)
            twin = self.untraced_twin(k)
            op.overhead_ns = op.wall_ns - twin.wall_ns
            if twin.sig != untraced[-1].sig:
                op.problems.append(f"op {k}: the untraced twin's outputs differ")
            op.problems.extend(twin.problems)
            traced.append(op)
        return untraced, traced

    def pin(self):
        """Run the next op, and the threads and children it starts, on one CPU.

        The CPUs take turns of PIN_TURN seconds, so a busy neighbour on one
        CPU slows only part of a run, while caches stay warm within a turn."""
        if self.cpus and time.perf_counter() - self._turn_started >= PIN_TURN:
            self._turn = (self._turn + 1) % len(self.cpus)
            self._turn_started = time.perf_counter()
            os.sched_setaffinity(0, (self.cpus[self._turn],))

    def _rng(self, k):
        return random.Random(f"{self.seed}:{self.name}:{k}")


class SplitLong(Workload):
    name = "split-long"
    cycle = 6
    DELTAS = (-1, -2, -3)

    def specs(self):
        return [(delta, *PAIRS[0]) for delta in self.DELTAS]

    def input(self, k):
        # x0 follows a golden-ratio sequence from a seeded start, so every
        # prefix of the run covers 1000..3000 evenly for each delta
        delta = self.DELTAS[k % 3]
        start = random.Random(f"{self.seed}:{self.name}:{delta}").random()
        u = (start + (k // 3) * GOLDEN) % 1.0
        return PAIRS[0], delta, 1000 + int(u * 2001)

    def untraced_twin(self, k):
        return self.whole_op(k, composed=True)

    def op(self, k, tracer=NULL, composed=False):
        """run_split untraced; the composition of its pieces when traced or composed."""
        pair, delta, x0 = self.input(k)
        scheme, program = self.compiled(pair, delta)
        with tracer.span("bench.op", k):
            if tracer is NULL and not composed:
                report, dur, exc = timed(run_split, scheme, x0, program=program)
                if exc is not None:
                    return Op(k, dur, 0, [describe(exc)], None)
                y, emissions, residuals = report.y, report.emissions, report.residuals
                events = report.channel_log
            else:
                traced, dur, exc = timed(TracedSplit, tracer, k, scheme, program, x0)
                if exc is not None:
                    return Op(k, dur, 0, [describe(exc)], None)
                if traced.error:
                    return Op(k, dur, 0, [traced.error], None)
                y, emissions, events = traced.y, traced.emissions, traced.events
                residuals = residuals_from_store(
                    traced.store, x0, delta, inject_cell=traced.inject_slot
                )
            problems = split_problems(scheme, x0, y, emissions, residuals, events, tracer, k)
        return Op(k, dur, 1, problems, [y, emissions, str(residuals)], handshakes=len(emissions))

    def split_cases(self, count):
        return [self.input(k) for k in range(count)]


class SweepShort(Workload):
    name = "sweep-short"
    cycle = len(BLOCKS)
    X_PER_OP = 40

    def specs(self):
        return [(delta, *pair) for pair, delta in BLOCKS]

    def input(self, k):
        pair, delta = BLOCKS[k % len(BLOCKS)]
        rng = self._rng(k)
        # one draw from each of X_PER_OP equal strata of 0..40
        xs = [min(40, int((i + rng.random()) * 41 / self.X_PER_OP)) for i in range(self.X_PER_OP)]
        return pair, delta, xs

    def op(self, k, tracer=NULL):
        pair, delta, xs = self.input(k)
        scheme = self.compiled(pair, delta)[0]
        with tracer.span("bench.op", k):
            with tracer.span("harness.sweep", k):
                report, dur, exc = timed(sweep, xs, [delta], [pair])
            if exc is not None:
                return Op(k, dur, 0, [describe(exc)], None)
            problems = []
            if [case.x0 for case in report.cases] != xs:
                problems.append("sweep did not return one case per input")
            for case in report.cases:
                if not case.ok:
                    detail = case.error or "; ".join(case.problems)
                    problems.append(f"x0={case.x0}: {detail}")
                if not (case.emissions_ok and case.residuals_ok and case.protocol_ok):
                    problems.append(f"x0={case.x0}: emissions, residuals or protocol off")
                with tracer.span("scheme.eval_recursive", k):
                    want_y = eval_recursive(scheme, case.x0)
                if not case.split_y == case.sequential_y == want_y:
                    problems.append(f"x0={case.x0}: y {case.split_y} != recursive {want_y}")
                with tracer.span("scheme.expected_emissions", k):
                    plan = expected_emissions(scheme, case.x0)
                if case.handshakes != plan.iterations + 2:
                    problems.append(f"x0={case.x0}: {case.handshakes} handshakes")
        sig = [[case.x0, case.split_y, case.handshakes] for case in report.cases]
        handshakes = sum(case.handshakes for case in report.cases)
        return Op(k, dur, len(report.cases), problems, sig, handshakes=handshakes)

    def split_cases(self, count):
        out = []
        for k in range(count):
            pair, delta, xs = self.input(k)
            out.append((pair, delta, xs[k % len(xs)]))
        return out


class ReverseCheck(Workload):
    name = "reverse-check"
    cycle = 10 * len(BLOCKS)
    PRELOADS_PER_BATCH = 100

    def __init__(self, seed, cpus=()):
        super().__init__(seed, cpus)
        self._preloads = {}

    def specs(self):
        return [(delta, *pair) for pair, delta in BLOCKS]

    def input(self, k):
        index, round_ = k % len(BLOCKS), k // len(BLOCKS)
        pair, delta = BLOCKS[index]
        program = self.compiled(pair, delta)[1]
        batch = round_ // self.PRELOADS_PER_BATCH
        key = (index, batch)
        if key not in self._preloads:
            seed = (self.seed * 100 + index) * 100_000 + batch
            self._preloads[key] = random_preloads(program, self.PRELOADS_PER_BATCH, seed=seed)
        registers, cells = self._preloads[key][round_ % self.PRELOADS_PER_BATCH]
        return program, registers, cells

    def op(self, k, tracer=NULL):
        program, registers, cells = self.input(k)
        with tracer.span("bench.op", k):
            with tracer.span("harness.check_reversibility", k):
                report, dur, exc = timed(check_reversibility, program, [(registers, cells)])
            if exc is not None:
                return Op(k, dur, 0, [describe(exc)], None)
            problems = [f"preload {k}: {case.problem}" for case in report.failures]
            if len(report.cases) != 1:
                problems.append(f"{len(report.cases)} cases for one preload")
        return Op(k, dur, 1, problems, [k % len(BLOCKS), report.all_ok])

    def split_cases(self, count):
        out = []
        for k in range(count):
            pair, delta = BLOCKS[k % len(BLOCKS)]
            out.append((pair, delta, self._rng(k).randint(0, 40)))
        return out

    def revir_cases(self, count):
        return [self.input(k) for k in range(count)]


class StallDetect(Workload):
    """run_split with a fault program and a short timeout.

    Shape 0: the producer never emits, so the consumer blocks in probe.get.
    Shape 1: the producer emits two values past the plan; the first fits in
    the slot, the second blocks in probe.put. Each stall leaves its blocked
    thread behind, so the ops run in child processes, a few per child.
    """

    name = "stall-detect"
    cycle = STALLS_PER_CHILD
    batch_size = STALLS_PER_CHILD
    healthy = False
    EXPECTED = ("consumer blocked in probe.get", "producer blocked in probe.put")
    DELTAS = (-1, -2, -3)

    def __init__(self, seed, cpus=()):
        super().__init__(seed, cpus)
        self.child_threads_after = []

    def specs(self):
        return [(delta, *pair) for pair in PAIRS for delta in self.DELTAS]

    def input(self, k):
        rng = self._rng(k)
        pair = PAIRS[rng.randrange(len(PAIRS))]
        return k % 2, pair, self.DELTAS[rng.randrange(3)], rng.randint(0, 20)

    def fault_program(self, shape, pair, delta):
        program = self.compiled(pair, delta)[1]
        if shape == 0:
            body = (SwapCell("inject", "x"), SwapCell("inject", "x"))
        else:
            body = program.body + (Emit("probe", "x"), Emit("probe", "x"))
        return RevProgram(body, program.registers, program.ports, program.cells)

    def op(self, k, tracer=NULL):
        shape, pair, delta, x0 = self.input(k)
        scheme = self.compiled(pair, delta)[0]
        fault = self.fault_program(shape, pair, delta)
        before = threading.active_count()
        with tracer.span("bench.op", k):
            with tracer.span("harness.run_split", k):
                _, dur, exc = timed(run_split, scheme, x0, timeout=STALL_TIMEOUT, program=fault)
        leaked = threading.active_count() - before
        expected = self.EXPECTED[shape]
        if exc is None:
            problems = [f"stall {k}: run finished, expected {expected}"]
        elif not isinstance(exc, DeadlockTimeout):
            problems = [f"stall {k}: {describe(exc)}"]
        elif expected not in str(exc):
            problems = [f"stall {k}: {exc} does not name {expected}"]
        else:
            problems = []
        outcome = type(exc).__name__ if exc is not None else "finished"
        return Op(k, dur, 1, problems, [shape, outcome], leaked=leaked)

    def split_cases(self, count):
        return [self.input(k)[1:] for k in range(count)]

    def batch(self, k0, tracer=None):
        """Run the ops in a child process, which exits with its leaked threads."""
        self.pin()
        command = [
            sys.executable,
            f"{BENCH_DIR}/stall_child.py",
            str(self.seed),
            str(k0),
            str(self.batch_size),
            "1" if tracer is not None else "0",
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=False
        )
        if done.returncode != 0:
            raise RuntimeError(f"stall child failed: {done.stderr.strip()[-2000:]}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        self.child_threads_after.append(report["threads_after"])
        if tracer is not None:
            tracer.spans.extend(tuple(span) for span in report["spans"])
        return [Op(**op) for op in report["untraced"]], [Op(**op) for op in report["traced"]]

    def run_here(self, k0, tracer=None):
        """The child's side of batch(): a JSON-ready report."""
        untraced, traced = Workload.batch(self, k0, tracer)
        return {
            "untraced": [asdict(op) for op in untraced],
            "traced": [asdict(op) for op in traced],
            "spans": list(tracer.spans) if tracer is not None else [],
        }


WORKLOADS = {w.name: w for w in (SplitLong, SweepShort, ReverseCheck, StallDetect)}
