"""Orchestration: split runs on live channels, deadlock watchdog, and the
equivalence / reversibility / protocol check suites.

A split run runs the compiled producer (under the IR interpreter, with its
probe port and inject cell bound to real channels) on the calling thread
and the classical consumer on a consumer thread, and assembles a report.
A _SplitRunner owns what one run leaves for the next: a consumer thread,
a daemon thread that runs consumer bodies one at a time, handed over
through two locks; one channel pair, reopened for each run with the run's
own EventLog; and the current run's log and results. run_split makes one
for its run, and a sweep makes one per (pair, delta) block and runs every
case of the block on it. Leaving the runner closes the pair and stops the
thread. An agent that fails records its error and closes both channels,
which wakes a blocked peer with ChannelClosed, so a failed run ends at
once with the first error. The calling thread is also the watchdog, in
the two places it can wait: in a producer take that finds no token,
through the semaphore's watch hook, which the runner sets when a pair
opens and clears when it closes, and in waiting for the consumer body to
return once the producer has ended. Both waits run one loop, which raises
DeadlockTimeout once it sees the run stalled: every live agent waits on a
channel and no operation completed while it looked, so none can move
again; the consumer is live while its thread runs this run's body. It
looks after waits of 1 ms that double up to the timeout, which so bounds
how long a deadlock goes unreported; a computing agent does not wait, so
a slow run that still moves never stalls. The error says, from the
channels, which operation each agent waits in. What a run leaves for
the next is decided by one rule, in _SplitRunner.split, and an interrupt
ends a run by it too: on the main thread it lands in the producer or in
one of the waits, and only a consumer that is still computing outlives
the run, until its next channel operation raises ChannelClosed; its
thread is never handed another body.

A finished split run is checked against the other runs and the plan it
must follow by one checker, case_failures: each check has one name in
CASE_CHECKS, and a sweep case and `recsplit run --mode split` both read
their verdict from it. A case keeps that verdict, SweepCase.failed, which
maps the name of each check that failed to its problems; whether it is ok,
its error, its problems and its *_ok flags are all read from that map.
"""

from __future__ import annotations

import contextlib
import json
import random
import threading
import time
from itertools import islice
from typing import NamedTuple

from .chan import FINAL, PROTOCOL, START, EventLog, InjectChannel, ProbeChannel
from .consumer import ConsumerConfig, run_consumer
from .producer import (
    INJECT_CELL,
    PROBE_PORT,
    compile_producer,
    expected_residuals,
    residuals_from_store,
    run_sequential,
)
from .record import Record
from .revir import (
    PlainCell,
    RevirError,
    RevProgram,
    Store,
    discard,
    invert,
    run,
)
from .scheme import NegativeInputError, RecursionScheme, check_input, eval_recursive, expected_emissions, make_scheme

DEFAULT_TIMEOUT = 5.0
PRELOAD_RANGE = (-8, 8)   # inclusive bounds of random_preloads' values
# how long a finished or failed run waits for its closed-out threads to exit
JOIN_TIMEOUT = 1.0


class HarnessError(Exception):
    """Base class for orchestration errors."""


class DeadlockTimeout(HarnessError):
    """A split run deadlocked: every live agent waits on a channel, and none can move again."""


class ResultMismatch(HarnessError):
    """The consumer's result disagrees with the recursive value."""


def check_timeout(timeout: float) -> float:
    """timeout, if it is a finite number of seconds in (0, threading.TIMEOUT_MAX]."""
    if not 0 < timeout <= threading.TIMEOUT_MAX:   # nan fails this too
        raise ValueError(f"timeout must be in (0, {threading.TIMEOUT_MAX}] seconds, got {timeout}")
    return timeout


class RunReport(NamedTuple):
    y: int   # equal to eval_recursive's value, or run_split raises ResultMismatch
    emissions: list
    residuals: dict   # residuals_from_store's, with the inject cell
    channel_log: list
    wall_time: float


def run_split(
    scheme: RecursionScheme,
    x0: int,
    timeout: float = DEFAULT_TIMEOUT,
    program: RevProgram | None = None,
) -> RunReport:
    """Run the producer on the calling thread and the consumer on a new one.

    The calling thread is also the watchdog: it watches while the producer
    waits for a token and, once the producer has ended, while it waits for
    the consumer. A run in which every live agent waits on a channel is
    stalled, and raises DeadlockTimeout within timeout seconds. Asserts the
    consumer's result against the recursive value and returns the full
    report. The optional program argument substitutes the producer program:
    tests pass fault programs, and sweep passes one compiled producer to
    every input of a block; by default the scheme is compiled.
    """
    with _SplitRunner(timeout) as runner:
        return runner.split(scheme, x0, program)


class _ConsumerThread:
    """One daemon thread, started at once, that runs consumer bodies one at a time.

    Two locks, each held while it has nothing to say, carry the hand-off
    without a file descriptor: the thread takes _go to get the next body and
    gives _done once that body has returned. A body catches its own errors.
    Only the owner gives _go, and only the thread takes it.
    """

    def __init__(self):
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._body = None
        self._pending = False   # a body was handed and its return not yet seen
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            self._go.acquire()
            body, self._body = self._body, None
            if body is None:
                return
            body()
            # dropped before the owner hears of the return: the body holds its run's channels
            del body
            self._done.release()

    def run(self, body):
        """Hand body to the thread; the previous body must have returned."""
        self._body, self._pending = body, True
        self._go.release()

    def wait(self, seconds: float) -> bool:
        """Whether the body handed last has returned, waiting up to seconds for it."""
        if self._pending and self._done.acquire(timeout=seconds):
            self._pending = False
        return not self._pending

    def stop(self):
        """Let the thread exit once it has no body; join it if it has none now.

        A body handed but not yet taken is withdrawn, and _go, still given
        for it, then wakes the thread to exit.
        """
        self._body = None
        if self._go.locked():
            self._go.release()
        if self.wait(0):
            self._thread.join(JOIN_TIMEOUT)


class _SplitRunner(contextlib.AbstractContextManager):
    """Split runs, one at a time, on one consumer thread over one channel pair.

    Leaving the runner closes the pair and stops the thread. The first run
    opens the pair, and each later run reopens it with its own log. The
    producer's watch hook is set when a pair opens and cleared when it
    closes: watch() and stall() read the current run's log and results.
    """

    def __init__(self, timeout: float):
        self._timeout = check_timeout(timeout)
        self._consumer = _ConsumerThread()
        self._channels = ()   # (probe, inject) left in FINAL by the last run, or none
        self._trace = None    # the current run's EventLog
        self._results = {}    # what the current run's agents returned, by agent

    def __exit__(self, *exc_info):
        self._close()
        self._consumer.stop()

    def _close(self):
        """Close the pair, waking any agent blocked on it, and let the next run open a fresh one."""
        for channel in self._channels:
            channel.close()
            # the hook points back at the runner: left set, it would keep the
            # pipes open until a cyclic GC
            channel.watch("producer", None)
        self._channels = ()

    def stall(self, count: int) -> str | None:
        """What each agent waits in, if every live agent waits and the log holds count records, else None."""
        running = {"producer": "producer" not in self._results, "consumer": not self._consumer.wait(0)}
        live = {agent for agent, alive in running.items() if alive}
        blocked = {PROTOCOL[name][op].agent: f"{name}.{op}"
                   for channel in self._channels for name, op in channel.waiting()}
        # a record since count was read may have woken an agent still marked waiting
        if live and blocked.keys() >= live and len(self._trace) == count:
            return "; ".join(f"{agent} blocked in {blocked[agent]}" if agent in live
                             else f"{agent} finished" for agent in running)
        return None

    def watch(self, ready):
        """Return once ready(seconds) is true; raise DeadlockTimeout once stall() sees
        the run stalled, which it is asked after each wait: 1 ms, doubling up to the timeout."""
        wait = min(0.001, self._timeout)
        while not ready(wait):
            blocked = self.stall(len(self._trace))
            if blocked:
                raise DeadlockTimeout(f"deadlock: {blocked}")
            wait = min(2 * wait, self._timeout)

    def split(self, scheme: RecursionScheme, x0: int, program: RevProgram | None = None) -> RunReport:
        """run_split's run, on this runner's thread and pair.

        A run that ends cleanly, with no error, both agents returned and both
        channels in FINAL, leaves the pair for the next run to reopen. Any
        other end closes the pair and waits up to JOIN_TIMEOUT for the
        consumer body. A body still running then keeps its thread, which is
        stopped, to exit at its next channel operation; the next run gets a
        fresh thread.
        """
        check_input(x0)
        if program is None:
            program = compile_producer(scheme)

        trace = self._trace = EventLog()
        results = self._results = {}
        # the pair reopened, or a fresh one with the producer's hooks set
        if not self._channels:
            self._channels = (ProbeChannel(trace), InjectChannel(trace))
            for channel in self._channels:
                channel.watch("producer", self.watch)
        else:
            for channel in self._channels:
                channel.reopen(trace)
        channels = probe, inject = self._channels
        # shared by both agents; the first one is the run's error
        errors = []

        def consume():
            try:
                results["consumer"] = run_consumer(ConsumerConfig.from_scheme(scheme, x0), inject, probe)
            except BaseException as exc:
                # a failed consumer can never unblock the producer: closing wakes
                # it, and its ChannelClosed lands after this error
                errors.append(exc)
                for channel in channels:
                    channel.close()

        started = time.perf_counter()
        self._consumer.run(consume)
        try:
            results["producer"] = run(program, Store(), sinks={PROBE_PORT: probe.put}, cells={INJECT_CELL: inject})
            self.watch(self._consumer.wait)
        except Exception as exc:
            errors.append(exc)
        finally:
            wall_time = time.perf_counter() - started
            # the producer runs on this thread: once the consumer has returned too, a
            # run that ends with no error and both channels in FINAL is clean
            if errors or not self._consumer.wait(0) or {"probe": probe.state, "inject": inject.state} != FINAL:
                self._close()
                if not self._consumer.wait(JOIN_TIMEOUT):
                    self._consumer.stop()
                    self._consumer = _ConsumerThread()
        if errors:
            try:
                raise errors[0]
            finally:
                # the errors' tracebacks hold frames that hold this list: clearing it
                # frees the channels' pipes now rather than at the next cyclic GC
                errors.clear()

        y = results["consumer"]
        oracle_y = eval_recursive(scheme, x0)
        if y != oracle_y:
            raise ResultMismatch(f"consumer produced {y}, recursion says {oracle_y}")
        events, emissions = trace.events_and_puts("probe")
        residuals = residuals_from_store(results["producer"], x0, scheme.pred.delta, inject.slot)
        return RunReport(
            y=y,
            emissions=emissions,
            residuals=residuals,
            channel_log=events,
            wall_time=wall_time,
        )


# --- reversibility checks --------------------------------------------------------

class ReversibilityCase(NamedTuple):
    label: str
    ok: bool
    problem: str | None = None


class CaseReport(Record):
    """A list of cases, each with an ok flag."""

    __slots__ = _fields = ("cases",)

    def __init__(self, cases: list):
        self._set(cases)

    @property
    def all_ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> list:
        return [case for case in self.cases if not case.ok]


def check_reversibility(program: RevProgram, preloads) -> CaseReport:
    """Every case of reversibility_cases, in one report."""
    return CaseReport(list(reversibility_cases(program, preloads)))


def reversibility_cases(program: RevProgram, preloads):
    """Run forward then inverted for each (registers, cells) preload, and
    yield its ReversibilityCase as it ends.

    A clean pass restores every register and cell exactly. Interpreter faults
    (discipline violations) are reported per case, never raised. Emissions
    are discarded both ways.
    """
    inverse = invert(program)
    sinks = {port: discard for port in program.ports}
    for index, (registers, cell_values) in enumerate(preloads):
        label = f"preload[{index}]"
        initial = Store(registers)
        cells = {name: PlainCell(value) for name, value in cell_values.items()}
        try:
            middle = run(program, initial, sinks=sinks, cells=cells)
            final = run(inverse, middle, sinks=sinks, cells=cells)
        except RevirError as exc:
            yield ReversibilityCase(label, False, f"{type(exc).__name__}: {exc}")
            continue
        problems = []
        if final != initial:
            problems.append(f"store {final.as_dict()} != {initial.as_dict()}")
        for name, value in cell_values.items():
            if cells[name].value != value:
                problems.append(f"cell {name} {cells[name].value} != {value}")
        if problems:
            yield ReversibilityCase(label, False, "; ".join(problems))
        else:
            yield ReversibilityCase(label, True)


def random_preloads(program: RevProgram, count: int, seed: int):
    """The first count preloads of preload_stream(program, seed), in a list."""
    return list(islice(preload_stream(program, seed), max(count, 0)))


def preload_stream(program: RevProgram, seed: int):
    """Deterministic random (registers, cells) preloads for a program, without end.

    Values are kept small because register values drive loop counts.
    """
    rng = random.Random(seed)
    registers = sorted(program.registers)
    cells = sorted(program.cells)
    while True:
        yield (
            {reg: rng.randint(*PRELOAD_RANGE) for reg in registers},
            {cell: rng.randint(*PRELOAD_RANGE) for cell in cells},
        )


# --- protocol checks ---------------------------------------------------------------

def channel_protocol_problems(events) -> list:
    """Violations of the rendezvous protocol in a completed run's log.

    Replays each channel's events through its chan.PROTOCOL table from
    chan.START. The first op the table does not allow ends the replay; a
    full replay must end in chan.FINAL. The table cannot hold one rule: a
    take from the state a put leaves returns the put's value. Each event on
    a channel the table does not have is reported too.
    """
    problems = [f"event {e.seq} is on unknown channel {e.channel}"
                for e in events if e.channel not in PROTOCOL]
    for channel, steps in PROTOCOL.items():
        # the op before a take from the state a put leaves is that put
        filled, state, previous = steps["put"].after, START, None
        for index, (_, _, op, value) in enumerate([e for e in events if e.channel == channel]):
            step = steps.get(op)
            if step is None or step.before != state:
                allowed = " or ".join(name for name, row in steps.items() if row.before == state)
                problems.append(f"{channel} event {index} is {op}, expected {allowed or 'no op'}")
                break
            if state == filled and value != previous:
                problems.append(f"{channel} event {index} got {value}, last put was {previous}")
            state, previous = step.after, value
        else:
            if state != FINAL[channel]:
                problems.append(f"{channel} ops end in {state}, expected {FINAL[channel]}")
    return problems


def write_trace_jsonl(events, handle):
    """Write one JSON object per event, {seq, agent, op, value}, to an open text file."""
    for event in events:
        record = {
            "seq": event.seq,
            "agent": PROTOCOL[event.channel][event.op].agent,
            "op": f"{event.channel}.{event.op}",
            "value": event.value,
        }
        handle.write(json.dumps(record) + "\n")


# --- sweeps -------------------------------------------------------------------------

# the checks of a split run, in report order: "split" is the run itself, which
# fails when it raises; case_failures runs the rest, and only on a run that ended
CASE_CHECKS = ("split", "sequential", "emissions", "residuals", "protocol", "handshakes")


def _passed(check: str) -> property:
    """A SweepCase flag: whether check ran and passed, which it did not if the split run failed."""
    return property(lambda case: not case.failed.keys() & {"split", check})


class SweepCase(Record):
    """One sweep case: its inputs, what its runs gave, and failed, which maps
    the name of each check of CASE_CHECKS that failed to its problems, in
    CASE_CHECKS order.

    ok, error, problems, detail and the *_ok flags are all read from failed,
    so they cannot disagree. A check passed only if it ran: a case whose split
    run raised has failed == {"split": [error]}, and every flag False.
    """

    __slots__ = _fields = ("base", "step", "delta", "x0", "split_y", "sequential_y", "handshakes",
                           "wall_time", "failed")

    def __init__(self, base: str, step: str, delta: int, x0: int,
                 split_y: int | None = None, sequential_y: int | None = None,
                 handshakes: int = 0, wall_time: float = 0.0, failed: dict | None = None):
        self._set(base, step, delta, x0, split_y, sequential_y, handshakes, wall_time,
                  {} if failed is None else failed)

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def error(self) -> str | None:
        """The error the split run raised, or None."""
        return self.failed["split"][0] if "split" in self.failed else None

    @property
    def problems(self) -> list:
        """Every failed check's problems, one list."""
        return [problem for problems in self.failed.values() for problem in problems]

    @property
    def detail(self) -> str:
        """Why the case failed: its problems, which are its error if it has one."""
        return "; ".join(self.problems)

    emissions_ok = _passed("emissions")
    residuals_ok = _passed("residuals")
    protocol_ok = _passed("protocol")


def case_failures(scheme: RecursionScheme, x0: int, report: RunReport) -> tuple[dict, int]:
    """Check a finished split run of scheme at x0: (failed, the sequential run's y).

    failed maps the name of each check of CASE_CHECKS after "split" that
    failed to its problems, in CASE_CHECKS order: agreement with the
    one-piece classical run; the emission plan; the residuals; the channel
    protocol; and iterations + 2 handshakes. report.y is the recursive
    value, which run_split has checked.
    """
    failed = {}
    sequential_y = run_sequential(scheme, x0)[0]
    if sequential_y != report.y:
        failed["sequential"] = [f"sequential y {sequential_y} != recursive {report.y}"]
    plan = expected_emissions(scheme, x0)
    expected = [plan.iterations, plan.base_arg, *plan.h_args]
    if report.emissions != expected:
        failed["emissions"] = [_first_divergence(report.emissions, expected)]
    want = expected_residuals(x0, scheme.pred.delta)
    if report.residuals != want:
        off = [f"{name} {report.residuals[name]} != {value}"
               for name, value in want.items() if report.residuals[name] != value]
        failed["residuals"] = [f"residuals off profile: {', '.join(off)}"]
    protocol = channel_protocol_problems(report.channel_log)
    if protocol:
        failed["protocol"] = protocol
    handshakes = len(report.emissions)
    if handshakes != plan.iterations + 2:
        failed["handshakes"] = [f"{handshakes} handshakes, expected {plan.iterations + 2}"]
    return failed, sequential_y


def _first_divergence(emissions: list, expected: list) -> str:
    """Where emissions first leaves the plan [count, base argument, *step arguments]:
    the index, its role in the plan, both values there, and both lengths."""
    index = next((i for i, (got, want) in enumerate(zip(emissions, expected)) if got != want),
                 min(len(emissions), len(expected)))
    role = ("the count" if index == 0 else "the base argument" if index == 1
            else f"step argument {index - 1} of {len(expected) - 2}" if index < len(expected)
            else "past the plan")
    got, want = (values[index] if index < len(values) else "none" for values in (emissions, expected))
    return (f"emission {index}, {role}: emitted {got}, planned {want} "
            f"({len(emissions)} emitted, {len(expected)} planned)")


def sweep(x_values, deltas, pairs, timeout: float = DEFAULT_TIMEOUT) -> CaseReport:
    """Every case of sweep_cases, in one report."""
    return CaseReport(list(sweep_cases(x_values, deltas, pairs, timeout)))


def sweep_cases(x_values, deltas, pairs, timeout: float = DEFAULT_TIMEOUT):
    """Cross product of (base, step) text pairs, displacements and inputs, in
    that order: yield each SweepCase as it ends.

    Each (pair, delta) block builds its scheme and producer when it starts
    and walks x_values again, as each pair walks deltas again: both must be
    ranges or sequences, not one-pass iterators. Each block also runs its
    cases on one _SplitRunner, so on one consumer thread and one channel
    pair, reopened for each case; the runner checks timeout as the block
    starts, and closes its pair and stops its thread when the block ends,
    raises, or is closed early.

    Each case runs the checks of CASE_CHECKS, in order: the split run, which
    raises if its y is not the recursive value, then case_failures. A split
    run that raises is the "split" check's one problem, and no other check
    runs. Each failed check's problems go into the case's failed map under
    its name, never raised.
    """
    if iter(x_values) is x_values or iter(deltas) is deltas:
        raise TypeError("x_values and deltas must be ranges or sequences, not iterators")
    for base_text, step_text in pairs:
        for delta in deltas:
            scheme = make_scheme(delta, base_text, step_text)
            program = compile_producer(scheme)
            with _SplitRunner(timeout) as runner:
                for x0 in x_values:
                    try:
                        report = runner.split(scheme, x0, program)
                    except (HarnessError, RevirError, NegativeInputError) as exc:
                        failed = {"split": [f"{type(exc).__name__}: {exc}"]}
                        yield SweepCase(base_text, step_text, delta, x0, failed=failed)
                        continue
                    failed, sequential_y = case_failures(scheme, x0, report)
                    yield SweepCase(base_text, step_text, delta, x0, report.y, sequential_y,
                                    len(report.emissions), report.wall_time, failed)
