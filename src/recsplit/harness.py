"""Orchestration: split runs on live channels, deadlock watchdog, and the
equivalence / reversibility / protocol check suites.

A split run runs the compiled producer (under the IR interpreter, with its
probe port and inject cell bound to real channels) on the calling thread
and the classical consumer on one new thread, and assembles a report. An
agent that fails records its error and closes both channels, which wakes a
blocked peer with ChannelClosed, so a failed run ends at once with the
first error. The calling thread is also the watchdog, in the two places it
can wait: in a producer take that finds no token, through the semaphore's
watch hook, and in joining the consumer once the producer has ended. Both
waits run one loop, which raises DeadlockTimeout when the run stalls:
timeout seconds pass with no completed channel operation while every live
agent waits on one. A computing agent never stalls, as every IR program and
the fold end; the error says, from the channels, which operation each agent
waits in. However the run ends, both channels are then closed and the
consumer joined with a bounded wait. That holds for an interrupt too: on
the main thread it lands in the producer or in one of the waits, and only
a consumer that is still computing outlives the run, until its next
channel operation raises ChannelClosed.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

from .chan import FINAL, PROTOCOL, START, EventLog, InjectChannel, ProbeChannel
from .consumer import ConsumerConfig, run_consumer
from .producer import (
    ResidualReport,
    compile_producer,
    expected_residuals,
    residuals_from_store,
    run_sequential,
)
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
    """No channel operation completed within the timeout, and every live agent waits on one."""


class ResultMismatch(HarnessError):
    """The consumer's result disagrees with the recursive value."""


def check_timeout(timeout: float) -> float:
    """timeout, if it is a finite number of seconds in (0, threading.TIMEOUT_MAX]."""
    if not 0 < timeout <= threading.TIMEOUT_MAX:   # nan fails this too
        raise ValueError(f"timeout must be in (0, {threading.TIMEOUT_MAX}] seconds, got {timeout}")
    return timeout


@dataclass
class RunReport:
    y: int   # equal to eval_recursive's value, or run_split raises ResultMismatch
    emissions: list
    residuals: ResidualReport
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
    waits for a token and, once the producer has ended, while it joins the
    consumer. The run stalls when timeout seconds pass with no completed
    channel operation and every live agent waiting on one. Asserts the
    consumer's result against the recursive value and returns the full
    report. The optional program argument substitutes the producer program
    (fault-injection hooks for tests); by default the scheme is compiled.
    """
    check_input(x0)
    check_timeout(timeout)
    if program is None:
        program = compile_producer(scheme)

    trace = EventLog()
    probe = ProbeChannel(trace)
    inject = InjectChannel(trace)
    results = {}
    # shared by both agents; the first one is the run's error
    errors = []

    def close_channels():
        probe.close()
        inject.close()

    def consume():
        try:
            results["consumer"] = run_consumer(ConsumerConfig.from_scheme(scheme, x0), inject, probe)
        except BaseException as exc:
            # a failed consumer can never unblock the producer: closing wakes
            # it, and its ChannelClosed lands after this error
            errors.append(exc)
            close_channels()

    consumer = threading.Thread(target=consume, daemon=True)

    def stall(latest):
        """What each agent waits in, if the run has stalled since latest, else None."""
        running = {"producer": "producer" not in results, "consumer": consumer.is_alive()}
        live = {agent for agent, alive in running.items() if alive}
        blocked = {PROTOCOL[name][op].agent: f"{name}.{op}" for name, op in probe.waiting() + inject.waiting()}
        # a record since latest may have woken an agent still marked waiting
        if live and blocked.keys() >= live and trace.latest_ns == latest:
            return "; ".join(f"{agent} blocked in {blocked[agent]}" if agent in live
                             else f"{agent} finished" for agent in running)
        return None

    def watch(ready):
        """Return once ready(seconds) is true; raise DeadlockTimeout if the run stalls first."""
        # re-arm after every completed channel operation, and while an agent computes
        while True:
            latest = trace.latest_ns
            idle = (time.perf_counter_ns() - latest) / 1e9
            if idle >= timeout:
                blocked = stall(latest)
                if blocked:
                    raise DeadlockTimeout(f"no channel operation completed for {timeout}s: {blocked}")
                idle = 0
            if ready(timeout - idle):
                return

    def joined(seconds):
        consumer.join(seconds)
        return not consumer.is_alive()

    started = time.perf_counter()
    consumer.start()
    # the producer's takes: probe.put and inject.swap_in
    probe._empty.watch = inject._full.watch = watch
    try:
        try:
            results["producer"] = run(program, Store(), sinks={"probe": probe.put}, cells={"inject": inject})
            watch(joined)
        except Exception as exc:
            errors.append(exc)
        wall_time = time.perf_counter() - started
    finally:
        # the hooks close over the channels: left set, they would keep the
        # pipes open until a cyclic GC
        probe._empty.watch = inject._full.watch = None
        close_channels()
        consumer.join(JOIN_TIMEOUT)
    if errors:
        try:
            raise errors[0]
        finally:
            # the errors' tracebacks hold frames that hold this list: clearing it
            # frees the channels' pipes now rather than at the next cyclic GC
            errors.clear()

    y = results["consumer"]
    final_store = results["producer"]
    oracle_y = eval_recursive(scheme, x0)
    if y != oracle_y:
        raise ResultMismatch(f"consumer produced {y}, recursion says {oracle_y}")
    events, emissions = trace.events_and_puts("probe")
    residuals = residuals_from_store(
        final_store, x0, scheme.pred.delta, inject_cell=inject.slot
    )
    return RunReport(
        y=y,
        emissions=emissions,
        residuals=residuals,
        channel_log=events,
        wall_time=wall_time,
    )


# --- reversibility checks --------------------------------------------------------

@dataclass
class ReversibilityCase:
    label: str
    ok: bool
    problem: str | None = None


@dataclass
class CaseReport:
    """A list of cases, each with an ok flag."""

    cases: list

    @property
    def all_ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> list:
        return [case for case in self.cases if not case.ok]


class ReversibilityReport(CaseReport):
    def summary(self) -> str:
        return f"{sum(case.ok for case in self.cases)}/{len(self.cases)} preloads restored"


def check_reversibility(program: RevProgram, preloads) -> ReversibilityReport:
    """Run forward then inverted for each (registers, cells) preload.

    A clean pass restores every register and cell exactly. Interpreter faults
    (discipline violations) are reported per case, never raised. Emissions
    are discarded both ways.
    """
    inverse = invert(program)
    sinks = {port: discard for port in program.ports}
    cases = []
    for index, (registers, cell_values) in enumerate(preloads):
        label = f"preload[{index}]"
        initial = Store(registers)
        cells = {name: PlainCell(value) for name, value in cell_values.items()}
        try:
            middle = run(program, initial, sinks=sinks, cells=cells)
            final = run(inverse, middle, sinks=sinks, cells=cells)
        except RevirError as exc:
            cases.append(ReversibilityCase(label, False, f"{type(exc).__name__}: {exc}"))
            continue
        problems = []
        if final != initial:
            problems.append(f"store {final.as_dict()} != {initial.as_dict()}")
        for name, value in cell_values.items():
            if cells[name].value != value:
                problems.append(f"cell {name} {cells[name].value} != {value}")
        if problems:
            cases.append(ReversibilityCase(label, False, "; ".join(problems)))
        else:
            cases.append(ReversibilityCase(label, True))
    return ReversibilityReport(cases)


def random_preloads(program: RevProgram, count: int, seed: int):
    """Deterministic random (registers, cells) preloads for a program.

    Values are kept small because register values drive loop counts.
    """
    rng = random.Random(seed)
    registers = sorted(program.registers)
    cells = sorted(program.cells)
    return [
        (
            {reg: rng.randint(*PRELOAD_RANGE) for reg in registers},
            {cell: rng.randint(*PRELOAD_RANGE) for cell in cells},
        )
        for _ in range(count)
    ]


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

@dataclass
class SweepCase:
    base: str
    step: str
    delta: int
    x0: int
    error: str | None = None
    split_y: int | None = None
    sequential_y: int | None = None
    emissions_ok: bool = False
    residuals_ok: bool = False
    protocol_ok: bool = False
    handshakes: int = 0
    wall_time: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


class SweepReport(CaseReport):
    def format_table(self) -> str:
        """Flat text table, one row per case."""
        header = f"{'base':<12} {'step':<12} {'delta':>5} {'x0':>4} {'ok':<4} detail"
        lines = [header, "-" * len(header)]
        for case in self.cases:
            if case.ok:
                detail = f"y = {_show(case.split_y)}"
            elif case.error is not None:
                detail = case.error
            else:
                detail = "; ".join(case.problems)
            lines.append(
                f"{case.base:<12} {case.step:<12} {case.delta:>5} {case.x0:>4} "
                f"{'yes' if case.ok else 'NO':<4} {detail}"
            )
        lines.append(f"{len(self.cases)} cases, {len(self.failures)} failures")
        return "\n".join(lines)


# a y this large has more digits than str() converts by default (4300), and
# converting it costs time quadratic in its length: the table shows its digit count
_SHOWN_BELOW = 10 ** 4300


def _show(y: int, width: int = 32) -> str:
    """y in decimal clipped to width characters, or, past _SHOWN_BELOW, its digit count."""
    magnitude = abs(y)
    if magnitude >= _SHOWN_BELOW:
        # 1 + (bits - 1) * log10(2), rounded down with a factor just under
        # log10(2), is at most the digit count
        digits = 1 + (magnitude.bit_length() - 1) * 3010299956 // 10**10
        while magnitude >= 10 ** digits:
            digits += 1
        return f"{'-' if y < 0 else ''}<{digits} digits>"
    text = str(y)
    return text if len(text) <= width else text[: width - 3] + "..."


def sweep(x_values, deltas, pairs, timeout: float = DEFAULT_TIMEOUT) -> SweepReport:
    """Cross product of inputs, displacements, and (base, step) text pairs.

    Each case does a split run, the one-piece classical run, and the direct
    recursive evaluation, then checks emission conformity, residual
    conformity, and the channel protocol. Failures are collected, not
    raised.
    """
    x_values = list(x_values)
    deltas = list(deltas)
    cases = []
    for base_text, step_text in pairs:
        for delta in deltas:
            scheme = make_scheme(delta, base_text, step_text)
            program = compile_producer(scheme)
            for x0 in x_values:
                case = SweepCase(base=base_text, step=step_text, delta=delta, x0=x0)
                cases.append(case)
                try:
                    report = run_split(scheme, x0, timeout=timeout, program=program)
                except (HarnessError, RevirError, NegativeInputError) as exc:
                    case.error = f"{type(exc).__name__}: {exc}"
                    continue
                case.split_y = report.y
                case.wall_time = report.wall_time
                case.sequential_y = run_sequential(scheme, x0)[0]
                if case.sequential_y != report.y:
                    case.problems.append(
                        f"sequential y {case.sequential_y} != recursive {report.y}"
                    )
                plan = expected_emissions(scheme, x0)
                expected = [plan.iterations, plan.base_arg, *plan.h_args]
                case.emissions_ok = report.emissions == expected
                if not case.emissions_ok:
                    case.problems.append(
                        f"emissions {report.emissions} != {expected}"
                    )
                case.residuals_ok = report.residuals == expected_residuals(x0, delta)
                if not case.residuals_ok:
                    case.problems.append(f"residuals {report.residuals} off profile")
                protocol = channel_protocol_problems(report.channel_log)
                case.protocol_ok = not protocol
                case.problems.extend(protocol)
                case.handshakes = len(report.emissions)
                if case.handshakes != plan.iterations + 2:
                    case.problems.append(
                        f"{case.handshakes} handshakes, expected {plan.iterations + 2}"
                    )
    return SweepReport(cases)
