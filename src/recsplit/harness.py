"""Orchestration: split runs on live channels, deadlock watchdog, and the
equivalence / reversibility / protocol check suites.

A split run runs the compiled producer (under the IR interpreter, with its
probe port and inject cell bound to real channels) on the calling thread
and the classical consumer on a consumer thread. Each rule of a split run
is stated once, where its code is:
- what a runner owns and keeps between runs: _SplitRunner;
- which agent waits where: chan.Doorbell.blocked, on each thread's one
  doorbell;
- when a run is stalled: _SplitRunner.stall; which agent reports it, and
  when: _SplitRunner.watch;
- how a run ends, and what it leaves for the next: _SplitRunner.split;
- a case's verdict: SweepCase, and the checks behind it, case_failures;
- how a y is shown in bounded text: show_int;
- the wake-up rule of every cross-thread wait: the chan module.
"""

from __future__ import annotations

import contextlib
import json
import random
import threading
import time
from itertools import islice
from typing import NamedTuple

from .chan import FINAL, PROTOCOL, START, Doorbell, EventLog, InjectChannel, ProbeChannel, publish, shut
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
# an int this large is shown by its digit count: str() refuses it past 4300
# digits by default, and takes time quadratic in its length
_SHOWN_BELOW = 10 ** 4300
_SHOWN_WIDTH = 32   # characters of an int shown in decimal, "..." included


class HarnessError(Exception):
    """Base class for orchestration errors."""


class DeadlockTimeout(HarnessError):
    """A split run deadlocked: every live agent waits on a channel, and none can
    move again. Which agent raises it, and when: _SplitRunner.watch."""


class ResultMismatch(HarnessError):
    """The consumer's result disagrees with the recursive value."""


def show_int(value: int) -> str:
    """value in decimal clipped to _SHOWN_WIDTH characters, or, past _SHOWN_BELOW, its digit count."""
    magnitude = abs(value)
    if magnitude >= _SHOWN_BELOW:
        # 1 + (bits - 1) * log10(2), rounded down with a factor just under
        # log10(2), is at most the digit count
        digits = 1 + (magnitude.bit_length() - 1) * 3010299956 // 10**10
        while magnitude >= 10 ** digits:
            digits += 1
        return f"{'-' if value < 0 else ''}<{digits} digits>"
    text = str(value)
    return text if len(text) <= _SHOWN_WIDTH else text[: _SHOWN_WIDTH - 3] + "..."


def _disagreement(template: str, first: int, second: int) -> str:
    """template with first and second as show_int shows them; when either is
    too long to show whole, first - second follows, as show_int shows it."""
    text = template.format(show_int(first), show_int(second))
    if any(abs(value) >= 10 ** (_SHOWN_WIDTH - (value < 0)) for value in (first, second)):
        text += f", difference {show_int(first - second)}"
    return text


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
    """Run the producer on the calling thread and the consumer on a consumer
    thread, on a _SplitRunner of its own, and return the full report; raise
    ResultMismatch if the consumer's y is not the recursive value.

    The calling thread is also the watchdog (see _SplitRunner.watch). The
    optional program substitutes the producer program: tests pass fault
    programs, and a sweep passes one compiled producer to every input of a
    block; by default the scheme is compiled.
    """
    with _SplitRunner(timeout) as runner:
        return runner.split(scheme, x0, program)


class _ConsumerThread:
    """One daemon thread, started at once, that runs consumer bodies one at a time.

    The hand-off is a holder of chan.Doorbell waits, as a channel is: the
    thread waits for a body on its own doorbell, bell, and the owner for the
    body's return on the owner's. A body catches its own errors. Only the
    owner hands bodies and stops the thread, and only the thread takes them.
    """

    def __init__(self, owner: Doorbell):
        self._owner, self.bell = owner, Doorbell()
        self._body = None
        self.state = "idle"
        self.closed = False   # stop() has run: the thread exits instead of taking a body
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            self.bell.wait("thread", self, "handed")
            if self.closed:
                return
            body, self._body = self._body, None
            body()
            # dropped before the owner hears of the return: the body holds its run's channels
            del body
            publish(self, "idle", self._owner)

    def run(self, body):
        """Hand body to the thread; the previous body must have returned."""
        self._body = body
        publish(self, "handed", self.bell)

    @property
    def busy(self) -> bool:
        """Whether the body handed last has not yet returned."""
        return self.state != "idle"

    def wait(self, watch=None):
        """Return once the body handed last has returned, calling watch(ready),
        if given, before each sleep; the hook may raise to stop waiting."""
        self._owner.wait("owner", self, "idle", watch)

    def stop(self):
        """Let the thread exit, and join it if it has no body now.

        A body handed but not yet taken is withdrawn: the thread exits
        instead of taking it.
        """
        shut(self, (self.bell,))
        if not self.busy:
            self._thread.join()


class _SplitRunner(contextlib.AbstractContextManager):
    """Split runs, one at a time, on one consumer thread over one channel pair.

    A runner owns what one run leaves for the next: the calling thread's
    doorbell and its consumer thread, which has its own; one channel pair
    on those two doorbells, which the first run opens and each later run
    reopens with its own EventLog; and the current run's log and results,
    which the hooks and stall() read. Both agents' hooks are set when a pair
    opens and cleared when it closes, not on every run. run_split makes a
    runner for its one run, and sweep_cases one per (pair, delta) block, so
    a case pays no thread start and opens no pipe. Leaving the runner closes
    the pair and stops the thread, so neither outlives it.
    """

    def __init__(self, timeout: float):
        self._timeout = check_timeout(timeout)
        self._bell = Doorbell()   # the calling thread's: the producer's and the owner's
        self._consumer = _ConsumerThread(self._bell)
        self._channels = ()   # (probe, inject) left in FINAL by the last run, or none
        self._trace = None    # the current run's EventLog
        self._results = {}    # what the current run's agents returned, by agent

    def __exit__(self, *exc_info):
        # stopped first, an idle thread exits before the pair's close rings its doorbell
        self._consumer.stop()
        self._close()

    def _close(self):
        """Close the pair, waking any agent blocked on it, and let the next run open a fresh one."""
        for channel in self._channels:
            channel.close()
            # the hooks point back at the runner: left set, they would keep the
            # pipes open until a cyclic GC
            channel.watch("producer", None)
            channel.watch("consumer", None)
        self._channels = ()

    def _open(self, trace: EventLog):
        """Open a fresh pair recording to trace, on this thread's doorbell and
        the consumer thread's, and set both agents' hooks on it."""
        bells = {"producer": self._bell, "consumer": self._consumer.bell}
        self._channels = ProbeChannel(trace, bells), InjectChannel(trace, bells)
        for channel in self._channels:
            channel.watch("producer", self.watch)
            channel.watch("consumer", self._consumer_watch)

    def stall(self, count: int) -> str | None:
        """What each agent waits in, if every live agent waits and the log holds count records, else None.

        An agent is live until it has returned its result, and waits while
        its thread's doorbell says it is blocked on this run's pair
        (chan.Doorbell.blocked). A run whose live agents all wait, with no op
        completed since count was read, can never move again over
        single-slot channels: it is deadlocked.
        """
        marks = {"producer": self._bell.blocked(), "consumer": self._consumer.bell.blocked()}
        live = [agent for agent in marks if agent not in self._results]
        # a record since count was read may have woken an agent still marked waiting
        if (live and all(marks[agent] and marks[agent][0] in self._channels for agent in live)
                and len(self._trace) == count):
            return "; ".join(f"{agent} blocked in {marks[agent][0]._name}.{marks[agent][1]}"
                             if agent in live else f"{agent} finished" for agent in marks)
        return None

    def _look(self, peer: str):
        """Raise DeadlockTimeout if stall() sees the run stalled, asking it
        only if peer has returned while the looking agent has not, or peer
        is blocked, which it reads without allocating."""
        bell = self._bell if peer == "producer" else self._consumer.bell
        if peer in self._results and len(self._results) == 1 or bell.blocked() is not None:
            blocked = self.stall(len(self._trace))
            if blocked:
                raise DeadlockTimeout(f"deadlock: {blocked}")

    def watch(self, ready):
        """Return once ready(seconds) is true; raise DeadlockTimeout once the run is stalled.

        A deadlock is reported by the agent whose move completes it: before it
        sleeps, or, the consumer, as it returns. Each agent marks itself, or
        records its result, before it looks at its peer (_look), so of two
        agents that move at once the later sees the earlier. The calling
        thread, the watchdog, looks before its first wait in the two places
        it can wait: in a producer take whose slot is not ready (the
        channels' hook), and in waiting for the consumer body once the
        producer has ended. The consumer looks in its own hook
        (_consumer_watch), and when it returns.

        A stall that no look reported, as when a record lands after stall()'s
        count, is caught by the backstop: waits of 1 ms, doubling up to the
        timeout, with a look after each. A ring ends a wait at once.
        The timeout bounds neither the run nor the gap between two ops: a
        computing agent does not wait, so a run that is slow but still moves
        never stalls. Nor can it compute forever: an IR loop reads its count
        once and its body may not write it, so every producer program ends,
        and the consumer folds over a finite count.
        """
        self._look("consumer")
        wait = min(0.001, self._timeout)
        while not ready(wait):
            self._look("consumer")
            wait = min(2 * wait, self._timeout)

    def _consumer_watch(self, ready):
        """The consumer's hook, on each of its takes: raise DeadlockTimeout if
        its sleep completes a stall, as watch()'s look finds one, with the
        producer as the peer; return otherwise, and it sleeps until a ring,
        with no timed wait. Its error ends the run as any failed consumer's
        does (see split)."""
        self._look("producer")

    def split(self, scheme: RecursionScheme, x0: int, program: RevProgram | None = None) -> RunReport:
        """run_split's run, on this runner's thread and pair.

        A run that ends cleanly, with no error, both agents returned and both
        channels in FINAL, leaves the pair for the next run to reopen. Any
        other end closes the pair, which wakes a blocked agent with
        ChannelClosed, and waits with no bound for the consumer body, which
        ends at its next channel operation or with its finite fold. split
        returns or raises only once the consumer body has returned; no run
        outlives its call. An agent that fails closes both channels, so a
        failed run raises the first error as its peer returns. An interrupt
        on the main thread lands in the producer or in a wait, and ends the
        run by this rule too, unless it lands in the wait after the close.
        """
        check_input(x0)
        if program is None:
            program = compile_producer(scheme)

        trace = self._trace = EventLog()
        results = self._results = {}
        # the pair reopened, or a fresh one with both agents' hooks set
        if self._channels:
            for channel in self._channels:
                channel.reopen(trace)
        else:
            self._open(trace)
        channels = probe, inject = self._channels
        # shared by both agents; the first one is the run's error
        errors = []

        def consume():
            try:
                results["consumer"] = run_consumer(ConsumerConfig.from_scheme(scheme, x0), inject, probe)
                # its return completes a stall if the producer waits for it (see watch)
                self._look("producer")
            except BaseException as exc:
                # a failed consumer can never unblock the producer: closing
                # wakes it, and its ChannelClosed lands after this error
                errors.append(exc)
                for channel in channels:
                    channel.close()

        started = time.perf_counter()
        self._consumer.run(consume)
        try:
            try:
                results["producer"] = run(program, Store(), sinks={PROBE_PORT: probe.put}, cells={INJECT_CELL: inject})
                self._consumer.wait(self.watch)
            except Exception as exc:
                errors.append(exc)
            finally:
                wall_time = time.perf_counter() - started
                # the producer runs on this thread: once the consumer has returned too, a
                # run that ends with no error and both channels in FINAL is clean
                if errors or self._consumer.busy or {"probe": probe.state, "inject": inject.state} != FINAL:
                    self._close()
                    self._consumer.wait()
            if errors:
                raise errors[0]
        finally:
            # the errors' tracebacks hold frames that hold this list, and the body's
            # late ChannelClosed lands in it under an interrupt too: clearing it frees
            # the channels' pipes now rather than at the next cyclic GC
            errors.clear()

        y = results["consumer"]
        oracle_y = eval_recursive(scheme, x0)
        if y != oracle_y:
            raise ResultMismatch(_disagreement("consumer produced {}, recursion says {}", y, oracle_y))
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
    """One sweep case: its inputs, what its runs gave, and its verdict, failed,
    which maps the name of each check of CASE_CHECKS that failed to its
    problems, in CASE_CHECKS order.

    ok, error, problems, detail and the *_ok flags are all read from failed,
    so they cannot disagree. A check passed only if it ran: a case whose split
    run raised has failed == {"split": [error]}, and every flag False. A
    sweep case and `recsplit run --mode split` both take failed from
    case_failures.
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

    failed is SweepCase.failed for the checks after "split": agreement with
    the one-piece classical run; the emission plan; the residuals; the
    channel protocol; and iterations + 2 handshakes. report.y is the
    recursive value, which run_split has checked.
    """
    failed = {}
    sequential_y = run_sequential(scheme, x0)[0]
    if sequential_y != report.y:
        failed["sequential"] = [_disagreement("sequential y {} != recursive {}", sequential_y, report.y)]
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
    that order: yield each SweepCase as it ends, its failures recorded in it
    and never raised.

    Each (pair, delta) block builds its scheme and producer when it starts,
    runs its cases on one _SplitRunner, which checks timeout then, and walks
    x_values again, as each pair walks deltas again: both must be ranges or
    sequences, not one-pass iterators.
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
