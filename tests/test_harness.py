import contextlib
import copy
import functools
import gc
import json
import math
import os
import random
import resource
import sys
import threading
import time
import weakref
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from recsplit import chan, harness
from recsplit import scheme as scheme_module
from recsplit.chan import ChannelClosed, ChannelEvent
from recsplit.harness import (
    CASE_CHECKS,
    DeadlockTimeout,
    ResultMismatch,
    CaseReport,
    SweepCase,
    channel_protocol_problems,
    check_reversibility,
    preload_stream,
    random_preloads,
    reversibility_cases,
    run_split,
    sweep,
    sweep_cases,
    write_trace_jsonl,
)
from recsplit.producer import PROBE_PORT, compile_phase_a, compile_producer, expected_residuals
from recsplit.revir import (
    AddConst,
    BranchSignViolation,
    Emit,
    For,
    IfSign,
    RecordingSink,
    RevProgram,
    SwapCell,
    run,
)
from recsplit.scheme import NegativeInputError, eval_recursive, make_scheme, pretty

import faults
from oracles import protocol_problems_by_sequence, recursion_by_definition
from test_chan import pinned


# --- split runs -----------------------------------------------------------------

def test_split_one_wide_divisible():
    report = run_split(make_scheme(-1, "x", "x+y"), 3)
    assert report.y == 6 == recursion_by_definition(-1, lambda x: x, lambda x, y: x + y, 3)
    assert report.emissions == [3, 0, 1, 2, 3]
    assert report.residuals["inject"] == 3
    assert report.residuals == expected_residuals(3, -1)
    assert report.wall_time < 5.0


def test_split_two_wide_non_divisible():
    report = run_split(make_scheme(-2, "x", "x+y"), 3)
    assert report.y == 3
    assert report.emissions == [2, -1, 1, 3]
    assert report.residuals["inject"] == 5
    assert report.residuals == expected_residuals(3, -2)


def test_split_base_case():
    scheme = make_scheme(-3, "x+1", "x*y+1")
    report = run_split(scheme, 0)
    assert report.y == scheme.base.function(0)
    assert report.emissions == [0, 0]


def test_split_compiles_each_expression_once(monkeypatch):
    generated = []
    generate = scheme_module._generate
    monkeypatch.setattr(scheme_module, "_generate", lambda expr: generated.append(expr) or generate(expr))
    scheme = make_scheme(-2, "x+1", "x*y+1")
    assert generated == []   # building a scheme compiles nothing
    first = run_split(scheme, 9)
    assert sorted(map(pretty, generated)) == ["x * y + 1", "x + 1"]
    second = run_split(scheme, 9)
    assert len(generated) == 2 and second.y == first.y
    assert scheme.step.function is scheme.step.function


def test_split_rejects_bad_arguments():
    scheme = make_scheme(-1, "x", "x+y")
    with pytest.raises(NegativeInputError):
        run_split(scheme, -1)
    for timeout in (0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            run_split(scheme, 1, timeout=timeout)


def test_slow_run_is_not_a_stall():
    # the timeout bounds the time between completed channel operations, not
    # the whole run, which outlives it here
    report = run_split(make_scheme(-1, "x", "x+y"), 20000, timeout=0.05)
    assert report.y == 200010000
    assert report.wall_time > 0.05


def test_sub_millisecond_timeout_is_not_a_stall():
    # an op that marks itself just as its peer publishes the state it needs
    # sees that state on its re-check and does not wait, so a run that keeps
    # moving completes even when every gap exceeds the timeout
    report = run_split(make_scheme(-1, "x", "x+y"), 1000, timeout=1e-6)
    assert report.y == 500500


# the stall timeout of the runs that spin
_SPIN_TIMEOUT = 0.05


def _spin_loop(count):
    return (AddConst("n", count), For("n", (AddConst("a", 1),)))


@functools.cache
def _spin():
    """A channel-free loop that runs at least 4 * _SPIN_TIMEOUT seconds, as
    timed here: the IR's speed sets how many iterations that takes."""
    count = 1000
    while True:
        started = time.perf_counter()
        run(RevProgram(_spin_loop(count)))
        elapsed = time.perf_counter() - started
        if elapsed >= _SPIN_TIMEOUT / 2:
            break
        count *= 2
    # aim at 5 * _SPIN_TIMEOUT, so a loop timed a little fast still lasts 4
    return _spin_loop(math.ceil(count * 5 * _SPIN_TIMEOUT / elapsed))


def test_computing_agent_is_not_a_stall():
    # after its final swap the producer computes far past the timeout while
    # the consumer has finished: no agent waits, so the run is not stalled
    scheme = make_scheme(-1, "x", "x+y")
    program = RevProgram(compile_producer(scheme).body + _spin())
    before = threading.active_count()
    report = run_split(scheme, 3, timeout=_SPIN_TIMEOUT, program=program)
    assert report.y == 6
    assert report.wall_time > 0.05
    assert threading.active_count() == before


def test_split_channel_protocol():
    scheme = make_scheme(-2, "x", "x+y")
    report = run_split(scheme, 7)
    assert channel_protocol_problems(report.channel_log) == []
    puts = [e for e in report.channel_log if e.channel == "probe" and e.op == "put"]
    assert len(puts) == 4 + 2   # ceil(7/2) handshakes plus count and base
    inject_ops = [e.op for e in report.channel_log if e.channel == "inject"]
    assert inject_ops == ["put", "swap_in", "swap_out"]


def test_split_trace_jsonl(tmp_path):
    report = run_split(make_scheme(-2, "x", "x+y"), 3)
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        write_trace_jsonl(report.channel_log, handle)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert records[0] == {"seq": 0, "agent": "consumer", "op": "inject.put", "value": 3}
    producer_ops = {r["op"] for r in records if r["agent"] == "producer"}
    assert producer_ops == {"probe.put", "inject.swap_in", "inject.swap_out"}


def test_split_starts_one_thread(monkeypatch):
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    assert run_split(make_scheme(-1, "x", "x+y"), 3).y == 6
    assert len(started) == 1


def test_producer_runs_on_the_calling_thread(monkeypatch):
    idents = []
    run = harness.run

    def recording_run(*args, **kwargs):
        idents.append(threading.get_ident())
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "run", recording_run)
    assert run_split(make_scheme(-1, "x", "x+y"), 3).y == 6
    assert idents == [threading.get_ident()]


def test_concurrent_split_runs_under_preemption():
    # more runs than cores, each producer on its own calling thread and
    # watching its own takes, with a switch interval short enough to preempt
    # between any two bytecodes
    scheme = make_scheme(-2, "x", "x+y")
    inputs = range(200, 206)
    outcomes = {}

    def one(x0):
        report = run_split(scheme, x0)
        outcomes[x0] = (report.y, channel_protocol_problems(report.channel_log))

    threads = [threading.Thread(target=one, args=(x0,), daemon=True) for x0 in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == {x0: (eval_recursive(scheme, x0), []) for x0 in inputs}


# --- fault injection ---------------------------------------------------------------

def _silent_producer():
    # swaps the input in and back out without ever emitting
    return RevProgram(
        (SwapCell("inject", "x"), SwapCell("inject", "x"))
    )


def _chatty_producer():
    # emits more values than the consumer will ever get
    return RevProgram(
        (SwapCell("inject", "x"),)
        + (Emit("probe", "g"),) * 4
        + (SwapCell("inject", "x"),)
    )


def test_deadlock_reports_starved_consumer():
    scheme = make_scheme(-1, "x", "x+y")
    started = time.perf_counter()
    with pytest.raises(DeadlockTimeout, match="consumer blocked in probe.get"):
        run_split(scheme, 3, timeout=0.2, program=_silent_producer())
    assert time.perf_counter() - started < 0.2


def test_deadlock_reports_stuck_producer():
    # the calling thread itself waits in probe.put and sees the stall there
    scheme = make_scheme(-1, "x", "x+y")
    before = threading.active_count()
    started = time.perf_counter()
    with pytest.raises(DeadlockTimeout, match="producer blocked in probe.put; consumer finished"):
        run_split(scheme, 3, timeout=0.2, program=_chatty_producer())
    assert time.perf_counter() - started < 0.2
    assert threading.active_count() == before


def test_result_mismatch_is_raised():
    # a producer that reports zero iterations and hands base the raw input
    program = RevProgram(
        (
            SwapCell("inject", "x"),
            Emit("probe", "g"),
            Emit("probe", "x"),
            SwapCell("inject", "x"),
        )
    )
    with pytest.raises(ResultMismatch):
        run_split(make_scheme(-1, "x", "x+y"), 3, timeout=1.0, program=program)


def _sign_flipping_producer():
    # a branch that flips its discriminator's sign aborts the producer
    return RevProgram(
        (
            SwapCell("inject", "x"),
            IfSign("x", pos=(AddConst("x", -100),)),
            Emit("probe", "g"),
            SwapCell("inject", "x"),
        )
    )


def test_producer_fault_propagates():
    # the failed producer ends the run early: its consumer is woken, not timed out
    started = time.perf_counter()
    with pytest.raises(BranchSignViolation):
        run_split(make_scheme(-1, "x", "x+y"), 3, timeout=5.0, program=_sign_flipping_producer())
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "program, error",
    [
        (_silent_producer, DeadlockTimeout),
        (_chatty_producer, DeadlockTimeout),
        (_sign_flipping_producer, BranchSignViolation),
    ],
)
def test_failed_run_leaves_no_thread(program, error):
    before = threading.active_count()
    with pytest.raises(error):
        run_split(make_scheme(-1, "x", "x+y"), 3, timeout=0.2, program=program())
    assert threading.active_count() == before


@pytest.mark.parametrize("program", [_silent_producer, _chatty_producer])
def test_deadlock_at_the_default_timeout_is_reported_at_once(program):
    # the agent whose sleep completes the deadlock reports it, long before the 5 s timeout
    started = time.perf_counter()
    with pytest.raises(DeadlockTimeout, match="^deadlock: "):
        run_split(make_scheme(-1, "x", "x+y"), 3, program=program())
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("program, blocked", [
    (_silent_producer, "producer finished; consumer blocked in probe.get"),
    (_chatty_producer, "producer blocked in probe.put; consumer finished"),
])
def test_a_pinned_deadlock_is_reported_at_once(program, blocked):
    # on one CPU a take yields before it marks itself: the watchdog still
    # sees every live agent marked within a few milliseconds
    started = time.perf_counter()
    with pinned(), pytest.raises(DeadlockTimeout, match=f"^deadlock: {blocked}$"):
        run_split(make_scheme(-1, "x", "x+y"), 3, timeout=1.0, program=program())
    assert time.perf_counter() - started < 0.25


def test_consumer_computing_past_the_timeout_is_not_a_stall(monkeypatch):
    # the consumer sleeps between its first two gets, six timeouts long, while
    # the producer waits to put: only one live agent waits, so no stall
    run_consumer = harness.run_consumer

    class SlowProbe:
        def __init__(self, probe):
            self.probe, self.gets = probe, 0

        def get(self):
            self.gets += 1
            if self.gets == 2:
                time.sleep(0.3)
            return self.probe.get()

    monkeypatch.setattr(harness, "run_consumer",
                        lambda config, inject, probe: run_consumer(config, inject, SlowProbe(probe)))
    before = threading.active_count()
    report = run_split(make_scheme(-1, "x", "x+y"), 3, timeout=0.05)
    assert report.y == 6
    assert report.wall_time > 0.3
    assert threading.active_count() == before


def test_stall_is_refused_when_a_record_lands_after_its_count(monkeypatch):
    # both agents are marked waiting, but a record that landed after the count
    # was read may have woken one of them: stall() says no, and the next look
    # reports the deadlock
    _recording_consumers(monkeypatch, lambda x0, probe: probe.get())
    verdicts = []
    stall = harness._SplitRunner.stall

    def landing(self, count):
        waiting = {chan.PROTOCOL[name][op].agent
                   for channel in self._channels for name, op in channel.waiting()}
        if verdicts or waiting != {"producer", "consumer"}:
            return stall(self, count)
        self._trace.append(("probe", "get", 0))
        verdicts.append((stall(self, count), stall(self, count + 1)))
        return verdicts[0][0]

    monkeypatch.setattr(harness._SplitRunner, "stall", landing)
    blocked = "producer blocked in inject.swap_in; consumer blocked in probe.get"
    with pytest.raises(DeadlockTimeout, match=blocked):
        run_split(make_scheme(-1, "x", "x+y"), 3, timeout=0.05)
    assert verdicts == [(None, blocked)]


def test_stall_waits_for_a_computing_agent():
    # the producer spins, then ends without emitting: the run stalls only
    # once it has finished, and no thread outlives the run
    before = threading.active_count()
    with pytest.raises(DeadlockTimeout, match="producer finished; consumer blocked in probe.get"):
        run_split(make_scheme(-1, "x", "x+y"), 3, timeout=_SPIN_TIMEOUT,
                  program=RevProgram((SwapCell("inject", "x"),) + _spin()))
    assert threading.active_count() == before


# what each fault's stall reports: two fault producers, and a consumer that
# gets before it puts the input
_STALLS = {
    "silent": "producer finished; consumer blocked in probe.get",
    "chatty": "producer blocked in probe.put; consumer finished",
    "mutual": "producer blocked in inject.swap_in; consumer blocked in probe.get",
}


def _until(holds):
    """Return once holds() is true, polling; fail after 5 s."""
    deadline = time.monotonic() + 5.0
    while not holds():
        assert time.monotonic() < deadline, "the peer never went to sleep"
        time.sleep(0.0001)


def _asleep(runner, agent):
    """Whether agent sleeps until a ring, as its thread's doorbell says: in a
    take, or, the producer, in the wait for the consumer body."""
    return (runner._bell if agent == "producer" else runner._consumer.bell).blocked() is not None


@pytest.mark.parametrize("on_one_cpu", [False, True], ids=["unpinned", "pinned"])
@pytest.mark.parametrize("last", ["producer", "consumer"])
@pytest.mark.parametrize("fault", list(_STALLS))
def test_the_agent_that_completes_a_stall_reports_it(monkeypatch, fault, last, on_one_cpu):
    # the agent held back moves last only once its peer sleeps until a ring,
    # or, the chatty consumer, has returned; that last move completes the
    # stall, and the agent reports it before it sleeps. Each timed wait is
    # stretched to 2 s, so a busy host cannot run one out: a wait that runs
    # out here saw no ring, and only a timed wait's stall() reported the run
    runners, readies = [], []
    enter, ready = harness._SplitRunner.__enter__, chan.Doorbell.ready
    run_consumer, run = harness.run_consumer, harness.run

    def logged(self, seconds):
        readies.append(ready(self, max(seconds, 2.0)))
        return readies[-1]

    def hold(agent):
        if agent == last:
            runner = runners[-1]
            if fault == "chatty" and last == "producer":
                _until(lambda: "consumer" in runner._results)
            else:
                _until(lambda: _asleep(runner, "producer" if last == "consumer" else "consumer"))

    def consumer(config, inject, probe):
        # the silent and mutual consumers never pass their first get
        if fault == "silent":
            inject.put(config.x0)
        if fault != "chatty":
            hold("consumer")
            probe.get()
        y = run_consumer(config, inject, probe)
        hold("consumer")
        return y

    def producer(program, store, sinks, cells):
        put, puts = sinks[PROBE_PORT], []

        def held_put(value):
            # the chatty producer's fourth put finds the slot full
            puts.append(value)
            if len(puts) == 4:
                hold("producer")
            put(value)

        if fault != "chatty":
            hold("producer")
        return run(program, store, sinks={**sinks, PROBE_PORT: held_put}, cells=cells)

    monkeypatch.setattr(harness._SplitRunner, "__enter__", lambda self: runners.append(self) or enter(self))
    monkeypatch.setattr(chan.Doorbell, "ready", logged)
    monkeypatch.setattr(harness, "run_consumer", consumer)
    monkeypatch.setattr(harness, "run", producer)
    program = {"silent": _silent_producer(), "chatty": _chatty_producer(), "mutual": None}[fault]
    with pinned() if on_one_cpu else contextlib.nullcontext(), pytest.raises(DeadlockTimeout) as caught:
        run_split(make_scheme(-1, "x", "x+y"), 3, timeout=1.0, program=program)
    message = str(caught.value)
    # the consumer's report passes through its body, consume
    reporter = "consumer" if "consume" in {entry.name for entry in caught.traceback} else "producer"
    # the traceback holds this frame, which holds it: dropped now, the run's
    # pipes close at once, not at a cyclic GC during some later test
    del caught
    assert message == f"deadlock: {_STALLS[fault]}"
    assert False not in readies
    assert reporter == last


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_runs_close_their_pipes_without_a_gc():
    # each run's two channels hold 8 pipe fds; a stalled run must free them
    # once its error is handled, not at some later cyclic collection
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    scheme = make_scheme(-1, "x", "x+y")
    start = peak = open_fds()
    # stalls in the consumer's wait and in the producer's own
    stalling = (_silent_producer, _chatty_producer)
    for index in range(300):
        if index % 2:
            with pytest.raises(DeadlockTimeout):
                run_split(scheme, 3, timeout=0.002, program=stalling[index // 2 % 2]())
        else:
            run_split(scheme, 3)
        peak = max(peak, open_fds())
    assert peak - start <= 8
    assert open_fds() == start


def test_producer_waits_on_descriptors_past_select_limit():
    # select() refuses descriptors from FD_SETSIZE (1024 on Linux) on; the
    # stall makes the producer wait on pipes numbered past that
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard != resource.RLIM_INFINITY and hard < 1200:
        pytest.skip(f"needs 1200 open files, the hard limit is {hard}")
    resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, 1200), hard))
    fillers = []
    try:
        for _ in range(1100):
            fillers.append(os.open(os.devnull, os.O_RDONLY))
        with pytest.raises(DeadlockTimeout, match="producer blocked in probe.put"):
            run_split(make_scheme(-1, "x", "x+y"), 3, timeout=0.05, program=_chatty_producer())
    finally:
        for fd in fillers:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


# --- reversibility checks --------------------------------------------------------------

def test_check_reversibility_phase_a():
    program = compile_phase_a(make_scheme(-2, "x", "x+y"))
    report = check_reversibility(program, random_preloads(program, 100, seed=5))
    assert report.all_ok
    assert len(report.cases) == 100


def test_check_reversibility_full_producer():
    program = compile_producer(make_scheme(-2, "x", "x+y"))
    report = check_reversibility(program, [({}, {"inject": 7})])
    assert report.all_ok


def test_check_reversibility_reports_a_store_it_does_not_restore(monkeypatch):
    # an inverter that keeps each AddConst's sign; a program caches its inverse,
    # so only programs built after the patch get the faulty one
    monkeypatch.setattr(AddConst, "_inverse", lambda self: self)
    report = check_reversibility(RevProgram((AddConst("r", 1),)), [({"r": 0}, {})])
    assert [case.problem for case in report.failures] == ["store {'r': 2} != {}"]


def test_check_reversibility_reports_a_cell_it_does_not_restore(monkeypatch):
    # the faulty inverse adds 1 to r again before swapping it back into c
    monkeypatch.setattr(AddConst, "_inverse", lambda self: self)
    program = RevProgram((SwapCell("c", "r"), AddConst("r", 1)))
    report = check_reversibility(program, [({"r": 2}, {"c": 5})])
    assert [(case.label, case.problem) for case in report.failures] == [("preload[0]", "cell c 7 != 5")]


def test_check_reversibility_reports_discipline_violation():
    program = RevProgram((IfSign("a", pos=(AddConst("a", -100),)),))
    report = check_reversibility(program, [({"a": 3}, {})])
    assert not report.all_ok
    assert "BranchSignViolation" in report.failures[0].problem


def test_random_preloads_are_deterministic():
    program = compile_producer(make_scheme(-2, "x", "x+y"))
    assert random_preloads(program, 5, seed=9) == random_preloads(program, 5, seed=9)
    assert random_preloads(program, 5, seed=9) != random_preloads(program, 5, seed=10)


def test_preload_stream_draws_what_random_preloads_returns():
    program = compile_producer(make_scheme(-2, "x", "x+y"))
    rng = random.Random(9)
    registers, cells = sorted(program.registers), sorted(program.cells)
    want = [({reg: rng.randint(-8, 8) for reg in registers}, {cell: rng.randint(-8, 8) for cell in cells})
            for _ in range(5)]
    assert random_preloads(program, 5, seed=9) == want
    assert list(islice(preload_stream(program, 9), 5)) == want
    # an endless stream is checked one preload at a time
    cases = list(islice(reversibility_cases(program, preload_stream(program, 9)), 5))
    assert cases == check_reversibility(program, want).cases
    assert [case.label for case in cases] == [f"preload[{index}]" for index in range(5)]


# --- protocol checker ----------------------------------------------------------------------

def _event(seq, channel, op, value):
    return ChannelEvent(seq, channel, op, value)


def test_protocol_checker_accepts_valid_log():
    events = [
        _event(0, "inject", "put", 3),
        _event(1, "inject", "swap_in", 3),
        _event(2, "probe", "put", 1),
        _event(3, "probe", "get", 1),
        _event(4, "inject", "swap_out", 5),
    ]
    assert channel_protocol_problems(events) == []


def test_protocol_checker_rejects_get_first():
    events = [
        _event(0, "inject", "put", 3),
        _event(1, "inject", "swap_in", 3),
        _event(2, "probe", "get", 1),
        _event(3, "probe", "put", 1),
        _event(4, "inject", "swap_out", 5),
    ]
    assert any("expected put" in p for p in channel_protocol_problems(events))


def test_protocol_checker_rejects_value_loss():
    events = [
        _event(0, "inject", "put", 3),
        _event(1, "inject", "swap_in", 3),
        _event(2, "probe", "put", 1),
        _event(3, "probe", "get", 2),
        _event(4, "inject", "swap_out", 5),
    ]
    assert any("last put" in p for p in channel_protocol_problems(events))


def test_protocol_checker_rejects_missing_swap_out():
    events = [
        _event(0, "inject", "put", 3),
        _event(1, "inject", "swap_in", 3),
    ]
    assert any("inject ops" in p for p in channel_protocol_problems(events))


def test_protocol_checker_rejects_inject_value_loss():
    events = [
        _event(0, "inject", "put", 3),
        _event(1, "inject", "swap_in", 4),
        _event(2, "probe", "put", 1),
        _event(3, "probe", "get", 1),
        _event(4, "inject", "swap_out", 5),
    ]
    assert any("last put" in p for p in channel_protocol_problems(events))


def test_protocol_checker_rejects_unknown_channels_and_ops():
    valid = [
        _event(0, "inject", "put", 3),
        _event(1, "inject", "swap_in", 3),
        _event(2, "probe", "put", 1),
        _event(3, "probe", "get", 1),
        _event(4, "inject", "swap_out", 5),
    ]
    assert channel_protocol_problems(valid + [_event(5, "bogus", "put", 0)]) == [
        "event 5 is on unknown channel bogus"
    ]
    assert channel_protocol_problems(valid + [_event(5, "probe", "peek", 0)]) == [
        "probe event 2 is peek, expected put"
    ]
    assert channel_protocol_problems(valid[1:]) == ["inject event 0 is swap_in, expected put"]


@functools.lru_cache(maxsize=None)
def _real_logs():
    return [run_split(make_scheme(delta, "x", "x+y"), x0).channel_log
            for delta in (-3, -2, -1) for x0 in (0, 1, 2, 4)]


_EDITS = ("delete", "duplicate", "swap", "value", "seq")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(_EDITS), change=st.integers(-3, 3).filter(bool))
def test_protocol_checker_reports_edited_logs(data, kind, change):
    log = data.draw(st.sampled_from(_real_logs()))
    assert channel_protocol_problems(log) == protocol_problems_by_sequence(log) == []
    index = data.draw(st.integers(0, len(log) - (2 if kind == "swap" else 1)))
    edited, event = list(log), log[index]
    if kind == "delete":
        del edited[index]
    elif kind == "duplicate":
        edited.insert(index, event)
    elif kind == "swap":
        edited[index : index + 2] = [log[index + 1], event]
    elif kind == "value":
        edited[index] = event._replace(value=event.value + change)
    else:
        edited[index] = event._replace(seq=event.seq + change)
    accepted = not channel_protocol_problems(edited)
    assert accepted == (not protocol_problems_by_sequence(edited))
    # the edits that leave a valid trace: the checks read neither seq, nor
    # the order across channels, nor what swap_out leaves in the slot
    assert accepted == (
        kind == "seq"
        or (kind == "swap" and event.channel != log[index + 1].channel)
        or (kind == "value" and (event.channel, event.op) == ("inject", "swap_out"))
    )


# --- sweeps -----------------------------------------------------------------------------------

def test_sweep_small_ranges_all_pass():
    report = sweep(range(0, 21), range(-3, 0), [("x", "x+y"), ("x", "x*y+1")])
    assert report.all_ok
    assert len(report.cases) == 21 * 3 * 2
    for case in report.cases:
        recursive = eval_recursive(make_scheme(case.delta, case.base, case.step), case.x0)
        assert case.split_y == case.sequential_y == recursive
        assert case.emissions_ok and case.residuals_ok and case.protocol_ok


def test_sweep_names_the_residuals_that_differ(monkeypatch):
    faults.extra_add(monkeypatch)
    report = sweep(range(3), [-1], [("x", "x+y")])
    assert len(report.cases) == 3
    for case in report.cases:
        assert case.failed == {"residuals": ["residuals off profile: s 1 != 0"]}
        assert not case.residuals_ok
        assert case.emissions_ok and case.protocol_ok


def _case_at_three():
    """The sweep case of (x, x+y) at delta -1 and x0 = 3: y = 6, emissions [3, 0, 1, 2, 3]."""
    (case,) = sweep([3], [-1], [("x", "x+y")]).cases
    return case


def test_sweep_names_a_failed_split_run(monkeypatch):
    monkeypatch.setattr(harness, "eval_recursive", lambda scheme, x0: eval_recursive(scheme, x0) + 1)
    case = _case_at_three()
    assert case.failed == {"split": ["ResultMismatch: consumer produced 6, recursion says 7"]}
    assert case.error == case.detail == "ResultMismatch: consumer produced 6, recursion says 7"
    # a failed split run checks nothing else, so no check passed
    assert not (case.emissions_ok or case.residuals_ok or case.protocol_ok)


def test_sweep_names_a_sequential_disagreement(monkeypatch):
    faults.sequential_off_by_one(monkeypatch)
    case = _case_at_three()
    assert case.failed == {"sequential": ["sequential y 7 != recursive 6"]}
    assert case.error is None
    assert case.emissions_ok and case.residuals_ok and case.protocol_ok


def _huge_case():
    """The sweep case of (x, x*y+1) at delta -1 and x0 = 3000, and its y's digit
    count: about 9100 digits, past the int/str limit that str() keeps outside the CLI."""
    (case,) = sweep([3000], [-1], [("x", "x*y+1")]).cases
    digits = int(math.log10(case.split_y)) + 1
    assert 10 ** (digits - 1) <= case.split_y < 10 ** digits
    return case, digits


def test_sweep_records_a_sequential_disagreement_on_a_huge_y(monkeypatch):
    faults.sequential_off_by_one(monkeypatch)
    case, digits = _huge_case()
    assert case.failed == {"sequential": [
        f"sequential y <{digits} digits> != recursive <{digits} digits>, difference 1"]}


def test_sweep_records_a_failed_split_run_on_a_huge_y(monkeypatch):
    monkeypatch.setattr(harness, "eval_recursive", lambda scheme, x0: eval_recursive(scheme, x0) + 1)
    with pytest.raises(ResultMismatch) as excinfo:
        run_split(make_scheme(-1, "x", "x*y+1"), 3000)
    message = str(excinfo.value)
    digits = message.split("<")[1].split(" ")[0]
    assert message == (f"consumer produced <{digits} digits>, recursion says <{digits} digits>, "
                       "difference -1")
    # an int shown clipped, not by its digit count, is followed by the difference too
    assert harness._disagreement("{} != {}", 10 ** 40, 10 ** 40 + 3) == (
        f"{'1' + '0' * 28}... != {'1' + '0' * 28}..., difference -3")
    clipped = f"-{'1' + '0' * 27}..."
    assert harness._disagreement("{} != {}", -10 ** 30, 7) == f"{-10 ** 30} != 7"   # 32 characters: whole
    assert harness._disagreement("{} != {}", -10 ** 31, 7) == f"{clipped} != 7, difference {clipped}"


@pytest.mark.parametrize("value, shown", [
    (10 ** 30, str(10 ** 30)),                    # 31 digits: whole
    (10 ** 31, str(10 ** 31)),                    # 32 digits: whole
    (10 ** 32, f"1{'0' * 28}..."),                # 33 digits: clipped to 32 characters
    (-10 ** 30, str(-10 ** 30)),                  # 31 digits and a sign: whole
    (-(10 ** 31 - 1), str(-(10 ** 31 - 1))),      # 31 digits and a sign: whole
    (-10 ** 31, f"-1{'0' * 27}..."),              # 32 digits and a sign: clipped
])
def test_show_int_clips_to_32_characters(value, shown):
    assert harness.show_int(value) == shown
    assert len(shown) <= 32


@pytest.mark.parametrize("k", range(4299, 4311))
def test_show_int_counts_the_digits_past_the_str_limit(k):
    values = [sign * (10 ** k + offset) for sign in (1, -1) for offset in (-1, 0, 1)]
    shown = [harness.show_int(value) for value in values]   # under the interpreter's own limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for value, text in zip(values, shown):
            digits = str(abs(value))
            sign = "-" if value < 0 else ""
            if len(digits) > 4300:
                assert text == f"{sign}<{len(digits)} digits>"
            else:
                assert text == f"{sign}{digits}"[:29] + "..."
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_sweep_names_emissions_off_the_plan(monkeypatch):
    faults.base_argument_off_plan(monkeypatch)
    case = _case_at_three()
    assert case.failed == {"emissions": ["emission 1, the base argument: emitted 0, planned -1 "
                                         "(5 emitted, 5 planned)"]}
    assert not case.emissions_ok
    assert case.residuals_ok and case.protocol_ok


@pytest.mark.parametrize("emissions, expected, line", [
    ([3, 0, 1, 2, 3], [3, 0, 1, 5, 3],
     "emission 3, step argument 2 of 3: emitted 2, planned 5 (5 emitted, 5 planned)"),
    ([3, 0, 1], [3, 0, 1, 2, 3], "emission 3, step argument 2 of 3: emitted none, planned 2 (3 emitted, 5 planned)"),
    ([2, 0, 1, 2, 9], [2, 0, 1, 2], "emission 4, past the plan: emitted 9, planned none (5 emitted, 4 planned)"),
    ([], [0, 0], "emission 0, the count: emitted none, planned 0 (0 emitted, 2 planned)"),
])
def test_emissions_line_names_the_first_divergence(emissions, expected, line):
    assert harness._first_divergence(emissions, expected) == line


def test_emissions_line_stays_short_on_a_long_run(monkeypatch):
    # both lists have 202 values at x0 = 200: the line names one index, not the lists
    faults.edit_plan(monkeypatch, lambda plan: plan._replace(h_args=(*plan.h_args[:-1], plan.h_args[-1] + 1)))
    (case,) = sweep([200], [-1], [("x", "x+y")]).cases
    (line,) = case.failed["emissions"]
    assert line == "emission 201, step argument 200 of 200: emitted 200, planned 201 (202 emitted, 202 planned)"
    assert len(line) < 200


def test_sweep_names_a_protocol_violation(monkeypatch):
    faults.drop_inject_put(monkeypatch)
    case = _case_at_three()
    assert case.failed == {"protocol": ["inject event 0 is swap_in, expected put"]}
    assert not case.protocol_ok
    assert case.emissions_ok and case.residuals_ok


def test_sweep_handshake_count_fails_only_with_the_emissions(monkeypatch):
    faults.plan_one_iteration_longer(monkeypatch)
    case = _case_at_three()
    assert case.failed == {"emissions": ["emission 0, the count: emitted 3, planned 4 (5 emitted, 6 planned)"],
                           "handshakes": ["5 handshakes, expected 6"]}
    assert case.problems == [*case.failed["emissions"], *case.failed["handshakes"]]


def test_a_case_verdict_is_read_from_its_failed_map():
    passing = SweepCase("x", "x+y", -1, 3, split_y=6)
    assert passing.ok and passing.error is None and passing.problems == []
    assert passing.emissions_ok and passing.residuals_ok and passing.protocol_ok
    for name in CASE_CHECKS:
        case = SweepCase("x", "x+y", -1, 3, failed={name: [f"{name} off"]})
        assert not case.ok
        assert case.problems == [f"{name} off"] and case.detail == f"{name} off"
        assert case.error == (f"{name} off" if name == "split" else None)
        # a check passed only if the split run did and the check did
        flags = {"emissions": case.emissions_ok, "residuals": case.residuals_ok,
                 "protocol": case.protocol_ok}
        assert flags == {check: name not in ("split", check) for check in flags}


def _recording_consumers(monkeypatch, before=None):
    """Patch run_consumer to note each case's x0, thread and (probe, inject),
    after calling before(x0, probe)."""
    ran = []
    run_consumer = harness.run_consumer

    def recording(config, inject, probe):
        # the thread object, not get_ident(): the OS reuses an ended thread's ident
        ran.append((config.x0, threading.current_thread(), (probe, inject)))
        if before is not None:
            before(config.x0, probe)
        return run_consumer(config, inject, probe)

    monkeypatch.setattr(harness, "run_consumer", recording)
    return ran


def test_sweep_runs_a_blocks_consumers_on_one_thread(monkeypatch):
    ran = _recording_consumers(monkeypatch)
    assert sweep(range(4), [-1, -2], [("x", "x+y")]).all_ok
    threads = [thread for _, thread, _ in ran]
    assert len(threads) == 8
    assert threads[:4] == [threads[0]] * 4 and threads[4:] == [threads[4]] * 4
    assert threads[0] is not threads[4]
    assert threading.current_thread() not in threads


def test_sweep_leaves_no_thread():
    before = threading.active_count()
    assert sweep(range(3), [-1, -2], [("x", "x+y")]).all_ok
    assert threading.active_count() == before


@pytest.mark.parametrize("split", [
    lambda scheme: run_split(scheme, 3),
    lambda scheme: sweep(range(3), [-1], [("x", "x+y")]),
])
def test_failed_thread_start_raises_its_own_error(monkeypatch, split):
    def start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        split(make_scheme(-1, "x", "x+y"))


def test_stop_withdraws_a_body_the_thread_has_not_taken(monkeypatch):
    # the thread starts only after stop: it finds no body and exits
    monkeypatch.setattr(threading.Thread, "start", lambda self: None)
    consumer = harness._ConsumerThread(chan.Doorbell())
    monkeypatch.undo()
    ran = []
    consumer.run(lambda: ran.append(True))
    consumer.stop()
    consumer._thread.start()
    consumer._thread.join(5.0)
    assert not consumer._thread.is_alive()
    assert ran == []


def test_the_hand_off_never_loses_a_wake_up():
    # each round hands a body to a thread already marked on its doorbell, and
    # the body returns while the owner is marked: both publishes must ring,
    # or the round waits for a ring that never comes
    consumer = harness._ConsumerThread(chan.Doorbell())
    released = threading.Event()
    seen = []

    def hook(ready):
        released.set()
        seen.append(ready(5.0))
        if not seen[-1]:
            raise TimeoutError("no ring within 5 s")

    rounds = 500
    for _ in range(rounds):
        deadline = time.monotonic() + 5.0
        while consumer.bell.waiter is None:
            assert time.monotonic() < deadline, "the thread never waited for a body"
            time.sleep(0.0001)
        released.clear()
        consumer.run(lambda: released.wait(5.0))
        consumer.wait(hook)
    consumer.stop()
    consumer._thread.join(5.0)
    assert not consumer._thread.is_alive()
    assert seen == [True] * rounds


def test_closed_sweep_stops_its_consumer_thread():
    before = threading.active_count()
    cases = sweep_cases(range(10), [-1], [("x", "x+y")])
    assert next(cases).ok
    assert threading.active_count() == before + 1
    cases.close()
    assert threading.active_count() == before


def test_sweep_records_a_stall_and_leaves_no_thread(monkeypatch):
    # the consumer of x0 = 1 waits for a value before it puts the input the
    # producer waits for; the next case runs on the same thread
    def stall_at_one(x0, probe):
        if x0 == 1:
            probe.get()

    ran = _recording_consumers(monkeypatch, stall_at_one)
    before = threading.active_count()
    cases = sweep(range(3), [-1], [("x", "x+y")], timeout=0.05).cases
    assert threading.active_count() == before
    assert [case.ok for case in cases] == [True, False, True]
    assert cases[1].error == ("DeadlockTimeout: deadlock: "
                              "producer blocked in inject.swap_in; consumer blocked in probe.get")
    assert len({thread for _, thread, _ in ran}) == 1
    # case 1 reopened case 0's pair; its stall closed it, and case 2 opened a fresh one
    pairs = [pair for _, _, pair in ran]
    assert pairs[1][0] is pairs[0][0] and pairs[1][1] is pairs[0][1]
    assert not {*pairs[2]} & {*pairs[1]}
    for channel in pairs[1]:
        with pytest.raises(ChannelClosed):
            channel.reopen(None)


def test_sweep_reports_a_stall_at_the_default_timeout_at_once(monkeypatch):
    _recording_consumers(monkeypatch, lambda x0, probe: probe.get())
    started = time.perf_counter()
    (case,) = sweep([3], [-1], [("x", "x+y")]).cases
    assert time.perf_counter() - started < 0.5
    assert case.error == ("DeadlockTimeout: deadlock: "
                          "producer blocked in inject.swap_in; consumer blocked in probe.get")


def _pipe_calls(monkeypatch, after=None):
    """Patch os.pipe, as chan calls it, to note each call; after() runs past each."""
    calls = []
    pipe = chan.os.pipe

    def counting():
        fds = pipe()
        calls.append(fds)
        if after is not None:
            after()
        return fds

    monkeypatch.setattr(chan.os, "pipe", counting)
    return calls


def test_a_block_and_a_lone_run_each_open_one_pair(monkeypatch):
    # one doorbell per thread: the calling thread's and the consumer thread's,
    # which the pair and the hand-off share
    calls = _pipe_calls(monkeypatch)
    assert sweep(range(40), [-1], [("x", "x+y")]).all_ok
    assert len(calls) == 2
    calls.clear()
    assert run_split(make_scheme(-1, "x", "x+y"), 3).y == 6
    assert len(calls) == 2


def test_a_block_and_a_lone_run_each_set_the_hooks_once(monkeypatch):
    # both agents' hooks are set on both channels when a pair opens and
    # cleared when it closes
    hooks = []
    watch = chan._Slot.watch

    def noting(self, agent, hook):
        hooks.append((self._name, agent, hook is not None))
        watch(self, agent, hook)

    once = [(name, agent, is_set) for is_set in (True, False) for name in ("probe", "inject")
            for agent in ("producer", "consumer")]
    monkeypatch.setattr(chan._Slot, "watch", noting)
    assert sweep(range(40), [-1], [("x", "x+y")]).all_ok
    assert hooks == once
    hooks.clear()
    assert run_split(make_scheme(-1, "x", "x+y"), 3).y == 6
    assert hooks == once


def test_sweep_reopens_no_pair_left_outside_final(monkeypatch):
    # the producer of x0 = 1 drops its final SwapCell, which leaves inject held
    ran = _recording_consumers(monkeypatch)
    calls = []
    real_run = harness.run

    def run(program, *args, **kwargs):
        calls.append(program)
        if len(calls) == 2:
            program = RevProgram(program.body[:-1])
        return real_run(program, *args, **kwargs)

    monkeypatch.setattr(harness, "run", run)
    cases = sweep(range(3), [-1], [("x", "x+y")]).cases
    assert [(case.x0, case.ok) for case in cases] == [(0, True), (1, False), (2, True)]
    assert "inject ops end in held, expected done" in cases[1].problems
    (_, first, pair), (_, same, held), (_, last, fresh) = ran
    assert first is same is last
    assert held[0] is pair[0] and held[1] is pair[1]
    assert held[1].state == "held"
    assert not {*fresh} & {*held}
    for channel in held:
        with pytest.raises(ChannelClosed):
            channel.reopen(None)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_sweep_holds_one_pair_of_pipes_at_a_time(monkeypatch):
    # each block's runner holds one pair, 8 fds, and its consumer thread's two
    # doorbells, 4 more; leaving the block frees them
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    start = open_fds()
    peaks = [start]
    _pipe_calls(monkeypatch, lambda: peaks.append(open_fds()))
    for case in sweep_cases(range(5), [-1, -2, -3], [("x", "x+y")]):
        assert case.ok
        peaks.append(open_fds())
    assert max(peaks) - start <= 12
    assert open_fds() == start


def _stalled_run():
    with pytest.raises(DeadlockTimeout):
        run_split(make_scheme(-1, "x", "x+y"), 3, timeout=0.05, program=_chatty_producer())


def _sweep_closed_after_one_case():
    cases = sweep_cases(range(10), [-1], [("x", "x+y")])
    assert next(cases).ok
    cases.close()


@pytest.mark.parametrize("action", [
    lambda: run_split(make_scheme(-1, "x", "x+y"), 3),
    _stalled_run,
    lambda: sweep(range(5), [-1, -2], [("x", "x+y")]),
    _sweep_closed_after_one_case,
], ids=["clean-run", "stalled-run", "sweep", "closed-sweep"])
def test_runs_leave_no_cycle_that_holds_a_channel(monkeypatch, action):
    # with the cyclic collector off, a channel in a cycle would keep its pipes open
    slots = []
    real_init = chan._Slot.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        slots.append(weakref.ref(self))

    monkeypatch.setattr(chan._Slot, "__init__", init)
    gc.disable()
    try:
        action()
        dead = [slot() is None for slot in slots]
    finally:
        gc.enable()
    assert dead and all(dead)


def _outliving_sweep(monkeypatch):
    """Sweep x0 in 0..2, where the producer of x0 = 1 fails while its
    consumer still computes, past JOIN_TIMEOUT; return the cases and the
    _recording_consumers list."""
    monkeypatch.setattr(harness, "JOIN_TIMEOUT", 0.05)
    ran = _recording_consumers(monkeypatch, lambda x0, probe: x0 == 1 and time.sleep(0.5))
    calls = []
    real_run = harness.run

    def run(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise harness.RevirError("producer fault")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(harness, "run", run)
    return sweep(range(3), [-1], [("x", "x+y")]).cases, ran


def test_consumer_outliving_its_run_gets_no_next_case(monkeypatch):
    # the next case runs on a fresh thread, and passes
    before = threading.active_count()
    cases, ran = _outliving_sweep(monkeypatch)
    assert [(case.x0, case.ok) for case in cases] == [(0, True), (1, False), (2, True)]
    assert cases[1].error == "RevirError: producer fault"
    first, outlived, fresh = [thread for _, thread, _ in ran]
    assert outlived is first and fresh is not first
    # the outlived body ends at its next channel operation, and its thread with it
    first.join(5.0)
    assert threading.active_count() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_an_outlived_body_leaves_no_pipe_open_without_a_gc(monkeypatch):
    # the outlived body's late ChannelClosed is not its run's error: kept, it
    # would hold the body's frame in a cycle that keeps the doorbells open
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    start = open_fds()
    gc.disable()
    try:
        _, ran = _outliving_sweep(monkeypatch)
        outlived = ran[1][1]
        ran.clear()   # it holds each case's channels
        outlived.join(5.0)
        assert not outlived.is_alive()
        end = open_fds()
    finally:
        gc.enable()
    assert end == start


def test_sweep_cases_walk_a_huge_range_lazily():
    started = time.perf_counter()
    cases = list(islice(sweep_cases(range(10**18), [-1], [("x", "x+y")]), 3))
    assert time.perf_counter() - started < 1.0
    assert [(case.x0, case.ok) for case in cases] == [(0, True), (1, True), (2, True)]


def test_sweep_checks_the_timeout_as_a_block_starts():
    # each block's runner checks it, before any case: with no input too
    with pytest.raises(ValueError, match="timeout must be in"):
        list(sweep_cases([], [-1], [("x", "x+y")], timeout=0))


def test_sweep_empty_ranges():
    assert sweep([], [-1], [("x", "x+y")]).cases == []
    assert sweep([0, 1], [], [("x", "x+y")]).cases == []


def test_sweep_refuses_one_pass_iterators():
    # each block walks x_values again, so a generator would drop every later block
    for x_values, deltas in ((iter([0, 1]), [-1, -2]), ([0, 1], (d for d in (-1, -2)))):
        with pytest.raises(TypeError, match="ranges or sequences"):
            sweep(x_values, deltas, [("x", "x+y")])


def test_sweep_report_accounts_failures():
    failing = SweepCase(base="x", step="x+y", delta=-1, x0=2, failed={"split": ["boom"]})
    report = CaseReport(cases=[failing])
    assert not report.all_ok
    assert report.failures == [failing]
    assert failing.detail == "boom"
    two = SweepCase(base="x", step="x+y", delta=-1, x0=3, failed={"residuals": ["a"], "protocol": ["b"]})
    assert two.detail == "a; b"


def test_cases_reports_and_sinks_are_read_only_records():
    case = SweepCase(base="x", step="x+y", delta=-1, x0=3, split_y=6)
    sink = RecordingSink()
    sink(4)
    sink(-5)
    assert sink.values == [4, -5]
    for record, field in ((case, "failed"), (CaseReport([case]), "cases"), (sink, "values")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert copy.copy(record) == record
        with pytest.raises(TypeError):   # each holds a list or a dict
            hash(record)
