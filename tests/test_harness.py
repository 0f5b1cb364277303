import functools
import json
import os
import resource
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from recsplit import harness
from recsplit import scheme as scheme_module
from recsplit.chan import ChannelEvent
from recsplit.harness import (
    DeadlockTimeout,
    ResultMismatch,
    SweepCase,
    SweepReport,
    channel_protocol_problems,
    check_reversibility,
    random_preloads,
    run_split,
    sweep,
    write_trace_jsonl,
)
from recsplit.producer import compile_phase_a, compile_producer, expected_residuals
from recsplit.revir import (
    AddConst,
    BranchSignViolation,
    Emit,
    For,
    IfSign,
    RevProgram,
    SwapCell,
)
from recsplit.scheme import NegativeInputError, eval_recursive, make_scheme, pretty

from oracles import protocol_problems_by_sequence, recursion_by_definition


# --- split runs -----------------------------------------------------------------

def test_split_one_wide_divisible():
    report = run_split(make_scheme(-1, "x", "x+y"), 3)
    assert report.y == 6 == recursion_by_definition(-1, lambda x: x, lambda x, y: x + y, 3)
    assert report.emissions == [3, 0, 1, 2, 3]
    assert report.residuals.inject_cell == 3
    assert report.residuals == expected_residuals(3, -1)
    assert report.wall_time < 5.0


def test_split_two_wide_non_divisible():
    report = run_split(make_scheme(-2, "x", "x+y"), 3)
    assert report.y == 3
    assert report.emissions == [2, -1, 1, 3]
    assert report.residuals.inject_cell == 5
    assert report.residuals == expected_residuals(3, -2)


def test_split_base_case():
    scheme = make_scheme(-3, "x+1", "x*y+1")
    report = run_split(scheme, 0)
    assert report.y == scheme.base_value(0)
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
    # an op marked just before it takes a free lock does not wait, so a run
    # that keeps moving completes even when every gap exceeds the timeout
    report = run_split(make_scheme(-1, "x", "x+y"), 1000, timeout=1e-6)
    assert report.y == 500500


# a channel-free loop of about 0.2 s under the interpreter
_SPIN = (AddConst("n", 400_000), For("n", (AddConst("a", 1),)))


def test_computing_agent_is_not_a_stall():
    # after its final swap the producer computes far past the timeout while
    # the consumer has finished: no agent waits, so the run is not stalled
    scheme = make_scheme(-1, "x", "x+y")
    program = RevProgram.from_body(compile_producer(scheme).body + _SPIN)
    before = threading.active_count()
    report = run_split(scheme, 3, timeout=0.05, program=program)
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
    return RevProgram.from_body(
        (SwapCell("inject", "x"), SwapCell("inject", "x"))
    )


def _chatty_producer():
    # emits more values than the consumer will ever get
    return RevProgram.from_body(
        (SwapCell("inject", "x"),)
        + (Emit("probe", "g"),) * 4
        + (SwapCell("inject", "x"),)
    )


def test_deadlock_reports_starved_consumer():
    scheme = make_scheme(-1, "x", "x+y")
    started = time.perf_counter()
    with pytest.raises(DeadlockTimeout, match="consumer blocked in probe.get"):
        run_split(scheme, 3, timeout=0.2, program=_silent_producer())
    assert time.perf_counter() - started < 5.0


def test_deadlock_reports_stuck_producer():
    # the calling thread itself waits in probe.put and sees the stall there
    scheme = make_scheme(-1, "x", "x+y")
    before = threading.active_count()
    started = time.perf_counter()
    with pytest.raises(DeadlockTimeout, match="producer blocked in probe.put; consumer finished"):
        run_split(scheme, 3, timeout=0.2, program=_chatty_producer())
    assert time.perf_counter() - started < 0.2 + 1.0
    assert threading.active_count() == before


def test_result_mismatch_is_raised():
    # a producer that reports zero iterations and hands base the raw input
    program = RevProgram.from_body(
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
    return RevProgram.from_body(
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


def test_stall_waits_for_a_computing_agent():
    # the producer spins, then ends without emitting: the run stalls only
    # once it has finished, and no thread outlives the run
    before = threading.active_count()
    with pytest.raises(DeadlockTimeout, match="producer finished; consumer blocked in probe.get"):
        run_split(make_scheme(-1, "x", "x+y"), 3, timeout=0.05,
                  program=RevProgram.from_body((SwapCell("inject", "x"),) + _SPIN))
    assert threading.active_count() == before


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
    assert "100/100" in report.summary()


def test_check_reversibility_full_producer():
    program = compile_producer(make_scheme(-2, "x", "x+y"))
    report = check_reversibility(program, [({}, {"inject": 7})])
    assert report.all_ok


def test_check_reversibility_reports_discipline_violation():
    program = RevProgram.from_body((IfSign("a", pos=(AddConst("a", -100),)),))
    report = check_reversibility(program, [({"a": 3}, {})])
    assert not report.all_ok
    assert "BranchSignViolation" in report.failures[0].problem


def test_random_preloads_are_deterministic():
    program = compile_producer(make_scheme(-2, "x", "x+y"))
    assert random_preloads(program, 5, seed=9) == random_preloads(program, 5, seed=9)
    assert random_preloads(program, 5, seed=9) != random_preloads(program, 5, seed=10)


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


def test_sweep_empty_ranges():
    assert sweep([], [-1], [("x", "x+y")]).cases == []
    assert sweep([0, 1], [], [("x", "x+y")]).cases == []


def test_sweep_table_format():
    report = sweep(range(0, 3), [-1], [("x", "x+y")])
    table = report.format_table()
    assert "3 cases, 0 failures" in table
    assert table.count("yes") == 3


def test_sweep_table_shows_huge_y_as_its_digit_count():
    # str() of the last two would pass the interpreter's 4300-digit limit
    widest = 10 ** 4300
    cases = [SweepCase(base="x", step="x*y+1", delta=-1, x0=0, split_y=y)
             for y in (widest - 1, widest, -widest * 10 ** 700)]
    details = [line.split("yes  ")[1] for line in SweepReport(cases).format_table().splitlines()[2:5]]
    assert details == ["y = " + "9" * 29 + "...", "y = <4301 digits>", "y = -<5001 digits>"]


def test_sweep_report_accounts_failures():
    failing = SweepCase(base="x", step="x+y", delta=-1, x0=2, error="boom")
    report = SweepReport(cases=[failing])
    assert not report.all_ok
    assert report.failures == [failing]
    assert "boom" in report.format_table()
