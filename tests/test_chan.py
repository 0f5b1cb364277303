import array
import contextlib
import fcntl
import os
import sys
import termios
import threading
import time
import types

import pytest

from recsplit import chan, harness
from recsplit.chan import (
    FINAL,
    PROTOCOL,
    START,
    ChannelClosed,
    EventLog,
    InjectChannel,
    ProbeChannel,
    ProtocolError,
)
from recsplit.cli import DEFAULT_PAIRS
from recsplit.harness import run_split
from recsplit.revir import RevProgram
from recsplit.scheme import expected_emissions, make_scheme

JOIN_TIMEOUT = 5.0


def spawn(fn, *args):
    result = {}

    def target():
        try:
            result["value"] = fn(*args)
        except ChannelClosed as exc:
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, result


def settle():
    time.sleep(0.05)


def waiting_soon(channel):
    # a spawned call shows as waiting once it has marked itself on a doorbell and its state is not ready
    deadline = time.monotonic() + JOIN_TIMEOUT
    while not channel.waiting() and time.monotonic() < deadline:
        time.sleep(0.001)
    return channel.waiting()


# --- probe ---------------------------------------------------------------------

def test_probe_single_handshake():
    probe = ProbeChannel()
    probe.put(7)
    assert probe.get() == 7


def test_probe_second_put_blocks_until_get():
    probe = ProbeChannel()
    order = []

    def producer():
        probe.put(1)
        order.append("put 1")
        probe.put(2)
        order.append("put 2")

    thread, _ = spawn(producer)
    assert waiting_soon(probe) == [("probe", "put")]
    settle()
    assert order == ["put 1"]     # second put is parked on the full slot
    assert thread.is_alive()
    assert probe.get() == 1
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert order == ["put 1", "put 2"]
    assert probe.waiting() == []
    assert probe.get() == 2


def test_probe_get_blocks_until_put():
    probe = ProbeChannel()
    thread, result = spawn(probe.get)
    settle()
    assert thread.is_alive()
    probe.put(42)
    thread.join(JOIN_TIMEOUT)
    assert result["value"] == 42


def test_probe_delivers_in_order():
    # the emission sequence of the two-wide predecessor on input 3
    plan = expected_emissions(make_scheme(-2, "x", "x+y"), 3)
    values = [plan.iterations, plan.base_arg, *plan.h_args]
    assert values == [2, -1, 1, 3]
    probe = ProbeChannel()

    def producer():
        for value in values:
            probe.put(value)

    thread, _ = spawn(producer)
    received = [probe.get() for _ in values]
    thread.join(JOIN_TIMEOUT)
    assert received == values


def test_probe_close_wakes_blocked_get():
    probe = ProbeChannel()
    thread, result = spawn(probe.get)
    assert waiting_soon(probe) == [("probe", "get")]
    settle()
    assert thread.is_alive()
    probe.close()
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert isinstance(result["error"], ChannelClosed)
    assert probe.waiting() == []


def test_probe_close_wakes_blocked_put():
    probe = ProbeChannel()
    probe.put(1)
    thread, result = spawn(probe.put, 2)
    settle()
    assert thread.is_alive()      # parked on the full slot
    probe.close()
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert isinstance(result["error"], ChannelClosed)


def test_probe_calls_after_close_raise():
    probe = ProbeChannel()
    probe.put(1)
    probe.close()
    for _ in range(2):            # a failed call leaves the channel closed
        with pytest.raises(ChannelClosed):
            probe.get()
        with pytest.raises(ChannelClosed):
            probe.put(2)


# --- inject --------------------------------------------------------------------

def test_inject_put_then_swap_in():
    inject = InjectChannel()
    inject.put(3)
    assert inject.swap_in(0) == 3
    assert inject.slot == 0


def test_inject_swap_out_is_terminal():
    inject = InjectChannel()
    inject.put(3)
    inject.swap_in(0)
    assert inject.swap_out(5) == 0
    assert inject.slot == 5
    assert inject.state == "done"
    # no op runs from done: a new put waits until close
    thread, result = spawn(inject.put, 9)
    assert waiting_soon(inject) == [("inject", "put")]
    settle()
    assert thread.is_alive()
    inject.close()
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert isinstance(result["error"], ChannelClosed)
    assert inject.slot == 5


def test_inject_swap_in_blocks_before_put():
    inject = InjectChannel()
    thread, result = spawn(inject.swap_in, 0)
    assert waiting_soon(inject) == [("inject", "swap_in")]
    settle()
    assert thread.is_alive()
    inject.put(11)
    thread.join(JOIN_TIMEOUT)
    assert result["value"] == 11
    assert inject.waiting() == []


def test_inject_second_put_blocks_until_close():
    inject = InjectChannel()
    inject.put(1)
    thread, result = spawn(inject.put, 2)
    settle()
    assert thread.is_alive()
    inject.swap_in(0)
    settle()
    assert thread.is_alive()      # swap_in leaves the slot held
    inject.swap_out(8)
    assert waiting_soon(inject) == [("inject", "put")]
    settle()
    assert thread.is_alive()      # and swap_out leaves it done
    inject.close()
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert isinstance(result["error"], ChannelClosed)
    assert inject.slot == 8


def test_inject_swap_alternates_swap_in_and_swap_out():
    inject = InjectChannel()
    inject.put(3)
    assert inject.swap(0) == 3        # swap_in: the injected value
    assert inject.swap(5) == 0        # swap_out: what the first swap left
    assert inject.state == "done"
    thread, result = spawn(inject.swap, 1)
    assert waiting_soon(inject) == [("inject", "swap_in")]
    settle()
    assert thread.is_alive()          # a third swap waits, as nothing leaves done
    inject.close()
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert isinstance(result["error"], ChannelClosed)
    assert inject.slot == 5


def test_inject_swap_out_out_of_order_is_refused():
    trace = EventLog()
    inject = InjectChannel(trace)
    with pytest.raises(ProtocolError):
        inject.swap_out(7)        # nothing is held: no swap_in ran
    assert inject.state == START
    assert trace.events() == []
    inject.put(1)
    # the refused swap_out left the slot full: a second put waits until close
    thread, result = spawn(inject.put, 2)
    assert waiting_soon(inject) == [("inject", "put")]
    settle()
    assert thread.is_alive()
    inject.close()
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert isinstance(result["error"], ChannelClosed)
    assert [(e.op, e.value) for e in trace.events()] == [("put", 1)]


def test_inject_close_wakes_blocked_calls():
    starved = InjectChannel()     # nothing put: swap_in waits
    full = InjectChannel()
    full.put(1)                   # slot closed: a second put waits
    waiters = [spawn(starved.swap_in, 0), spawn(full.put, 2)]
    settle()
    assert all(thread.is_alive() for thread, _ in waiters)
    starved.close()
    full.close()
    for thread, result in waiters:
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive()
        assert isinstance(result["error"], ChannelClosed)


def test_inject_calls_after_close_raise():
    inject = InjectChannel()
    inject.close()
    with pytest.raises(ChannelClosed):
        inject.put(1)
    with pytest.raises(ChannelClosed):
        inject.swap_in(0)
    with pytest.raises(ChannelClosed):
        inject.swap_out(0)


# --- waiting ----------------------------------------------------------------------

def test_waiting_skips_a_get_whose_token_was_given():
    probe = ProbeChannel()
    probe.put(1)
    # a get that has marked itself and then found the slot full on its
    # re-check, or was rung but has not yet cleared its mark, does not wait
    probe._bells["full"].waiter = ((probe, "get"), "full")
    assert probe.waiting() == []
    probe._bells["full"].waiter = None   # as that get clears it on its way out
    assert probe.get() == 1
    assert probe.waiting() == []


def test_waiting_lists_a_blocked_get_until_close():
    probe = ProbeChannel()
    thread, result = spawn(probe.get)
    assert waiting_soon(probe) == [("probe", "get")]
    settle()
    assert thread.is_alive()
    assert probe.waiting() == [("probe", "get")]
    probe.close()
    # at once, whether or not the woken get has run yet
    assert probe.waiting() == []
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert isinstance(result["error"], ChannelClosed)
    assert probe.waiting() == []


def test_watch_hook_runs_only_for_a_take_without_a_token():
    probe = ProbeChannel()
    seen = []

    def watch(ready):
        seen.append(ready(0.01))    # no get yet: times out
        seen.append(probe.get())    # empties the slot, and rings the marked put
        seen.append(ready(threading.TIMEOUT_MAX))   # the ring is there: at once

    probe.watch("producer", watch)
    probe.put(1)                    # the slot starts empty: no hook, no wait
    assert seen == []
    thread, _ = spawn(probe.put, 2)
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert seen == [False, 1, True]
    assert probe.get() == 2
    # the consumer's get is not the producer's: it waits without the hook
    thread, result = spawn(probe.get)
    assert waiting_soon(probe) == [("probe", "get")]
    probe.put(3)
    thread.join(JOIN_TIMEOUT)
    assert result["value"] == 3
    assert seen == [False, 1, True]


# --- doorbells --------------------------------------------------------------------

def count_pipe_calls(monkeypatch):
    """Patch chan's os so that each os.read, os.write and os.sched_yield it makes is counted."""
    calls = {"read": 0, "write": 0, "sched_yield": 0}
    real = chan.os

    class Counting:
        def __getattr__(self, name):
            return getattr(real, name)

        def read(self, fd, size):
            calls["read"] += 1
            return real.read(fd, size)

        def write(self, fd, data):
            calls["write"] += 1
            return real.write(fd, data)

        def sched_yield(self):
            calls["sched_yield"] += 1
            return real.sched_yield()

    monkeypatch.setattr(chan, "os", Counting())
    return calls


def yields_per_wait(monkeypatch):
    """After count_pipe_calls: patch chan so that each Doorbell.wait's yields
    are counted on their own; return the list of their counts."""
    counts, thread = [], threading.local()
    counting_yield, real_wait = chan.os.sched_yield, chan.Doorbell.wait

    def sched_yield():
        thread.yields += 1
        return counting_yield()

    def wait(self, *args):
        thread.yields = 0
        try:
            return real_wait(self, *args)
        finally:
            counts.append(thread.yields)

    monkeypatch.setattr(chan.os, "sched_yield", sched_yield)
    monkeypatch.setattr(chan.Doorbell, "wait", wait)
    return counts


@contextlib.contextmanager
def pinned():
    """Hold the calling thread, and the threads it starts meanwhile, to one of its CPUs."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def pending(channel):
    """{state: bytes in its doorbell's pipe}, counted without reading one."""
    counts = {}
    for state, bell in channel._bells.items():
        count = array.array("i", [0])
        fcntl.ioctl(bell._read, termios.FIONREAD, count)
        counts[state] = count[0]
    return counts


def test_an_op_whose_state_is_ready_makes_no_system_call(monkeypatch):
    calls = count_pipe_calls(monkeypatch)
    trace = EventLog()
    probe, inject = ProbeChannel(trace), InjectChannel(trace)
    for value in range(100):
        probe.put(value)
        assert probe.get() == value
    inject.put(3)
    assert inject.swap_in(0) == 3
    assert inject.swap_out(5) == 0
    for channel in (probe, inject):
        channel.reopen()
    inject.put(4)
    assert inject.swap(0) == 4
    assert inject.swap(6) == 0
    assert calls == {"read": 0, "write": 0, "sched_yield": 0}
    assert len(trace) == 2 * 100 + 3


def test_blocked_says_where_a_doorbell_waits_while_its_state_does_not_hold():
    bell, probe = chan.Doorbell(), ProbeChannel()
    assert bell.blocked() is None                  # unmarked
    bell.waiter = ((probe, "get"), "full")
    assert bell.blocked() == (probe, "get")
    assert bell.blocked() is bell.waiter[0]        # the mark's own pair: no new tuple
    probe.put(1)
    assert bell.blocked() is None                  # the state it wants holds
    assert probe.get() == 1
    assert bell.blocked() == (probe, "get")
    probe.close()
    assert bell.blocked() is None                  # its holder is closed
    # a real take's mark, on the doorbell of the agent whose op it is
    probe = ProbeChannel()
    thread, result = spawn(probe.get)
    assert waiting_soon(probe) == [("probe", "get")]
    assert probe._bells["full"].blocked() == (probe, "get")
    assert probe._bells["empty"].blocked() is None
    probe.put(2)
    thread.join(JOIN_TIMEOUT)
    assert result["value"] == 2
    assert probe._bells["full"].blocked() is None


def test_a_publish_rings_no_thread_marked_on_another_holder(monkeypatch):
    # one doorbell serves both holders its thread waits on: a state set on
    # one moves nothing the thread waits for on the other
    bell = chan.Doorbell()
    first, second = (types.SimpleNamespace(state="idle", closed=False) for _ in range(2))
    calls = count_pipe_calls(monkeypatch)
    thread, _ = spawn(bell.wait, "take", first, "ready")
    deadline = time.monotonic() + JOIN_TIMEOUT
    while bell.blocked() is None:
        assert time.monotonic() < deadline, "the wait never marked itself"
        time.sleep(0.001)
    chan.publish(second, "ready", bell)
    settle()
    assert thread.is_alive()
    assert calls["write"] == 0
    assert bell.blocked() == (first, "take")
    chan.publish(first, "ready", bell)
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert calls["write"] == 1


@pytest.mark.parametrize("split", [
    lambda runner, scheme: runner.split(scheme, 3),
    lambda runner, scheme: [runner.split(scheme, x0) for x0 in range(40)],
], ids=["lone-run", "sweep-block"])
def test_a_split_runner_opens_one_doorbell_per_thread(monkeypatch, split):
    # the calling thread's and the consumer thread's: the pair and the
    # hand-off share them, and so does the fresh pair a stall leaves for the
    # next run
    pipes = []
    real_pipe = chan.os.pipe
    monkeypatch.setattr(chan.os, "pipe", lambda: pipes.append(None) or real_pipe())
    scheme = make_scheme(-1, "x", "x+y")
    with harness._SplitRunner(1.0) as runner:
        split(runner, scheme)
        # the empty producer ends at once; the consumer waits in probe.get
        with pytest.raises(harness.DeadlockTimeout, match="producer finished; consumer blocked in probe.get"):
            runner.split(scheme, 3, RevProgram(()))
        assert runner.split(scheme, 3).y == 6
    assert len(pipes) == 2


def test_a_spurious_byte_lets_no_get_through():
    probe = ProbeChannel()
    probe._bells["full"].ring()     # a byte with no put behind it
    thread, result = spawn(probe.get)
    assert waiting_soon(probe) == [("probe", "get")]
    settle()
    assert thread.is_alive()        # it read the byte, found the slot empty, and sleeps again
    assert probe.waiting() == [("probe", "get")]
    assert pending(probe) == {"empty": 0, "full": 0}
    probe.put(4)
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert result["value"] == 4
    assert probe.waiting() == []


def test_a_watch_hook_that_runs_the_peer_never_loses_the_wake_up():
    # each hook runs once its take is marked, so the peer's op it runs sees
    # the mark and rings: the ring is there at once, every time
    probe, inject = ProbeChannel(), InjectChannel()
    seen = []

    def run_get(ready):
        seen.append(probe.get())
        seen.append(ready(JOIN_TIMEOUT))

    def run_put(ready):
        inject.put(len(seen))
        seen.append(ready(JOIN_TIMEOUT))

    probe.watch("producer", run_get)
    inject.watch("producer", run_put)
    rounds = 200
    probe.put(0)
    for value in range(1, rounds):
        probe.put(value)            # the slot is full: its hook runs the get
        inject.swap_in(0)           # nothing is put yet: its hook runs the put
        inject.swap_out(0)
        inject.reopen()
    assert probe.get() == rounds - 1
    gets = [seen[index] for index in range(0, len(seen), 3)]
    assert gets == list(range(rounds - 1))
    assert [seen[index] for index in range(len(seen)) if index % 3] == [True] * 2 * (rounds - 1)
    assert probe.waiting() == inject.waiting() == []


@pytest.mark.parametrize("base, step", DEFAULT_PAIRS)
def test_a_pinned_split_run_yields_instead_of_sleeping(monkeypatch, base, step):
    # on one CPU a take gives the CPU to its peer, whose op is then done when
    # it looks again: no sleep, so no pipe call but close()'s rings
    calls = count_pipe_calls(monkeypatch)
    waits = yields_per_wait(monkeypatch)
    with pinned():
        report = run_split(make_scheme(-1, base, step), 2000)
    handshakes = len(report.emissions)
    assert handshakes == 2002
    assert (calls["read"] + calls["write"]) / handshakes < 0.01
    assert 0 < calls["sched_yield"] == sum(waits)
    assert max(waits) <= chan.YIELDS


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs a thread allowed two CPUs")
def test_doorbells_made_on_two_cpus_never_yield(monkeypatch):
    # the peer may run on the other CPU: a take sleeps, as it did before yields
    calls = count_pipe_calls(monkeypatch)
    for base, step in DEFAULT_PAIRS:
        assert len(run_split(make_scheme(-1, base, step), 200).emissions) == 202
    assert calls["sched_yield"] == 0


# --- protocol table --------------------------------------------------------------

class Watched(Exception):
    pass


def raise_watched(ready):
    raise Watched


def call(channel, op):
    return channel.get() if op == "get" else getattr(channel, op)(0)


def reachable(steps):
    """{state: the ops that lead there from START} for each state the table reaches."""
    paths, pending = {START: []}, [START]
    while pending:
        state = pending.pop()
        for op, step in steps.items():
            if step.before == state and step.after not in paths:
                paths[step.after] = paths[state] + [op]
                pending.append(step.after)
    return paths


@pytest.mark.parametrize("name, make", [("probe", ProbeChannel), ("inject", InjectChannel)])
def test_protocol_table_is_what_the_channel_does(name, make):
    steps = PROTOCOL[name]
    paths = reachable(steps)
    # every state the table names is reachable from START
    assert set(paths) == {state for step in steps.values() for state in (step.before, step.after)}
    for state, path in paths.items():
        for op, step in steps.items():
            channel = make()
            for agent in ("producer", "consumer"):
                channel.watch(agent, raise_watched)
            for earlier in path:
                call(channel, earlier)
            assert channel.state == state
            if step.before == state:
                call(channel, op)          # its state is there: no hook, no wait
                assert channel.state == step.after
            else:
                # swap_out is the one op that cannot wait: held has no doorbell
                with pytest.raises(ProtocolError if op == "swap_out" else Watched):
                    call(channel, op)
                assert channel.state == state
                assert channel.waiting() == []   # an abandoned take is no longer marked


# --- reopen ----------------------------------------------------------------------

def test_reopen_runs_a_pair_again_on_a_new_log():
    first = EventLog()
    probe, inject = ProbeChannel(first), InjectChannel(first)
    assert scripted_run(probe, inject, [2, -1]) == [2, -1]
    second = EventLog()
    for channel in (probe, inject):
        channel.reopen(second)
        assert channel.state == START
    assert inject.slot == 0
    assert scripted_run(probe, inject, [4, 5, 6]) == [4, 5, 6]
    assert len(first.events()) == 3 + 2 * 2
    events = second.events()
    assert [e.seq for e in events] == list(range(3 + 2 * 3))
    assert [(e.op, e.value) for e in events if e.channel == "inject"] == [
        ("put", 3), ("swap_in", 3), ("swap_out", 5)]
    assert [e.value for e in events if e.channel == "probe"] == [4, 4, 5, 5, 6, 6]
    assert inject.slot == 5
    # both slots are in START: put finds its state, swap_in waits for a put
    for channel in (probe, inject):
        channel.reopen()
        channel.watch("producer", raise_watched)
    probe.put(7)
    assert probe.get() == 7
    with pytest.raises(Watched):
        inject.swap_in(0)
    inject.put(8)
    assert inject.swap_in(0) == 8
    # a reopen without a log records nowhere
    assert second.events() == events


def test_reopen_wakes_a_put_that_waits_on_a_done_slot():
    inject = InjectChannel()
    inject.put(1)
    inject.swap_in(0)
    inject.swap_out(2)
    thread, result = spawn(inject.put, 3)
    assert waiting_soon(inject) == [("inject", "put")]
    trace = EventLog()
    inject.reopen(trace)           # publishes START, and rings the marked put
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert "error" not in result
    assert inject.state == "full"
    assert [(e.op, e.value) for e in trace.events()] == [("put", 3)]


@pytest.mark.parametrize("name, make", [("probe", ProbeChannel), ("inject", InjectChannel)])
def test_reopen_runs_only_from_final_and_not_once_closed(name, make, monkeypatch):
    # a reopen with no take marked, or a refused one, writes no byte and
    # reads none, and a refused reopen changes nothing
    calls = count_pipe_calls(monkeypatch)

    def seen(channel):
        return channel.state, channel._slot, pending(channel), channel.waiting(), dict(calls)

    for state, path in reachable(PROTOCOL[name]).items():
        channel = make()
        for op in path:
            call(channel, op)
        before = seen(channel)
        if state == FINAL[name]:
            channel.reopen(EventLog())
            assert seen(channel) == (START, 0, *before[2:])
        else:
            with pytest.raises(ProtocolError, match=f"{name}.reopen needs state {FINAL[name]}"):
                channel.reopen(EventLog())
            assert seen(channel) == before
        channel.close()
        before = seen(channel)
        with pytest.raises(ChannelClosed):
            channel.reopen(EventLog())
        assert seen(channel) == before


# --- event log -------------------------------------------------------------------

def scripted_run(probe, inject, values):
    """Put 3 in, then each of values through probe, on two threads; return what arrived."""
    def producer():
        got = inject.swap_in(0)
        for value in values:
            probe.put(value)
        inject.swap_out(got - (-2))

    def consumer():
        inject.put(3)
        return [probe.get() for _ in values]

    producer_thread, _ = spawn(producer)
    consumer_thread, received = spawn(consumer)
    producer_thread.join(JOIN_TIMEOUT)
    consumer_thread.join(JOIN_TIMEOUT)
    return received["value"]


def test_event_log_records_completed_protocol():
    trace = EventLog()
    probe = ProbeChannel(trace)
    inject = InjectChannel(trace)
    values = [2, -1, 1, 3]
    assert scripted_run(probe, inject, values) == values

    events = trace.events()
    assert [e.seq for e in events] == list(range(len(events)))
    probe_events = [e for e in events if e.channel == "probe"]
    assert [e.op for e in probe_events] == ["put", "get"] * len(values)
    assert [e.value for e in probe_events if e.op == "put"] == values
    assert [e.value for e in probe_events if e.op == "get"] == values
    inject_ops = [e.op for e in events if e.channel == "inject"]
    assert inject_ops == ["put", "swap_in", "swap_out"]


def test_event_log_counts_its_records():
    trace = EventLog()
    assert len(trace) == 0
    probe = ProbeChannel(trace)
    probe.put(1)
    assert len(trace) == 1
    probe.get()
    assert len(trace) == 2 == len(trace.events())


def test_event_log_is_optional():
    probe = ProbeChannel()
    probe.put(1)
    assert probe.get() == 1


def test_event_log_orders_concurrent_channels():
    # more producer/consumer pairs than cores, one shared log, and a switch
    # interval short enough to preempt between any two bytecodes; each pair
    # also runs the inject protocol on its own channel
    pairs, handshakes = 6, 200
    trace = EventLog()
    received = [[] for _ in range(pairs)]
    swapped = [[] for _ in range(pairs)]

    def producer(probe, inject, index):
        swapped[index].append(inject.swap_in(-1))
        for step in range(handshakes):
            probe.put(index * handshakes + step)
        swapped[index].append(inject.swap_out(index * handshakes + 1))

    def consumer(probe, inject, index):
        inject.put(index * handshakes)
        for _ in range(handshakes):
            received[index].append(probe.get())

    threads = []
    channels = []
    for index in range(pairs):
        probe, inject = ProbeChannel(trace), InjectChannel(trace)
        channels.append((probe, inject))
        for target in (producer, consumer):
            threads.append(
                threading.Thread(target=target, args=(probe, inject, index), daemon=True)
            )
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

    events = trace.events()
    assert [e.seq for e in events] == list(range(2 * pairs * handshakes + 3 * pairs))
    probe_events = [e for e in events if e.channel == "probe"]
    inject_events = [e for e in events if e.channel == "inject"]
    for index, (_, inject) in enumerate(channels):
        sent = list(range(index * handshakes, (index + 1) * handshakes))
        assert received[index] == sent
        own = [e for e in probe_events if e.value // handshakes == index]
        assert [e.op for e in own] == ["put", "get"] * handshakes
        assert [e.value for e in own] == [value for value in sent for _ in range(2)]
        # put, swap_in, swap_out, each carrying its value through the slot
        own = [(e.op, e.value) for e in inject_events if e.value // handshakes == index]
        assert own == [
            ("put", index * handshakes),
            ("swap_in", index * handshakes),
            ("swap_out", index * handshakes + 1),
        ]
        assert swapped[index] == [index * handshakes, -1]
        assert inject.slot == index * handshakes + 1
    # every waiter cleared its own mark
    assert all(probe.waiting() == inject.waiting() == [] for probe, inject in channels)
