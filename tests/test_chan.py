import sys
import threading
import time

import pytest

from recsplit.chan import PROTOCOL, START, ChannelClosed, EventLog, InjectChannel, ProbeChannel
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
    # a spawned call shows as waiting once it has marked itself on a semaphore with no token
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


def test_inject_swap_out_reopens_slot():
    inject = InjectChannel()
    inject.put(3)
    inject.swap_in(0)
    assert inject.swap_out(5) == 0
    assert inject.slot == 5
    # slot is open again: a new put must not block
    inject.put(9)
    assert inject.slot == 9


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


def test_inject_second_put_blocks_until_swap_out():
    inject = InjectChannel()
    inject.put(1)
    thread, _ = spawn(inject.put, 2)
    settle()
    assert thread.is_alive()
    inject.swap_in(0)
    settle()
    assert thread.is_alive()      # swap_in leaves the slot closed
    inject.swap_out(8)
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert inject.slot == 2


def test_inject_swap_alternates_swap_in_and_swap_out():
    inject = InjectChannel()
    inject.put(3)
    assert inject.swap(0) == 3        # swap_in: the injected value
    assert inject.swap(5) == 0        # swap_out: what the first swap left
    thread, result = spawn(inject.swap, 1)
    assert waiting_soon(inject) == [("inject", "swap_in")]
    settle()
    assert thread.is_alive()
    inject.put(9)                     # the second swap reopened the slot
    thread.join(JOIN_TIMEOUT)
    assert result["value"] == 9


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
    # a get that has marked itself but not yet read the token put gave it,
    # or has read it but not yet cleared its mark, does not wait
    probe._full.waiter = "get"
    assert probe.waiting() == []
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
        seen.append(probe.get())    # gives the token the put waits for
        seen.append(ready(threading.TIMEOUT_MAX))   # the token is there: at once

    probe._empty.watch = watch
    probe.put(1)                    # the slot starts empty: a token is there
    assert seen == []
    thread, _ = spawn(probe.put, 2)
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert seen == [False, 1, True]
    assert probe.get() == 2


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
            channel._empty.watch = channel._full.watch = raise_watched
            for earlier in path:
                call(channel, earlier)
            assert channel.state == state
            if step.before == state:
                call(channel, op)          # its token is there: no hook, no wait
                assert channel.state == step.after
            elif op != "swap_out":         # the one op that takes no token
                with pytest.raises(Watched):
                    call(channel, op)
                assert channel.state == state
                assert channel.waiting() == [(name, op)]


# --- event log -------------------------------------------------------------------

def test_event_log_records_completed_protocol():
    trace = EventLog()
    probe = ProbeChannel(trace)
    inject = InjectChannel(trace)
    values = [2, -1, 1, 3]

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
    assert received["value"] == values

    events = trace.events()
    assert [e.seq for e in events] == list(range(len(events)))
    probe_events = [e for e in events if e.channel == "probe"]
    assert [e.op for e in probe_events] == ["put", "get"] * len(values)
    assert [e.value for e in probe_events if e.op == "put"] == values
    assert [e.value for e in probe_events if e.op == "get"] == values
    inject_ops = [e.op for e in events if e.channel == "inject"]
    assert inject_ops == ["put", "swap_in", "swap_out"]


def test_event_log_keeps_latest_record_time():
    before = time.perf_counter_ns()
    trace = EventLog()
    created = trace.latest_ns
    assert before <= created <= time.perf_counter_ns()
    probe = ProbeChannel(trace)
    probe.put(1)
    put_at = trace.latest_ns
    assert put_at >= created
    probe.get()
    assert trace.latest_ns >= put_at
    assert trace.latest_ns <= time.perf_counter_ns()


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
    # every waiter cleared its own lock's record
    assert all(probe.waiting() == inject.waiting() == [] for probe, inject in channels)
