"""Single-slot blocking rendezvous channels.

Each channel holds at most one value and is shared by exactly two agents.
PROTOCOL is their protocol, written down once: per channel and op, the
agent that performs the op, the slot state it needs and the state it
leaves. A slot starts in START; a completed run leaves it in FINAL. A
take blocks until it gets its token, unless its semaphore has a watch
hook; deadline handling belongs to the harness, which sets that hook.

One slot mechanism serves both channels: the slot is handed over with two
counting semaphores, each an OS pipe in which a byte is a token. ``empty``
holds a token while the slot may be written and starts with one; ``full``
holds one while the slot holds a value for the peer and starts with none.
A put takes ``empty`` and gives ``full``, on either channel. A probe get
takes ``full`` and gives ``empty``; an inject swap_in takes ``full`` and
gives nothing back, and swap_out gives ``empty``. So an op gets its token
once its slot is in the state it needs, without a condition variable. The
inject channel is itself the producer's cell: its swap() runs swap_out
while a swap_in holds the slot, and swap_in otherwise.

CPython releases the GIL inside the write that gives a token and the read
that takes one, so the woken peer finds the GIL free and runs at once. A
lock released under the GIL wakes a peer that cannot take it, sleeps
again and is woken a second time: about 4.4 context switches per handshake
against 2.0 here. The pipes are closed when the channel is freed; a
blocked call's frame holds its channel, so they outlive every call.

An optional shared EventLog receives one record per *completed* operation.
An op sets its slot's state and appends its record while it still holds
the slot: before it gives a token, or, for swap_in, before it returns.
The peer cannot complete its next operation before that, so the log order
is the true completion order. An event's ``seq`` is its index in the log.
The watchdog reads the log's ``latest_ns`` (the perf_counter_ns() of its
latest record, at first of its creation) and each channel's waiting() ops.
A take marks its op on its semaphore (each has one possible taker), and
waiting() lists a marked op while the slot is not in the state the op
needs, and never once the channel is closed.

A semaphore's ``watch`` hook, when set, is called as watch(ready) by a
marked take whose slot is not in the state it needs, before it reads.
ready(seconds) waits up to seconds with ``select.poll`` on the pipe's read
end (POSIX) and says whether a token is there. The hook returns once one
is, or raises to abandon the take, which then takes nothing. Any other
take pays one compare and no extra system call. The harness sets the
hook on the producer's two takes, probe.put and inject.swap_in.

close() gives one token to each semaphore, which wakes every waiter on a
channel; a woken call gives its token back, so the next taker wakes too,
and it and every later call raise ChannelClosed. The harness closes both
channels when a run ends, so no agent stays blocked after it.
"""

from __future__ import annotations

import os
import select
from time import perf_counter_ns
from typing import NamedTuple


_POLL_MAX_S = (2**31 - 1) // 1000   # poll() takes a C int of milliseconds


# a row of PROTOCOL: the agent that performs an op, the state it needs, the state it leaves
Step = NamedTuple("Step", [("agent", str), ("before", str), ("after", str)])

PROTOCOL = {
    "probe": {"put": Step("producer", "empty", "full"),
              "get": Step("consumer", "full", "empty")},
    "inject": {"put": Step("consumer", "empty", "full"),
               "swap_in": Step("producer", "full", "held"),
               "swap_out": Step("producer", "held", "done")},
}
START = "empty"
FINAL = {"probe": "empty", "inject": "done"}


class ChannelClosed(Exception):
    """A channel operation was attempted on, or woken by, a closed channel."""


class ChannelEvent(NamedTuple):
    seq: int
    channel: str
    op: str
    value: int


class EventLog:
    """Append-only log shared by any number of channels.

    record() needs no lock: list.append is atomic, and the channels call it
    while holding their slot, which orders the appends.
    """

    def __init__(self):
        self._records = []
        self.latest_ns = perf_counter_ns()

    def record(self, channel: str, op: str, value: int):
        self._records.append((channel, op, value))
        self.latest_ns = perf_counter_ns()

    def events(self) -> list:
        return self.events_and_puts(None)[0]

    def events_and_puts(self, channel: str | None) -> tuple[list, list]:
        """events(), and the values put on channel, in one pass over the records."""
        events, puts = [], []
        for seq, (name, op, value) in enumerate(self._records):
            # tuple.__new__ skips the named tuple's Python-level __new__
            events.append(tuple.__new__(ChannelEvent, (seq, name, op, value)))
            if op == "put" and name == channel:
                puts.append(value)
        return events, puts


class _Tokens:
    """A counting semaphore on an OS pipe: each byte in the pipe is a token."""

    _read = None   # set once the pipe exists; until then __del__ closes nothing
    watch = None   # called as watch(self.ready) by a take whose slot is not ready

    def __init__(self, tokens: int):
        self._read, self._write = os.pipe()
        self.waiter = None   # the op marked as taking a token
        for _ in range(tokens):
            self.give()

    def give(self):
        os.write(self._write, b"\0")

    def ready(self, seconds: float) -> bool:
        """Whether a token can be read within seconds, or within about 24
        days if seconds is longer: the longest wait poll() takes."""
        # poll, as select refuses descriptors from FD_SETSIZE (1024) on
        poller = select.poll()
        poller.register(self._read, select.POLLIN)
        return bool(poller.poll(min(seconds, _POLL_MAX_S) * 1000))

    def __del__(self, close=os.close):
        # close is bound here, as the os global may be gone at interpreter shutdown
        if self._read is not None:
            close(self._read)
            close(self._write)


class _Slot:
    """The token-handoff slot both channels share, with its put and close."""

    _name = ""    # the channel's key in PROTOCOL, and in its events
    _steps = {}   # PROTOCOL[_name]; each channel sets both

    def __init__(self, trace: EventLog | None = None):
        self._empty = _Tokens(1)
        self._full = _Tokens(0)
        self._slot = 0
        self._closed = False
        self._trace = trace
        self.state = START   # the state the last completed op left

    def _take(self, tokens: _Tokens, op: str):
        """Take a token for op, or raise ChannelClosed once the channel is closed."""
        tokens.waiter = op
        if tokens.watch is not None and self.state != self._steps[op].before:
            tokens.watch(tokens.ready)
        os.read(tokens._read, 1)
        tokens.waiter = None
        if self._closed:
            tokens.give()         # so the next taker wakes too
            raise ChannelClosed(f"{self._name}.{op} on a closed channel")

    def _done(self, op: str, value: int):
        """Enter op's after state and record op with value; before op gives a token."""
        self.state = self._steps[op].after
        if self._trace is not None:
            self._trace.record(self._name, op, value)

    def put(self, value: int):
        self._take(self._empty, "put")
        self._slot = value
        self._done("put", value)
        self._full.give()

    def waiting(self) -> list:
        """(channel, op) of each operation waiting for a token of this slot now."""
        if self._closed:          # close() gives tokens but leaves the state as it was
            return []
        # each waiter is read once: its take may clear it meanwhile
        return [(self._name, op) for op in (self._empty.waiter, self._full.waiter)
                if op and self.state != self._steps[op].before]

    def close(self):
        self._closed = True
        self._empty.give()
        self._full.give()


class ProbeChannel(_Slot):
    """Carries produced values to the consumer, one at a time.

    Its protocol is PROTOCOL["probe"]: put blocks while the previous value
    is still unconsumed, get blocks until a value is available, and every
    value is delivered exactly once in order.
    """

    _name = "probe"
    _steps = PROTOCOL[_name]

    def get(self) -> int:
        self._take(self._full, "get")
        value = self._slot
        self._done("get", value)
        self._empty.give()
        return value


class InjectChannel(_Slot):
    """Carries the input to the producer and the producer's leftover back out.

    Its protocol is PROTOCOL["inject"]. swap_in waits for a put value and
    trades it for the caller's; swap_out trades without waiting and reopens
    the slot. swap runs whichever of the two is next, which makes the
    channel the producer's inject cell.
    """

    _name = "inject"
    _steps = PROTOCOL[_name]

    def swap(self, value: int) -> int:
        """swap_out while a swap_in holds the slot, else swap_in."""
        held = self.state == self._steps["swap_out"].before
        return (self.swap_out if held else self.swap_in)(value)

    def swap_in(self, value: int) -> int:
        self._take(self._full, "swap_in")
        out, self._slot = self._slot, value
        self._done("swap_in", out)
        # gives nothing back: empty stays taken by put, full by this call
        return out

    def swap_out(self, value: int) -> int:
        if self._closed:
            raise ChannelClosed("inject.swap_out on a closed channel")
        out, self._slot = self._slot, value
        self._done("swap_out", value)
        self._empty.give()
        return out

    @property
    def slot(self) -> int:
        """Current slot content; for post-run inspection, not coordination."""
        return self._slot
