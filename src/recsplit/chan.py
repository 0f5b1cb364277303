"""Single-slot blocking rendezvous channels.

Each channel holds at most one value and is shared by exactly two agents.
Blocking here is indefinite; deadline handling belongs to the harness.

One slot mechanism serves both channels: the slot is handed over with two
counting semaphores, each an OS pipe in which a byte is a token. ``empty``
holds a token while the slot may be written and starts with one; ``full``
holds one while the slot holds a value for the peer and starts with none.
A put takes ``empty`` and gives ``full``, on either channel. A probe get
takes ``full`` and gives ``empty``, so puts and gets strictly alternate
without a condition variable. An inject swap_in takes ``full`` and gives
nothing back, so the slot stays closed; swap_out then gives ``empty`` and
the slot is open again. The inject channel is itself the producer's cell:
its swap() runs swap_in on the first call and swap_out on the second.

CPython releases the GIL inside the write that gives a token and the read
that takes one, so the woken peer finds the GIL free and runs at once. A
lock released under the GIL wakes a peer that cannot take it, sleeps
again and is woken a second time: about 4.4 context switches per handshake
against 2.0 here. The pipes are closed when the channel is freed; a
blocked call's frame holds its channel, so they outlive every call.

An optional shared EventLog receives one record per *completed* operation.
Each record is appended while the operation still holds the slot: after a
put stores its value and before it gives ``full``, after a get or a swap
reads the value and before it gives ``empty`` (a swap_in gives nothing).
The peer cannot complete its next operation before that, so the log order
is the true completion order. An event's ``seq`` is its index in the log.
The watchdog reads the log's ``latest_ns`` (the perf_counter_ns() of its
latest record, at first of its creation) and each channel's waiting() ops.
A take marks its op on the semaphore (each has one possible taker) and
waits only while it has no token: an op is listed while it is marked and
the semaphore's tokens given equal those taken, and never once the channel
is closed. A marked op whose token is already given, or is taken but not
yet unmarked, is not listed.

close() gives one token to each semaphore, which wakes every waiter on a
channel; a woken call gives its token back, so the next taker wakes too,
and it and every later call raise ChannelClosed. The harness closes both
channels when a run ends, so no agent stays blocked after it.
"""

from __future__ import annotations

import os
from time import perf_counter_ns
from typing import NamedTuple


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
    """A counting semaphore on an OS pipe: each byte in the pipe is a token.

    While the channel is open each count has one writer. given is bumped
    before the write, so a token in flight is already counted, and taken
    after the taker's mark is cleared, so a marked op with given == taken
    has no token to take: it waits, or is about to.
    """

    _read = None   # set once the pipe exists; until then __del__ closes nothing

    def __init__(self, tokens: int):
        self._read, self._write = os.pipe()
        self.given = self.taken = 0
        self.waiter = None   # the op marked as taking a token
        for _ in range(tokens):
            self.give()

    def give(self):
        self.given += 1
        os.write(self._write, b"\0")

    def take(self, op: str):
        self.waiter = op
        os.read(self._read, 1)
        self.waiter = None
        self.taken += 1

    def __del__(self, close=os.close):
        # close is bound here, as the os global may be gone at interpreter shutdown
        if self._read is not None:
            close(self._read)
            close(self._write)


class _Slot:
    """The token-handoff slot both channels share, with its put and close."""

    _name = ""

    def __init__(self, trace: EventLog | None = None):
        self._empty = _Tokens(1)
        self._full = _Tokens(0)
        self._slot = 0
        self._closed = False
        self._trace = trace

    def _take(self, tokens: _Tokens, op: str):
        """Take a token for op, or raise ChannelClosed once the channel is closed."""
        tokens.take(op)
        if self._closed:
            tokens.give()         # so the next taker wakes too
            raise ChannelClosed(f"{self._name}.{op} on a closed channel")

    def put(self, value: int):
        self._take(self._empty, "put")
        self._slot = value
        if self._trace is not None:
            self._trace.record(self._name, "put", value)
        self._full.give()

    def waiting(self) -> list:
        """(channel, op) of each operation waiting for a token of this slot now."""
        if self._closed:          # close() gives from a second thread, so counts may race
            return []
        return [(self._name, tokens.waiter) for tokens in (self._empty, self._full)
                if tokens.waiter and tokens.given == tokens.taken]

    def close(self):
        self._closed = True
        self._empty.give()
        self._full.give()


class ProbeChannel(_Slot):
    """Carries produced values to the consumer, one at a time.

    put blocks while the previous value is still unconsumed; get blocks until
    a value is available. In any completed run the puts and gets strictly
    alternate, starting with a put, and every value is delivered exactly once
    in order.
    """

    _name = "probe"

    def get(self) -> int:
        self._take(self._full, "get")
        value = self._slot
        if self._trace is not None:
            self._trace.record("probe", "get", value)
        self._empty.give()
        return value


class InjectChannel(_Slot):
    """Carries the input to the producer and the producer's leftover back out.

    put stores a value once the slot is open and closes it. swap_in waits for
    a stored value and trades it for the caller's, leaving the slot closed.
    swap_out trades unconditionally and reopens the slot. swap alternates
    the two, which makes the channel the producer's inject cell.
    """

    _name = "inject"
    _swapped_in = False   # only the producer's thread reads or flips it

    def swap(self, value: int) -> int:
        """swap_in on the first call, swap_out on the second, and so on."""
        out = (self.swap_out if self._swapped_in else self.swap_in)(value)
        self._swapped_in = not self._swapped_in
        return out

    def swap_in(self, value: int) -> int:
        self._take(self._full, "swap_in")
        out, self._slot = self._slot, value
        if self._trace is not None:
            self._trace.record("inject", "swap_in", out)
        # gives nothing back: empty stays taken by put, full by this call
        return out

    def swap_out(self, value: int) -> int:
        if self._closed:
            raise ChannelClosed("inject.swap_out on a closed channel")
        out, self._slot = self._slot, value
        if self._trace is not None:
            self._trace.record("inject", "swap_out", value)
        self._empty.give()
        return out

    @property
    def slot(self) -> int:
        """Current slot content; for post-run inspection, not coordination."""
        return self._slot
