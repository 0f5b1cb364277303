"""Single-slot blocking rendezvous channels.

Each channel holds at most one value and is shared by exactly two agents.
Blocking here is indefinite; deadline handling belongs to the harness.

One slot mechanism serves both channels: the slot is handed over with two
locks used as binary semaphores. ``empty`` is free while the slot may be
written, ``full`` while it holds a value for the peer. A put takes ``empty``
and gives ``full``, on either channel. A probe get takes ``full`` and gives
``empty``, so puts and gets strictly alternate without a condition variable.
An inject swap_in takes ``full`` and gives nothing back, so the slot stays
closed; swap_out then frees ``empty`` and the slot is open again. The
inject channel is itself the producer's cell: its swap() runs swap_in on
the first call and swap_out on the second.

An optional shared EventLog receives one record per *completed* operation.
Each record is appended while the operation still holds the slot: after a
put stores its value and before it frees ``full``, after a get or a swap
reads the value and before it frees ``empty`` (a swap_in frees nothing).
The peer cannot complete its next operation before that, so the log order
is the true completion order. An event's ``seq`` is its index in the log.
The watchdog reads the log's ``latest_ns`` (the perf_counter_ns() of its
latest record, at first of its creation) and each channel's waiting() ops:
the op marked on each lock (it has one possible waiter) while the lock is held.

close() wakes every waiter on a channel; the woken call and every later call
raise ChannelClosed. The harness closes both channels when a run ends, so
no agent stays blocked after it.
"""

from __future__ import annotations

import threading
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
        return [
            ChannelEvent(seq, channel, op, value)
            for seq, (channel, op, value) in enumerate(self._records)
        ]


def _wake(lock: threading.Lock):
    """Free a lock used as a binary semaphore unless it is already free.

    An operation finds it free when close() freed it while the call held
    the slot; close() finds one of the pair free in any case.
    """
    try:
        lock.release()
    except RuntimeError:
        pass


class _Slot:
    """The lock-handoff slot both channels share, with its put and close."""

    _name = ""

    def __init__(self, trace: EventLog | None = None):
        self._empty = threading.Lock()
        self._full = threading.Lock()
        self._full.acquire()
        self._slot = 0
        self._closed = False
        self._trace = trace
        self._waiting = {self._empty: None, self._full: None}

    def _take(self, lock: threading.Lock, op: str):
        """Acquire lock for op, or raise ChannelClosed once the channel is closed."""
        self._waiting[lock] = op
        lock.acquire()
        self._waiting[lock] = None
        if self._closed:
            _wake(lock)           # so the next waiter wakes too
            raise ChannelClosed(f"{self._name}.{op} on a closed channel")

    def put(self, value: int):
        self._take(self._empty, "put")
        self._slot = value
        if self._trace is not None:
            self._trace.record(self._name, "put", value)
        _wake(self._full)

    def waiting(self) -> list:
        """(channel, op) of each operation waiting on a held lock of this slot now."""
        # an op marked on a free lock is about to take it; one that has just
        # taken it still shows until _take clears its mark
        return [(self._name, op) for lock, op in self._waiting.items() if op and lock.locked()]

    def close(self):
        self._closed = True
        _wake(self._empty)
        _wake(self._full)


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
        _wake(self._empty)
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
        # frees nothing: empty stays taken by put, full by this call
        return out

    def swap_out(self, value: int) -> int:
        if self._closed:
            raise ChannelClosed("inject.swap_out on a closed channel")
        out, self._slot = self._slot, value
        if self._trace is not None:
            self._trace.record("inject", "swap_out", value)
        _wake(self._empty)
        return out

    @property
    def slot(self) -> int:
        """Current slot content; for post-run inspection, not coordination."""
        return self._slot
