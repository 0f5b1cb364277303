"""Single-slot blocking rendezvous channels.

Each channel holds at most one value and is shared by exactly two agents.
Blocking here is indefinite; deadline handling belongs to the harness.

The probe channel hands its slot over with two locks used as binary
semaphores: ``empty`` is free while the slot may be written, ``full`` while
it holds an unread value. A put takes ``empty`` and gives ``full``; a get
takes ``full`` and gives ``empty``. Exactly one of them is free between
operations, so puts and gets strictly alternate without a condition variable.
The inject channel carries three operations per run and keeps a condition.

An optional shared EventLog receives one record per *completed* operation.
Each record is appended while the operation still holds the slot: after a
put stores its value and before it frees ``full``, after a get reads the
value and before it frees ``empty``, and inside the inject channel's
condition. The peer cannot complete its next operation before that, so the
log order is the true completion order. An event's ``seq`` is its index in
the log.

close() wakes every waiter on a channel; the woken call and every later call
raise ChannelClosed. The harness closes both channels when a run ends, so
no agent stays blocked after it.
"""

from __future__ import annotations

import threading
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

    def record(self, channel: str, op: str, value: int):
        self._records.append((channel, op, value))

    def events(self) -> list:
        return [
            ChannelEvent(seq, channel, op, value)
            for seq, (channel, op, value) in enumerate(self._records)
        ]


def _wake(lock: threading.Lock):
    """Free a lock used as a binary semaphore unless it is already free.

    A put or get finds it free when close() freed it while the call held
    the slot; close() finds one of the pair free in any case.
    """
    try:
        lock.release()
    except RuntimeError:
        pass


class ProbeChannel:
    """Carries produced values to the consumer, one at a time.

    put blocks while the previous value is still unconsumed; get blocks until
    a value is available. In any completed run the puts and gets strictly
    alternate, starting with a put, and every value is delivered exactly once
    in order.
    """

    def __init__(self, trace: EventLog | None = None):
        self._empty = threading.Lock()
        self._full = threading.Lock()
        self._full.acquire()
        self._slot = 0
        self._closed = False
        self._trace = trace

    def put(self, value: int):
        self._empty.acquire()
        if self._closed:
            _wake(self._empty)
            raise ChannelClosed("probe.put on a closed channel")
        self._slot = value
        if self._trace is not None:
            self._trace.record("probe", "put", value)
        _wake(self._full)

    def get(self) -> int:
        self._full.acquire()
        if self._closed:
            _wake(self._full)
            raise ChannelClosed("probe.get on a closed channel")
        value = self._slot
        if self._trace is not None:
            self._trace.record("probe", "get", value)
        _wake(self._empty)
        return value

    def close(self):
        self._closed = True
        _wake(self._empty)
        _wake(self._full)


class InjectChannel:
    """Carries the input to the producer and the producer's leftover back out.

    put stores a value once the slot is open and closes it. swap_in waits for
    a stored value and trades it for the caller's, leaving the slot closed.
    swap_out trades unconditionally and reopens the slot.
    """

    def __init__(self, trace: EventLog | None = None):
        self._cond = threading.Condition()
        self._slot = 0
        self._not_set = True
        self._closed = False
        self._trace = trace

    def _wait_open(self, op: str, ready):
        """With the condition held, wait for ready() unless the channel closes."""
        self._cond.wait_for(lambda: self._closed or ready())
        if self._closed:
            raise ChannelClosed(f"inject.{op} on a closed channel")

    def put(self, value: int):
        with self._cond:
            self._wait_open("put", lambda: self._not_set)
            self._slot = value
            self._not_set = False
            if self._trace is not None:
                self._trace.record("inject", "put", value)
            self._cond.notify()

    def swap_in(self, value: int) -> int:
        with self._cond:
            self._wait_open("swap_in", lambda: not self._not_set)
            out = self._slot
            self._slot = value
            if self._trace is not None:
                self._trace.record("inject", "swap_in", out)
            self._cond.notify()
            return out

    def swap_out(self, value: int) -> int:
        with self._cond:
            if self._closed:
                raise ChannelClosed("inject.swap_out on a closed channel")
            out = self._slot
            self._slot = value
            self._not_set = not self._not_set
            if self._trace is not None:
                self._trace.record("inject", "swap_out", value)
            self._cond.notify()
            return out

    def close(self):
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def slot(self) -> int:
        """Current slot content; for post-run inspection, not coordination."""
        with self._cond:
            return self._slot
