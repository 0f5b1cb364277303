"""Single-slot blocking rendezvous channels.

Each channel holds at most one value and is shared by exactly two agents.
PROTOCOL is their protocol, written down once, and the channels run from
it: per channel and op, the agent that performs the op, the slot state it
needs and the state it leaves. A slot starts in START; a completed run
leaves it in FINAL, and no op runs from ``done``. reopen() takes a slot
from FINAL back to START for the next run, so one channel serves many.
Deadline handling belongs to the harness, through a semaphore's watch hook.

Each state an op may wait for has a counting semaphore, an OS pipe in
which a byte is a token: ``empty`` starts with one, ``full`` with none.
Every op follows one rule: it takes a token from its ``before`` state's
semaphore, trades its value for the slot's content, enters its ``after``
state, records itself, and gives a token to ``after``'s semaphore, if any.
An op whose ``before`` state has no semaphore (swap_out, from ``held``)
cannot wait: from any other state it raises ProtocolError. So a slot has
at most one token, on the semaphore of its state, and an op gets its token
once the slot is in the state it needs, without a condition variable. The
inject channel is itself the producer's cell: its swap() runs swap_out
while a swap_in holds the slot, and swap_in otherwise.

CPython releases the GIL inside the write that gives a token and the read
that takes one, so the woken peer finds the GIL free and runs at once. A
lock released under the GIL wakes a peer that cannot take it, sleeps
again and is woken a second time: about 4.4 context switches per handshake
against 2.0 here. The pipes are closed when the channel is freed, not by
close() or by a run's end: a blocked call's frame holds its channel, so
they outlive every call, and a reopened channel keeps its pipes.

An optional shared EventLog receives one record per *completed* operation:
an op from the state a put leaves records the value it took, any other op
the value it gave. An op sets its slot's state and appends its record
while it still holds the slot, before it gives a token. The peer cannot
complete its next operation before that, so the log order is the true
completion order. An event's ``seq`` is its index in the log.
The watchdog reads the log's length, its count of records, and each
channel's waiting() ops.
A take marks its op on its semaphore (each has one possible taker), and
waiting() lists a marked op while the slot is not in the state the op
needs, and never once the channel is closed.

A semaphore's ``watch`` hook, when set, is called as watch(ready) by a
marked take whose slot is not in the state it needs, before it reads.
ready(seconds) waits up to seconds with ``select.poll`` on the pipe's read
end (POSIX) and says whether a token is there. The hook returns once one
is, or raises to abandon the take, which then takes nothing and is no
longer marked. Any other take pays one compare and no extra system call.
A channel's watch(agent, hook) sets the hook on the semaphores the agent's
ops take from, by the table's agent column; the harness sets it for the
producer, whose takes are probe.put and inject.swap_in.

close() gives one token to each semaphore, which wakes every waiter on a
channel; a woken call gives its token back, so the next taker wakes too,
and it and every later call raise ChannelClosed. The harness closes both
channels when a run does not end cleanly, so no agent stays blocked after
it, and reopens them after a run that does.
"""

from __future__ import annotations

import os
import select
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
# reopen: FINAL -> START, refused from any other state; the one token goes to
# START's semaphore, where FINAL has none (each FINAL is START or has none)


class ChannelClosed(Exception):
    """A channel operation was attempted on, or woken by, a closed channel."""


class ProtocolError(Exception):
    """An op that cannot wait was called from a state PROTOCOL does not run it in."""


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

    def __len__(self) -> int:
        return len(self._records)

    def record(self, channel: str, op: str, value: int):
        self._records.append((channel, op, value))

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
    """The token-handoff slot both channels share: every op runs through _step."""

    _name = ""    # the channel's key in PROTOCOL, and in its events
    _steps = {}   # PROTOCOL[_name]; each channel sets both

    def __init__(self, trace: EventLog | None = None):
        # a semaphore per state an op can wait for; START's holds the one token
        self._tokens = {"empty": _Tokens(1), "full": _Tokens(0)}
        # op -> (row, semaphore taken, semaphore given, whether it records what it took)
        filled = self._steps["put"].after
        self._ops = {op: (step, self._tokens.get(step.before), self._tokens.get(step.after),
                          step.before == filled) for op, step in self._steps.items()}
        self._slot = 0
        self._closed = False
        self._trace = trace
        self.state = START   # the state the last completed op left

    def _step(self, op: str, value):
        """Perform op by the one rule for a PROTOCOL row; return what it took from the slot."""
        step, tokens, given, took = self._ops[op]
        if tokens is not None:
            tokens.waiter = op
            try:
                if tokens.watch is not None and self.state != step.before:
                    tokens.watch(tokens.ready)
                os.read(tokens._read, 1)
            finally:
                tokens.waiter = None
        if self._closed:
            if tokens is not None:
                tokens.give()     # so the next taker wakes too
            raise ChannelClosed(f"{self._name}.{op} on a closed channel")
        if self.state != step.before:   # only an op that has no token to wait for
            raise ProtocolError(f"{self._name}.{op} needs state {step.before}, not {self.state}")
        out, self._slot = self._slot, value
        self.state = step.after
        if self._trace is not None:
            self._trace.record(self._name, op, out if took else value)
        if given is not None:
            given.give()
        return out

    def put(self, value: int):
        self._step("put", value)

    def reopen(self, trace: EventLog | None = None):
        """Move the slot from FINAL back to START, emptied and recording to
        trace, for a new run; from any other state, or once closed, raise
        and change nothing."""
        final = FINAL[self._name]
        if self._closed:
            raise ChannelClosed(f"{self._name}.reopen on a closed channel")
        if self.state != final:
            raise ProtocolError(f"{self._name}.reopen needs state {final}, not {self.state}")
        if final not in self._tokens:
            self._tokens[START].give()
        self._slot, self.state, self._trace = 0, START, trace

    def watch(self, agent: str, hook):
        """Set hook, or clear it with None, on each semaphore an op of agent takes."""
        for step, tokens, _, _ in self._ops.values():
            if step.agent == agent and tokens is not None:
                tokens.watch = hook

    def waiting(self) -> list:
        """(channel, op) of each operation waiting for a token of this slot now."""
        if self._closed:          # close() gives tokens but leaves the state as it was
            return []
        # each waiter is read once: its take may clear it meanwhile
        return [(self._name, op) for tokens in self._tokens.values()
                if (op := tokens.waiter) and self.state != self._steps[op].before]

    def close(self):
        self._closed = True
        for tokens in self._tokens.values():
            tokens.give()


class ProbeChannel(_Slot):
    """Carries produced values to the consumer, one at a time.

    Its protocol is PROTOCOL["probe"]: put blocks while the previous value
    is still unconsumed, get blocks until a value is available, and every
    value is delivered exactly once in order.
    """

    _name = "probe"
    _steps = PROTOCOL[_name]

    def get(self) -> int:
        return self._step("get", None)


class InjectChannel(_Slot):
    """Carries the input to the producer and the producer's leftover back out.

    Its protocol is PROTOCOL["inject"]. swap_in waits for a put value and
    trades it for the caller's; swap_out trades without waiting and leaves
    the slot done, after which no op completes. swap runs whichever of the
    two is next, which makes the channel the producer's inject cell.
    """

    _name = "inject"
    _steps = PROTOCOL[_name]

    def swap(self, value: int) -> int:
        """swap_out while a swap_in holds the slot, else swap_in."""
        held = self.state == self._steps["swap_out"].before
        return self._step("swap_out" if held else "swap_in", value)

    def swap_in(self, value: int) -> int:
        return self._step("swap_in", value)

    def swap_out(self, value: int) -> int:
        return self._step("swap_out", value)

    @property
    def slot(self) -> int:
        """Current slot content; for post-run inspection, not coordination."""
        return self._slot
