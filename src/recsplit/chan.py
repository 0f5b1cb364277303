"""Single-slot blocking rendezvous channels.

Each channel holds at most one value and is shared by exactly two agents.
Both channels run from one table, PROTOCOL, by one rule, _Slot._step. The
slot's state is the only fact that says whether an op may run; it is read
and written under the GIL. Deadlines belong to the harness, through the
watch hook a wait is given.

Every cross-thread wait in the package is a Doorbell.wait, on the waiting
thread's one doorbell, woken only by publish or shut. Mark → re-check →
sleep on one side and set → ring on the other lose no wake-up: either the
sleeper's re-check sees the new state, or the setter sees the mark (the
eventcount rule). A ring that nobody needed leaves a byte that a later
sleep reads and looks past.

A wait yields before it marks itself only on one CPU, where the peer is the
only other thread that can run: a yield hands it the CPU, and its op is
done when the waiter looks again. CPython releases the GIL inside the
yield, the write and the read, so the side that runs next finds it free. A
yielding waiter is not marked: nobody rings it, and the watchdog sees it as
running. The yield count is fixed when a doorbell is made, from the making
thread's CPU mask, because a thread inherits the mask of the thread that
starts it: the harness makes the consumer thread's doorbell on the thread
that then starts it.
"""

from __future__ import annotations

import os
import select
from typing import NamedTuple


_POLL_MAX_S = (2**31 - 1) // 1000   # poll() takes a C int of milliseconds
_DRAIN = 64   # bytes one sleep reads at most: its ring, and any unneeded ones before it
YIELDS = 2    # yields of a wait on one CPU: the fewest that left the sweep's largest runs no sleep


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
# reopen: FINAL -> START, refused from any other state


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

    A channel appends one (channel, op, value) per completed op: an op from
    the state a put leaves records the value it took, any other op the value
    it gave. An op appends before it publishes its state, and the peer
    cannot complete its next op before that, so the log order is the true
    completion order, and an event's seq is its index in the log. append is
    the record list's own append, bound once, so a record is one call into
    C; it needs no lock, as list.append is atomic.
    """

    def __init__(self):
        self._records = []
        self.append = self._records.append

    def __len__(self) -> int:
        return len(self._records)

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


class Doorbell:
    """One thread's wake-up call, on an OS pipe, and its mark: where it waits.

    A byte in the pipe says only "look again". What the thread waits for is
    a state of a holder: any object with a ``state`` and a ``closed`` flag,
    which wait() reads again after every byte. publish() sets the state and
    shut() sets ``closed``, and they ring. Only its own thread waits on a
    doorbell, in one wait at a time, so one doorbell serves every holder the
    thread waits on.
    """

    _read = None   # set once the pipe exists; until then __del__ closes nothing

    def __init__(self):
        self._read, self._write = os.pipe()
        os.set_blocking(self._write, False)
        self.waiter = None   # the mark of the wait here, ((holder, op), state wanted), or None
        one_cpu = (hasattr(os, "sched_yield") and hasattr(os, "sched_getaffinity")
                   and len(os.sched_getaffinity(0)) == 1)
        self._yields = YIELDS if one_cpu else 0   # yields of each wait before it marks itself

    def ring(self):
        try:
            os.write(self._write, b"\0")
        except BlockingIOError:   # the pipe is full: a wake-up is already pending
            pass

    def wait(self, op, holder, wanted: str, watch=None):
        """Return once holder.state is wanted or holder is closed: read both,
        and yield the CPU, up to _yields times; then mark op's wait on
        holder, read both again, and only then sleep, until a ring finds one
        so. watch, if given, is called as watch(self.ready) before each
        sleep, which goes on once it returns; it may raise to abandon the
        wait. The mark is cleared on return, and when watch raises."""
        yields = self._yields
        while yields:
            if holder.state == wanted or holder.closed:
                return
            os.sched_yield()
            yields -= 1
        self.waiter = ((holder, op), wanted)
        try:
            while holder.state != wanted and not holder.closed:
                if watch is not None:
                    watch(self.ready)
                os.read(self._read, _DRAIN)
        finally:
            self.waiter = None

    def blocked(self):
        """(holder, op) of the wait marked here if its holder is open and
        not in the state it wants, else None: whether, and where, this
        doorbell's thread waits now. It allocates nothing."""
        mark = self.waiter   # read once: the waiter may clear it meanwhile
        if mark is None:
            return None
        where, wanted = mark
        holder = where[0]
        return None if holder.closed or holder.state == wanted else where

    def ready(self, seconds: float) -> bool:
        """Whether a byte can be read within seconds, or within about 24
        days if seconds is longer: the longest wait poll() takes."""
        # poll, as select refuses descriptors from FD_SETSIZE (1024) on
        poller = select.poll()
        poller.register(self._read, select.POLLIN)
        return bool(poller.poll(min(seconds, _POLL_MAX_S) * 1000))

    def __del__(self, close=os.close):
        # the pipes close here, not when a holder closes: a blocked call's frame
        # holds its channel, so they outlive every call, and a reopened channel
        # keeps them; close is bound here, as the os global may be gone at
        # interpreter shutdown
        if self._read is not None:
            close(self._read)
            close(self._write)


def publish(holder, state: str, bell: Doorbell | None):
    """Set holder.state to state, then ring bell, that state's doorbell or
    None, only if its thread is marked on holder: marked anywhere else, it
    waits for another holder, which this state does not move."""
    holder.state = state
    if bell is not None:
        mark = bell.waiter   # read once: its thread may clear it meanwhile
        if mark is not None and mark[0][0] is holder:
            bell.ring()


def shut(holder, bells):
    """Set holder.closed, then ring each of bells, marked or not."""
    holder.closed = True
    for bell in bells:
        bell.ring()


class _Slot:
    """The doorbell slot both channels share: every op runs through _step."""

    _name = ""    # the channel's key in PROTOCOL, and in its events
    _steps = {}   # PROTOCOL[_name]; each channel sets both

    def __init__(self, trace: EventLog | None = None, bells: dict | None = None):
        # bells: agent -> the doorbell of the thread it runs on; a lone channel makes one per agent
        if bells is None:
            bells = {"producer": Doorbell(), "consumer": Doorbell()}
        filled = self._steps["put"].after
        # a state's doorbell is its waiting agent's; only START and the state a
        # put leaves have one, so swap_out, from held, cannot wait
        self._bells = {step.before: bells[step.agent] for step in self._steps.values()
                       if step.before in (START, filled)}
        # op -> (row, doorbell it sleeps on, doorbell it rings, whether it records what it took)
        self._ops = {op: (step, self._bells.get(step.before), self._bells.get(step.after),
                          step.before == filled) for op, step in self._steps.items()}
        self._hooks = dict.fromkeys(bells)   # agent -> the watch hook of its waits here, or None
        self._slot = 0
        self.closed = False   # whether close() has run
        self._record = None if trace is None else trace.append
        self.state = START   # the state the last completed op left

    def _step(self, op: str, value):
        """Perform op by the one rule for a PROTOCOL row; return what it took from the slot.

        An op whose slot is in its before state goes on with no system call;
        any other take waits on that state's doorbell, with its agent's watch
        hook. An op whose before state has no doorbell (swap_out, from held)
        cannot wait, and raises ProtocolError instead. On a closed channel
        the woken take and every later call raise ChannelClosed.
        """
        step, bell, rung, took = self._ops[op]
        before = step.before
        if self.state != before and bell is not None:
            bell.wait(op, self, before, self._hooks[step.agent])
        if self.closed:
            raise ChannelClosed(f"{self._name}.{op} on a closed channel")
        if self.state != before:   # only an op that has no doorbell to sleep on
            raise ProtocolError(f"{self._name}.{op} needs state {before}, not {self.state}")
        out, self._slot = self._slot, value
        if self._record is not None:
            self._record((self._name, op, out if took else value))
        publish(self, step.after, rung)
        return out

    def put(self, value: int):
        self._step("put", value)

    def reopen(self, trace: EventLog | None = None):
        """Move the slot from FINAL back to START, emptied and recording to
        trace, for a new run; from any other state, or once closed, raise
        and change nothing. It publishes START, which wakes a take marked on
        its doorbell."""
        final = FINAL[self._name]
        if self.closed:
            raise ChannelClosed(f"{self._name}.reopen on a closed channel")
        if self.state != final:
            raise ProtocolError(f"{self._name}.reopen needs state {final}, not {self.state}")
        self._slot, self._record = 0, None if trace is None else trace.append
        publish(self, START, self._bells[START])

    def watch(self, agent: str, hook):
        """Set hook, or clear it with None, as the watch hook of each wait of agent's ops here."""
        self._hooks[agent] = hook

    def waiting(self) -> list:
        """(channel, op) of each operation waiting for this slot's state now."""
        return [(self._name, where[1]) for bell in self._bells.values()
                if (where := bell.blocked()) is not None and where[0] is self]

    def close(self):
        shut(self, self._bells.values())


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
