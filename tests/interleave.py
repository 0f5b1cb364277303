"""Every schedule of the real channel code, up to k preemptions.

The wake-up rule (mark, re-check, sleep; set, then ring a marked sleeper)
is what keeps a handshake from losing a wake-up. Here the rule is checked
schedule by schedule, on the code itself. A scenario's agents run on real
threads, of which only the one holding the baton runs. The baton passes
only at a yield point: a ``line`` event (sys.settrace) of a frame in
chan.py, or of a code object a test adds, a sched_yield, a read of an
empty pipe, or a thread's end. Only a line that touches what another
thread may change is a yield point; a switch before any other line is a
switch before the thread's next such line. chan.os is a fake whose pipes
are deques: a read of an empty pipe blocks its thread, and a write makes
it runnable again. A state in which no thread can run while one is
blocked is a lost wake-up.

The search is depth first over every schedule with at most k preemptions
(Musuvathi & Qadeer, Iterative context bounding for systematic testing of
multithreaded programs, PLDI 2007). A schedule is the list of choices made
at the yield points that had more than one option, and each is run again
from the start with a prefix of the last one's choices. Leaving a runnable
thread at a ``line`` event is a preemption. A sched_yield hands the baton to
another runnable thread, as on one CPU, and keeping it is the preemption.

The doorbells' yield count follows the fake sched_getaffinity: one CPU
gives chan.YIELDS, two give 0. Each scenario runs both ways.
"""

import collections
import dis
import functools
import gc
import sys
import threading
import types

import pytest

from recsplit import chan, harness
from recsplit.chan import ChannelClosed, EventLog, InjectChannel, ProbeChannel

K = 2
CHAN_FILE = chan.__file__
SCHEDULE_TIMEOUT = 10.0   # seconds one schedule may take: more is a fault of the explorer
_FAKE_FD = 1 << 20        # fake descriptors start here, above any the process can own


def _stored(code):
    """The attributes that code, and the code nested in it, stores outside __init__."""
    names = set()
    if code.co_name != "__init__":
        names.update(ins.argval for ins in dis.get_instructions(code) if ins.opname == "STORE_ATTR")
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names |= _stored(const)
    return names


@functools.cache
def yield_lines(code):
    """The lines of code that touch what another thread may change: a SHARED name."""
    starts, line, lines = dict(dis.findlinestarts(code)), None, set()
    for ins in dis.get_instructions(code):
        line = starts.get(ins.offset, line)
        if ins.opname in ("LOAD_ATTR", "STORE_ATTR", "LOAD_METHOD", "LOAD_GLOBAL") and ins.argval in SHARED:
            lines.add(line)
    return frozenset(lines)


class Abandoned(BaseException):
    """Unwinds the threads of a schedule that ended in a lost wake-up."""


class Agent:
    """A controlled thread: its body, its state in the schedule and its outcome."""

    def __init__(self, name, body):
        self.name, self.body = name, body
        self.state = "runnable"   # or "blocked", or "done"
        self.on = None            # what a blocked agent waits for: a read descriptor, or an agent
        self.go = None            # its worker's semaphore: released, the agent holds the baton
        self.result = self.error = None


class Workers:
    """Threads that run the agents of one schedule after another, one each."""

    def __init__(self):
        self._threads, self._go, self._jobs = [], [], []

    def start(self, schedule):
        for index, agent in enumerate(schedule.agents):
            if index == len(self._threads):
                self._go.append(threading.Semaphore(0))
                self._jobs.append(None)
                self._threads.append(threading.Thread(target=self._work, args=(index,), daemon=True))
                self._threads[index].start()
            agent.go, self._jobs[index] = self._go[index], (schedule, agent)

    def _work(self, index):
        while True:
            self._go[index].acquire()
            job, self._jobs[index] = self._jobs[index], None
            if job is None:
                return
            schedule, agent = job
            schedule.main(agent)

    def stop(self):
        for go in self._go:
            go.release()
        for thread in self._threads:
            thread.join(SCHEDULE_TIMEOUT)
        assert not any(thread.is_alive() for thread in self._threads), "the explorer hung"


class Schedule:
    """One run of a scenario under the baton; it is also the fake chan.os."""

    def __init__(self, prefix, k, one_cpu, traced):
        self.prefix, self.k, self.one_cpu, self.traced = prefix, k, one_cpu, traced
        self.choices, self.options = [], []   # per yield point with more than one option
        self.preemptions = 0
        self.agents = []
        self.current = None
        self.failure = None
        self.yields = 0
        self.over = threading.Event()
        self._pipes = {}   # read descriptor -> deque of bytes
        self._next_fd = _FAKE_FD

    # --- the fake os --------------------------------------------------------

    def pipe(self):
        read, self._next_fd = self._next_fd, self._next_fd + 2
        self._pipes[read] = collections.deque()
        return read, read + 1

    def set_blocking(self, fd, blocking):
        pass

    def write(self, fd, data):
        self._pipes[fd - 1].extend(data)
        for agent in self.agents:
            if agent.state == "blocked" and agent.on == fd - 1:
                agent.state = "runnable"
        return len(data)

    def read(self, fd, size):
        agent, pipe = self.current, self._pipes[fd]
        while not pipe:
            agent.state, agent.on = "blocked", fd
            self._switch(agent, "block")
        return bytes(pipe.popleft() for _ in range(min(size, len(pipe))))

    def sched_yield(self):
        self.yields += 1
        self._switch(self.current, "yield")

    def sched_getaffinity(self, pid):
        return {0} if self.one_cpu else {0, 1}

    # --- threads --------------------------------------------------------------

    def spawn(self, name, body):
        """Add an agent that runs body once the schedule starts; return it."""
        agent = Agent(name, body)
        self.agents.append(agent)
        return agent

    def join(self, agent):
        """Block the current agent until agent is done."""
        me = self.current
        while agent.state != "done":
            me.state, me.on = "blocked", agent
            self._switch(me, "block")

    def thread(self, target, daemon):
        """Stands in for threading.Thread: an agent that start() leaves to the schedule."""
        agent = self.spawn(target.__name__, target)
        return types.SimpleNamespace(start=lambda: None, join=lambda timeout: self.join(agent))

    def run(self, workers):
        workers.start(self)
        self.current = self.agents[0]
        self.current.go.release()
        assert self.over.wait(SCHEDULE_TIMEOUT), "the explorer hung"

    def main(self, agent):
        """Run agent, which holds the baton, to its end; then pass the baton on."""
        if self.failure is None:
            sys.settrace(self._trace)
            try:
                agent.result = agent.body()
            except Abandoned:
                pass
            except Exception as exc:
                agent.error = exc
            finally:
                sys.settrace(None)
        agent.state = "done"
        for other in self.agents:
            if other.state == "blocked" and other.on is agent:
                other.state = "runnable"
        self._switch(agent, "done")

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename != CHAN_FILE and code not in self.traced:
            return None
        points = yield_lines(code)

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno in points:
                self._switch(self.current, "line")
            return line
        return line

    # --- the baton --------------------------------------------------------------

    def _switch(self, agent, point):
        """At a yield point of agent, the current one, pick who runs next."""
        if self.failure is not None:
            if point == "block":
                raise Abandoned
            return
        others = [other for other in self.agents if other is not agent and other.state == "runnable"]
        if point == "line":
            options = [agent] + (others if self.preemptions < self.k else [])
        elif point == "yield":
            options = others + ([agent] if not others or self.preemptions < self.k else [])
        else:
            options = others
        if not options:
            if any(other.state == "blocked" for other in self.agents):
                self._abandon(agent)
                if point == "block":
                    raise Abandoned
            else:
                self.over.set()   # every agent is done
            return
        if len(options) > 1:
            depth = len(self.choices)
            choice = self.prefix[depth] if depth < len(self.prefix) else 0
            self.choices.append(choice)
            self.options.append(len(options))
        else:
            choice = 0
        chosen = options[choice]
        if point in ("line", "yield") and (chosen is agent) == (point == "yield") and others:
            self.preemptions += 1   # left a runnable agent at a line, or kept the CPU at a yield
        if chosen is agent:
            return
        self.current = chosen
        chosen.go.release()
        if point != "done":
            agent.go.acquire()
            if self.failure is not None and agent.state == "blocked":
                raise Abandoned

    def _abandon(self, caller):
        """End the schedule as a lost wake-up, and let every other agent unwind."""
        blocked = [agent.name for agent in self.agents if agent.state == "blocked"]
        self.failure = f"lost wake-up: {', '.join(blocked)} blocked, nothing can run"
        for agent in self.agents:
            if agent is not caller and agent.state != "done":
                agent.go.release()
        self.over.set()


def explore(scenario, k=K, one_cpu=False, traced=()):
    """Run scenario under every schedule with at most k preemptions, depth
    first, until one fails. Return (schedules run, failure or None, yields made)."""
    workers, prefix, count, yields = Workers(), [], 0, 0
    try:
        while True:
            schedule = Schedule(prefix, k, one_cpu, frozenset(traced))
            chan.os = schedule
            check = scenario(schedule)
            schedule.run(workers)
            count += 1
            yields += schedule.yields
            failure = schedule.failure or "; ".join(
                f"{agent.name} raised {agent.error!r}" for agent in schedule.agents if agent.error)
            if not failure:
                try:
                    check()
                except AssertionError as exc:
                    failure = f"wrong outcome: {exc}"
            if failure:
                return count, f"{failure} (schedule {schedule.choices})", yields
            choices, options = schedule.choices, schedule.options
            depth = len(choices) - 1
            while depth >= 0 and choices[depth] + 1 >= options[depth]:
                depth -= 1
            if depth < 0:
                return count, None, yields
            prefix = choices[:depth] + [choices[depth] + 1]
    finally:
        workers.stop()


# --- scenarios: each spawns its agents and returns a check of the outcome --------------

def closed_or(call, *args):
    try:
        return call(*args)
    except ChannelClosed:
        return "closed"


def probe_exchange(schedule):
    """probe put and get of two values."""
    trace = EventLog()
    probe = ProbeChannel(trace)
    schedule.spawn("producer", lambda: [probe.put(value) for value in (1, 2)])
    consumer = schedule.spawn("consumer", lambda: [probe.get() for _ in range(2)])

    def check():
        assert consumer.result == [1, 2], consumer.result
        assert [(e.op, e.value) for e in trace.events()] == [("put", 1), ("get", 1), ("put", 2), ("get", 2)]
        assert probe.waiting() == []
    return check


def inject_exchange(schedule):
    """inject put, swap_in and swap_out."""
    inject = InjectChannel()
    producer = schedule.spawn("producer", lambda: (inject.swap_in(0), inject.swap_out(5)))
    schedule.spawn("consumer", lambda: inject.put(3))

    def check():
        assert producer.result == (3, 0), producer.result
        assert (inject.state, inject.slot) == ("done", 5)
    return check


def close_while_a_take_sleeps(schedule):
    """close while a get waits for a put that never comes."""
    probe = ProbeChannel()
    taker = schedule.spawn("get", lambda: closed_or(probe.get))
    schedule.spawn("close", probe.close)

    def check():
        assert taker.result == "closed", taker.result
        assert probe.waiting() == []
    return check


def reopen_while_a_put_waits(schedule):
    """reopen while a put is marked on a done inject."""
    inject = InjectChannel()
    inject.put(1)
    inject.swap_in(0)
    inject.swap_out(2)
    schedule.spawn("put", lambda: inject.put(3))
    schedule.spawn("reopen", inject.reopen)

    def check():
        assert (inject.state, inject.slot) == ("full", 3)
    return check


def consumer_thread(schedule, owner):
    """A _ConsumerThread whose thread is the schedule's first agent, as it
    starts the thread at once; owner is the owner's doorbell."""
    real = harness.threading
    harness.threading = types.SimpleNamespace(Thread=schedule.thread)
    try:
        return harness._ConsumerThread(owner)
    finally:
        harness.threading = real


def consumer_hand_off(schedule):
    """The consumer thread's hand-off: run, _serve, wait and stop."""
    consumer = consumer_thread(schedule, chan.Doorbell())
    ran = []

    def owner():
        consumer.run(lambda: ran.append("body"))
        consumer.wait(lambda ready: None)
        consumer.stop()

    schedule.spawn("owner", owner)

    def check():
        assert ran == ["body"], ran
        assert all(agent.state == "done" for agent in schedule.agents)
    return check


def one_doorbell_two_holders(schedule):
    """The owner sleeps on an inject take while the consumer thread's body
    puts and returns: the owner's one doorbell serves the take and the
    hand-off, and the return publishes idle while the owner may be marked
    on the take."""
    owner = chan.Doorbell()
    consumer = consumer_thread(schedule, owner)
    inject = InjectChannel(None, {"producer": owner, "consumer": consumer.bell})

    def run_owner():
        consumer.run(lambda: inject.put(3))
        taken = inject.swap_in(0)
        consumer.wait(lambda ready: None)
        consumer.stop()
        return taken

    agent = schedule.spawn("owner", run_owner)

    def check():
        assert agent.result == 3, agent.result
        assert (inject.state, inject.slot) == ("held", 0)
        assert all(agent.state == "done" for agent in schedule.agents)
        assert inject.waiting() == [] and owner.waiter is None is consumer.bell.waiter
    return check


HAND_OFF_CODE = frozenset(member.__code__ for member in (
    harness._ConsumerThread._serve, harness._ConsumerThread.run,
    harness._ConsumerThread.wait, harness._ConsumerThread.stop))

with open(CHAN_FILE, encoding="utf-8") as source:
    CHAN_CODE = compile(source.read(), CHAN_FILE, "exec")
# what another thread may change: os, and each attribute stored outside an
# __init__ in chan.py or in the hand-off
SHARED = frozenset({"os"}).union(_stored(CHAN_CODE), *map(_stored, HAND_OFF_CODE))


# --- mutants of the wake-up rule ------------------------------------------------

def publish_without_ring(holder, state, bell):
    holder.state = state


def publish_ringing_first(holder, state, bell):
    if bell is not None and bell.waiter is not None:
        bell.ring()
    holder.state = state


def wait_marking_after_its_check(self, op, holder, wanted, watch=None):
    yields = self._yields
    while yields:
        if holder.state == wanted or holder.closed:
            return
        chan.os.sched_yield()
        yields -= 1
    try:
        while holder.state != wanted and not holder.closed:
            self.waiter = ((holder, op), wanted)
            chan.os.read(self._read, chan._DRAIN)
    finally:
        self.waiter = None


MUTANTS = {
    "publish_without_ring": (chan, "publish", publish_without_ring),
    "publish_ringing_first": (chan, "publish", publish_ringing_first),
    "wait_marking_after_its_check": (chan.Doorbell, "wait", wait_marking_after_its_check),
}


# --- tests ------------------------------------------------------------------------

@pytest.fixture
def explorer(monkeypatch):
    # __del__ binds the real os.close: a fake descriptor would reach it
    monkeypatch.setattr(chan.Doorbell, "__del__", lambda self: None)
    real_os = chan.os
    monkeypatch.setattr(chan, "os", real_os)   # each schedule sets its own fake
    yield explore
    # chan.os holds the last schedule, whose consumer thread's scenario keeps
    # its doorbells in a cycle: released, they go in the collection below
    chan.os = real_os
    gc.collect()   # the doorbells of fake pipes go while __del__ is still stubbed


CPUS = pytest.mark.parametrize("one_cpu", [False, True], ids=["two-cpus", "one-cpu"])


# each scenario, and the code beside chan.py it traces
SCENARIOS = {
    probe_exchange: (),
    inject_exchange: (),
    close_while_a_take_sleeps: (),
    reopen_while_a_put_waits: (),
    consumer_hand_off: HAND_OFF_CODE,
    one_doorbell_two_holders: HAND_OFF_CODE,
}


@CPUS
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.__name__)
def test_every_schedule_within_k_preemptions_is_clean(explorer, scenario, one_cpu):
    count, failure, yields = explorer(scenario, one_cpu=one_cpu, traced=SCENARIOS[scenario])
    assert failure is None, failure
    assert count > 1
    assert (yields > 0) == one_cpu   # the doorbells yield on one CPU only


@CPUS
@pytest.mark.parametrize("name", MUTANTS)
def test_each_wake_up_mutant_shows_as_a_lost_wake_up(explorer, monkeypatch, name, one_cpu):
    owner, attribute, mutant = MUTANTS[name]
    monkeypatch.setattr(owner, attribute, mutant)
    # on one CPU a wait keeps the CPU through each of its yields, a preemption
    # each, before it can be preempted between its check and its mark
    count, failure, _ = explorer(probe_exchange, k=chan.YIELDS + 1, one_cpu=one_cpu,
                                 traced={mutant.__code__})
    assert failure is not None and failure.startswith("lost wake-up"), failure


@CPUS
@pytest.mark.parametrize("name", MUTANTS)
def test_each_wake_up_mutant_shows_on_a_shared_doorbell(explorer, monkeypatch, name, one_cpu):
    owner, attribute, mutant = MUTANTS[name]
    monkeypatch.setattr(owner, attribute, mutant)
    if owner is chan:   # the hand-off calls publish as harness imported it
        monkeypatch.setattr(harness, attribute, mutant)
    count, failure, _ = explorer(one_doorbell_two_holders, k=chan.YIELDS + 1, one_cpu=one_cpu,
                                 traced=HAND_OFF_CODE | {mutant.__code__})
    assert failure is not None and failure.startswith("lost wake-up"), failure
