"""In-memory spans recorded around calls into recsplit's layers.

A span is (span_id, parent_id, op_id, name, start_ns, end_ns). The layer is
the part of the name before the first dot; "bench" is the benchmark's own
loop. Spans are appended to a list and written out once, at the end of a
traced run.

TracedSplit composes the public pieces run_split uses (revir.run on a
producer thread, run_consumer on a consumer thread, a fresh channel pair and
EventLog). With a tracer it puts timing wrappers around every channel
operation, so the traced run can say how long each agent computed and how
long it was blocked; with NULL it runs the same composition bare, which is
the baseline the tracing overhead is taken against.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

from common import ns
from recsplit.chan import EventLog, InjectChannel, ProbeChannel
from recsplit.consumer import ConsumerConfig, run_consumer
from recsplit.revir import Store, run

JOIN_TIMEOUT = 30.0


class Tracer:
    def __init__(self, first_id=1):
        self.spans = []
        self._next_id = itertools.count(first_id).__next__
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, op_id, parent=None):
        stack = self._stack()
        span_id = self._next_id()
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = ns()
        try:
            yield span_id
        finally:
            end = ns()
            stack.pop()
            self.spans.append((span_id, parent, op_id, name, start, end))

    def record(self, name, op_id, parent, start, end):
        """A leaf span timed by the caller (cheaper than span() on hot paths)."""
        self.spans.append((self._next_id(), parent, op_id, name, start, end))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced runs."""

    @contextmanager
    def span(self, name, op_id, parent=None):
        yield 0

    def record(self, name, op_id, parent, start, end):
        pass


NULL = NullTracer()


def self_times_ns(spans) -> dict:
    """Total self time per layer: each span's duration minus the part of it
    covered by its children. Children on other threads count too, so with two
    agents the per-layer sum can exceed wall time."""
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[4], span[5]))
    totals = defaultdict(int)
    for span_id, _parent, _op, name, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name.split(".", 1)[0]] += (end - start) - covered
    return dict(totals)


# --- the traced split run --------------------------------------------------------

class _Timed:
    """Accumulates calls and blocked time for one channel operation and
    records each call as a leaf span under the owning agent's span."""

    def __init__(self, tracer, op_id, name, call):
        self.tracer = tracer
        self.op_id = op_id
        self.name = name
        self.call = call
        self.parent = 0
        self.calls = 0
        self.blocked_ns = 0

    def __call__(self, value):
        start = ns()
        out = self.call(value)
        end = ns()
        self.calls += 1
        self.blocked_ns += end - start
        self.tracer.record(self.name, self.op_id, self.parent, start, end)
        return out


class _SwapCell:
    """Inject cell for the producer: the first swap reads the injected input,
    the second exports the leftover and reopens the channel."""

    def __init__(self, swap_in, swap_out):
        self._swaps = (swap_in, swap_out)
        self._count = 0

    def swap(self, value):
        self._count += 1
        return self._swaps[(self._count - 1) % 2](value)


class TracedSplit:
    """Outputs of one composed split run and, with a tracer, per-agent timings."""

    def __init__(self, tracer, op_id, scheme, program, x0):
        self.error = None
        traced = tracer is not NULL
        log = EventLog()
        probe = ProbeChannel(log)
        inject = InjectChannel(log)

        def wrap(name, call):
            return _Timed(tracer, op_id, name, call) if traced else call

        self.probe_put = wrap("chan.probe.put", probe.put)
        self.swap_in = wrap("chan.inject.swap_in", inject.swap_in)
        self.swap_out = wrap("chan.inject.swap_out", inject.swap_out)
        self.inject_put = wrap("chan.inject.put", inject.put)
        self.probe_get = wrap("chan.probe.get", lambda _unused: probe.get())
        outputs = {}
        lifetimes = {}

        def agent(label, span_name, timed, body):
            def main():
                start = ns()
                try:
                    with tracer.span(span_name, op_id, parent=root) as span_id:
                        if traced:
                            for wrapper in timed:
                                wrapper.parent = span_id
                        outputs[label] = body()
                except Exception as exc:  # reported as a problem of this op
                    outputs[label + "_error"] = exc
                finally:
                    lifetimes[label] = ns() - start
            return threading.Thread(target=main, name=f"traced-{label}", daemon=True)

        with tracer.span("harness.split", op_id) as root:
            threads = [
                agent(
                    "producer",
                    "revir.run",
                    (self.probe_put, self.swap_in, self.swap_out),
                    lambda: run(
                        program,
                        Store(),
                        sinks={"probe": self.probe_put},
                        cells={"inject": _SwapCell(self.swap_in, self.swap_out)},
                    ),
                ),
                agent(
                    "consumer",
                    "consumer.run_consumer",
                    (self.inject_put, self.probe_get),
                    lambda: run_consumer(
                        ConsumerConfig.from_scheme(scheme, x0),
                        SimpleNamespace(put=self.inject_put),
                        SimpleNamespace(get=lambda: self.probe_get(None)),
                    ),
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
        if any(thread.is_alive() for thread in threads):
            self.error = "traced split did not finish"
        for label in ("producer", "consumer"):
            if label + "_error" in outputs:
                exc = outputs[label + "_error"]
                self.error = f"{label} {type(exc).__name__}: {exc}"
        self.y = outputs.get("consumer")
        self.store = outputs.get("producer")
        self.inject_slot = inject.slot
        self.events = log.events()
        self.emissions = [e.value for e in self.events if e.channel == "probe" and e.op == "put"]
        if not traced:
            return
        self.producer_compute_ns = lifetimes.get("producer", 0) - (
            self.probe_put.blocked_ns + self.swap_in.blocked_ns + self.swap_out.blocked_ns
        )
        self.consumer_compute_ns = lifetimes.get("consumer", 0) - (
            self.inject_put.blocked_ns + self.probe_get.blocked_ns
        )
        self.inject_blocked_ns = (
            self.inject_put.blocked_ns + self.swap_in.blocked_ns + self.swap_out.blocked_ns
        )
