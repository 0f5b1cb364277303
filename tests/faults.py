"""Fault patches for a split run, each caught by the post-run checks of
harness.CASE_CHECKS it names. Each takes a pytest monkeypatch, so the patch
ends with the test; the sweep and the command line both run under them.
"""

from recsplit import chan, harness
from recsplit.producer import compile_producer
from recsplit.revir import AddConst, RevProgram


def extra_add(monkeypatch):
    """A producer that leaves s at 1 and is otherwise correct: residuals."""
    monkeypatch.setattr(harness, "compile_producer",
                        lambda scheme: RevProgram((*compile_producer(scheme).body, AddConst("s", 1))))


def sequential_off_by_one(monkeypatch):
    """A one-piece classical run one above the recursion: sequential."""
    real = harness.run_sequential

    def run_sequential(scheme, x0):
        y, residuals = real(scheme, x0)
        return y + 1, residuals

    monkeypatch.setattr(harness, "run_sequential", run_sequential)


def edit_plan(monkeypatch, edit):
    """Patch the checker's emission plan to edit(plan)."""
    real = harness.expected_emissions
    monkeypatch.setattr(harness, "expected_emissions", lambda scheme, x0: edit(real(scheme, x0)))


def base_argument_off_plan(monkeypatch):
    """A plan whose base argument is one lower: emissions."""
    edit_plan(monkeypatch, lambda plan: plan._replace(base_arg=plan.base_arg - 1))


def plan_one_iteration_longer(monkeypatch):
    """A plan with one more step: emissions and handshakes. The handshakes are
    the emissions counted, so a count off the plan's is also a list off it."""
    edit_plan(monkeypatch, lambda plan: plan._replace(iterations=plan.iterations + 1,
                                                      h_args=(*plan.h_args, plan.h_args[-1] + 1)))


def drop_inject_put(monkeypatch):
    """A log that loses the inject put while the channels still work: protocol."""
    real = chan.EventLog.record

    def record(self, channel, op, value):
        if (channel, op) != ("inject", "put"):
            real(self, channel, op, value)

    monkeypatch.setattr(chan.EventLog, "record", record)


# each fault, and the checks it fails in CASE_CHECKS order
FAULTS = {
    extra_add: ["residuals"],
    sequential_off_by_one: ["sequential"],
    base_argument_off_plan: ["emissions"],
    plan_one_iteration_longer: ["emissions", "handshakes"],
    drop_inject_put: ["protocol"],
}
