"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The expensive part (the full split sweep: inputs 0..200, displacements
-7..-1, both function pairs) runs once per session and is shared by the
criteria that read it. Run with -s to see the per-criterion lines.
"""

import pytest

from recsplit.harness import (
    channel_protocol_problems,
    check_reversibility,
    random_preloads,
    run_split,
    sweep,
)
from recsplit.producer import (
    compile_phase_a,
    compile_producer,
    expected_residuals,
    phase_a_counters,
)
from recsplit.revir import (
    AddConst,
    For,
    IfSign,
    BranchSignViolation,
    LoopCountMutation,
    RevProgram,
    Store,
    invert,
    run,
)
from recsplit.scheme import expected_emissions, make_scheme

from oracles import phase_a_by_loop, producer_by_loop, recursion_by_definition

PAIRS = (("x", "x+y"), ("x+1", "x*y+1"))
# the pairs as Python functions, for the independent recursive oracle
PAIR_FUNCTIONS = {
    ("x", "x+y"): (lambda x: x, lambda x, y: x + y),
    ("x+1", "x*y+1"): (lambda x: x + 1, lambda x, y: x * y + 1),
}
DELTAS = range(-7, 0)
INPUTS = range(0, 201)
WATCHDOG = 5.0


@pytest.fixture(scope="session")
def full_sweep():
    return sweep(INPUTS, DELTAS, PAIRS, timeout=WATCHDOG)


def _recursive_y(case):
    return recursion_by_definition(case.delta, *PAIR_FUNCTIONS[case.base, case.step], case.x0)


def _report(number, label, passed):
    print(f"[criterion {number}] {label}: {'PASS' if passed else 'FAIL'}")


def test_criterion_1_split_equals_recursion(full_sweep):
    bad = [
        case
        for case in full_sweep.cases
        if case.error is not None or case.split_y != _recursive_y(case)
    ]
    _report(1, "split result equals recursive value on the full sweep", not bad)
    assert not bad, bad[:5]


def test_criterion_2_mode_agreement(full_sweep):
    bad = [
        case
        for case in full_sweep.cases
        if case.error is not None
        or not (case.sequential_y == case.split_y == _recursive_y(case))
    ]
    _report(2, "sequential, split, and recursive values agree", not bad)
    assert not bad, bad[:5]


def test_criterion_3_counter_relations():
    bad = []
    for delta in DELTAS:
        phase_a = compile_phase_a(make_scheme(delta, "x", "x+y"))
        for x0 in INPUTS:
            closed = phase_a_counters(x0, delta)
            brute = phase_a_by_loop(x0, delta)
            observed_store = run(phase_a, Store({"x": x0}))
            observed = (
                observed_store["g"],
                observed_store["e"],
                observed_store["s"],
                observed_store["x"],
            )
            divisible = x0 % -delta == 0
            if not (tuple(closed) == brute == observed and closed.e == int(divisible)):
                bad.append((delta, x0, closed, brute, observed))
    _report(3, "counter relations match closed form and executed phase A", not bad)
    assert not bad, bad[:5]


def test_criterion_4_emission_conformity(full_sweep):
    bad = [case for case in full_sweep.cases if not case.emissions_ok]
    specific_ok = (
        run_split(make_scheme(-1, "x", "x+y"), 3).emissions == [3, 0, 1, 2, 3]
        and run_split(make_scheme(-2, "x", "x+y"), 3).emissions == [2, -1, 1, 3]
    )
    passed = not bad and specific_ok
    _report(4, "emissions are iteration count, base arg, then step args", passed)
    assert not bad, bad[:5]
    assert specific_ok


def test_criterion_5_reversibility():
    passed = True
    detail = []
    for base, step in PAIRS:
        for delta in DELTAS:
            program = compile_producer(make_scheme(delta, base, step))
            if invert(invert(program)) != program:
                passed = False
                detail.append((base, step, delta, "involution"))
                continue
            preloads = random_preloads(program, 100, seed=1000 + delta)
            report = check_reversibility(program, preloads)
            if not report.all_ok:
                passed = False
                detail.append((base, step, delta, report.failures[:3]))
    _report(5, "forward-then-inverse restores 100 random preloads per program", passed)
    assert passed, detail


def test_criterion_6_residual_conformity(full_sweep):
    bad = [case for case in full_sweep.cases if not case.residuals_ok]
    # the constants themselves, re-derived from the straight-line model
    frozen_ok = True
    for delta in DELTAS:
        for x0 in range(0, 40):
            _, registers, cell = producer_by_loop(delta, x0)
            expected = expected_residuals(x0, delta)
            model = dict(registers)
            if x0 % delta == 0:
                want = {"s": 0, "e": 0, "g": 0, "w": 0, "x": 0,
                        "predDivX": 1, "predNotDivX": 0}
                frozen_ok &= model == want and cell == x0 == expected["inject"]
            else:
                want = {"s": 0, "e": 0, "g": -1, "w": delta, "x": 0,
                        "predDivX": 0, "predNotDivX": 1}
                frozen_ok &= model == want and cell == x0 - delta == expected["inject"]
    passed = not bad and frozen_ok
    _report(6, "divisible runs are clean; the rest leave g=-1, w=delta", passed)
    assert not bad, bad[:5]
    assert frozen_ok


def test_criterion_7_channel_protocol(full_sweep):
    bad = [
        case
        for case in full_sweep.cases
        if not case.protocol_ok
        or case.handshakes != expected_emissions(
            make_scheme(case.delta, case.base, case.step), case.x0
        ).iterations + 2
        or case.wall_time >= WATCHDOG
    ]
    sample = run_split(make_scheme(-3, "x", "x+y"), 10)
    sample_ok = channel_protocol_problems(sample.channel_log) == []
    passed = not bad and sample_ok
    _report(7, "strict alternation, iteration+2 handshakes, no watchdog hits", passed)
    assert not bad, bad[:5]
    assert sample_ok


def test_criterion_8_discipline_enforcement():
    sign_flipper = RevProgram(
        (AddConst("a", 1), IfSign("a", pos=(AddConst("a", -2),)),)
    )
    count_writer = RevProgram(
        (AddConst("n", 2), For("n", (AddConst("n", 1),)),)
    )
    caught_sign = caught_count = False
    try:
        run(sign_flipper)
    except BranchSignViolation:
        caught_sign = True
    try:
        run(count_writer)
    except LoopCountMutation:
        caught_count = True
    passed = caught_sign and caught_count
    _report(8, "sign flips and count writes abort with their own errors", passed)
    assert caught_sign
    assert caught_count


def test_criterion_9_worked_example():
    scheme = make_scheme(-1, "x", "x+y")
    b, h = scheme.base.function, scheme.step.function
    unfolded = h(3, h(2, h(1, b(0))))
    report = run_split(scheme, 3)
    step_applications = report.emissions[0]
    passed = report.y == unfolded == 6 and step_applications == 3
    _report(9, "input 3 with unit displacement gives 6 via 3 step applications", passed)
    assert report.y == 6
    assert unfolded == 6
    assert step_applications == 3
    # the consumer performed exactly iterations + 2 gets
    gets = [e for e in report.channel_log if e.channel == "probe" and e.op == "get"]
    assert len(gets) == 5
