import hashlib
import random

import pytest

from recsplit.cli import DEFAULT_PAIRS
from recsplit.producer import (
    TEMP_REGISTERS,
    compile_phase_a,
    compile_producer,
    expected_residuals,
    phase_a_counters,
    residuals_from_store,
    run_sequential,
)
from recsplit.revir import (
    Emit,
    For,
    IfSign,
    PlainCell,
    RecordingSink,
    Store,
    SwapCell,
    discard,
    dump,
    invert,
    run,
)
from recsplit.scheme import NegativeInputError, eval_recursive, make_scheme

from oracles import phase_a_by_loop, producer_by_loop

PAIRS = (("x", "x+y"), ("x+1", "x*y+1"))


# --- phase A counters ---------------------------------------------------------

def test_phase_a_counters_frozen_cases():
    assert phase_a_counters(3, -1) == (3, 1, 0, -1)
    assert phase_a_counters(3, -2) == (2, 0, 2, -5)
    for k in (1, 3, 7):
        assert phase_a_counters(0, -k) == (0, 1, 0, -k)


def test_phase_a_counters_match_brute_loop():
    for delta in range(-7, 0):
        for x0 in range(0, 201):
            g, e, s, x_final = phase_a_by_loop(x0, delta)
            counters = phase_a_counters(x0, delta)
            assert counters == (g, e, s, x_final), (delta, x0)
            assert counters.e == (1 if x0 % -delta == 0 else 0)
            assert counters.s == (x0 + 1) - counters.g - counters.e


def test_phase_a_counters_rejects_bad_inputs():
    with pytest.raises(NegativeInputError):
        phase_a_counters(-1, -1)
    with pytest.raises(ValueError):
        phase_a_counters(3, 0)


def test_phase_a_execution_agrees_with_closed_form():
    for delta in range(-7, 0):
        program = compile_phase_a(make_scheme(delta, "x", "x+y"))
        for x0 in range(0, 201):
            final = run(program, Store({"x": x0}))
            counters = phase_a_counters(x0, delta)
            assert final["g"] == counters.g
            assert final["e"] == counters.e
            assert final["s"] == counters.s
            assert final["x"] == counters.x_final
            assert final["w"] == x0
            assert final["t0"] == 0


# --- one-piece classical executor ---------------------------------------------------

def test_run_sequential_divisible_case():
    y, residuals = run_sequential(make_scheme(-1, "x", "x+y"), 3)
    assert y == 6
    assert residuals == {
        "s": 0, "e": 0, "g": 0, "w": 0, "x": 3, "predDivX": 1, "predNotDivX": 0,
        "divisible": True, "z": 0,
    }


def test_run_sequential_non_divisible_case():
    y, residuals = run_sequential(make_scheme(-2, "x", "x+y"), 3)
    assert y == 3
    assert residuals == {
        "s": 0, "e": 0, "g": -1, "w": -2, "x": 5, "predDivX": 0, "predNotDivX": 1,
        "divisible": False, "z": 0,
    }


def test_run_sequential_base_case():
    scheme = make_scheme(-3, "x+1", "x*y+1")
    y, residuals = run_sequential(scheme, 0)
    assert y == scheme.base.function(0)
    assert residuals["divisible"] is True
    assert (residuals["s"], residuals["e"], residuals["g"], residuals["w"]) == (0, 0, 0, 0)
    assert residuals["x"] == 0
    assert (residuals["predDivX"], residuals["predNotDivX"]) == (1, 0)


def test_run_sequential_rejects_negative():
    with pytest.raises(NegativeInputError):
        run_sequential(make_scheme(-1, "x", "x+y"), -1)


def test_run_sequential_matches_recursion():
    for base, step in PAIRS:
        for delta in range(-5, 0):
            scheme = make_scheme(delta, base, step)
            for x0 in range(0, 120):
                assert run_sequential(scheme, x0)[0] == eval_recursive(scheme, x0)


# --- compiled producer: structure ------------------------------------------------------

def test_compiled_producer_declarations():
    # random_preloads draws in sorted-register order: another set would change `check`
    registers = {"x", "s", "e", "g", "w", "predDivX", "predNotDivX", *TEMP_REGISTERS}
    for delta in (-1, -2, -3, -7):
        program = compile_producer(make_scheme(delta, "x", "x+y"))
        assert program.registers == registers
        assert program.ports == {"probe"}
        assert program.cells == {"inject"}


@pytest.mark.parametrize("delta", range(-7, 0))
def test_producer_depends_only_on_the_displacement(delta):
    # check runs one reversibility suite per delta on this fact
    pairs = (*DEFAULT_PAIRS, ("-x", "y*y-x"))
    programs = [compile_producer(make_scheme(delta, base, step)) for base, step in pairs]
    assert all(program == programs[0] for program in programs)
    assert len({dump(program) for program in programs}) == 1


# sha256 of dump(compile_producer(make_scheme(delta, "x", "x+y"))), delta -7..-1
_DUMP_SHA256 = {
    -7: "6cfeb62dadcd793926100c97c8d3028ee6399a4731f86a0c64c14038f58a4a44",
    -6: "ce59d4f4ed9855c368846bb52b09161df754b33d7c02ef4ecdce9d847552592e",
    -5: "35490229bcbe785c06b9efe9b9894acb8acde843cd1d6fcfc9cde67e49fd1e2c",
    -4: "8feb70757a9243209073fde92a35b80b955bfe6fc045f5474bfb0e5fc9c05f99",
    -3: "1ad49ed6d1cf2b33d2af195e14bd03d3da6ad30101101e2da536e402d1df2a19",
    -2: "83cc593918452fc2596c8f400e934485fbc8795a2211f46529d09a3df6d90e0a",
    -1: "b144cada5995be1b9c3ed60dd7a0844ea0a32e243b36735860cb2dc43de4ea5a",
}


@pytest.mark.parametrize("delta", sorted(_DUMP_SHA256))
def test_producer_dump_is_pinned(delta):
    text = dump(compile_producer(make_scheme(delta, "x", "x+y")))
    assert hashlib.sha256(text.encode()).hexdigest() == _DUMP_SHA256[delta]


def _count_instructions(block, predicate):
    total = 0
    for inst in block:
        if predicate(inst):
            total += 1
        if isinstance(inst, For):
            total += _count_instructions(inst.body, predicate)
        elif isinstance(inst, IfSign):
            for branch in (inst.pos, inst.zero, inst.neg):
                total += _count_instructions(branch, predicate)
    return total


def test_compiled_producer_emits_iteration_count_once_per_branch():
    program = compile_producer(make_scheme(-3, "x", "x+y"))
    emits_of_g = _count_instructions(
        program.body, lambda inst: isinstance(inst, Emit) and inst.reg == "g"
    )
    assert emits_of_g == 2


def test_compiled_producer_swaps_cell_exactly_twice():
    program = compile_producer(make_scheme(-3, "x", "x+y"))
    swaps = _count_instructions(program.body, lambda inst: isinstance(inst, SwapCell))
    assert swaps == 2
    assert isinstance(program.body[1], SwapCell)
    assert isinstance(program.body[-1], SwapCell)


# --- compiled producer: behavior ---------------------------------------------------------

def _run_compiled(delta, x0):
    program = compile_producer(make_scheme(delta, "x", "x+y"))
    sink = RecordingSink()
    cell = PlainCell(x0)
    final = run(program, Store(), sinks={"probe": sink}, cells={"inject": cell})
    return sink.values, final, cell.value


def test_compiled_emissions_frozen_cases():
    emissions, _, cell = _run_compiled(-1, 3)
    assert emissions == [3, 0, 1, 2, 3]
    assert cell == 3
    emissions, _, cell = _run_compiled(-2, 3)
    assert emissions == [2, -1, 1, 3]
    assert cell == 5


def test_compiled_run_matches_straight_line_model():
    for delta in range(-7, 0):
        for x0 in range(0, 60):
            emissions, final, cell = _run_compiled(delta, x0)
            model_emissions, model_registers, model_cell = producer_by_loop(delta, x0)
            assert emissions == model_emissions, (delta, x0)
            assert cell == model_cell, (delta, x0)
            for name, value in model_registers.items():
                assert final[name] == value, (delta, x0, name)
            for name in TEMP_REGISTERS:
                assert final[name] == 0, (delta, x0, name)


def test_divisible_runs_are_clean():
    for delta in range(-7, 0):
        for x0 in range(0, 60, -delta):
            emissions, final, cell = _run_compiled(delta, x0)
            assert final == Store({"predDivX": 1})
            assert cell == x0


def test_non_divisible_runs_leave_known_residuals():
    for delta in range(-7, -1):
        for x0 in range(0, 60):
            if x0 % delta == 0:
                continue
            _, final, cell = _run_compiled(delta, x0)
            report = residuals_from_store(final, x0, delta, inject_cell=cell)
            assert report == expected_residuals(x0, delta)
            assert report["g"] == -1
            assert report["w"] == delta
            assert report["x"] == 0
            assert cell == x0 - delta


def test_expected_residuals_shapes():
    divisible = expected_residuals(6, -3)
    assert divisible["divisible"] is True
    assert divisible["inject"] == 6
    odd = expected_residuals(7, -3)
    assert odd["divisible"] is False
    assert odd["inject"] == 10
    assert (odd["g"], odd["w"]) == (-1, -3)


# --- reversibility ------------------------------------------------------------------------

def _random_store(rng, registers):
    return Store({reg: rng.randint(-8, 8) for reg in registers})


def test_phase_a_prologue_is_reversible():
    rng = random.Random(11)
    for delta in (-1, -2, -5):
        program = compile_phase_a(make_scheme(delta, "x", "x+y"))
        inverse = invert(program)
        for _ in range(100):
            initial = _random_store(rng, program.registers)
            middle = run(program, initial)
            final = run(inverse, middle)
            assert final == initial


def test_full_producer_is_reversible():
    rng = random.Random(23)
    for delta in (-1, -2, -5):
        program = compile_producer(make_scheme(delta, "x", "x+y"))
        inverse = invert(program)
        for _ in range(100):
            initial = _random_store(rng, program.registers)
            cell_value = rng.randint(-8, 8)
            cell = PlainCell(cell_value)
            middle = run(program, initial, sinks={"probe": RecordingSink()}, cells={"inject": cell})
            final = run(inverse, middle, sinks={"probe": discard}, cells={"inject": cell})
            assert final == initial
            assert cell.value == cell_value


def test_invert_involution_on_compiled_program():
    program = compile_producer(make_scheme(-4, "x", "x+y"))
    assert invert(invert(program)) == program
