import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from recsplit import revir
from recsplit.revir import (
    AddConst,
    AddReg,
    BranchSignViolation,
    Emit,
    For,
    IfSign,
    Instruction,
    LoopCountMutation,
    PlainCell,
    RecordingSink,
    RevProgram,
    Store,
    SubFrom,
    SwapCell,
    UndeclaredNameError,
    discard,
    dump,
    invert,
    invert_block,
    run,
    written_registers,
)
from recsplit.producer import compile_producer
from recsplit.scheme import Add, Const, PredecessorSpec, Var, make_scheme

from oracles import names_by_fields

REGS = ("a", "b", "c", "n", "m")


# --- construction -----------------------------------------------------------------

def test_addreg_rejects_same_register():
    with pytest.raises(ValueError):
        AddReg("a", "a")


def test_addreg_rejects_bad_sign():
    with pytest.raises(ValueError):
        AddReg("a", "b", 2)


def test_subfrom_rejects_same_register():
    with pytest.raises(ValueError):
        SubFrom("a", "a")


def test_program_rejects_undeclared_names():
    with pytest.raises(UndeclaredNameError):
        RevProgram((AddConst("a", 1),), registers=frozenset())
    with pytest.raises(UndeclaredNameError):
        RevProgram((Emit("out", "a"),), registers=frozenset({"a"}), ports=frozenset())
    with pytest.raises(UndeclaredNameError):
        RevProgram((SwapCell("cell", "a"),), registers=frozenset({"a"}), cells=frozenset())


def test_constructor_declares_exactly_what_is_used():
    program = RevProgram(
        (For("n", (IfSign("a", pos=(Emit("out", "b"),)),)), SwapCell("cell", "c"))
    )
    assert program.registers == {"n", "a", "b", "c"}
    assert program.ports == {"out"}
    assert program.cells == {"cell"}


def test_constructor_without_names_declares_the_names_it_finds():
    body = (For("n", (IfSign("a", pos=(Emit("out", "b"),)),)), SwapCell("cell", "c"))
    assert RevProgram(body) == RevProgram(body, {"n", "a", "b", "c"}, {"out"}, {"cell"})


def test_a_program_walks_its_body_once(monkeypatch):
    walks = []   # every block _names is called on, nested ones too
    real_names = revir._names

    def names(block, *sets):
        walks.append(block)
        real_names(block, *sets)

    monkeypatch.setattr(revir, "_names", names)
    body = (For("n", (IfSign("a", pos=(Emit("out", "b"),)),)), SwapCell("cell", "c"))
    for build in (lambda: RevProgram(body), lambda: compile_producer(make_scheme(-3, "x", "x+y"))):
        walks.clear()
        program = build()
        assert sum(block is program.body for block in walks) == 1


# --- inversion ----------------------------------------------------------------------

def test_invert_addconst():
    assert invert_block((AddConst("a", -1),)) == (AddConst("a", 1),)


def test_invert_for_inverts_body():
    assert invert_block((For("n", (AddConst("a", -2),)),)) == (
        For("n", (AddConst("a", 2),)),
    )


def test_invert_reverses_order_and_flips_signs():
    block = (AddConst("a", 3), AddReg("b", "a", 1), SubFrom("c", "a"))
    assert invert_block(block) == (
        SubFrom("c", "a"),
        AddReg("b", "a", -1),
        AddConst("a", -3),
    )


def test_invert_ifsign_inverts_each_branch():
    inst = IfSign("a", pos=(AddConst("b", 1), Emit("out", "b")), neg=(SubFrom("b", "c"),))
    inverted = invert_block((inst,))[0]
    assert inverted == IfSign(
        "a", pos=(Emit("out", "b"), AddConst("b", -1)), zero=(), neg=(SubFrom("b", "c"),)
    )


def test_emit_and_swapcell_are_self_inverse():
    block = (Emit("out", "a"), SwapCell("cell", "b"))
    assert invert_block(invert_block(block)) == block
    assert invert_block(block) == (SwapCell("cell", "b"), Emit("out", "a"))


# --- generated programs ----------------------------------------------------------------

@st.composite
def _blocks(draw, depth, forbidden, regs=REGS):
    length = draw(st.integers(0, 3))
    return tuple(draw(_instructions(depth, forbidden, regs)) for _ in range(length))


@st.composite
def _instructions(draw, depth, forbidden, regs):
    kinds = ["addconst", "addreg", "subfrom", "emit", "swapcell"]
    if depth > 0:
        kinds += ["for", "ifsign"]
    kind = draw(st.sampled_from(kinds))
    writable = [r for r in regs if r not in forbidden]
    if kind == "addconst":
        return AddConst(draw(st.sampled_from(writable)), draw(st.integers(-3, 3)))
    if kind == "addreg":
        dest = draw(st.sampled_from(writable))
        src = draw(st.sampled_from([r for r in regs if r != dest]))
        return AddReg(dest, src, draw(st.sampled_from((1, -1))))
    if kind == "subfrom":
        dest = draw(st.sampled_from(writable))
        src = draw(st.sampled_from([r for r in regs if r != dest]))
        return SubFrom(dest, src)
    if kind == "emit":
        return Emit("out", draw(st.sampled_from(regs)))
    if kind == "swapcell":
        return SwapCell("cell", draw(st.sampled_from(writable)))
    if kind == "for":
        count = draw(st.sampled_from(regs))
        return For(count, draw(_blocks(depth - 1, forbidden | {count}, regs)))
    return IfSign(
        draw(st.sampled_from(regs)),
        pos=draw(_blocks(depth - 1, forbidden, regs)),
        zero=draw(_blocks(depth - 1, forbidden, regs)),
        neg=draw(_blocks(depth - 1, forbidden, regs)),
    )


# the most instructions a generated block may run from a store of _stores():
# a loop counting on a register that an earlier loop doubled every pass
# would otherwise run for hours
_MAX_STEPS = 2000


def _steps_left(block, bounds, budget):
    """Lower bound of budget less the instructions block runs, from registers
    and the cell (key None) no larger in magnitude than bounds, which it
    raises to the magnitudes block may leave; negative once past budget."""
    for inst in block:
        budget -= 1
        if budget < 0:
            return budget
        if isinstance(inst, AddConst):
            bounds[inst.reg] += abs(inst.amount)
        elif isinstance(inst, (AddReg, SubFrom)):
            bounds[inst.dest] += bounds[inst.src]
        elif isinstance(inst, SwapCell):
            bounds[inst.reg], bounds[None] = bounds[None], bounds[inst.reg]
        elif isinstance(inst, For):
            # each pass is a step, an empty one too; a negative count runs
            # the inverted body, which moves values as far
            for _ in range(bounds[inst.count]):
                budget = _steps_left(inst.body, bounds, budget - 1)
                if budget < 0:
                    return budget
        elif isinstance(inst, IfSign):
            branches = [dict(bounds) for _ in range(3)]
            budget = min(_steps_left(branch, out, budget)
                         for branch, out in zip((inst.pos, inst.zero, inst.neg), branches))
            bounds.update({key: max(out[key] for out in branches) for key in bounds})
    return budget


def _bounded(block, **bounds):
    """Whether block runs at most _MAX_STEPS instructions from registers and a
    cell of magnitude 3 at most, or as given in bounds."""
    start = {**dict.fromkeys(REGS, 3), None: 3, **bounds}
    return _steps_left(block, start, _MAX_STEPS) >= 0


def _programs():
    return _blocks(depth=2, forbidden=frozenset()).filter(_bounded).map(RevProgram)


def _stores():
    return st.fixed_dictionaries({reg: st.integers(-3, 3) for reg in REGS})


@given(program=_programs())
def test_invert_is_an_involution(program):
    assert invert(invert(program)) == program


@given(program=_programs(), preload=_stores(), cell_value=st.integers(-3, 3))
@settings(max_examples=150)
def test_forward_then_inverse_restores_state(program, preload, cell_value):
    initial = Store(preload)
    cell = PlainCell(cell_value)
    forward, inverse = RecordingSink(), RecordingSink()
    try:
        middle = run(program, initial, sinks={"out": forward}, cells={"cell": cell})
    except BranchSignViolation:
        assume(False)
    final = run(invert(program), middle, sinks={"out": inverse}, cells={"cell": cell})
    assert final == initial
    assert cell.value == cell_value
    # the inverse passes each point of the forward run, in reverse order
    assert inverse.values == forward.values[::-1]


@given(program=_programs(), preload=_stores(), cell_value=st.integers(-3, 3))
def test_emissions_never_change_state(program, preload, cell_value):
    def strip(block):
        out = []
        for inst in block:
            if isinstance(inst, Emit):
                continue
            if isinstance(inst, For):
                inst = For(inst.count, strip(inst.body))
            elif isinstance(inst, IfSign):
                inst = IfSign(
                    inst.reg, strip(inst.pos), strip(inst.zero), strip(inst.neg)
                )
            out.append(inst)
        return tuple(out)

    cell_a, cell_b = PlainCell(cell_value), PlainCell(cell_value)
    try:
        with_emits = run(
            program, Store(preload), sinks={"out": discard}, cells={"cell": cell_a}
        )
    except BranchSignViolation:
        assume(False)
    stripped = RevProgram(strip(program.body))
    without_emits = run(
        stripped, Store(preload), sinks={"out": discard}, cells={"cell": cell_b}
    )
    assert with_emits == without_emits
    assert cell_a.value == cell_b.value


@given(
    body=_blocks(depth=1, forbidden=frozenset(), regs=("a", "b", "c", "m")).filter(
        lambda body: _bounded((For("n", body),), n=4)),
    count=st.integers(-4, 4),
    preload=_stores(),
    cell_value=st.integers(-3, 3),
)
def test_for_negation_duality(body, count, preload, cell_value):
    # the body never touches n, so only n itself may differ between the runs
    preload = dict(preload, n=0)
    cell_a, cell_b = PlainCell(cell_value), PlainCell(cell_value)
    store_a = Store(dict(preload, n=-count))
    store_b = Store(dict(preload, n=count))
    try:
        final_a = run(
            RevProgram((For("n", body),)),
            store_a, sinks={"out": discard}, cells={"cell": cell_a},
        )
    except BranchSignViolation:
        assume(False)
    final_b = run(
        RevProgram((For("n", invert_block(body)),)),
        store_b, sinks={"out": discard}, cells={"cell": cell_b},
    )
    assert {r: final_a[r] for r in REGS if r != "n"} == {
        r: final_b[r] for r in REGS if r != "n"
    }
    assert cell_a.value == cell_b.value


# --- interpreter basics -------------------------------------------------------------------

def test_run_addconst():
    final = run(RevProgram((AddConst("a", 5),)))
    assert final["a"] == 5


def test_run_loop_unrolls():
    final = run(
        RevProgram((AddConst("n", 3), For("n", (AddConst("b", 2),))))
    )
    assert final["b"] == 6
    assert final["n"] == 3


def test_run_negative_count_runs_inverted_body():
    final = run(
        RevProgram((AddConst("n", -2), For("n", (AddConst("b", 1),))))
    )
    assert final["b"] == -2


def test_for_reads_count_once():
    # the body may write a different loop's count without affecting this one
    final = run(
        RevProgram(
            (AddConst("n", 3), For("n", (AddConst("m", 1),)), For("m", (AddConst("a", 1),)))
        )
    )
    assert final["m"] == 3
    assert final["a"] == 3


def test_loop_count_mutation_aborts():
    program = RevProgram((AddConst("n", 2), For("n", (AddConst("n", 1),))))
    with pytest.raises(LoopCountMutation):
        run(program)


def test_loop_count_mutation_is_structural():
    # even a branch that would not run at this store counts as a write
    program = RevProgram(
        (AddConst("n", 1), For("n", (IfSign("a", pos=(AddConst("n", 1),)),)))
    )
    with pytest.raises(LoopCountMutation):
        run(program)


def test_invert_is_built_once_per_program():
    loop = For("n", (AddConst("a", 1),))
    program = RevProgram((AddConst("n", 2), loop))
    assert invert(program) is invert(program)
    assert loop.inverted_body is loop.inverted_body


def test_copies_carry_no_kept_fact():
    # a kept inverse is no field: copies and pickles rebuild the program from its fields
    program = RevProgram((AddConst("n", 2), For("n", (AddConst("a", 1),))))
    assert vars(program) == {"_inverse": invert(program)}
    for twin in (copy.copy(program), pickle.loads(pickle.dumps(program))):
        assert twin == program and hash(twin) == hash(program)
        assert vars(twin) == {}


def test_invert_keeps_unused_declarations():
    program = RevProgram((AddConst("a", 1),), {"a", "spare"}, {"out"}, {"cell"})
    inverse = invert(program)
    assert inverse.body == (AddConst("a", -1),)
    assert (inverse.registers, inverse.ports, inverse.cells) == ({"a", "spare"}, {"out"}, {"cell"})


def test_loop_facts_are_freed_with_the_program():
    # a loop's count check and inverted body live on the loop, in no module cache
    inst = AddConst("a", 104_729)
    program = RevProgram((AddConst("n", -2), For("n", (inst, AddReg("b", "a")))))
    assert run(invert(program), run(program)) == Store()
    freed = weakref.ref(inst)
    del inst, program
    gc.collect()
    assert freed() is None


_SAME_FIELDS = (SubFrom("a", "b"), Emit("a", "b"), SwapCell("a", "b"))


@pytest.mark.parametrize(
    "record",
    [
        *_SAME_FIELDS,
        For("n", (AddConst("a", 1),)),
        Add(Var("x"), Const(1)),
        RevProgram((AddConst("a", 1),)),
        Const(3),
        PredecessorSpec(-2),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_read_only_and_equal_within_one_kind(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and hash(twin) == hash(record)
    # kinds with equal fields stay apart, in a set too
    assert len(set(_SAME_FIELDS)) == 3
    assert [type(other) for other in _SAME_FIELDS if other == record] == [
        type(other) for other in _SAME_FIELDS if type(other) is type(record)
    ]
    shown = repr(record)
    assert shown.startswith(f"{type(record).__name__}({field}=")
    assert "writes_count" not in shown


def test_each_kind_states_its_own_rules():
    kinds = set(Instruction.__subclasses__())
    assert kinds == {AddConst, AddReg, SubFrom, For, IfSign, Emit, SwapCell}
    for kind in kinds:
        assert {"_names", "_run", "_dump"} <= vars(kind).keys(), kind
    assert {kind for kind in kinds if "_inverse" not in vars(kind)} == {SubFrom, Emit, SwapCell}


def test_written_registers_sees_through_nesting():
    block = (For("n", (IfSign("a", neg=(SwapCell("cell", "b"),)),)),)
    assert written_registers(block) == {"b"}


def _loops(block):
    for inst in block:
        if isinstance(inst, For):
            yield inst
            yield from _loops(inst.body)
        elif isinstance(inst, IfSign):
            for branch in (inst.pos, inst.zero, inst.neg):
                yield from _loops(branch)


@given(program=_programs())
@settings(max_examples=200)
def test_names_match_a_walk_over_every_field(program):
    regs, written, ports, cells = names_by_fields(program.body)
    assert (program.registers, program.ports, program.cells) == (regs, ports, cells)
    assert written_registers(program.body) == written
    # the inverse is declared without a second walk: its body must agree
    inverse = invert(program)
    assert (inverse.registers, inverse.ports, inverse.cells) == (regs, ports, cells)
    assert names_by_fields(inverse.body) == (regs, written, ports, cells)
    for loop in _loops(program.body):
        assert loop.writes_count == (loop.count in names_by_fields(loop.body)[1])


@pytest.mark.parametrize(
    "build",
    [RevProgram, lambda body: For("n", body), written_registers],
    ids=["RevProgram", "For", "written_registers"],
)
def test_every_name_check_rejects_a_non_instruction(build):
    with pytest.raises(TypeError, match="not an instruction"):
        build((AddConst("a", 1), IfSign("a", neg=("emit out, a",))))


def test_ifsign_dispatch():
    body = (
        IfSign("a", pos=(AddConst("b", 1),), zero=(AddConst("c", 1),), neg=(AddConst("b", -1),)),
    )
    assert run(RevProgram(body), Store({"a": 5}))["b"] == 1
    assert run(RevProgram(body), Store({"a": 0}))["c"] == 1
    assert run(RevProgram(body), Store({"a": -5}))["b"] == -1


def test_ifsign_sign_flip_aborts():
    program = RevProgram((IfSign("a", pos=(AddConst("a", -10),)),))
    with pytest.raises(BranchSignViolation):
        run(program, Store({"a": 3}))


@pytest.mark.parametrize("start, amount, signs", [(5, -10, "1 -> -1"), (0, 3, "0 -> 1"), (-4, 4, "-1 -> 0")])
def test_a_sign_violation_names_the_signs_not_the_values(start, amount, signs):
    branch = (AddConst("a", amount),)
    program = RevProgram((IfSign("a", pos=branch, zero=branch, neg=branch),))
    with pytest.raises(BranchSignViolation, match=rf"^branch changed sign of 'a' \({signs}\)$"):
        run(program, Store({"a": start}))


def test_ifsign_allows_value_change_with_same_sign():
    program = RevProgram((IfSign("a", pos=(AddConst("a", 7),)),))
    assert run(program, Store({"a": 3}))["a"] == 10


def test_ifsign_allows_temporary_moves():
    # the value may cross zero mid-branch as long as it is restored
    program = RevProgram(
        (IfSign("a", pos=(AddConst("a", -5), Emit("out", "a"), AddConst("a", 5))),)
    )
    sink = RecordingSink()
    final = run(program, Store({"a": 2}), sinks={"out": sink})
    assert final["a"] == 2
    assert sink.values == [-3]


def test_emit_sends_copies_in_order():
    sink = RecordingSink()
    program = RevProgram(
        (AddConst("a", 4), Emit("out", "a"), AddConst("a", -1), Emit("out", "a"))
    )
    run(program, sinks={"out": sink})
    assert sink.values == [4, 3]


def test_swapcell_exchanges_and_is_self_inverse():
    cell = PlainCell(9)
    program = RevProgram((AddConst("a", 2), SwapCell("cell", "a")))
    final = run(program, cells={"cell": cell})
    assert final["a"] == 9
    assert cell.value == 2
    # swapping twice restores both sides
    twice = RevProgram((SwapCell("cell", "a"), SwapCell("cell", "a")))
    cell = PlainCell(7)
    final = run(twice, Store({"a": 1}), cells={"cell": cell})
    assert final["a"] == 1
    assert cell.value == 7


def test_run_does_not_mutate_input_store():
    store = Store({"a": 1})
    run(RevProgram((AddConst("a", 5),)), store)
    assert store["a"] == 1


def test_run_requires_bindings():
    program = RevProgram((Emit("out", "a"),))
    with pytest.raises(ValueError):
        run(program)
    program = RevProgram((SwapCell("cell", "a"),))
    with pytest.raises(ValueError):
        run(program)


# --- store ------------------------------------------------------------------------------

def test_store_defaults_to_zero():
    store = Store()
    assert store["anything"] == 0


def test_store_drops_zero_entries():
    store = Store({"a": 1})
    store["a"] = 0
    assert store == Store()
    assert store.as_dict() == {}
    # != is the negation of ==, not dict's comparison of every key
    assert (Store({"a": 1}) != Store()) is True
    assert (Store({"a": 0}) != Store()) is False
    assert repr(Store({"a": 0, "b": 2})) == "Store(b=2)"


def test_store_copy_is_independent():
    store = Store({"a": 1})
    other = store.copy()
    other["a"] = 2
    assert store["a"] == 1
    assert type(other) is Store
    assert type(run(RevProgram((AddConst("a", 5),)), store)) is Store


def test_run_takes_a_plain_mapping_as_its_store():
    program = RevProgram((AddConst("a", 1), AddConst("b", 2)))
    registers = {"a": 1}
    final = run(program, registers)
    assert final == run(program, Store(registers))
    assert registers == {"a": 1}
    assert type(final) is Store


# --- dump --------------------------------------------------------------------------------

def test_dump_format():
    program = RevProgram(
        (
            AddConst("x", -1),
            For("t", (Emit("probe", "g"),)),
            IfSign("x", pos=(AddReg("w", "x", 1),), neg=(SubFrom("a", "b"),)),
            SwapCell("inject", "x"),
        )
    )
    assert dump(program) == "\n".join(
        [
            "add x, -1",
            "for t {",
            "  emit probe, g",
            "}",
            "ifsign x {",
            "  pos {",
            "    addreg w, x, +",
            "  }",
            "  zero {",
            "  }",
            "  neg {",
            "    subfrom a, b",
            "  }",
            "}",
            "swapcell inject, x",
        ]
    )
