"""A small reversible intermediate representation.

Programs are finite sequences of instructions, every one of which has a
syntactic inverse, so a whole program is inverted by inverting each
instruction and reversing the order. The interpreter enforces the two
disciplines that make that inversion a semantic inverse:

* a loop body must not write its own count register (the count is read once
  at loop entry; negative counts run the inverted body);
* a sign selection must leave the sign of its discriminator unchanged - the
  value may move while the branch runs, as long as the sign is restored.

Emissions are observations, not state: an emit sends a copy of a register
to a port and inverts to itself, so inverse runs are checked against a
discarding sink. Cell swaps exchange a register with named external state
and are their own inverse.

The module holds no state. Instructions and programs are read-only records
(record.Record): two nodes are equal only when they are of one kind with
equal fields. A fact derived from a node lives on the node: a For
records at construction whether its body writes its count, and a For's
inverted body or a RevProgram's inverse is built on first use and kept
(functools.cached_property).

The register file, Store, is a dict in which a register never written
reads as 0; only its non-zero registers count when stores are compared.

One walk, _names, finds the registers a block references and can write and
its ports and cells; every name check reads it, and it rejects a
non-instruction with TypeError. RevProgram(body) walks its body once:
a name set left out declares exactly the names of that kind the body uses,
and a name set given must cover them. Every program, an inverse too, is
built by that one constructor.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Mapping, Union

from .record import Record

RegisterId = str


class RevirError(Exception):
    """Base class for IR-layer errors."""


class LoopCountMutation(RevirError):
    """A loop body writes the loop's own count register."""


class BranchSignViolation(RevirError):
    """A selection branch changed the sign of its discriminator."""


class UndeclaredNameError(RevirError):
    """A program references a register, port, or cell it does not declare."""


# --- instructions -----------------------------------------------------------

class AddConst(Record):
    """reg := reg + amount."""

    __slots__ = _fields = ("reg", "amount")

    def __init__(self, reg: RegisterId, amount: int):
        self._set(reg, amount)


class AddReg(Record):
    """dest := dest + sign * src; the registers must differ."""

    __slots__ = _fields = ("dest", "src", "sign")

    def __init__(self, dest: RegisterId, src: RegisterId, sign: int = 1):
        if dest == src:
            raise ValueError(f"AddReg needs distinct registers, got {dest!r} twice")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self._set(dest, src, sign)


class SubFrom(Record):
    """dest := src - dest (self-inverse); the registers must differ."""

    __slots__ = _fields = ("dest", "src")

    def __init__(self, dest: RegisterId, src: RegisterId):
        if dest == src:
            raise ValueError(f"SubFrom needs distinct registers, got {dest!r} twice")
        self._set(dest, src)


class For(Record):
    """Run body count-register-value times; a negative count runs the
    inverted body that many times. The body must not write the count."""

    _fields = ("count", "body")
    # writes_count is checked when the loop is reached, so building such a
    # loop is no error
    __slots__ = _fields + ("writes_count", "__dict__")

    def __init__(self, count: RegisterId, body: tuple):
        body = tuple(body)
        self._set(count, body)
        object.__setattr__(self, "writes_count", count in written_registers(body))

    @cached_property
    def inverted_body(self) -> tuple:
        """invert_block(body), built on first use and kept on the node."""
        return invert_block(self.body)


class IfSign(Record):
    """Dispatch on the sign of reg; the chosen branch must preserve it."""

    __slots__ = _fields = ("reg", "pos", "zero", "neg")

    def __init__(self, reg: RegisterId, pos: tuple = (), zero: tuple = (), neg: tuple = ()):
        self._set(reg, tuple(pos), tuple(zero), tuple(neg))


class Emit(Record):
    """Send a copy of reg to a port; registers are untouched."""

    __slots__ = _fields = ("port", "reg")

    def __init__(self, port: str, reg: RegisterId):
        self._set(port, reg)


class SwapCell(Record):
    """Exchange reg with the named external cell."""

    __slots__ = _fields = ("cell", "reg")

    def __init__(self, cell: str, reg: RegisterId):
        self._set(cell, reg)


Instruction = Union[AddConst, AddReg, SubFrom, For, IfSign, Emit, SwapCell]


def _names(block, regs, written, ports, cells):
    # fills the sets from block and every block nested in it
    for inst in block:
        if isinstance(inst, AddConst):
            regs.add(inst.reg)
            written.add(inst.reg)
        elif isinstance(inst, (AddReg, SubFrom)):
            regs.add(inst.dest)
            regs.add(inst.src)
            written.add(inst.dest)
        elif isinstance(inst, For):
            regs.add(inst.count)
            _names(inst.body, regs, written, ports, cells)
        elif isinstance(inst, IfSign):
            regs.add(inst.reg)
            for branch in (inst.pos, inst.zero, inst.neg):
                _names(branch, regs, written, ports, cells)
        elif isinstance(inst, Emit):
            ports.add(inst.port)
            regs.add(inst.reg)
        elif isinstance(inst, SwapCell):
            cells.add(inst.cell)
            regs.add(inst.reg)
            written.add(inst.reg)
        else:
            raise TypeError(f"not an instruction: {inst!r}")


class RevProgram(Record):
    """An instruction sequence plus the names it is allowed to touch.

    A name set left out (None) declares exactly the names of that kind the
    body uses; one given must include them, or UndeclaredNameError.
    """

    _fields = ("body", "registers", "ports", "cells")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, body: tuple, registers: frozenset | None = None,
                 ports: frozenset | None = None, cells: frozenset | None = None):
        body = tuple(body)
        used = (set(), set(), set())   # registers, ports, cells
        _names(body, used[0], set(), used[1], used[2])
        declared = [frozenset(found if names is None else names)
                    for found, names in zip(used, (registers, ports, cells))]
        for kind, found, names in zip(("register", "port", "cell"), used, declared):
            undeclared = found - names
            if undeclared:
                raise UndeclaredNameError(f"undeclared {kind}(s): {sorted(undeclared)}")
        self._set(body, *declared)

    @cached_property
    def _inverse(self) -> RevProgram:
        return RevProgram(invert_block(self.body), self.registers, self.ports, self.cells)


# --- inversion ---------------------------------------------------------------

def invert_instruction(inst: Instruction) -> Instruction:
    if isinstance(inst, AddConst):
        return AddConst(inst.reg, -inst.amount)
    if isinstance(inst, AddReg):
        return AddReg(inst.dest, inst.src, -inst.sign)
    if isinstance(inst, For):
        return For(inst.count, inst.inverted_body)
    if isinstance(inst, IfSign):
        return IfSign(
            inst.reg,
            invert_block(inst.pos),
            invert_block(inst.zero),
            invert_block(inst.neg),
        )
    # SubFrom, Emit, SwapCell are their own inverses
    return inst


def invert_block(block: tuple) -> tuple:
    return tuple(invert_instruction(inst) for inst in reversed(block))


def invert(program: RevProgram) -> RevProgram:
    """Syntactic inverse: same declarations, inverted body; built once per program."""
    return program._inverse


def written_registers(block: tuple) -> frozenset:
    """Registers any instruction in block (at any nesting depth) can write."""
    written = set()
    _names(block, set(), written, set(), set())
    return frozenset(written)


# --- state and execution ------------------------------------------------------

class Store(dict):
    """Total register file: any register reads as 0 until written.

    Only the non-zero registers count: as_dict, equality and repr drop the
    zero ones, so a store whose registers were all returned to 0 compares
    equal to a fresh one.
    """

    __slots__ = ()

    def __missing__(self, reg: RegisterId) -> int:
        return 0

    def copy(self) -> "Store":
        return Store(self)

    def as_dict(self) -> dict:
        """Non-zero registers only."""
        return {reg: value for reg, value in self.items() if value}

    def __eq__(self, other):
        if not isinstance(other, Store):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __ne__(self, other):
        # dict's own != would count the zero registers
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self):
        inside = ", ".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
        return f"Store({inside})"


class PlainCell:
    """In-memory cell: swap trades the held value for the caller's."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def swap(self, value: int) -> int:
        out = self.value
        self.value = value
        return out

    def __repr__(self):
        return f"PlainCell({self.value})"


def discard(value: int) -> None:
    """Sink that drops every emission."""


class RecordingSink(Record):
    """Sink that keeps every emitted value in order, in its values list."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: list | None = None):
        self._set([] if values is None else values)

    def __call__(self, value: int):
        self.values.append(value)


def run(
    program: RevProgram,
    store: Store | None = None,
    sinks: Mapping[str, Callable[[int], None]] | None = None,
    cells=None,
) -> Store:
    """Execute program and return the final store.

    The input store is copied, not modified. Every declared port needs a sink
    callable and every declared cell an object with swap(value) -> value;
    channel-backed sinks and cells may block, which is their caller's
    contract, not the interpreter's.
    """
    work = store.copy() if store is not None else Store()
    sinks = dict(sinks or {})
    cells = dict(cells or {})
    missing = program.ports - sinks.keys()
    if missing:
        raise ValueError(f"no sink bound for port(s): {sorted(missing)}")
    missing = program.cells - cells.keys()
    if missing:
        raise ValueError(f"no binding for cell(s): {sorted(missing)}")
    _run_block(program.body, work, sinks, cells)
    return work


def _run_block(block, store, sinks, cells):
    for inst in block:
        if isinstance(inst, AddConst):
            store[inst.reg] = store[inst.reg] + inst.amount
        elif isinstance(inst, AddReg):
            store[inst.dest] = store[inst.dest] + inst.sign * store[inst.src]
        elif isinstance(inst, SubFrom):
            store[inst.dest] = store[inst.src] - store[inst.dest]
        elif isinstance(inst, For):
            if inst.writes_count:
                raise LoopCountMutation(
                    f"loop body writes its count register {inst.count!r}"
                )
            count = store[inst.count]
            body = inst.body if count >= 0 else inst.inverted_body
            for _ in range(abs(count)):
                _run_block(body, store, sinks, cells)
        elif isinstance(inst, IfSign):
            before = _sign(store[inst.reg])
            if before > 0:
                branch = inst.pos
            elif before == 0:
                branch = inst.zero
            else:
                branch = inst.neg
            _run_block(branch, store, sinks, cells)
            if _sign(store[inst.reg]) != before:
                raise BranchSignViolation(
                    f"branch changed sign of {inst.reg!r} "
                    f"({before} -> {_sign(store[inst.reg])})"
                )
        elif isinstance(inst, Emit):
            sinks[inst.port](store[inst.reg])
        elif isinstance(inst, SwapCell):
            store[inst.reg] = cells[inst.cell].swap(store[inst.reg])
        else:
            raise TypeError(f"not an instruction: {inst!r}")


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


# --- textual dump -------------------------------------------------------------

def dump(program: RevProgram) -> str:
    """One instruction per line, nested blocks indented. Not re-parsed."""
    return "\n".join(_dump_block(program.body, ""))


def _dump_block(block, indent):
    lines = []
    for inst in block:
        if isinstance(inst, AddConst):
            lines.append(f"{indent}add {inst.reg}, {inst.amount}")
        elif isinstance(inst, AddReg):
            sign = "+" if inst.sign > 0 else "-"
            lines.append(f"{indent}addreg {inst.dest}, {inst.src}, {sign}")
        elif isinstance(inst, SubFrom):
            lines.append(f"{indent}subfrom {inst.dest}, {inst.src}")
        elif isinstance(inst, For):
            lines.append(f"{indent}for {inst.count} {{")
            lines.extend(_dump_block(inst.body, indent + "  "))
            lines.append(f"{indent}}}")
        elif isinstance(inst, IfSign):
            lines.append(f"{indent}ifsign {inst.reg} {{")
            for label, branch in (("pos", inst.pos), ("zero", inst.zero), ("neg", inst.neg)):
                lines.append(f"{indent}  {label} {{")
                lines.extend(_dump_block(branch, indent + "    "))
                lines.append(f"{indent}  }}")
            lines.append(f"{indent}}}")
        elif isinstance(inst, Emit):
            lines.append(f"{indent}emit {inst.port}, {inst.reg}")
        elif isinstance(inst, SwapCell):
            lines.append(f"{indent}swapcell {inst.cell}, {inst.reg}")
    return lines
