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

Each instruction class holds its kind's rules, next to its fields: the
names it references and can write (_names), its inverse (_inverse, itself
unless the kind overrides it), its effect on a store (_run) and its text
(_dump). The walks over a block only loop over its instructions. One walk,
_names, finds the registers a block references and can write and its ports
and cells; every name check reads it, and it alone rejects a
non-instruction with TypeError. RevProgram(body) walks its body once:
a name set left out declares exactly the names of that kind the body uses,
and a name set given must cover them. Every program, an inverse too, is
built by that one constructor.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Mapping

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

class Instruction(Record):
    """One instruction. Each kind states its own rules here: the names it
    adds to the sets (_names), its syntactic inverse (_inverse), its effect
    on a store (_run) and its lines of text (_dump)."""

    __slots__ = ()

    def _inverse(self) -> Instruction:
        # SubFrom, Emit and SwapCell are their own inverses
        return self


class AddConst(Instruction):
    """reg := reg + amount."""

    __slots__ = _fields = ("reg", "amount")

    def __init__(self, reg: RegisterId, amount: int):
        self._set(reg, amount)

    def _names(self, regs, written, ports, cells):
        regs.add(self.reg)
        written.add(self.reg)

    def _inverse(self):
        return AddConst(self.reg, -self.amount)

    def _run(self, store, sinks, cells):
        store[self.reg] += self.amount

    def _dump(self, indent):
        return [f"{indent}add {self.reg}, {self.amount}"]


class AddReg(Instruction):
    """dest := dest + sign * src; the registers must differ."""

    __slots__ = _fields = ("dest", "src", "sign")

    def __init__(self, dest: RegisterId, src: RegisterId, sign: int = 1):
        if dest == src:
            raise ValueError(f"AddReg needs distinct registers, got {dest!r} twice")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self._set(dest, src, sign)

    def _names(self, regs, written, ports, cells):
        regs.add(self.dest)
        regs.add(self.src)
        written.add(self.dest)

    def _inverse(self):
        return AddReg(self.dest, self.src, -self.sign)

    def _run(self, store, sinks, cells):
        store[self.dest] += self.sign * store[self.src]

    def _dump(self, indent):
        sign = "+" if self.sign > 0 else "-"
        return [f"{indent}addreg {self.dest}, {self.src}, {sign}"]


class SubFrom(Instruction):
    """dest := src - dest (self-inverse); the registers must differ."""

    __slots__ = _fields = ("dest", "src")

    def __init__(self, dest: RegisterId, src: RegisterId):
        if dest == src:
            raise ValueError(f"SubFrom needs distinct registers, got {dest!r} twice")
        self._set(dest, src)

    def _names(self, regs, written, ports, cells):
        regs.add(self.dest)
        regs.add(self.src)
        written.add(self.dest)

    def _run(self, store, sinks, cells):
        store[self.dest] = store[self.src] - store[self.dest]

    def _dump(self, indent):
        return [f"{indent}subfrom {self.dest}, {self.src}"]


class For(Instruction):
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

    def _names(self, regs, written, ports, cells):
        regs.add(self.count)
        _names(self.body, regs, written, ports, cells)

    def _inverse(self):
        return For(self.count, self.inverted_body)

    def _run(self, store, sinks, cells):
        if self.writes_count:
            raise LoopCountMutation(f"loop body writes its count register {self.count!r}")
        count = store[self.count]
        body = self.body if count >= 0 else self.inverted_body
        for _ in range(abs(count)):
            for inst in body:
                inst._run(store, sinks, cells)

    def _dump(self, indent):
        return [f"{indent}for {self.count} {{", *_dump_block(self.body, indent + "  "), f"{indent}}}"]


class IfSign(Instruction):
    """Dispatch on the sign of reg; the chosen branch must preserve it."""

    __slots__ = _fields = ("reg", "pos", "zero", "neg")

    def __init__(self, reg: RegisterId, pos: tuple = (), zero: tuple = (), neg: tuple = ()):
        self._set(reg, tuple(pos), tuple(zero), tuple(neg))

    def _names(self, regs, written, ports, cells):
        regs.add(self.reg)
        for branch in (self.pos, self.zero, self.neg):
            _names(branch, regs, written, ports, cells)

    def _inverse(self):
        return IfSign(self.reg, *(invert_block(branch) for branch in (self.pos, self.zero, self.neg)))

    def _run(self, store, sinks, cells):
        before = _sign(store[self.reg])
        branch = self.pos if before > 0 else self.zero if before == 0 else self.neg
        for inst in branch:
            inst._run(store, sinks, cells)
        after = _sign(store[self.reg])
        if after != before:
            raise BranchSignViolation(f"branch changed sign of {self.reg!r} ({before} -> {after})")

    def _dump(self, indent):
        lines = [f"{indent}ifsign {self.reg} {{"]
        for label, branch in (("pos", self.pos), ("zero", self.zero), ("neg", self.neg)):
            lines += [f"{indent}  {label} {{", *_dump_block(branch, indent + "    "), f"{indent}  }}"]
        return [*lines, f"{indent}}}"]


class Emit(Instruction):
    """Send a copy of reg to a port; registers are untouched."""

    __slots__ = _fields = ("port", "reg")

    def __init__(self, port: str, reg: RegisterId):
        self._set(port, reg)

    def _names(self, regs, written, ports, cells):
        ports.add(self.port)
        regs.add(self.reg)

    def _run(self, store, sinks, cells):
        sinks[self.port](store[self.reg])

    def _dump(self, indent):
        return [f"{indent}emit {self.port}, {self.reg}"]


class SwapCell(Instruction):
    """Exchange reg with the named external cell."""

    __slots__ = _fields = ("cell", "reg")

    def __init__(self, cell: str, reg: RegisterId):
        self._set(cell, reg)

    def _names(self, regs, written, ports, cells):
        cells.add(self.cell)
        regs.add(self.reg)
        written.add(self.reg)

    def _run(self, store, sinks, cells):
        store[self.reg] = cells[self.cell].swap(store[self.reg])

    def _dump(self, indent):
        return [f"{indent}swapcell {self.cell}, {self.reg}"]


def _names(block, regs, written, ports, cells):
    # fills the sets from block and every block nested in it
    for inst in block:
        if not isinstance(inst, Instruction):
            raise TypeError(f"not an instruction: {inst!r}")
        inst._names(regs, written, ports, cells)


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

def invert_block(block: tuple) -> tuple:
    return tuple(inst._inverse() for inst in reversed(block))


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
    for inst in program.body:
        inst._run(work, sinks, cells)
    return work


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


# --- textual dump -------------------------------------------------------------

def dump(program: RevProgram) -> str:
    """One instruction per line, nested blocks indented. Not re-parsed."""
    return "\n".join(_dump_block(program.body, ""))


def _dump_block(block, indent):
    return [line for inst in block for line in inst._dump(indent)]
