"""The producer side: counter relations, the one-piece classical executor,
and the compiler from a recursion scheme to the reversible producer program.

The compiled producer never evaluates base or step. It counts how the input's
trajectory under the predecessor relates to zero (phase A), then walks the
trajectory back up, emitting the argument values the consumer needs: first
the iteration count, then the base argument, then each step argument in
ascending order. Input and leftover x travel through the inject cell via the
two swaps at the very start and very end.
"""

from __future__ import annotations

from typing import NamedTuple

from .record import Record
from .revir import (
    AddConst,
    AddReg,
    Emit,
    For,
    IfSign,
    RevProgram,
    Store,
    SubFrom,
    SwapCell,
)
from .scheme import PredecessorSpec, RecursionScheme, check_input

PROBE_PORT = "probe"
INJECT_CELL = "inject"
TEMP_REGISTERS = ("t0", "t1", "t2")


class PhaseACounters(NamedTuple):
    g: int
    e: int
    s: int
    x_final: int


def phase_a_counters(x0: int, delta: int) -> PhaseACounters:
    """Closed form for the counting loop on input x0 >= 0.

    Of the x0+1 trajectory values x0, x0+delta, ..., x0+(x0)*delta, g are
    positive, e equal to zero (1 exactly when delta divides x0, else 0), and
    s negative; x lands on x0 + (x0+1)*delta.
    """
    check_input(x0)
    PredecessorSpec(delta)  # rejects delta > -1
    g = -(x0 // delta)
    e = 1 if x0 % delta == 0 else 0
    s = (x0 + 1) - g - e
    x_final = x0 + (x0 + 1) * delta
    return PhaseACounters(g, e, s, x_final)


class ResidualReport(Record):
    """Register leftovers after a full run: the run's cleanliness fingerprint.

    z only exists in the classical executor; temps and inject_cell only in
    compiled runs.
    """

    __slots__ = _fields = ("s", "e", "g", "w", "x", "pred_div_x", "pred_not_div_x",
                           "divisible", "z", "temps", "inject_cell")

    def __init__(self, s: int, e: int, g: int, w: int, x: int, pred_div_x: int,
                 pred_not_div_x: int, divisible: bool, z: int | None = None,
                 temps: dict | None = None, inject_cell: int | None = None):
        self._set(s, e, g, w, x, pred_div_x, pred_not_div_x, divisible, z,
                  {} if temps is None else temps, inject_cell)

    def to_text(self) -> str:
        """Flat `key = value` block."""
        lines = [
            f"s = {self.s}",
            f"e = {self.e}",
            f"g = {self.g}",
            f"w = {self.w}",
            f"x = {self.x}",
            f"predDivX = {self.pred_div_x}",
            f"predNotDivX = {self.pred_not_div_x}",
            f"divisible = {'yes' if self.divisible else 'no'}",
        ]
        if self.z is not None:
            lines.append(f"z = {self.z}")
        for name in sorted(self.temps):
            lines.append(f"{name} = {self.temps[name]}")
        if self.inject_cell is not None:
            lines.append(f"inject = {self.inject_cell}")
        return "\n".join(lines)


def run_sequential(scheme: RecursionScheme, x0: int):
    """One-piece classical executor; returns (y, residuals).

    This transcribes the iterative algorithm directly, including the z
    bookkeeping the non-divisible branch uses to decide between base and
    step, and performs no cleanup beyond what the algorithm itself does.
    It is kept out of the reversible IR on purpose: the inner selection on z
    increments z inside its own zero branch, which the IR's sign discipline
    forbids.
    """
    check_input(x0)
    delta = scheme.pred.delta
    base, step = scheme.base.function, scheme.step.function
    s = e = g = w = 0
    z = 0
    pred_div_x, pred_not_div_x = 0, 1
    x = x0
    y = 0
    w = w + x
    for _ in range(w + 1):
        if x > 0:
            g += 1
        elif x == 0:
            e += 1
        else:
            s += 1
        x = scheme.pred.pred(x)
    for _ in range(e):
        pred_div_x = pred_div_x + pred_not_div_x
        pred_not_div_x = pred_div_x - pred_not_div_x
    for _ in range(pred_div_x):
        for _ in range(w + 1):
            x = scheme.pred.pred_inv(x)
            if x > 0:
                g -= 1
                y = step(x, y)
            elif x == 0:
                e -= 1
                y = base(x)
            else:
                s -= 1
    for _ in range(pred_not_div_x):
        w += 1
        for _ in range(w + 1):
            x = scheme.pred.pred_inv(x)
            if x > 0:
                g -= 1
                x = scheme.pred.pred(x)
                if z < 0:
                    pass
                elif z == 0:
                    y = base(x)
                    z += 1
                else:
                    y = step(x, y)
                x = scheme.pred.pred_inv(x)
            elif x == 0:
                e -= 1
            else:
                s -= 1
        w -= 1
    for _ in range(pred_not_div_x):
        z -= 1
    w = w - x
    residuals = ResidualReport(
        s=s,
        e=e,
        g=g,
        w=w,
        x=x,
        pred_div_x=pred_div_x,
        pred_not_div_x=pred_not_div_x,
        divisible=x0 % delta == 0,
        z=z,
    )
    return y, residuals


# --- compilation ---------------------------------------------------------------

def _loop_w_plus_one(temp, body):
    # encodes a loop of w+1 iterations; temp must be 0 here and w must stay
    # constant while temp is live, so temp returns to 0
    return (
        AddReg(temp, "w", 1),
        AddConst(temp, 1),
        For(temp, body),
        AddConst(temp, -1),
        AddReg(temp, "w", -1),
    )


def _phase_a(delta):
    classify = (
        IfSign(
            "x",
            pos=(AddConst("g", 1),),
            zero=(AddConst("e", 1),),
            neg=(AddConst("s", 1),),
        ),
        AddConst("x", delta),
    )
    return (AddReg("w", "x", 1), *_loop_w_plus_one("t0", classify))


def compile_phase_a(scheme: RecursionScheme) -> RevProgram:
    """Just compile_producer's counting prologue: w := w + x, then classify the trajectory."""
    return RevProgram(_phase_a(scheme.pred.delta))


def compile_producer(scheme: RecursionScheme) -> RevProgram:
    """Compile the full reversible producer; only the displacement matters.

    Structure: swap the input in through the inject cell, run phase A, swap
    the divisibility flags if the trajectory touched zero, then exactly one
    of the two emitting branches runs (the divisible one replays the
    trajectory upward emitting at zero and above; the other widens the loop
    by one, stepping each positive value down before emitting it), and
    finally the leftover x is swapped back out.
    """
    delta = scheme.pred.delta
    divisible_inner = (
        AddConst("x", -delta),
        IfSign(
            "x",
            pos=(AddConst("g", -1), Emit(PROBE_PORT, "x")),
            zero=(AddConst("e", -1), Emit(PROBE_PORT, "x")),
            neg=(AddConst("s", -1),),
        ),
    )
    non_divisible_inner = (
        AddConst("x", -delta),
        IfSign(
            "x",
            pos=(
                AddConst("g", -1),
                AddConst("x", delta),
                Emit(PROBE_PORT, "x"),
                AddConst("x", -delta),
            ),
            zero=(AddConst("e", -1),),
            neg=(AddConst("s", -1),),
        ),
    )
    body = (
        AddConst("predNotDivX", 1),
        SwapCell(INJECT_CELL, "x"),
        *_phase_a(delta),
        For("e", (AddReg("predDivX", "predNotDivX", 1), SubFrom("predNotDivX", "predDivX"))),
        For(
            "predDivX",
            (Emit(PROBE_PORT, "g"), *_loop_w_plus_one("t1", divisible_inner)),
        ),
        For(
            "predNotDivX",
            (
                Emit(PROBE_PORT, "g"),
                AddConst("w", 1),
                *_loop_w_plus_one("t2", non_divisible_inner),
                AddConst("w", -1),
            ),
        ),
        AddReg("w", "x", -1),
        SwapCell(INJECT_CELL, "x"),
    )
    return RevProgram(body)


def residuals_from_store(
    store: Store, x0: int, delta: int, inject_cell: int | None = None
) -> ResidualReport:
    """Read the compiled producer's leftovers out of its final store."""
    return ResidualReport(
        s=store["s"],
        e=store["e"],
        g=store["g"],
        w=store["w"],
        x=store["x"],
        pred_div_x=store["predDivX"],
        pred_not_div_x=store["predNotDivX"],
        divisible=x0 % delta == 0,
        temps={name: store[name] for name in TEMP_REGISTERS},
        inject_cell=inject_cell,
    )


def expected_residuals(x0: int, delta: int) -> ResidualReport:
    """The leftovers a correct compiled run must show.

    Divisible runs are fully clean and export the input through the cell;
    the rest leave the fixed fingerprint g = -1, w = delta and export
    x0 - delta.
    """
    temps = {name: 0 for name in TEMP_REGISTERS}
    if x0 % delta == 0:
        return ResidualReport(
            s=0, e=0, g=0, w=0, x=0,
            pred_div_x=1, pred_not_div_x=0,
            divisible=True, temps=temps, inject_cell=x0,
        )
    return ResidualReport(
        s=0, e=0, g=-1, w=delta, x=0,
        pred_div_x=0, pred_not_div_x=1,
        divisible=False, temps=temps, inject_cell=x0 - delta,
    )
