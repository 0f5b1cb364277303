"""The producer side: counter relations, the one-piece classical executor,
and the compiler from a recursion scheme to the reversible producer program.

The compiled producer never evaluates base or step. It counts how the input's
trajectory under the predecessor relates to zero (phase A), then walks the
trajectory back up, emitting the argument values the consumer needs: first
the iteration count, then the base argument, then each step argument in
ascending order. Input and leftover x travel through the inject cell via the
two swaps at the very start and very end.

A run's residual fingerprint is its final registers: the values it leaves
in RESIDUAL_REGISTERS and the temps, with the inject cell's. A correct run
leaves the expected final store that expected_residuals reads them from.
"""

from __future__ import annotations

from typing import NamedTuple

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
# the run's fingerprint, in print order: these registers' final values
RESIDUAL_REGISTERS = ("s", "e", "g", "w", "x", "predDivX", "predNotDivX")


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


def run_sequential(scheme: RecursionScheme, x0: int):
    """One-piece classical executor; returns (y, residuals): the final
    registers, then divisible and z.

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
    div_x, not_div_x = 0, 1
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
        div_x = div_x + not_div_x
        not_div_x = div_x - not_div_x
    for _ in range(div_x):
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
    for _ in range(not_div_x):
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
    for _ in range(not_div_x):
        z -= 1
    w = w - x
    residuals = dict(zip(RESIDUAL_REGISTERS, (s, e, g, w, x, div_x, not_div_x)),
                     divisible=x0 % delta == 0, z=z)
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
    counter, _, _ = TEMP_REGISTERS
    classify = (
        IfSign(
            "x",
            pos=(AddConst("g", 1),),
            zero=(AddConst("e", 1),),
            neg=(AddConst("s", 1),),
        ),
        AddConst("x", delta),
    )
    return (AddReg("w", "x", 1), *_loop_w_plus_one(counter, classify))


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
    _, divisible_counter, non_divisible_counter = TEMP_REGISTERS
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
            (Emit(PROBE_PORT, "g"), *_loop_w_plus_one(divisible_counter, divisible_inner)),
        ),
        For(
            "predNotDivX",
            (
                Emit(PROBE_PORT, "g"),
                AddConst("w", 1),
                *_loop_w_plus_one(non_divisible_counter, non_divisible_inner),
                AddConst("w", -1),
            ),
        ),
        AddReg("w", "x", -1),
        SwapCell(INJECT_CELL, "x"),
    )
    return RevProgram(body)


def residuals_from_store(store: Store, x0: int, delta: int, inject_cell: int) -> dict:
    """The compiled producer's leftovers: the residual registers of its final
    store, whether delta divides x0, the temps, and the inject cell's value."""
    residuals = {name: store[name] for name in RESIDUAL_REGISTERS}
    residuals["divisible"] = x0 % delta == 0
    residuals.update((name, store[name]) for name in TEMP_REGISTERS)
    residuals[INJECT_CELL] = inject_cell
    return residuals


def expected_residuals(x0: int, delta: int) -> dict:
    """The leftovers of the final store a correct compiled run must leave.

    Divisible runs are fully clean and export the input through the cell;
    the rest leave the fixed fingerprint g = -1, w = delta and export
    x0 - delta.
    """
    if x0 % delta == 0:
        return residuals_from_store(Store({"predDivX": 1}), x0, delta, inject_cell=x0)
    final = Store({"g": -1, "w": delta, "predNotDivX": 1})
    return residuals_from_store(final, x0, delta, inject_cell=x0 - delta)
