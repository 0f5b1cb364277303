"""Independent brute-force models the tests derive expected values from.

Everything here is deliberately dumb: straight loops and literal
transcriptions, no IR, no channels, no shared code with the package paths
they are used to check.
"""

# the field each writing IR instruction kind writes; the other kinds write none
_WRITTEN_FIELD = {"AddConst": "reg", "AddReg": "dest", "SubFrom": "dest", "SwapCell": "reg"}


def names_by_fields(block):
    """(registers, written registers, ports, cells) of an IR block.

    Reads every declared field (_fields) of every instruction, nested blocks included:
    a tuple field is a block, reg/dest/src/count fields name registers, and
    port and cell fields name ports and cells.
    """
    regs, written, ports, cells = set(), set(), set(), set()
    pending = list(block)
    while pending:
        inst = pending.pop()
        for name in inst._fields:
            value = getattr(inst, name)
            if isinstance(value, tuple):
                pending.extend(value)
            elif name in ("reg", "dest", "src", "count"):
                regs.add(value)
            elif name == "port":
                ports.add(value)
            elif name == "cell":
                cells.add(value)
        written_field = _WRITTEN_FIELD.get(type(inst).__name__)
        if written_field is not None:
            written.add(getattr(inst, written_field))
    return regs, written, ports, cells


def eval_expr(expr, env):
    """Reference interpreter: walk the expression tree; env binds its variables."""
    kind = type(expr).__name__
    if kind == "Const":
        return expr.value
    if kind == "Var":
        return env[expr.name]
    if kind == "Add":
        return eval_expr(expr.left, env) + eval_expr(expr.right, env)
    if kind == "Sub":
        return eval_expr(expr.left, env) - eval_expr(expr.right, env)
    if kind == "Mul":
        return eval_expr(expr.left, env) * eval_expr(expr.right, env)
    return -eval_expr(expr.operand, env)


def unfold_arguments(delta, x0):
    """Descend x0 by delta until non-positive; return (base_arg, ascending h args)."""
    args = []
    current = x0
    while current > 0:
        args.append(current)
        current += delta
    return current, list(reversed(args))


def recursion_by_definition(delta, base_fn, step_fn, x):
    """Literal recursive definition (python callables, call-stack recursion)."""
    if x <= 0:
        return base_fn(x)
    return step_fn(x, recursion_by_definition(delta, base_fn, step_fn, x + delta))


def fold_plan(base_fn, step_fn, base_arg, h_args):
    out = base_fn(base_arg)
    for value in h_args:
        out = step_fn(value, out)
    return out


def phase_a_by_loop(x0, delta):
    """Literal counting loop; returns (g, e, s, final x)."""
    g = e = s = 0
    x = x0
    for _ in range(x0 + 1):
        if x > 0:
            g += 1
        elif x == 0:
            e += 1
        else:
            s += 1
        x += delta
    return g, e, s, x


def producer_by_loop(delta, x0):
    """Straight-line model of the full producer run.

    Mirrors the compiled program's observable behavior: returns the emitted
    values in order, the final register values, and what the inject cell
    holds afterwards (the swap pair trades x0 in against 0 and the leftover
    x back out).
    """
    s = e = g = w = 0
    pdx, pndx = 0, 1
    x, cell = x0, 0
    emitted = []
    w = w + x
    for _ in range(w + 1):
        if x > 0:
            g += 1
        elif x == 0:
            e += 1
        else:
            s += 1
        x += delta
    for _ in range(e):
        pdx = pdx + pndx
        pndx = pdx - pndx
    for _ in range(pdx):
        emitted.append(g)
        for _ in range(w + 1):
            x -= delta
            if x > 0:
                g -= 1
                emitted.append(x)
            elif x == 0:
                e -= 1
                emitted.append(x)
            else:
                s -= 1
    for _ in range(pndx):
        emitted.append(g)
        w += 1
        for _ in range(w + 1):
            x -= delta
            if x > 0:
                g -= 1
                x += delta
                emitted.append(x)
                x -= delta
            elif x == 0:
                e -= 1
            else:
                s -= 1
        w -= 1
    w = w - x
    x, cell = cell, x
    registers = {
        "s": s, "e": e, "g": g, "w": w, "x": x,
        "predDivX": pdx, "predNotDivX": pndx,
    }
    return emitted, registers, cell


def protocol_problems_by_sequence(events):
    """Reference protocol check, written as the literal op sequences.

    Probe traffic must strictly alternate put/get starting with a put, with
    every get returning the value of the put just before it; inject traffic
    must be exactly put, swap_in, swap_out, with swap_in returning the put's
    value. No other channel may carry events.
    """
    problems = []
    probe = [e for e in events if e.channel == "probe"]
    if len(probe) % 2 != 0:
        problems.append(f"probe log has odd length {len(probe)}")
    last_put = None
    for index, event in enumerate(probe):
        expected_op = "put" if index % 2 == 0 else "get"
        if event.op != expected_op:
            problems.append(f"probe event {index} is {event.op}, expected {expected_op}")
            break
        if event.op == "put":
            last_put = event.value
        elif event.value != last_put:
            problems.append(f"probe event {index} got {event.value}, last put was {last_put}")
    inject = [e for e in events if e.channel == "inject"]
    if [e.op for e in inject] != ["put", "swap_in", "swap_out"]:
        problems.append(f"inject ops {[e.op for e in inject]} != ['put', 'swap_in', 'swap_out']")
    elif inject[1].value != inject[0].value:
        problems.append(f"inject swap_in got {inject[1].value}, last put was {inject[0].value}")
    problems.extend(f"event {e.seq} on unknown channel {e.channel}"
                    for e in events if e.channel not in ("probe", "inject"))
    return problems
