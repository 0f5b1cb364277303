"""Recursion schemes over a tiny integer expression language.

This module owns the object being compiled: a base expression b(x), a step
expression h(x, y), and a predecessor that moves x by a fixed negative
displacement. Every expression node compiles to a Python function (see
_Node.function), so the classical half evaluates b and h without walking
the tree. One operator table, _BINARY, is the only statement of
precedence: the parser climbs it and rendering parenthesises by it. The
module also provides the two reference computations the rest of the
toolkit is validated against: direct evaluation of the recursion and the
closed-form prediction of the values the producer must emit.

All arithmetic is on Python integers, so results never wrap or truncate.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple

from .record import Record


class SchemeError(Exception):
    """Base class for scheme-layer errors."""


class ExpressionSyntaxError(SchemeError):
    """Malformed expression text; carries the offending column (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class UndeclaredVariableError(SchemeError):
    """Expression mentions a variable outside the declared set."""

    def __init__(self, name: str, position: int, allowed):
        allowed_text = ", ".join(sorted(allowed)) or "none"
        super().__init__(
            f"undeclared variable {name!r} (column {position}; allowed: {allowed_text})"
        )
        self.name = name
        self.position = position


class NegativeInputError(SchemeError):
    """The iterative machinery only accepts non-negative inputs."""


class SchemeFileError(SchemeError):
    """Malformed scheme fields, from a scheme file or the command line."""


# --- expression AST ---------------------------------------------------------

class _Node(Record):
    """Shared base of the expression nodes; facts derived from a node live on it."""

    __slots__ = ("__dict__",)

    @cached_property
    def function(self):
        """This expression as a Python function f(x, y=None), generated on
        first use and kept on the node."""
        return _generate(self)


class Const(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        self._set(value)


class Var(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self._set(name)


class _Binary(_Node):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Expression, right: Expression):
        self._set(left, right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Neg(_Node):
    __slots__ = _fields = ("operand",)

    def __init__(self, operand: Expression):
        self._set(operand)


Expression = Const | Var | Add | Sub | Mul | Neg

# each binary operator's node class and precedence, higher binding tighter,
# each left-associative; unary minus binds tighter than all of them
_BINARY = {"+": (Add, 1), "-": (Sub, 1), "*": (Mul, 2)}
_SYMBOL = {node: (op, precedence) for op, (node, precedence) in _BINARY.items()}
_NEG_PRECEDENCE = 1 + max(precedence for _, precedence in _BINARY.values())


_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[+\-*()])|(?P<ws>\s+)|(?P<bad>.)"
)


def _scan(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# deepest expression accepted: at most this many operators on any path from
# the root, and at most this many parentheses and minuses open at once while
# parsing; parsing, rendering and compiling all recurse once per level
MAX_EXPR_DEPTH = 100


def _level(depth, pos):
    """depth + 1, unless that crosses MAX_EXPR_DEPTH at column pos."""
    if depth >= MAX_EXPR_DEPTH:
        raise ExpressionSyntaxError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels", pos)
    return depth + 1


class _Parser:
    """Precedence climbing over the operator table _BINARY, with unary minus
    and parentheses in the operand rule.

    Each rule returns (node, depth in operators); open_levels counts the
    parentheses and minuses around it, so a deep nest is refused before it
    recurses.
    """

    def __init__(self, tokens, allowed):
        self._lexemes = tokens
        self._pos = 0
        self._allowed = allowed

    def _peek(self):
        return self._lexemes[self._pos]

    def _advance(self):
        token = self._lexemes[self._pos]
        self._pos += 1
        return token

    def expression(self, open_levels=0, floor=0):
        """Operands joined by the binary operators of precedence floor or above."""
        node, depth = self.operand(open_levels)
        # only an operator token's text can be a key of _BINARY
        _, op, pos = self._peek()
        while op in _BINARY and _BINARY[op][1] >= floor:
            self._advance()
            node_class, precedence = _BINARY[op]
            right, right_depth = self.expression(open_levels, precedence + 1)
            node = node_class(node, right)
            depth = _level(max(depth, right_depth), pos)
            _, op, pos = self._peek()
        return node, depth

    def operand(self, open_levels):
        kind, text, pos = self._advance()
        if kind == "op" and text == "-":
            inner, depth = self.operand(_level(open_levels, pos))
            return Neg(inner), _level(depth, pos)
        if kind == "int":
            try:
                return Const(int(text)), 0
            except ValueError:   # past the interpreter's int/str digit limit
                raise ExpressionSyntaxError(
                    f"integer literal of {len(text)} digits is too long", pos
                ) from None
        if kind == "name":
            if text not in self._allowed:
                raise UndeclaredVariableError(text, pos, self._allowed)
            return Var(text), 0
        if kind == "op" and text == "(":
            node, depth = self.expression(_level(open_levels, pos))
            kind, text, close_pos = self._advance()
            if not (kind == "op" and text == ")"):
                raise ExpressionSyntaxError("expected ')'", close_pos)
            return node, depth
        if kind == "end":
            raise ExpressionSyntaxError("unexpected end of expression", pos)
        raise ExpressionSyntaxError(f"unexpected {text!r}", pos)


def parse_expr(text: str, allowed_vars) -> Expression:
    """Parse an integer expression using only the variables in allowed_vars.

    Deeper than MAX_EXPR_DEPTH is an error at the column that crosses it."""
    parser = _Parser(_scan(text), frozenset(allowed_vars))
    node, _ = parser.expression()
    kind, tok, pos = parser._peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"unexpected {tok!r}", pos)
    return node


def pretty(expr: Expression) -> str:
    """Render with minimal parentheses; parse_expr(pretty(e)) rebuilds e."""
    return _render(expr, 0, _leaf_text)


def _leaf_text(leaf):
    return str(leaf.value) if isinstance(leaf, Const) else leaf.name


def _render(expr, context, leaf_text):
    """Text of expr inside an operand slot of precedence context (0 at the
    top), parenthesised as the operator table _BINARY, which this language
    shares with Python, requires; leaf_text gives the text of a Const or a Var."""
    if isinstance(expr, (Const, Var)):
        return leaf_text(expr)
    if isinstance(expr, Neg):   # binds tightest, so is never parenthesised
        return f"-{_render(expr.operand, _NEG_PRECEDENCE, leaf_text)}"
    if type(expr) not in _SYMBOL:
        raise TypeError(f"not an expression node: {expr!r}")
    op, mine = _SYMBOL[type(expr)]
    text = f"{_render(expr.left, mine, leaf_text)} {op} {_render(expr.right, mine + 1, leaf_text)}"
    return f"({text})" if mine < context else text


def _generate(expr: Expression):
    """Compile expr to `lambda x, y=None: ...`.

    Constants are bound as names c0, c1, ..., never rendered as literals, so
    neither a digit limit nor foreign text reaches compile(). A variable
    other than x and y and a constant that is not an int are refused first.
    """
    consts = {}

    def leaf_text(leaf):
        if isinstance(leaf, Var):
            if leaf.name not in ("x", "y"):
                raise ValueError(f"expression may only use x and y, found {leaf.name!r}")
            return "x" if leaf.name == "x" else "y"   # only text written here
        if type(leaf.value) is not int:
            raise TypeError(f"constant must be an int, got {leaf.value!r}")
        name = f"c{len(consts)}"
        consts[name] = leaf.value
        return name

    text = _render(expr, 0, leaf_text)
    return eval(compile(f"lambda x, y=None: {text}", "<expression>", "eval"),
                {"__builtins__": {}, **consts})


def variables(expr: Expression) -> frozenset:
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return variables(expr.operand)
    return variables(expr.left) | variables(expr.right)


# --- schemes ----------------------------------------------------------------

def check_variables(base: Expression, step: Expression):
    """Reject a base that uses more than x or a step that uses more than x and y."""
    extra = variables(base) - {"x"}
    if extra:
        raise ValueError(f"base may only use x, found {sorted(extra)}")
    extra = variables(step) - {"x", "y"}
    if extra:
        raise ValueError(f"step may only use x and y, found {sorted(extra)}")


def check_input(x0: int):
    """Reject a negative input: the iterative machinery only takes x0 >= 0."""
    if x0 < 0:
        raise NegativeInputError(f"input must be non-negative, got {x0}")


class PredecessorSpec(Record):
    """Constant-displacement predecessor: pred(x) = x + delta, delta <= -1."""

    __slots__ = _fields = ("delta",)

    def __init__(self, delta: int):
        if delta > -1:
            raise ValueError(f"predecessor displacement must be <= -1, got {delta}")
        self._set(delta)

    def pred(self, x: int) -> int:
        return x + self.delta

    def pred_inv(self, x: int) -> int:
        return x - self.delta


class RecursionScheme(Record):
    """base over {x}, step over {x, y}, base case taken whenever x <= 0."""

    __slots__ = _fields = ("pred", "base", "step")

    def __init__(self, pred: PredecessorSpec, base: Expression, step: Expression):
        check_variables(base, step)
        self._set(pred, base, step)


def make_scheme(delta: int, base: str, step: str) -> RecursionScheme:
    """Build a scheme from expression text."""
    return RecursionScheme(
        pred=PredecessorSpec(delta),
        base=parse_expr(base, {"x"}),
        step=parse_expr(step, {"x", "y"}),
    )


def eval_recursive(scheme: RecursionScheme, x: int) -> int:
    """Direct value of the recursion at x.

    Implemented as a descend-then-fold loop rather than call-stack recursion,
    so sweeps to large x cannot exhaust the stack; the value is identical to
    the recursive definition (base at x <= 0, step above). The descent is
    range(x, 0, -d), the ceil(x / d) arguments above 0 (counted without
    len(), which refuses more than sys.maxsize), and it ends at the first
    value <= 0, which the base receives; the fold applies step to those
    arguments from the last one back, through the compiled functions.
    """
    d = -scheme.pred.delta
    steps = max(0, -(-x // d))
    step = scheme.step.function
    y = scheme.base.function(x - steps * d)
    for value in reversed(range(x, 0, -d)):
        y = step(value, y)
    return y


class EmissionPlan(NamedTuple):
    iterations: int
    base_arg: int
    h_args: tuple


def expected_emissions(scheme: RecursionScheme, x: int) -> EmissionPlan:
    """Predict what the producer must hand to the consumer for input x >= 0.

    iterations is the number of step applications, base_arg the (non-positive)
    argument the base function receives, and h_args the step arguments in the
    ascending order they are consumed. Folding step left-to-right over h_args
    starting from base(base_arg) reproduces eval_recursive(scheme, x).
    """
    check_input(x)
    d = -scheme.pred.delta
    iterations = -(-x // d)
    base_arg = x - iterations * d
    h_args = tuple(x - k * d for k in range(iterations - 1, -1, -1))
    return EmissionPlan(iterations, base_arg, h_args)


# --- scheme files -----------------------------------------------------------

_SCHEME_KEYS = ("delta", "base", "step")


def parse_scheme_text(text: str) -> dict:
    """Parse `key = value` lines (# starts a comment) into raw string fields."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemeFileError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _SCHEME_KEYS:
            raise SchemeFileError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise SchemeFileError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    return fields


def scheme_from_fields(fields) -> RecursionScheme:
    """Build a scheme from raw delta/base/step text, as a scheme file and
    the command line give it; every rejection is a SchemeError."""
    missing = [key for key in _SCHEME_KEYS if key not in fields]
    if missing:
        raise SchemeFileError(f"missing scheme field(s): {', '.join(missing)}")
    try:
        delta = int(fields["delta"])
    except ValueError:
        raise SchemeFileError(f"delta must be an integer, got {fields['delta']!r}") from None
    try:
        return make_scheme(delta, fields["base"], fields["step"])
    except ValueError as exc:
        raise SchemeFileError(str(exc)) from None
