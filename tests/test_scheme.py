import sys

import pytest
from hypothesis import given, strategies as st

from recsplit import scheme as scheme_module
from recsplit.scheme import (
    Add,
    Const,
    MAX_EXPR_DEPTH,
    ExpressionSyntaxError,
    Mul,
    Neg,
    NegativeInputError,
    PredecessorSpec,
    RecursionScheme,
    SchemeFileError,
    Sub,
    UndeclaredVariableError,
    Var,
    eval_recursive,
    expected_emissions,
    make_scheme,
    parse_expr,
    parse_scheme_text,
    pretty,
    scheme_from_fields,
    variables,
)

from oracles import eval_expr, fold_plan, recursion_by_definition, unfold_arguments


# --- parsing ------------------------------------------------------------------

def test_parse_addition():
    assert parse_expr("x+y", {"x", "y"}) == Add(Var("x"), Var("y"))


def test_parse_precedence():
    assert parse_expr("x*2-1", {"x"}) == Sub(Mul(Var("x"), Const(2)), Const(1))


def test_parse_unary_minus_binds_tighter_than_mul():
    assert parse_expr("-x*y", {"x", "y"}) == Mul(Neg(Var("x")), Var("y"))


def test_parse_left_associative():
    assert parse_expr("x-1-2", {"x"}) == Sub(Sub(Var("x"), Const(1)), Const(2))


def test_parse_parentheses():
    assert parse_expr("x*(y+1)", {"x", "y"}) == Mul(Var("x"), Add(Var("y"), Const(1)))


def test_parse_undeclared_variable():
    with pytest.raises(UndeclaredVariableError) as excinfo:
        parse_expr("x+z", {"x", "y"})
    assert excinfo.value.position == 2


@pytest.mark.parametrize("text", ["x +", "(x", "1 2", "x ? y", "", "*x"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ExpressionSyntaxError):
        parse_expr(text, {"x", "y"})


def test_syntax_error_reports_position():
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expr("x + ?", {"x"})
    assert excinfo.value.position == 4


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_parse_reports_overlong_literal_at_its_column():
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expr("x + " + "1" * digits, {"x"})
    assert excinfo.value.position == 4


# each shape of deep expression: text with n levels, and the column of the
# level that crosses MAX_EXPR_DEPTH
_DEEP_SHAPES = {
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, MAX_EXPR_DEPTH),
    "unary minus": (lambda n: "-" * n + "x", MAX_EXPR_DEPTH),
    "left-deep sum": (lambda n: "x+" * n + "y", 2 * MAX_EXPR_DEPTH + 1),
}


@given(shape=st.sampled_from(sorted(_DEEP_SHAPES)), levels=st.integers(0, 3 * MAX_EXPR_DEPTH))
def test_parse_bounds_depth(shape, levels):
    build, column = _DEEP_SHAPES[shape]
    if levels <= MAX_EXPR_DEPTH:
        expr = parse_expr(build(levels), {"x", "y"})
        # everything that walks the tree stays clear of the recursion limit
        assert expr.function(1, 2) == eval_expr(expr, {"x": 1, "y": 2})
        variables(expr)
        assert parse_expr(pretty(expr), {"x", "y"}) == expr
    else:
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_expr(build(levels), {"x", "y"})
        assert excinfo.value.position == column


@pytest.mark.parametrize(
    "base, step",
    [
        ("(" * 2000 + "x" + ")" * 2000, "x+y"),
        ("x", "+".join(["x"] * 999 + ["y"])),
    ],
)
def test_make_scheme_rejects_deep_expressions(base, step):
    with pytest.raises(ExpressionSyntaxError):
        make_scheme(-1, base, step)


# --- evaluation ---------------------------------------------------------------

def test_eval_add():
    assert eval_expr(Add(Var("x"), Var("y")), {"x": 3, "y": 4}) == 7


def test_eval_const():
    assert eval_expr(Const(5), {}) == 5


def test_eval_neg():
    assert eval_expr(Neg(Var("x")), {"x": -2}) == 2


def test_variables():
    expr = parse_expr("x*(y+1)-x", {"x", "y"})
    assert variables(expr) == frozenset({"x", "y"})


# --- pretty / round trip --------------------------------------------------------

def _expressions():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=99).map(Const),
        st.sampled_from(["x", "y"]).map(Var),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Add(*p)),
            st.tuples(inner, inner).map(lambda p: Sub(*p)),
            st.tuples(inner, inner).map(lambda p: Mul(*p)),
            inner.map(Neg),
        ),
        max_leaves=25,
    )


@given(expr=_expressions())
def test_pretty_round_trips(expr):
    assert parse_expr(pretty(expr), {"x", "y"}) == expr


def test_pretty_examples():
    assert pretty(parse_expr("x*2-1", {"x"})) == "x * 2 - 1"
    assert pretty(Mul(Add(Var("x"), Const(1)), Var("y"))) == "(x + 1) * y"
    assert pretty(Neg(Mul(Var("x"), Var("y")))) == "-(x * y)"
    assert pretty(Neg(Neg(Var("x")))) == "--x"


# --- generated functions ----------------------------------------------------------

# negative and positive, well past 64 bits
_WIDE_INTS = st.integers(min_value=-(2**130), max_value=2**130)


@given(expr=_expressions(), x=_WIDE_INTS, y=_WIDE_INTS)
def test_generated_function_matches_interpreter(expr, x, y):
    assert expr.function(x, y) == eval_expr(expr, {"x": x, "y": y})
    if "y" not in variables(expr):
        assert expr.function(x) == eval_expr(expr, {"x": x})


@pytest.mark.parametrize(
    "build",
    [build for build, _ in _DEEP_SHAPES.values()]
    + [lambda n: "x-(" * n + "y" + ")" * n, lambda n: "x*(" * n + "y" + ")" * n],
)
def test_generated_function_at_depth_bound(build):
    expr = parse_expr(build(MAX_EXPR_DEPTH), {"x", "y"})
    x, y = -(2**70) + 3, 2**65 + 1
    assert expr.function(x, y) == eval_expr(expr, {"x": x, "y": y})


@pytest.mark.parametrize(
    "expr, error",
    [
        (Add(Var("x"), Var("__import__")), ValueError),
        (Var("x; y"), ValueError),
        (Const(1.5), TypeError),
        (Const("1"), TypeError),
        (Neg(Const(True)), TypeError),
        (Mul(Var("x"), "y"), TypeError),
    ],
)
def test_generator_refuses_before_compiling(monkeypatch, expr, error):
    def refuse(*args):
        raise AssertionError("compile() reached")

    monkeypatch.setattr(scheme_module, "compile", refuse, raising=False)
    with pytest.raises(error):
        expr.function


# --- predecessor --------------------------------------------------------------

def test_pred_examples():
    assert PredecessorSpec(-1).pred(3) == 2
    assert PredecessorSpec(-2).pred(3) == 1


@pytest.mark.parametrize("delta", [0, 1, 5])
def test_pred_rejects_non_negative_delta(delta):
    with pytest.raises(ValueError):
        PredecessorSpec(delta)


@given(z=st.integers(-1000, 1000), delta=st.integers(-7, -1))
def test_pred_inverse_laws(z, delta):
    spec = PredecessorSpec(delta)
    assert spec.pred_inv(spec.pred(z)) == z
    assert spec.pred(spec.pred_inv(z)) == z


# --- scheme construction ---------------------------------------------------------

def test_make_scheme_validates_variables():
    with pytest.raises(UndeclaredVariableError):
        make_scheme(-1, "y", "x+y")  # base may not use y


def test_scheme_refuses_a_step_over_more_than_x_and_y():
    # the parser refuses such text first: only a built expression reaches this check
    with pytest.raises(ValueError, match=r"step may only use x and y, found \['z'\]"):
        RecursionScheme(PredecessorSpec(-1), Var("x"), Add(Var("x"), Var("z")))


def test_scheme_base_and_step_values():
    scheme = make_scheme(-1, "x+1", "x*y+1")
    assert scheme.base.function(0) == 1
    assert scheme.step.function(3, 2) == 7


# --- recursive oracle -------------------------------------------------------------

def test_eval_recursive_base_case():
    for base, step in (("x", "x+y"), ("x+1", "x*y+1")):
        scheme = make_scheme(-1, base, step)
        assert eval_recursive(scheme, 0) == scheme.base.function(0)


def test_eval_recursive_hand_unfolded():
    scheme = make_scheme(-1, "x", "x+y")
    b = scheme.base.function
    h = scheme.step.function
    assert eval_recursive(scheme, 3) == h(3, h(2, h(1, b(0)))) == 6

    scheme = make_scheme(-2, "x", "x+y")
    b = scheme.base.function
    h = scheme.step.function
    assert eval_recursive(scheme, 3) == h(3, h(1, b(-1))) == 3


class StepReached(Exception):
    pass


def test_eval_recursive_descends_past_sys_maxsize():
    # len() refuses a range of 2**64 arguments; the fold's first step is at x = 1
    def stop(x, y):
        raise StepReached(x, y)

    for delta, base_arg in ((-1, 0), (-3, -2)):
        scheme = make_scheme(delta, "x", "x+y")
        scheme.step.__dict__["function"] = stop   # where the cached function is kept
        with pytest.raises(StepReached) as reached:
            eval_recursive(scheme, 2**64)
        assert reached.value.args == (1, base_arg)


def test_eval_recursive_accepts_negative_x():
    scheme = make_scheme(-1, "x+1", "x+y")
    assert eval_recursive(scheme, -5) == -4


def test_eval_recursive_matches_definition():
    for delta in range(-4, 0):
        scheme = make_scheme(delta, "x+1", "x*y+1")
        for x0 in range(0, 40):
            expected = recursion_by_definition(
                delta, scheme.base.function, scheme.step.function, x0
            )
            assert eval_recursive(scheme, x0) == expected


def test_eval_recursive_is_stack_safe():
    scheme = make_scheme(-1, "x", "x+y")
    n = 50_000
    assert eval_recursive(scheme, n) == n * (n + 1) // 2


# --- emission plan ----------------------------------------------------------------

def test_expected_emissions_frozen_cases():
    assert expected_emissions(make_scheme(-1, "x", "x+y"), 3) == (3, 0, (1, 2, 3))
    assert expected_emissions(make_scheme(-2, "x", "x+y"), 3) == (2, -1, (1, 3))
    for delta in (-1, -3, -7):
        assert expected_emissions(make_scheme(delta, "x", "x+y"), 0) == (0, 0, ())


def test_expected_emissions_rejects_negative():
    with pytest.raises(NegativeInputError):
        expected_emissions(make_scheme(-1, "x", "x+y"), -1)


def test_expected_emissions_matches_unfolding():
    for delta in range(-7, 0):
        scheme = make_scheme(delta, "x", "x+y")
        for x0 in range(0, 201):
            base_arg, h_args = unfold_arguments(delta, x0)
            plan = expected_emissions(scheme, x0)
            assert plan.iterations == len(h_args)
            assert plan.base_arg == base_arg
            assert list(plan.h_args) == h_args
            assert delta < plan.base_arg <= 0


def test_oracle_consistency_fold_equals_recursion():
    for base, step in (("x", "x+y"), ("x+1", "x*y+1")):
        for delta in range(-7, 0):
            scheme = make_scheme(delta, base, step)
            for x0 in range(0, 201):
                plan = expected_emissions(scheme, x0)
                folded = fold_plan(
                    scheme.base.function, scheme.step.function, plan.base_arg, plan.h_args
                )
                assert folded == eval_recursive(scheme, x0)


# --- scheme files -------------------------------------------------------------------

SCHEME_TEXT = """\
# a scheme with a two-wide predecessor
delta = -2
base = x        # identity
step = x + y
"""


def test_parse_scheme_text():
    assert parse_scheme_text(SCHEME_TEXT) == {"delta": "-2", "base": "x", "step": "x + y"}


def test_load_scheme_file():
    scheme = scheme_from_fields(parse_scheme_text(SCHEME_TEXT))
    assert scheme.pred.delta == -2
    assert eval_recursive(scheme, 3) == 3


@pytest.mark.parametrize(
    "text",
    [
        "delta: -1",                      # not key = value
        "width = 3",                      # unknown key
        "delta = -1\ndelta = -2",         # duplicate
    ],
)
def test_parse_scheme_text_rejects(text):
    with pytest.raises(SchemeFileError):
        parse_scheme_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "delta = -1\nbase = x",                     # missing step
        "delta = many\nbase = x\nstep = x+y",       # delta not an integer
        "delta = 0\nbase = x\nstep = x+y",          # delta out of range
    ],
)
def test_load_scheme_file_rejects(text):
    with pytest.raises(SchemeFileError):
        scheme_from_fields(parse_scheme_text(text))
