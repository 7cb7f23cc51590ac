"""Parser, printer, evaluator and exact differentiation."""

import math

import numpy as np
import pytest

from ccmkit import expr
from ccmkit.expr import (
    BinOp,
    ExprSyntaxError,
    Func,
    Neg,
    NonFiniteError,
    Num,
    Pow,
    UnboundVariableError,
    UnknownIdentifierError,
    Var,
    compile_matrix,
    differentiate,
    evaluate,
    free_variables,
    jacobian,
    parse,
    to_text,
)
from conftest import random_expression

CASES = [
    ("2 - 3 - 4", {}, -5.0),
    ("2 - (3 - 4)", {}, 3.0),
    ("12 / 3 / 2", {}, 2.0),
    ("2 + 3 * 4", {}, 14.0),
    ("(2 + 3) * 4", {}, 20.0),
    ("-2^2", {}, -4.0),          # ^ binds tighter than unary minus
    ("(-2)^2", {}, 4.0),
    ("2^-2", {}, 0.25),
    ("2^+3", {}, 8.0),
    ("x1^2 * x2", {"x1": 3.0, "x2": 2.0}, 18.0),
    ("-x1^2", {"x1": 3.0}, -9.0),
    ("sin(0)", {}, 0.0),
    ("cos(0) + exp(0)", {}, 2.0),
    ("tanh(1000)", {}, 1.0),
    ("1.5e2 + .5", {}, 150.5),
    ("u1 * t", {"u1": 2.0, "t": 3.0}, 6.0),
    ("x1 / (1 + x1^2)", {"x1": 1.0}, 0.5),
]


def test_evaluate_cases():
    for text, env, want in CASES:
        assert evaluate(parse(text), env) == pytest.approx(want, abs=1e-15)


def test_ast_shapes():
    e = parse("-x1^2 + sin(x2) * 3")
    assert isinstance(e, BinOp) and e.op == "+"
    assert isinstance(e.lhs, Neg) and isinstance(e.lhs.arg, Pow)
    assert e.lhs.arg == Pow(Var("x1"), 2)
    assert isinstance(e.rhs, BinOp) and e.rhs.lhs == Func("sin", Var("x2"))


def test_round_trip_exact():
    # parse . to_text must evaluate bitwise identically (printing may
    # regroup unary minus, which only flips signs and is exact)
    rng = np.random.default_rng(3)
    variables = ["x1", "x2", "u1", "t"]
    for _ in range(300):
        e = random_expression(rng, variables, depth=4)
        env = {v: float(rng.uniform(-2, 2)) for v in variables}
        try:
            v1 = evaluate(e, env)
        except NonFiniteError:
            continue
        v2 = evaluate(parse(to_text(e)), env)
        assert v1 == v2, to_text(e)


def test_printer_cases():
    assert to_text(parse("x1 - (x2 - t)")) == "x1 - (x2 - t)"
    assert to_text(parse("(x1 - x2) - t")) == "x1 - x2 - t"
    assert to_text(parse("x1 / (x2 * t)")) == "x1/(x2*t)"
    assert to_text(parse("-(x1 + x2)")) == "-(x1 + x2)"
    assert to_text(parse("(x1 + x2)^2")) == "(x1 + x2)^2"
    assert to_text(Num(-3.0)) == "-3"
    assert to_text(Num(2.5)) == "2.5"


def _value(e, env=None):
    """IEEE value at a binding, non-finite included (evaluate raises there)."""
    with np.errstate(**expr.IEEE):
        return float(expr._eval(e, env or {}))


def _bitwise(a, b):
    """Equal with the sign of zero, or both nan."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_printer_non_finite_and_signed_zero():
    cases = [(math.inf, "1e999"), (-math.inf, "-1e999"),
             (math.nan, "(1e999 - 1e999)"), (-0.0, "-0"), (0.0, "0")]
    for v, text in cases:
        assert to_text(Num(v)) == text
        assert _bitwise(_value(parse(text)), v), text
        # inside a product the sign binds like unary minus
        e = BinOp("*", Var("x1"), Num(v))
        for x1 in (2.0, -0.0):
            want = _value(e, {"x1": x1})
            assert _bitwise(_value(parse(to_text(e)), {"x1": x1}), want), to_text(e)
    assert str(parse("x1 + 1e400")) == "x1 + 1e999"
    d = differentiate(parse("1e400*x1 - 1e400*x1"), "x1")
    assert math.isnan(d.value) and math.isnan(_value(parse(str(d))))
    d = differentiate(parse("-x2"), "x1")
    assert str(d) == "-0" and _bitwise(_value(parse(str(d))), -0.0)


def test_evaluate_non_finite_constant():
    with pytest.raises(NonFiniteError, match=r"'x1 \+ 1e999'"):
        evaluate(parse("x1 + 1e400"), {"x1": 1.0})
    with pytest.raises(NonFiniteError):
        evaluate(differentiate(parse("1e400*x1 - 1e400*x1"), "x1"), {})


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("x1 + ) * 2")
    assert ei.value.offset == 5
    with pytest.raises(UnknownIdentifierError) as ei:
        parse("x1 + foo")
    assert ei.value.offset == 5
    # offsets are byte offsets: 'à' is two bytes in utf-8
    with pytest.raises(ExprSyntaxError) as ei:
        parse("x1 + à")
    assert ei.value.offset == 5
    with pytest.raises(ExprSyntaxError) as ei:
        parse("xà + 1")
    assert ei.value.offset == 0
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("(x1 + 2")
    with pytest.raises(ExprSyntaxError):
        parse("x1^2^3")  # no power towers
    with pytest.raises(ExprSyntaxError):
        parse("x1^2.5")  # integer exponents only
    with pytest.raises(ExprSyntaxError):
        parse("x1^x2")
    with pytest.raises(ExprSyntaxError):
        parse("sin x1")  # functions need parentheses
    with pytest.raises(UnknownIdentifierError):
        parse("x0")      # variables are 1-based
    with pytest.raises(UnknownIdentifierError):
        parse("log(x1)")


def test_unbound_and_nonfinite():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x3"), {"x1": 1.0})
    with pytest.raises(NonFiniteError):
        evaluate(parse("1/x1"), {"x1": 0.0})
    with pytest.raises(NonFiniteError):
        evaluate(parse("exp(x1)"), {"x1": 1000.0})
    # IEEE semantics hold inside: 1/(1/0) = 1/inf = 0 is a finite result
    assert evaluate(parse("1/(1/x1)"), {"x1": 0.0}) == 0.0


def test_free_variables():
    assert free_variables(parse("x1 * sin(x2) + t")) == {"x1", "x2", "t"}
    assert free_variables(parse("3.5")) == frozenset()
    assert free_variables(parse("u2^3")) == {"u2"}


def test_differentiate_closed_forms():
    x = {"x1": 0.7}
    d = differentiate(parse("sin(x1)"), "x1")
    assert evaluate(d, x) == pytest.approx(math.cos(0.7), rel=1e-15)
    d = differentiate(parse("cos(x1)"), "x1")
    assert evaluate(d, x) == pytest.approx(-math.sin(0.7), rel=1e-15)
    d = differentiate(parse("tanh(x1)"), "x1")
    assert evaluate(d, x) == pytest.approx(1.0 - math.tanh(0.7) ** 2, rel=1e-14)
    d = differentiate(parse("exp(2*x1)"), "x1")
    assert evaluate(d, x) == pytest.approx(2.0 * math.exp(1.4), rel=1e-14)
    d = differentiate(parse("x1^3"), "x1")
    assert evaluate(d, x) == pytest.approx(3 * 0.7 ** 2, rel=1e-15)
    d = differentiate(parse("x1/x2"), "x2")
    assert evaluate(d, {"x1": 2.0, "x2": 4.0}) == pytest.approx(-2 / 16, rel=1e-15)
    assert differentiate(parse("x2 + t"), "x1") == Num(0.0)
    # derivatives stay in the grammar and can be differentiated again
    d2 = differentiate(differentiate(parse("sin(x1^2)"), "x1"), "x1")
    x = {"x1": 1.3}
    want = 2 * math.cos(1.3 ** 2) - 4 * 1.3 ** 2 * math.sin(1.3 ** 2)
    assert evaluate(d2, x) == pytest.approx(want, rel=1e-12)


def test_differentiate_vs_finite_differences():
    rng = np.random.default_rng(11)
    variables = ["x1", "x2", "u1", "t"]
    h = 1e-5
    checked = 0
    for _ in range(400):
        e = random_expression(rng, variables, depth=4)
        var = str(rng.choice(variables))
        sym = differentiate(e, var)
        env = {v: float(rng.uniform(-2, 2)) for v in variables}
        try:
            want = evaluate(sym, env)
            up = dict(env, **{var: env[var] + h})
            dn = dict(env, **{var: env[var] - h})
            fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
        except NonFiniteError:
            continue
        assert abs(fd - want) <= 1e-6 * max(1.0, abs(want)), to_text(e)
        checked += 1
    assert checked > 300


def test_jacobian():
    rows = jacobian([parse("x1*x2"), parse("x2^2")], ["x1", "x2"])
    env = {"x1": 3.0, "x2": 5.0}
    got = [[evaluate(c, env) for c in row] for row in rows]
    assert got == [[5.0, 3.0], [0.0, 10.0]]


def test_compile_matrix_matches_evaluate():
    rng = np.random.default_rng(5)
    entries = [[parse("x1^2 + sin(x2)*t"), parse("1/(2 + tanh(x1))")],
               [parse("-x2"), parse("2.5")]]
    fn = compile_matrix([entries], n=2)
    X = rng.uniform(-2, 2, size=(7, 2))
    t = 0.3
    (out,) = fn(X, t)
    assert out.shape == (7, 2, 2)
    for k in range(7):
        env = {"x1": X[k, 0], "x2": X[k, 1], "t": t}
        for i in range(2):
            for j in range(2):
                assert out[k, i, j] == pytest.approx(
                    evaluate(entries[i][j], env), rel=1e-14)
    assert "def _fn" in fn.source


def test_compile_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        compile_matrix([[[parse("x1"), parse("x1")], [parse("x1")]]], n=1)
    with pytest.raises(ValueError):
        compile_matrix([[parse("x1"), [parse("x1")]]], n=1)


def test_compile_matrix_returns_one_array_per_table():
    x1, x2 = parse("x1"), parse("x2*t")
    fn = compile_matrix([[x1, x2], [[x1], [x2]], [[[x1, x2]]]], n=2)
    X = np.random.default_rng(2).uniform(-1, 1, size=(3, 4, 2))
    T = np.linspace(0.0, 1.0, 4)
    vec, col, cube = fn(X, T)
    assert vec.shape == (3, 4, 2) and col.shape == (3, 4, 2, 1)
    assert cube.shape == (3, 4, 1, 1, 2)
    want = np.stack([X[..., 0], X[..., 1] * T], axis=-1)
    assert np.array_equal(vec, want)
    assert np.array_equal(col[..., 0], want) and np.array_equal(cube[..., 0, 0, :], want)
    one = fn(X[0, 0], 0.0)
    assert [a.shape for a in one] == [(2,), (2, 1), (1, 1, 2)]


def test_compile_matrix_folds_variable_free_subtrees_ieee():
    # folded once at compile time with numpy semantics: no Python-float
    # arithmetic is left to run (or to raise) when the function is called
    fn = compile_matrix([[parse("2*3*x1"), parse("x1 + 10^400"), parse("1/(2 - 2)"),
                          parse("0*x1"), parse("exp(1)")]], n=1)
    assert "6.0" in fn.source and "2.0" not in fn.source
    assert " ** " not in fn.source and "np.exp" not in fn.source
    (out,) = fn(np.array([[1.5], [-2.0]]), 0.0)
    assert out[:, 0].tolist() == [9.0, -12.0]
    assert np.isinf(out[:, 1]).all() and np.isinf(out[:, 2]).all()
    assert out[:, 3].tolist() == [0.0, 0.0]
    assert np.array_equal(out[:, 4], [np.exp(1.0)] * 2)


def test_compile_matrix_scalar_and_array_t_agree_bitwise():
    # numpy scalars take libm paths that can differ from the array loops
    # in the last bit; a scalar T must give exactly the entries of an
    # array of it
    texts = ["sin(t)^3", "exp(-t)^5 + cos(3*t)", "x1*tanh(t)^7", "1/(t - 0.25)^3",
             "(2 + cos(t))^-3"]
    fn = compile_matrix([[parse(s) for s in texts]], n=1)
    X = np.linspace(-1.0, 1.0, 5)[:, None]
    for t in np.random.default_rng(4).uniform(-3.0, 3.0, size=200):
        (scalar,) = fn(X, float(t))
        (array,) = fn(X, np.full(5, t))
        assert np.array_equal(scalar, array)


def test_power_folds_overflow_silently():
    # under filterwarnings = error, a RuntimeWarning here would fail
    assert expr.power(Num(10.0), 400) == Num(math.inf)
    assert expr.power(Num(0.0), -1) == Num(math.inf)
    expr.differentiate(parse("x1*10^400"), "x1")


def test_constructor_folding():
    x = Var("x1")
    assert expr.add(Num(0.0), x) is x
    assert expr.mul(Num(1.0), x) is x
    assert expr.mul(Num(0.0), x) == Num(0.0)
    assert expr.sub(x, Num(0.0)) is x
    assert expr.neg(Neg(x)) is x
    assert expr.power(x, 1) is x
    assert expr.power(x, 0) == Num(1.0)
    assert expr.add(Num(2.0), Num(3.0)) == Num(5.0)
    assert expr.div(Num(0.0), x) == Num(0.0)
