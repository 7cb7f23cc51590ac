"""Scalar symbolic expressions over state, input and time variables.

Grammar (full reference in the README):

    expression := term (('+' | '-') term)*
    term       := factor (('*' | '/') factor)*
    factor     := '-' factor | power
    power      := atom ['^' integer]
    atom       := number | variable | function '(' expression ')'
                | '(' expression ')'

Variables are the fixed names ``x1..xn``, ``u1..um`` and ``t``; the known
functions are sin, cos, exp and tanh.  ``^`` takes a (possibly signed)
integer literal exponent and binds tighter than unary minus, so ``-x1^2``
is ``-(x1^2)``.  Expression nodes are immutable; differentiation returns a
new tree with trivial constants folded, so derivatives stay in closed form
and can be differentiated again.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "tanh")

_VAR_RE = re.compile(r"^(t|[xu][1-9][0-9]*)$")
_NUM_RE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"\d+")


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    """Identifier is not t, x<i>, u<j> or a known function name."""


class UnboundVariableError(ExprError):
    """Evaluation met a variable with no binding."""


class NonFiniteError(ExprError):
    """Evaluation produced inf or nan."""


class Expression:
    """Base node.  Subclasses are frozen dataclasses."""

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Num(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class BinOp(Expression):
    op: str  # one of + - * /
    lhs: Expression
    rhs: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class Func(Expression):
    name: str  # one of FUNCTIONS
    arg: Expression


# ---------------------------------------------------------------------------
# parsing


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def byte_offset(self, pos: int | None = None) -> int:
        p = self.pos if pos is None else pos
        return len(self.text[:p].encode("utf-8"))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self) -> bool:
        return self.peek() == ""


def parse(text: str) -> Expression:
    """Parse expression text into an immutable AST.

    Raises ExprSyntaxError (with byte offset) on malformed input and
    UnknownIdentifierError for identifiers outside t/x<i>/u<j> and the
    known function names.
    """
    tz = _Tokenizer(text)
    e = _parse_expression(tz)
    if not tz.at_end():
        raise ExprSyntaxError(
            f"unexpected {text[tz.pos]!r} after expression", tz.byte_offset()
        )
    return e


def _parse_expression(tz: _Tokenizer) -> Expression:
    e = _parse_term(tz)
    while tz.peek() in ("+", "-"):
        op = tz.text[tz.pos]
        tz.pos += 1
        e = BinOp(op, e, _parse_term(tz))
    return e


def _parse_term(tz: _Tokenizer) -> Expression:
    e = _parse_factor(tz)
    while tz.peek() in ("*", "/"):
        op = tz.text[tz.pos]
        tz.pos += 1
        e = BinOp(op, e, _parse_factor(tz))
    return e


def _parse_factor(tz: _Tokenizer) -> Expression:
    if tz.peek() == "-":
        tz.pos += 1
        return Neg(_parse_factor(tz))
    return _parse_power(tz)


def _parse_power(tz: _Tokenizer) -> Expression:
    base = _parse_atom(tz)
    if tz.peek() == "^":
        tz.pos += 1
        return Pow(base, _parse_exponent(tz))
    return base


def _parse_exponent(tz: _Tokenizer) -> int:
    tz.skip_ws()
    start = tz.pos
    sign = 1
    if tz.peek() in ("+", "-"):
        sign = -1 if tz.text[tz.pos] == "-" else 1
        tz.pos += 1
        tz.skip_ws()
    m = _INT_RE.match(tz.text, tz.pos)
    if m is None:
        raise ExprSyntaxError("integer exponent required after '^'", tz.byte_offset())
    end = m.end()
    if end < len(tz.text) and tz.text[end] == ".":
        raise ExprSyntaxError(
            "integer exponent required after '^'", tz.byte_offset(start)
        )
    tz.pos = end
    return sign * int(m.group(0))


def _parse_atom(tz: _Tokenizer) -> Expression:
    ch = tz.peek()
    if ch == "":
        raise ExprSyntaxError("unexpected end of expression", tz.byte_offset())
    if ch == "(":
        tz.pos += 1
        e = _parse_expression(tz)
        if tz.peek() != ")":
            raise ExprSyntaxError("expected ')'", tz.byte_offset())
        tz.pos += 1
        return e
    m = _NUM_RE.match(tz.text, tz.pos)
    if m is not None and m.start() == tz.pos:
        tz.pos = m.end()
        return Num(float(m.group(0)))
    m = _IDENT_RE.match(tz.text, tz.pos)
    if m is not None and m.start() == tz.pos:
        name = m.group(0)
        start = tz.pos
        tz.pos = m.end()
        if name in FUNCTIONS:
            if tz.peek() != "(":
                raise ExprSyntaxError(
                    f"function {name!r} must be applied with '('", tz.byte_offset()
                )
            tz.pos += 1
            arg = _parse_expression(tz)
            if tz.peek() != ")":
                raise ExprSyntaxError("expected ')'", tz.byte_offset())
            tz.pos += 1
            return Func(name, arg)
        if _VAR_RE.match(name):
            return Var(name)
        raise UnknownIdentifierError(
            f"unknown identifier {name!r}", tz.byte_offset(start)
        )
    raise ExprSyntaxError(f"unexpected character {ch!r}", tz.byte_offset())


# ---------------------------------------------------------------------------
# evaluation

_NP_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh}

# np.errstate arguments for IEEE semantics: 1/0 -> inf, 0/0 -> nan, silently
IEEE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def evaluate(e: Expression, bindings: dict[str, float]) -> float:
    """Evaluate at a variable binding.  IEEE semantics inside (1/0 -> inf,
    0/0 -> nan); a non-finite final value raises NonFiniteError."""
    with np.errstate(**IEEE):
        v = float(_eval(e, bindings))
    if not math.isfinite(v):
        raise NonFiniteError(f"non-finite value {v!r} for {to_text(e)!r}")
    return v


def _eval(e: Expression, bindings: dict[str, float]) -> np.float64:
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        try:
            return np.float64(bindings[e.name])
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -_eval(e.arg, bindings)
    if isinstance(e, BinOp):
        a = _eval(e.lhs, bindings)
        b = _eval(e.rhs, bindings)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return np.divide(a, b)
    if isinstance(e, Pow):
        return np.float64(np.power(_eval(e.base, bindings), e.exponent))
    if isinstance(e, Func):
        return np.float64(_NP_FUNCS[e.name](_eval(e.arg, bindings)))
    raise TypeError(f"not an Expression: {e!r}")


def free_variables(e: Expression) -> frozenset[str]:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, BinOp):
        return free_variables(e.lhs) | free_variables(e.rhs)
    if isinstance(e, Pow):
        return free_variables(e.base)
    if isinstance(e, Func):
        return free_variables(e.arg)
    raise TypeError(f"not an Expression: {e!r}")


# ---------------------------------------------------------------------------
# constructors with trivial constant folding

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_const(e: Expression, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def add(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def neg(a: Expression) -> Expression:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def power(a: Expression, k: int) -> Expression:
    if k == 0:
        return _ONE
    if k == 1:
        return a
    if isinstance(a, Num):
        with np.errstate(**IEEE):
            return Num(float(np.power(np.float64(a.value), k)))
    return Pow(a, k)


# ---------------------------------------------------------------------------
# differentiation

_DFUNCS = {
    "sin": lambda arg: Func("cos", arg),
    "cos": lambda arg: neg(Func("sin", arg)),
    "exp": lambda arg: Func("exp", arg),
    "tanh": lambda arg: sub(_ONE, power(Func("tanh", arg), 2)),
}


def differentiate(e: Expression, var: str) -> Expression:
    """Exact partial derivative with respect to a variable name.

    The result is a fresh tree with trivial constants folded (0*e, 1*e,
    e+0, numeric subtrees), so repeated differentiation stays cheap.
    """
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, var))
    if isinstance(e, BinOp):
        da = differentiate(e.lhs, var)
        db = differentiate(e.rhs, var)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.rhs), mul(e.lhs, db))
        # quotient rule
        return div(sub(mul(da, e.rhs), mul(e.lhs, db)), power(e.rhs, 2))
    if isinstance(e, Pow):
        de = differentiate(e.base, var)
        return mul(mul(Num(float(e.exponent)), power(e.base, e.exponent - 1)), de)
    if isinstance(e, Func):
        return mul(_DFUNCS[e.name](e.arg), differentiate(e.arg, var))
    raise TypeError(f"not an Expression: {e!r}")


def jacobian(exprs: list[Expression], variables: list[str]) -> list[list[Expression]]:
    """Row i, column j holds d exprs[i] / d variables[j]."""
    return [[differentiate(e, v) for v in variables] for e in exprs]


# ---------------------------------------------------------------------------
# printing

# precedence: additive 1, multiplicative 2, unary minus 2.5, power 3, atom 4
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 2.5
_PREC_POW = 3
_PREC_ATOM = 4


def _prec(e: Expression) -> float:
    if isinstance(e, Num):
        return _PREC_NEG if _fmt_num(e.value).startswith("-") else _PREC_ATOM
    if isinstance(e, (Var, Func)):
        return _PREC_ATOM
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, BinOp):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    raise TypeError(f"not an Expression: {e!r}")


def _fmt_num(v: float) -> str:
    """Grammar text that parses back to v: inf is 1e999, nan is
    (1e999 - 1e999), and a negative v, -0.0 included, is negated."""
    if math.isnan(v):
        return "(1e999 - 1e999)"
    if math.copysign(1.0, v) < 0.0:
        return "-" + _fmt_num(-v)
    if math.isinf(v):
        return "1e999"
    return str(int(v)) if v == int(v) and v < 1e16 else repr(v)


def to_text(e: Expression) -> str:
    """Render to grammar text.  parse(to_text(e)) evaluates identically to e
    (the tree may regroup around unary minus, never the value)."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Func):
        return f"{e.name}({to_text(e.arg)})"
    if isinstance(e, Neg):
        # sign propagation through * and / is exact, parens only around +/-
        return "-" + _wrap(e.arg, _PREC_MUL)
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, BinOp):
        lhs = _wrap(e.lhs, _prec(e))
        # the right operand needs strictly tighter precedence, including
        # unary minus: "x1*-2.33*0.692" would reparse left-associated and
        # reassociating * changes floating-point results
        rhs = _wrap(e.rhs, _prec(e) + 1)
        return f"{lhs} {e.op} {rhs}" if e.op in "+-" else f"{lhs}{e.op}{rhs}"
    raise TypeError(f"not an Expression: {e!r}")


def _wrap(e: Expression, min_prec: float) -> str:
    s = to_text(e)
    return f"({s})" if _prec(e) < min_prec else s


# ---------------------------------------------------------------------------
# compilation to vectorized numpy callables

def to_python_source(e: Expression, names: dict[str, str]) -> str:
    """Emit a python source fragment; ``names`` maps variable names to the
    code that loads them (e.g. ``x1 -> X[..., 0]``).  A subtree free of
    variables is folded to its IEEE value (``_eval``), so the fragment
    runs no Python-float arithmetic; call it under ``np.errstate(**IEEE)``."""
    if not free_variables(e):
        return repr(float(_eval(e, {})))
    if isinstance(e, Var):
        try:
            return names[e.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return f"(-{to_python_source(e.arg, names)})"
    if isinstance(e, BinOp):
        a = to_python_source(e.lhs, names)
        b = to_python_source(e.rhs, names)
        return f"({a} {e.op} {b})"
    if isinstance(e, Pow):
        return f"({to_python_source(e.base, names)} ** {e.exponent})"
    if isinstance(e, Func):
        return f"np.{e.name}({to_python_source(e.arg, names)})"
    raise TypeError(f"not an Expression: {e!r}")


def compile_matrix(tables, n: int):
    """Compile tables of Expressions into one vectorized callable.

    Each table is an Expression or a list of them nested to any depth
    (a vector, a matrix, a stack of matrices).  Returns fn(X, T) -> one
    array per table, shaped X.shape[:-1] + the table's shape.  X has
    trailing axis n; T is a scalar or an array broadcastable against
    X.shape[:-1], and a scalar T gives bitwise the same values as an
    array of it.  Division by zero and overflow follow IEEE inside
    (callers flag non-finite output).  fn.source holds the generated code.
    """
    names = {"t": "T", **{f"x{i + 1}": f"X[..., {i}]" for i in range(n)}}
    lines = ["def _fn(X, T):",
             "    X = np.asarray(X, dtype=float)",
             # never a 0-d T: numpy scalars take other (libm) code paths
             "    T = np.array(T, dtype=float, ndmin=1)",
             "    lead = X.shape[:-1]",
             "    with np.errstate(**IEEE):"]
    outs = []
    with np.errstate(**IEEE):
        for k, table in enumerate(tables):
            cells = np.array(table, dtype=object)
            if not all(isinstance(e, Expression) for e in cells.flat):
                raise ValueError("ragged expression table")
            lines.append(f"        o{k} = np.zeros(lead + {cells.shape!r})")
            for index, e in np.ndenumerate(cells):
                code = to_python_source(e, names)
                if code != "0.0":
                    lines.append(f"        o{k}[..., {', '.join(map(str, index))}] = {code}")
            outs.append(f"o{k}")
    lines.append(f"    return {', '.join(outs)},")
    source = "\n".join(lines)
    namespace = {"np": np, "IEEE": IEEE, "inf": math.inf, "nan": math.nan}
    exec(compile(source, "<ccmkit-compiled>", "exec"), namespace)
    fn = namespace["_fn"]
    fn.source = source
    return fn
