"""Shared builders for the test suite: small systems assembled from
expression text, plus a seeded random expression generator."""

import numpy as np

from ccmkit import expr, model
from ccmkit.expr import parse
from ccmkit.model import GridSpec, MetricSpec, SystemSpec


def system_of(f, B):
    n = len(f)
    m = len(B[0])
    return SystemSpec(n=n, m=m, f=[parse(s) for s in f],
                      B=[[parse(s) for s in row] for row in B])


def metric_of(M_upper, alpha1, alpha2, lam):
    n = len(M_upper)
    M = [[None] * n for _ in range(n)]
    for i, row in enumerate(M_upper):
        for k, s in enumerate(row):
            e = parse(s)
            M[i][i + k] = e
            M[i + k][i] = e
    return MetricSpec(n=n, M=M, alpha1=alpha1, alpha2=alpha2, lam=lam)


def grid_of(x_ranges, u_samples, t_samples=(0.0,), **kw):
    return GridSpec([tuple(r) for r in x_ranges],
                    np.atleast_2d(np.asarray(u_samples, dtype=float)),
                    np.asarray(t_samples, dtype=float), **kw)


def set_chunk_points(monkeypatch, n, m, points):
    """Make every grid scan of an n-state, m-input system take `points`
    points per chunk, through the byte budget."""
    monkeypatch.setattr(model, "SWEEP_BYTES", points * model._point_bytes(n, m))
    assert model.chunk_points(n, m) == points


def scalar_counterexample():
    """dx/dt = -x + x^2 u with the identity metric: contracting off the
    input direction, but the input gain dies at the origin."""
    sys = system_of(["-x1"], [["x1^2"]])
    met = metric_of([["1"]], 1.0, 1.0, 0.5)
    return sys, met


def curved_system():
    """Two states, one input, nothing constant: every derivative block of
    f, B and M is exercised, including dM/dt."""
    sys = system_of(
        ["x2*sin(x1) + 0.1*t", "-x1 - x2^2"],
        [["0.5 + 0.2*cos(x1)"], ["x1*x2"]],
    )
    met = metric_of(
        [["2 + 0.5*sin(x1)", "0.2*x2"], ["2 + 0.5*cos(t)"]],
        1.0, 3.0, 0.3,
    )
    return sys, met


def two_input_system():
    """Two inputs with B full rank everywhere (det B = 1), so no tangent
    direction is uncontrolled and the certificate exists at every point."""
    sys = system_of(
        ["-x1 + 0.25*x2", "-x2"],
        [["1", "0"], ["x1", "1"]],
    )
    met = metric_of([["1", "0"], ["1"]], 1.0, 1.0, 0.5)
    grid = grid_of([(-2.0, 2.0, 11), (-2.0, 2.0, 11)],
                   [[0.0, 0.0], [1.0, -1.0]], delta_samples=8, seed=7)
    return sys, met, grid


def random_expression(rng, variables, depth=3, allow_exp=True):
    """Random AST over the given variables, kept well scaled on [-3, 3]^k:
    denominators stay in [1, 5] and exp arguments in [-1.5, 1.5], so
    values and derivatives remain moderate for finite-difference checks."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.45:
            return expr.Num(round(float(rng.uniform(-3, 3)), 3))
        return expr.Var(str(rng.choice(variables)))
    pick = rng.random()
    if pick < 0.55:
        op = str(rng.choice(["+", "-", "*", "/"]))
        lhs = random_expression(rng, variables, depth - 1, allow_exp)
        if op == "/":
            inner = random_expression(rng, variables, max(depth - 2, 0), False)
            rhs = expr.BinOp("+", expr.Num(float(round(rng.uniform(2.0, 4.0), 3))),
                             expr.Func("tanh", inner))
        else:
            rhs = random_expression(rng, variables, depth - 1, allow_exp)
        return expr.BinOp(op, lhs, rhs)
    if pick < 0.68:
        return expr.Neg(random_expression(rng, variables, depth - 1, allow_exp))
    if pick < 0.82:
        k = int(rng.integers(2, 4))
        return expr.Pow(random_expression(rng, variables, depth - 1, allow_exp), k)
    if allow_exp and pick < 0.88:
        inner = random_expression(rng, variables, max(depth - 2, 0), False)
        arg = expr.BinOp("*", expr.Num(float(round(rng.uniform(-1.5, 1.5), 3))),
                         expr.Func("tanh", inner))
        return expr.Func("exp", arg)
    name = str(rng.choice(["sin", "cos", "tanh"]))
    return expr.Func(name, random_expression(rng, variables, depth - 1, allow_exp))
