"""System, metric and grid descriptions plus compiled raw evaluation.

A system is dx/dt = f(x, t) + B(x, t) u with n states and m inputs; a
candidate metric is a symmetric matrix function M(x, t) with claimed
uniform bounds alpha1 I <= M <= alpha2 I and contraction rate lambda.
Entries are expression text (see expr).  Only the upper triangle of M is
stored; the mirrored entries share the same expression object, so an
evaluated M is symmetric bitwise, not just to rounding.

Spec files are JSON with "schema": 1; the layout is documented in the
README and validated field by field here (fail closed, named field in
every error).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import expr
from .expr import Expression, compile_matrix, free_variables, jacobian, parse

METRIC_BOUNDS_TOL = 1e-9   # absolute slack on the claimed [alpha1, alpha2]

_BUNDLED = {
    "counterexample": "counterexample.json",
    "double-integrator": "double_integrator.json",
    "double_integrator": "double_integrator.json",
    "bounded-gain": "bounded_gain.json",
    "bounded_gain": "bounded_gain.json",
}


class SpecError(Exception):
    """Spec file violates the schema; message names the offending field."""


class NonFiniteEvalError(Exception):
    """Raw evaluation produced inf or nan; message names the entry."""


def _xvars(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


@dataclass(eq=False)             # identity semantics
class SystemSpec:
    """Dynamics f + B u.  The compiled functions are built on first use
    and take (X, T) as expr.compile_matrix describes."""

    n: int
    m: int
    f: list[Expression]          # length n, variables x1..xn and t
    B: list[list[Expression]]    # n rows, m columns

    @cached_property
    def eval_fB(self):
        """(X, T) -> (f, B): what an RK4 stage needs."""
        return compile_matrix([self.f, self.B], self.n)

    @cached_property
    def eval_raw(self):
        """(X, T) -> (f, B, df/dx, dB/dx) with dfdx[..., i, j] = d f_i/d x_j
        and dBdx[..., i] the Jacobian of column i of B."""
        xv = _xvars(self.n)
        dBdx = [jacobian([row[i] for row in self.B], xv) for i in range(self.m)]
        return compile_matrix([self.f, self.B, jacobian(self.f, xv), dBdx], self.n)


@dataclass(eq=False)
class MetricSpec:
    """Candidate metric M with its claimed bounds and rate; compiled
    functions as on SystemSpec."""

    n: int
    M: list[list[Expression]]    # n x n, mirrored from the upper triangle
    alpha1: float
    alpha2: float
    lam: float                   # claimed contraction rate

    @cached_property
    def eval_M(self):
        """(X, T) -> (M,)."""
        return compile_matrix([self.M], self.n)

    @cached_property
    def eval_raw(self):
        """(X, T) -> (M, dM/dx, dM/dt) with dMdx[..., k, :, :] = d M / d x_k."""
        dMdx = [[[expr.differentiate(e, v) for e in row] for row in self.M]
                for v in _xvars(self.n)]
        dMdt = [[expr.differentiate(e, "t") for e in row] for row in self.M]
        return compile_matrix([self.M, dMdx, dMdt], self.n)

    @cached_property
    def constant(self) -> bool:
        """No entry of M depends on x or t."""
        return not any(free_variables(e) for row in self.M for e in row)


@dataclass
class GridSpec:
    """Finite evaluation domain: an axis-aligned x grid, explicit u and t
    samples, and a reproducible batch of unit tangent directions."""

    x_ranges: list[tuple[float, float, int]]
    u_samples: np.ndarray        # (ku, m)
    t_samples: np.ndarray        # (kt,)
    delta_samples: int = 16
    seed: int = 42

    def x_points(self) -> np.ndarray:
        axes = [np.linspace(lo, hi, count) for lo, hi, count in self.x_ranges]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Every grid (x, t), t samples outermost: points (P, n), times (P,)."""
        X = self.x_points()
        ts = np.asarray(self.t_samples, dtype=float)
        return np.tile(X, (ts.size, 1)), np.repeat(ts, X.shape[0])

    def deltas(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        v = rng.normal(size=(self.delta_samples, n))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return v / norms

    def describe(self) -> dict:
        return {
            "x": [[float(lo), float(hi), int(c)] for lo, hi, c in self.x_ranges],
            "u": [[float(v) for v in row] for row in np.atleast_2d(self.u_samples)],
            "t": [float(v) for v in self.t_samples],
            "delta_samples": int(self.delta_samples),
            "seed": int(self.seed),
        }


@dataclass
class RawEval:
    """All pointwise data the differential layer needs.  Leading axes are
    batch axes when produced by Plant.raw_batch."""

    f: np.ndarray      # (n,)
    B: np.ndarray      # (n, m)
    M: np.ndarray      # (n, n), exactly symmetric
    dfdx: np.ndarray   # (n, n), dfdx[i, j] = d f_i / d x_j
    dBdx: np.ndarray   # (m, n, n), dBdx[i] = Jacobian of column b_i
    dMdx: np.ndarray   # (n, n, n), dMdx[k] = d M / d x_k
    dMdt: np.ndarray   # (n, n)


@dataclass
class Scenario:
    """Tracking task bundled with a spec: constant target state/input."""

    x0: np.ndarray
    x_star: np.ndarray
    u_star: np.ndarray
    horizon: float = 10.0
    step: float = 1e-3
    segments: int | None = None


@dataclass
class SpecFile:
    system: SystemSpec
    metric: MetricSpec
    grid: GridSpec
    scenario: Scenario | None = None
    transform: dict | None = None   # {"alpha": [Expression]*m, "beta": m x m}
    name: str = ""


# ---------------------------------------------------------------------------
# loading

_TOP_KEYS = {
    "schema", "name", "description", "n", "m", "f", "B", "M_upper",
    "alpha1", "alpha2", "lambda", "grid", "scenario", "transform",
}


def _want(d: dict, key: str, where: str):
    if key not in d:
        raise SpecError(f"{where}: missing required field {key!r}")
    return d[key]


def _int_field(v, where: str, minimum: int | None = None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise SpecError(f"{where}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise SpecError(f"{where}: must be >= {minimum}, got {v}")
    return v


def _float_field(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(f"{where}: expected a number, got {v!r}")
    if not math.isfinite(float(v)):
        raise SpecError(f"{where}: must be finite, got {v!r}")
    return float(v)


def _parse_entry(text, where: str, allowed: frozenset[str]) -> Expression:
    if not isinstance(text, str):
        raise SpecError(f"{where}: expected expression text, got {text!r}")
    try:
        e = parse(text)
    except expr.ExprSyntaxError as err:
        raise SpecError(f"{where}: {err}") from None
    extra = free_variables(e) - allowed
    if extra:
        raise SpecError(f"{where}: variable(s) {sorted(extra)} not allowed here")
    return e


def _vector_field(v, length: int, where: str) -> np.ndarray:
    if not isinstance(v, list) or len(v) != length:
        raise SpecError(f"{where}: expected a list of {length} numbers")
    return np.array([_float_field(e, f"{where}[{i}]") for i, e in enumerate(v)])


def load_spec_file(path: str | Path) -> SpecFile:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise SpecError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SpecError(f"{path}: unknown field(s) {sorted(unknown)}")
    if _want(doc, "schema", str(path)) != 1:
        raise SpecError(f"{path}: unsupported schema {doc.get('schema')!r} (want 1)")

    n = _int_field(_want(doc, "n", "n"), "n", 1)
    m = _int_field(_want(doc, "m", "m"), "m", 1)
    xvars = frozenset([f"x{i + 1}" for i in range(n)] + ["t"])

    f_rows = _want(doc, "f", "f")
    if not isinstance(f_rows, list) or len(f_rows) != n:
        raise SpecError(f"f: expected a list of {n} expressions")
    f = [_parse_entry(s, f"f[{i}]", xvars) for i, s in enumerate(f_rows)]

    b_rows = _want(doc, "B", "B")
    if not isinstance(b_rows, list) or len(b_rows) != n:
        raise SpecError(f"B: expected {n} rows")
    B: list[list[Expression]] = []
    for i, row in enumerate(b_rows):
        if not isinstance(row, list) or len(row) != m:
            raise SpecError(f"B[{i}]: expected {m} entries (one per input)")
        B.append([_parse_entry(s, f"B[{i}][{j}]", xvars) for j, s in enumerate(row)])

    mu_rows = _want(doc, "M_upper", "M_upper")
    if not isinstance(mu_rows, list) or len(mu_rows) != n:
        raise SpecError(f"M_upper: expected {n} rows (upper triangle)")
    M: list[list[Expression | None]] = [[None] * n for _ in range(n)]
    for i, row in enumerate(mu_rows):
        if not isinstance(row, list) or len(row) != n - i:
            raise SpecError(f"M_upper[{i}]: expected {n - i} entries (columns {i}..{n - 1})")
        for k, s in enumerate(row):
            j = i + k
            e = _parse_entry(s, f"M_upper[{i}][{k}]", xvars)
            M[i][j] = e
            M[j][i] = e  # same object: symmetry is structural

    alpha1 = _float_field(_want(doc, "alpha1", "alpha1"), "alpha1")
    alpha2 = _float_field(_want(doc, "alpha2", "alpha2"), "alpha2")
    lam = _float_field(_want(doc, "lambda", "lambda"), "lambda")
    if alpha1 <= 0:
        raise SpecError(f"alpha1: must be positive, got {alpha1}")
    if alpha2 < alpha1:
        raise SpecError(f"alpha2: must be >= alpha1, got {alpha2} < {alpha1}")
    if lam <= 0:
        raise SpecError(f"lambda: must be positive, got {lam}")

    grid = _load_grid(_want(doc, "grid", "grid"), n, m)
    scenario = _load_scenario(doc.get("scenario"), n, m)
    transform = _load_transform(doc.get("transform"), n, m, xvars)

    return SpecFile(
        system=SystemSpec(n=n, m=m, f=f, B=B),
        metric=MetricSpec(n=n, M=M, alpha1=alpha1, alpha2=alpha2, lam=lam),
        grid=grid,
        scenario=scenario,
        transform=transform,
        name=str(doc.get("name", path.stem)),
    )


def _load_grid(g, n: int, m: int) -> GridSpec:
    if not isinstance(g, dict):
        raise SpecError("grid: expected an object")
    unknown = set(g) - {"x", "u", "t", "delta_samples", "seed"}
    if unknown:
        raise SpecError(f"grid: unknown field(s) {sorted(unknown)}")
    gx = _want(g, "x", "grid.x")
    if not isinstance(gx, list) or len(gx) != n:
        raise SpecError(f"grid.x: expected {n} ranges [lo, hi, count]")
    x_ranges = []
    for i, r in enumerate(gx):
        if not isinstance(r, list) or len(r) != 3:
            raise SpecError(f"grid.x[{i}]: expected [lo, hi, count]")
        lo = _float_field(r[0], f"grid.x[{i}][0]")
        hi = _float_field(r[1], f"grid.x[{i}][1]")
        count = _int_field(r[2], f"grid.x[{i}][2]", 1)
        if hi < lo:
            raise SpecError(f"grid.x[{i}]: hi < lo")
        x_ranges.append((lo, hi, count))
    gu = _want(g, "u", "grid.u")
    if not isinstance(gu, list) or not gu:
        raise SpecError("grid.u: expected a non-empty list of input samples")
    u_samples = np.stack([_vector_field(row, m, f"grid.u[{i}]") for i, row in enumerate(gu)])
    gt = _want(g, "t", "grid.t")
    if not isinstance(gt, list) or not gt:
        raise SpecError("grid.t: expected a non-empty list of times")
    t_samples = np.array([_float_field(v, f"grid.t[{i}]") for i, v in enumerate(gt)])
    delta_samples = _int_field(g.get("delta_samples", 16), "grid.delta_samples", 1)
    seed = _int_field(g.get("seed", 42), "grid.seed", 0)
    return GridSpec(x_ranges, u_samples, t_samples, delta_samples, seed)


def _load_scenario(s, n: int, m: int) -> Scenario | None:
    if s is None:
        return None
    if not isinstance(s, dict):
        raise SpecError("scenario: expected an object")
    unknown = set(s) - {"x0", "x_star", "u_star", "horizon", "step", "segments"}
    if unknown:
        raise SpecError(f"scenario: unknown field(s) {sorted(unknown)}")
    sc = Scenario(
        x0=_vector_field(_want(s, "x0", "scenario.x0"), n, "scenario.x0"),
        x_star=_vector_field(_want(s, "x_star", "scenario.x_star"), n, "scenario.x_star"),
        u_star=_vector_field(_want(s, "u_star", "scenario.u_star"), m, "scenario.u_star"),
    )
    if "horizon" in s:
        sc.horizon = _float_field(s["horizon"], "scenario.horizon")
        if sc.horizon <= 0:
            raise SpecError("scenario.horizon: must be positive")
    if "step" in s:
        sc.step = _float_field(s["step"], "scenario.step")
        if sc.step <= 0:
            raise SpecError("scenario.step: must be positive")
    if "segments" in s:
        sc.segments = _int_field(s["segments"], "scenario.segments", 1)
    return sc


def _load_transform(t, n: int, m: int, xvars: frozenset[str]) -> dict | None:
    if t is None:
        return None
    if not isinstance(t, dict):
        raise SpecError("transform: expected an object")
    unknown = set(t) - {"alpha", "beta"}
    if unknown:
        raise SpecError(f"transform: unknown field(s) {sorted(unknown)}")
    ta = _want(t, "alpha", "transform.alpha")
    if not isinstance(ta, list) or len(ta) != m:
        raise SpecError(f"transform.alpha: expected {m} expressions")
    alpha = [_parse_entry(s, f"transform.alpha[{i}]", xvars) for i, s in enumerate(ta)]
    tb = _want(t, "beta", "transform.beta")
    if not isinstance(tb, list) or len(tb) != m:
        raise SpecError(f"transform.beta: expected {m} rows")
    beta = []
    for i, row in enumerate(tb):
        if not isinstance(row, list) or len(row) != m:
            raise SpecError(f"transform.beta[{i}]: expected {m} entries")
        beta.append([_parse_entry(s, f"transform.beta[{i}][{j}]", xvars)
                     for j, s in enumerate(row)])
    return {"alpha": alpha, "beta": beta}


def load_spec(path: str | Path) -> tuple[SystemSpec, MetricSpec, GridSpec]:
    """Load a spec file; returns (system, metric, grid)."""
    sf = load_spec_file(path)
    return sf.system, sf.metric, sf.grid


def bundled_spec_path(name: str) -> Path:
    """Path of a spec shipped with the package: counterexample,
    double-integrator or bounded-gain."""
    try:
        fname = _BUNDLED[name]
    except KeyError:
        raise SpecError(
            f"no bundled spec {name!r}; choose from "
            "counterexample, double-integrator, bounded-gain"
        ) from None
    return Path(str(resources.files("ccmkit").joinpath("specs", fname)))


# ---------------------------------------------------------------------------
# compiled evaluation

class Plant:
    """Compiled (system, metric) pair; the workhorse behind the verifier
    sweep, the controller's path loop and single-point evaluation.

    It holds the two specs' raw functions, not the specs: each spec owns
    its compiled functions and frees them with itself."""

    def __init__(self, sys: SystemSpec, met: MetricSpec):
        if sys.n != met.n:
            raise SpecError(f"system has n={sys.n} but metric has n={met.n}")
        self.n, self.m = sys.n, sys.m
        self._sys_raw = sys.eval_raw
        self._met_raw = met.eval_raw

    def raw(self, x: np.ndarray, t: float) -> RawEval:
        """f, B, M and their derivative blocks at one point x of shape
        (n,); a non-finite entry raises NonFiniteEvalError naming it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise SpecError(f"point x has shape {x.shape}, expected ({self.n},)")
        r = self.raw_batch(x, t)
        _flag_non_finite(r, x, t)
        return r

    def raw_batch(self, X: np.ndarray, t) -> RawEval:
        f, B, dfdx, dBdx = self._sys_raw(X, t)
        M, dMdx, dMdt = self._met_raw(X, t)
        return RawEval(f=f, B=B, M=M, dfdx=dfdx, dBdx=dBdx, dMdx=dMdx, dMdt=dMdt)


def plant_for(sys: SystemSpec, met: MetricSpec) -> Plant:
    return Plant(sys, met)


_ENTRY_LABELS = (("f", "f"), ("B", "B"), ("M", "M"), ("dfdx", "df/dx"),
                 ("dBdx", "dB/dx"), ("dMdx", "dM/dx"), ("dMdt", "dM/dt"))


def _flag_non_finite(r: RawEval, x, t) -> None:
    """Raise NonFiniteEvalError if r holds inf or nan.

    r is evaluated at one point x, or at points stacked over the leading
    axes of x, with t one time or one per point.  The message names the
    first offending point's entry without the batch index (f[0], M[0][1])
    and gives that point's x and t.
    """
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    bad = {name: ~np.isfinite(getattr(r, name)) for name, _ in _ENTRY_LABELS}
    at = np.any([b.any(axis=tuple(range(len(lead), b.ndim))) for b in bad.values()],
                axis=0)
    if not at.any():
        return
    p = np.unravel_index(np.argmax(at), lead)
    name, label = next((n, lb) for n, lb in _ENTRY_LABELS if bad[n][p].any())
    entry = np.unravel_index(np.argmax(bad[name][p]), bad[name].shape[len(lead):])
    where = "".join(f"[{int(i)}]" for i in entry)
    raise NonFiniteEvalError(
        f"non-finite entry {label}{where} at x={x[p].tolist()}, "
        f"t={float(np.broadcast_to(t, lead)[p])}"
    )


# ---------------------------------------------------------------------------
# metric bounds

@dataclass
class MetricBoundsResult:
    passed: bool
    min_eig: float
    max_eig: float
    argmin: dict = field(default_factory=dict)
    argmax: dict = field(default_factory=dict)
    tol: float = METRIC_BOUNDS_TOL

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "min_eig": float(self.min_eig),
            "max_eig": float(self.max_eig),
            "argmin": self.argmin,
            "argmax": self.argmax,
            "tol": float(self.tol),
        }


def check_metric_bounds(met: MetricSpec, grid: GridSpec) -> MetricBoundsResult:
    """Eigenvalue scan of M over the grid against the claimed bounds.

    Passes iff min eig >= alpha1 - METRIC_BOUNDS_TOL and max eig <=
    alpha2 + METRIC_BOUNDS_TOL at every grid (x, t).
    """
    x, t = grid.samples()
    (M,) = met.eval_M(x, t)
    eigs = np.linalg.eigvalsh(M)
    return metric_bounds(met, eigs[:, 0], eigs[:, -1], x, t)


def metric_bounds(met: MetricSpec, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
                  t: np.ndarray) -> MetricBoundsResult:
    """Summarize each sample's lowest and highest eigenvalue of M against
    the claimed bounds; argmin and argmax name the first extreme sample."""
    i, j = int(np.argmin(lo)), int(np.argmax(hi))
    tol = METRIC_BOUNDS_TOL
    passed = bool(lo[i] >= met.alpha1 - tol and hi[j] <= met.alpha2 + tol)
    return MetricBoundsResult(passed, float(lo[i]), float(hi[j]),
                              {"x": x[i].tolist(), "t": float(t[i])},
                              {"x": x[j].tolist(), "t": float(t[j])})
