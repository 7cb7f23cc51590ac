"""System, metric and grid descriptions plus compiled raw evaluation.

A system is dx/dt = f(x, t) + B(x, t) u with n states and m inputs; a
candidate metric is a symmetric matrix function M(x, t) with claimed
uniform bounds alpha1 I <= M <= alpha2 I and contraction rate lambda.
Entries are expression text (see expr).  Only the upper triangle of M is
stored; the mirrored entries share the same expression object, so an
evaluated M is symmetric bitwise, not just to rounding.

Spec files are JSON with "schema": 1; the layout is documented in the
README.  Every table is read by one walker over its fixed shape, which
fails closed and names the deepest field path in every error.  Report is
the base every result dataclass serializes through.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from sys import float_info

import numpy as np

from . import expr
from .expr import Expression, compile_matrix, free_variables, jacobian, parse

METRIC_BOUNDS_TOL = 1e-9   # absolute slack on the claimed [alpha1, alpha2]
SWEEP_BYTES = 2 ** 20      # stage arrays a grid scan holds at once, in bytes

_BUNDLED = ("counterexample", "double-integrator", "bounded-gain")


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

    @cached_property
    def autonomous(self) -> bool:
        """No entry of f or B depends on t."""
        return not any("t" in free_variables(e) for row in [self.f, *self.B] for e in row)


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

    def chunks(self, points: int):
        """The grid (x, t) in the order of samples(), at most `points` at a
        time; only one chunk's points are ever built."""
        axes = [np.linspace(lo, hi, count) for lo, hi, count in self.x_ranges]
        shape = tuple(a.size for a in axes)
        nx = math.prod(shape)
        ts = np.asarray(self.t_samples, dtype=float).ravel()
        for start in range(0, nx * ts.size, points):
            it, ix = np.divmod(np.arange(start, min(start + points, nx * ts.size)), nx)
            x = np.stack([a[i] for a, i in zip(axes, np.unravel_index(ix, shape))],
                         axis=-1)
            yield x, ts[it]

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


def _object(d, where: str, allowed: set) -> dict:
    if not isinstance(d, dict):
        raise SpecError(f"{where}: expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise SpecError(f"{where}: unknown field(s) {sorted(unknown)}")
    return d


def _table(value, shape: tuple, where: str, leaf):
    """Nested lists with one length per level of shape (None: one or
    more), each entry read by leaf(entry, path); shape () reads value
    itself.  Every error names the deepest path, such as B[1][0]."""
    if not shape:
        return leaf(value, where)
    k = shape[0]
    if not isinstance(value, list) or not value or k not in (None, len(value)):
        want = "a non-empty list" if k is None else f"a list of length {k}"
        raise SpecError(f"{where}: expected {want}")
    return [_table(v, shape[1:], f"{where}[{i}]", leaf) for i, v in enumerate(value)]


def _field(d: dict, path: str, leaf, shape: tuple = ()):
    """The required field named by the last part of path, read by _table."""
    key = path.rsplit(".", 1)[-1]
    if key not in d:
        raise SpecError(f"{path}: missing required field {key!r}")
    return _table(d[key], shape, path, leaf)


def _integer(v, where: str, minimum: int = 1) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise SpecError(f"{where}: expected an integer, got {v!r}")
    if v < minimum:
        raise SpecError(f"{where}: must be >= {minimum}, got {v}")
    return v


def _number(v, where: str) -> float:
    # compared, not converted: float() overflows on a long JSON integer
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not abs(v) <= float_info.max:
        raise SpecError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _positive(v, where: str) -> float:
    x = _number(v, where)
    if x <= 0:
        raise SpecError(f"{where}: must be positive, got {x}")
    return x


def load_spec_file(path: str | Path) -> SpecFile:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise SpecError(f"{path}: invalid JSON: {err}") from None
    _object(doc, str(path), _TOP_KEYS)
    if _field(doc, "schema", _integer) != 1:
        raise SpecError(f"{path}: unsupported schema {doc['schema']} (want 1)")
    for key in ("name", "description"):
        if not isinstance(doc.get(key, ""), str):
            raise SpecError(f"{key}: expected a string, got {doc[key]!r}")

    n, m = _field(doc, "n", _integer), _field(doc, "m", _integer)
    xvars = frozenset(_xvars(n) + ["t"])

    def expression(text, where: str) -> Expression:
        if not isinstance(text, str):
            raise SpecError(f"{where}: expected expression text, got {text!r}")
        try:
            e = parse(text)
        except expr.ExprSyntaxError as err:
            raise SpecError(f"{where}: {err}") from None
        extra = free_variables(e) - xvars
        if extra:
            raise SpecError(f"{where}: variable(s) {sorted(extra)} not allowed here")
        return e

    f = _field(doc, "f", expression, (n,))
    B = _field(doc, "B", expression, (n, m))
    M: list[list[Expression | None]] = [[None] * n for _ in range(n)]
    for i, row in enumerate(_field(doc, "M_upper", lambda v, _: v, (n,))):
        for k, e in enumerate(_table(row, (n - i,), f"M_upper[{i}]", expression)):
            M[i][i + k] = M[i + k][i] = e   # same object: symmetry is structural
    alpha1 = _field(doc, "alpha1", _positive)
    alpha2 = _field(doc, "alpha2", _number)
    if alpha2 < alpha1:
        raise SpecError(f"alpha2: must be >= alpha1, got {alpha2} < {alpha1}")
    lam = _field(doc, "lambda", _positive)

    g = _object(_field(doc, "grid", lambda v, _: v), "grid",
                {"x", "u", "t", "delta_samples", "seed"})
    x_ranges = []
    for i, (lo, hi, _) in enumerate(_field(g, "grid.x", _number, (n, 3))):
        count = _integer(g["x"][i][2], f"grid.x[{i}][2]")
        if hi < lo:
            raise SpecError(f"grid.x[{i}]: hi < lo")
        x_ranges.append((lo, hi, count))
    grid = GridSpec(x_ranges, np.array(_field(g, "grid.u", _number, (None, m))),
                    np.array(_field(g, "grid.t", _number, (None,))),
                    _integer(g.get("delta_samples", 16), "grid.delta_samples"),
                    _integer(g.get("seed", 42), "grid.seed", 0))

    s = doc.get("scenario")
    scenario = None
    if s is not None:
        vectors = {"x0": n, "x_star": n, "u_star": m}
        optional = {"horizon": _positive, "step": _positive, "segments": _integer}
        _object(s, "scenario", {*vectors, *optional})
        scenario = Scenario(
            **{k: np.array(_field(s, f"scenario.{k}", _number, (size,)))
               for k, size in vectors.items()},
            **{k: read(s[k], f"scenario.{k}") for k, read in optional.items() if k in s},
        )

    t = doc.get("transform")
    transform = None
    if t is not None:
        _object(t, "transform", {"alpha", "beta"})
        transform = {"alpha": _field(t, "transform.alpha", expression, (m,)),
                     "beta": _field(t, "transform.beta", expression, (m, m))}

    return SpecFile(
        system=SystemSpec(n=n, m=m, f=f, B=B),
        metric=MetricSpec(n=n, M=M, alpha1=alpha1, alpha2=alpha2, lam=lam),
        grid=grid,
        scenario=scenario,
        transform=transform,
        name=doc.get("name", path.stem),
    )


def bundled_spec_path(name: str) -> Path:
    """Path of a spec shipped with the package: counterexample,
    double-integrator or bounded-gain (an underscore reads as a hyphen)."""
    key = name.replace("_", "-")
    if key not in _BUNDLED:
        raise SpecError(f"no bundled spec {name!r}; choose from {', '.join(_BUNDLED)}")
    fname = key.replace("-", "_") + ".json"
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
        _flag_non_finite(vars(r), x, t)
        return r

    def raw_batch(self, X: np.ndarray, t) -> RawEval:
        f, B, dfdx, dBdx = self._sys_raw(X, t)
        M, dMdx, dMdt = self._met_raw(X, t)
        return RawEval(f=f, B=B, M=M, dfdx=dfdx, dBdx=dBdx, dMdx=dMdx, dMdt=dMdt)


def plant_for(sys: SystemSpec, met: MetricSpec) -> Plant:
    return Plant(sys, met)


def chunk_points(n: int, m: int) -> int:
    """Points per chunk of a grid scan: SWEEP_BYTES over _point_bytes."""
    return max(1, SWEEP_BYTES // _point_bytes(n, m))


def _point_bytes(n: int, m: int) -> int:
    """Bytes the verifier's stages hold per point at their peak: n^3 +
    7 m n^2 + 9 n^2 + 24 float64 entries, fitted to tracemalloc peaks
    for n <= 4, m <= 2 (768 bytes at n = 2, m = 1)."""
    return 8 * (n ** 3 + 7 * m * n * n + 9 * n * n + 24)


_ENTRY_LABELS = {"dfdx": "df/dx", "dBdx": "dB/dx", "dMdx": "dM/dx", "dMdt": "dM/dt"}


def _flag_non_finite(entries: dict, x, t) -> None:
    """Raise NonFiniteEvalError if an array of entries holds inf or nan.

    entries maps RawEval field names to their values (vars() of a
    RawEval, or only {"M": M}), evaluated at one point x, or at points
    stacked over the leading axes of x, with t one time or one per point.
    The message names the first offending point's entry, the first in
    the order of entries, without the batch index (f[0], M[0][1]) and
    gives that point's x and t.
    """
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    bad = {name: ~np.isfinite(v) for name, v in entries.items()}
    at = np.any([b.any(axis=tuple(range(len(lead), b.ndim))) for b in bad.values()],
                axis=0)
    if not at.any():
        return
    p = np.unravel_index(np.argmax(at), lead)
    name = next(n for n in bad if bad[n][p].any())
    entry = np.unravel_index(np.argmax(bad[name][p]), bad[name].shape[len(lead):])
    where = _ENTRY_LABELS.get(name, name) + "".join(f"[{int(i)}]" for i in entry)
    raise NonFiniteEvalError(
        f"non-finite entry {where} at x={x[p].tolist()}, "
        f"t={float(np.broadcast_to(t, lead)[p])}"
    )


# ---------------------------------------------------------------------------
# reports

@cache
def _report_fields(cls) -> list:
    """(field, output key, scalar type or None) for each field of cls; the
    scalar type is the one its annotation names, also inside X | None."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        args = typing.get_args(hints[f.name]) or (hints[f.name],)
        out.append((f, f.metadata.get("key", f.name),
                    next((a for a in args if a in (bool, int, float, str)), None)))
    return out


def _plain(v, scalar=None):
    if v is None or isinstance(v, (str, dict)):
        return v
    if isinstance(v, Report):
        return v.to_dict()
    if isinstance(v, (list, tuple)):
        return [_plain(e) for e in v]
    if scalar is not None:
        return scalar(v)
    return v.item() if isinstance(v, np.generic) else v


class Report:
    """Base of the result dataclasses.  to_dict writes each field under
    its name, or under metadata "key"; a field with metadata "derive" is
    replaced by the entries that function returns for its value.  Values
    become the scalar type their annotation names, nested results
    recurse, tuples and lists become lists, and None, dicts and strings
    pass through."""

    def to_dict(self) -> dict:
        out = {}
        for f, key, scalar in _report_fields(type(self)):
            v = getattr(self, f.name)
            if "derive" in f.metadata:
                out.update(f.metadata["derive"](v))
            else:
                out[key] = _plain(v, scalar)
        return out


def location(x: np.ndarray, t: np.ndarray, i: int) -> dict:
    """Report entry naming sample i of points x (P, n) at times t (P,)."""
    return {"x": x[i].tolist(), "t": float(t[i])}


class Extreme:
    """Running extreme of a per-sample value over chunks in grid order:
    the value and sample that pick (np.argmin or np.argmax) gives on the
    whole grid, the first one on ties."""

    def __init__(self, pick):
        self.pick, self.value, self.x, self.t = pick, None, None, None

    def add(self, v: np.ndarray, x: np.ndarray, t: np.ndarray, where=None) -> None:
        """Fold in the samples of one chunk, or those where `where` holds."""
        idx = np.arange(v.size) if where is None else np.flatnonzero(where)
        if idx.size == 0:
            return
        i = idx[self.pick(v[idx])]
        if self.value is None or self.pick([self.value, v[i]]) == 1:
            self.value, self.x, self.t = v[i], x[i].copy(), t[i]

    def at(self) -> dict:
        return {} if self.value is None else {"x": self.x.tolist(), "t": float(self.t)}


# ---------------------------------------------------------------------------
# metric bounds

@dataclass
class MetricBoundsResult(Report):
    passed: bool
    min_eig: float
    max_eig: float
    argmin: dict = field(default_factory=dict)
    argmax: dict = field(default_factory=dict)
    tol: float = METRIC_BOUNDS_TOL


def check_metric_bounds(met: MetricSpec, grid: GridSpec) -> MetricBoundsResult:
    """Eigenvalue scan of M over the grid against the claimed bounds, one
    chunk of the grid at a time.

    Passes iff min eig >= alpha1 - METRIC_BOUNDS_TOL and max eig <=
    alpha2 + METRIC_BOUNDS_TOL at every grid (x, t).  A non-finite M
    raises NonFiniteEvalError, naming the first such point.
    """
    lo, hi = Extreme(np.argmin), Extreme(np.argmax)
    for x, t in grid.chunks(chunk_points(met.n, 0)):
        (M,) = met.eval_M(x, t)
        _flag_non_finite({"M": M}, x, t)
        eigs = np.linalg.eigvalsh(M)
        lo.add(eigs[:, 0], x, t)
        hi.add(eigs[:, -1], x, t)
    return metric_bounds(met, lo, hi)


def metric_bounds(met: MetricSpec, lo: Extreme, hi: Extreme) -> MetricBoundsResult:
    """The lowest and highest eigenvalue of M, folded over the grid,
    against the claimed bounds; argmin and argmax name the first extreme
    sample."""
    tol = METRIC_BOUNDS_TOL
    passed = bool(lo.value >= met.alpha1 - tol and hi.value <= met.alpha2 + tol)
    return MetricBoundsResult(passed, float(lo.value), float(hi.value), lo.at(), hi.at())
