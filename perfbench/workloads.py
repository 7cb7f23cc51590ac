"""Benchmark inputs, the operations that run them, and the checks of
their outputs against stored references.

An operation is one user-level call, issued by a single client that
waits for it to return (a closed loop):

* ``verify``, ``simulate``: ``ccmkit.cli.main`` in process, exactly as the
  ``ccmkit`` command runs them;
* ``probe``: load the spec and call ``ccmkit.transforms.invariance_probe``.

Every name is looked up through its module at call time, so the wrappers
that ``tracer`` installs see every call.  Each input comes in a ``full``
size (the timed operations) and a ``small`` size (warm-up and smoke
mode).  References were produced by ``make_reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ccmkit import cli, model, transforms

BENCH_DIR = Path(__file__).resolve().parent
WARPED_SPEC = str(BENCH_DIR / "specs" / "warped_double_integrator.json")
REFERENCE_JSON = BENCH_DIR / "reference" / "expected.json"
REFERENCE_NPZ = BENCH_DIR / "reference" / "trajectories.npz"

REL_TOL = 1e-12
# rounding-level values (psi ~ 3e-17 and max |H| ~ 1.6e-16 on the warped
# spec) are compared against this absolute floor instead
ABS_FLOOR = 1e-13
CSV_TOL = 1e-12
# report fields that locate points: compared exactly
EXACT_KEYS = frozenset({"worst_at", "max_psi_at", "argmin", "argmax", "x", "t"})


@dataclass(frozen=True)
class Input:
    """One benchmark input.  ``sizes`` maps "full"/"small" to the extra
    CLI arguments (or, for the probe, the grid count per axis) and the
    number of work items one operation performs at that size."""

    key: str
    kind: str          # "verify", "track-constant", "track-curved" or "probe"
    spec: str          # bundled name or spec file path
    sizes: dict


def _grid(density: int, dims: int) -> tuple:
    return ("--grid-density", str(density)), density ** dims


INPUTS = {
    "verify-grid": [
        Input("verify/double-integrator", "verify", "double-integrator",
              {"full": _grid(101, 2), "small": _grid(9, 2)}),
        Input("verify/warped", "verify", WARPED_SPEC,
              {"full": _grid(101, 2), "small": _grid(9, 2)}),
        Input("verify/bounded-gain", "verify", "bounded-gain",
              {"full": _grid(10001, 1), "small": _grid(101, 1)}),
        # the bundled 801 points: smaller grids miss the psi blow-up
        Input("verify/counterexample", "verify", "counterexample",
              {"full": ((), 801), "small": ((), 801)}),
    ],
    "track-constant": [
        Input("simulate/double-integrator", "track-constant", "double-integrator",
              {"full": (("--horizon", "1"), 1000),
               "small": (("--horizon", "0.05"), 50)}),
        Input("simulate/bounded-gain", "track-constant", "bounded-gain",
              {"full": (("--horizon", "1"), 1000),
               "small": (("--horizon", "0.05"), 50)}),
    ],
    "track-curved": [
        Input("simulate/warped", "track-curved", WARPED_SPEC,
              {"full": ((), 200), "small": (("--horizon", "0.1"), 10)}),
    ],
    "probe-transform": [
        Input("probe/warped", "probe", WARPED_SPEC,
              {"full": (41, 41 * 41 * 16), "small": (5, 5 * 5 * 16)}),
    ],
}

WORKLOAD_ITEMS = {
    "verify-grid": "verify_points_per_s: grid points verified per second",
    "track-constant": "sim_steps_per_s: closed-loop steps per second",
    "track-curved": "sim_steps_per_s: closed-loop steps per second",
    "probe-transform": "probe_checks_per_s: point-tangent checks per second",
}


@dataclass
class OpRecord:
    key: str
    seconds: float
    items: int
    ok: bool
    detail: str = ""


def spec_path(spec: str) -> str:
    return spec if spec.endswith(".json") else str(model.bundled_spec_path(spec))


def load_spec(inp: Input, density: int | None = None):
    """Load an input's spec, with ``density`` grid points per axis when given."""
    sf = model.load_spec_file(spec_path(inp.spec))
    if density is not None:
        sf.grid.x_ranges = [(lo, hi, density) for lo, hi, _ in sf.grid.x_ranges]
    return sf


def ref_key(inp: Input, size: str) -> str:
    return f"{inp.key}/{size}"


# ---------------------------------------------------------------------------
# running one operation

def _cli_argv(inp: Input, size: str, seed: int, out_dir: Path) -> list[str]:
    command = "verify" if inp.kind == "verify" else "simulate"
    extra, _ = inp.sizes[size]
    return [command, "--spec", inp.spec, *extra, "--seed", str(seed),
            "--out", str(out_dir), "--no-timestamp"]


def _probe(inp: Input, size: str, seed: int):
    density, _ = inp.sizes[size]
    sf = load_spec(inp, density)
    sf.grid.seed = seed
    tf = transforms.FeedbackTransform.from_spec(sf)
    return transforms.invariance_probe(sf.system, sf.metric, tf, sf.grid)


def execute(inp: Input, size: str, seed: int, out_dir: Path):
    """Run one operation; returns (seconds, raw output).  Only the call
    itself is timed."""
    if inp.kind == "probe":
        t0 = time.perf_counter()
        result = _probe(inp, size, seed)
        return time.perf_counter() - t0, result
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = _cli_argv(inp, size, seed, out_dir)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return seconds, code


def collect(inp: Input, raw, out_dir: Path) -> dict:
    """The output of one operation in the form references are stored."""
    if inp.kind == "probe":
        return {"result": raw.to_dict()}
    report = json.loads((out_dir / "report.json").read_text())
    out = {"exit_code": raw, "report": report}
    if inp.kind != "verify":
        out["trajectory"] = np.loadtxt(out_dir / "trajectory.csv", delimiter=",",
                                       skiprows=1, ndmin=2)
    return out


def run_op(inp: Input, size: str, seed: int, out_dir: Path,
           reference: "Reference") -> OpRecord:
    """Run, time and check one operation.  An exception is a failed
    operation, not a crash of the benchmark."""
    items = inp.sizes[size][1]
    try:
        seconds, raw = execute(inp, size, seed, out_dir)
    except Exception as err:  # noqa: BLE001 - the benchmark must keep running
        return OpRecord(inp.key, math.nan, items, False,
                        f"raised {type(err).__name__}: {err}")
    try:
        problems = reference.check(inp, size, seed, collect(inp, raw, out_dir))
    except (OSError, ValueError, KeyError) as err:
        problems = [f"output unreadable: {err}"]
    return OpRecord(inp.key, seconds, items, not problems, "; ".join(problems[:3]))


# ---------------------------------------------------------------------------
# checks

def _strip_seed(obj):
    if isinstance(obj, dict):
        return {k: _strip_seed(v) for k, v in obj.items() if k != "seed"}
    return obj


def compare(got, want, path: str = "", exact: bool = False) -> list[str]:
    """Differences between two JSON values.  Booleans, integers, strings
    and point locations must match exactly; other floats to REL_TOL
    relative, with ABS_FLOOR for rounding-level values."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or '.'}: keys differ"]
        out = []
        for k in sorted(want):
            out += compare(got[k], want[k], f"{path}.{k}", exact or k in EXACT_KEYS)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else '?'} "
                    f"!= {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]", exact)
        return out
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool) and not exact:
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_FLOOR):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


class Reference:
    """Stored outputs of the seed code, and the per-kind checks."""

    def __init__(self):
        self.ops = json.loads(REFERENCE_JSON.read_text())["ops"]
        with np.load(REFERENCE_NPZ) as npz:
            self.trajectories = {k: npz[k] for k in npz.files}

    def check(self, inp: Input, size: str, seed: int, out: dict) -> list[str]:
        key = ref_key(inp, size)
        want = self.ops[key]
        if inp.kind == "probe":
            got = out["result"]
            return [f"probe {f}: {got[f]!r} != {want[f]!r}"
                    for f in ("passed", "checked_points") if got[f] != want[f]]
        problems = []
        if out["exit_code"] != want["exit_code"]:
            problems.append(f"exit code {out['exit_code']} != {want['exit_code']}")
        report = out["report"]
        if report.get("seed") != seed:
            problems.append(f"report seed {report.get('seed')!r} != {seed}")
        if inp.kind == "verify":
            problems += compare(_strip_seed(report["report"]),
                                _strip_seed(want["report"]), "report")
        elif inp.kind == "track-constant":
            problems += compare(report["convergence"], want["convergence"],
                                "convergence")
            traj = out["trajectory"]
            ref = self.trajectories[key]
            if traj.shape != ref.shape:
                problems.append(f"trajectory shape {traj.shape} != {ref.shape}")
            elif not np.allclose(traj, ref, rtol=CSV_TOL, atol=CSV_TOL):
                worst = float(np.max(np.abs(traj - ref)))
                problems.append(f"trajectory differs by up to {worst:.3e}")
        else:
            # a converging geodesic solver may move this trajectory: check
            # the rate and overshoot verdicts and the run length instead
            conv = report["convergence"]
            for f in ("passed", "rate_pass", "overshoot_pass"):
                if conv[f] != want["convergence"][f]:
                    problems.append(f"convergence.{f} {conv[f]!r} != "
                                    f"{want['convergence'][f]!r}")
            rows = out["trajectory"].shape[0]
            if rows != want["trajectory_rows"]:
                problems.append(f"trajectory rows {rows} != {want['trajectory_rows']}")
        return problems
