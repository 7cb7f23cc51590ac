"""Command line front end.

    ccmkit validate --spec PATH
    ccmkit verify   --spec PATH [--out DIR] [--lambda F] [--grid-density N]
                    [--threads N] [--seed N] [--no-timestamp]
    ccmkit simulate --spec PATH [--out DIR] [--horizon F] [--step F]
                    [--segments N] [--lambda F] [--seed N] [--no-timestamp]
    ccmkit demo-counterexample [--spec PATH] [--out DIR] [...same flags]

--spec accepts a file path or a bundled name (counterexample,
double-integrator, bounded-gain).  Exit codes: 0 checks passed,
1 a verified condition failed, 2 input error (including a bad override
value, or a spec that evaluates to inf or nan on the grid),
3 controller infeasible.
Reports are JSON with sorted keys; with --no-timestamp two runs on the
same inputs and seed produce byte-identical files.  --threads is
accepted and ignored: verify checks the grid in one vectorized pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .controller import ControllerConfig
from .model import (
    GridSpec,
    NonFiniteEvalError,
    SpecError,
    SpecFile,
    bundled_spec_path,
    load_spec_file,
)
from .simulator import integrate, simulate_closed_loop, tracking_cost, write_csv
from .verifier import verify

EXIT_PASS = 0
EXIT_CONDITION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", help="spec file path or bundled name")
    common.add_argument("--out", default=".", help="output directory (default .)")
    common.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="override the claimed contraction rate")
    common.add_argument("--grid-density", type=int, default=None,
                        help="override the x grid count per dimension")
    common.add_argument("--horizon", type=float, default=None,
                        help="simulation horizon override")
    common.add_argument("--step", type=float, default=None,
                        help="integration step override")
    common.add_argument("--segments", type=int, default=None,
                        help="path segments override for the controller")
    common.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored (verify runs one vectorized pass)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the grid RNG seed")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-identical reports")

    p = argparse.ArgumentParser(
        prog="ccmkit",
        description="verify contraction metrics and exercise the derived feedback",
    )
    p.add_argument("--version", action="version", version=f"ccmkit {_version}")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="load and validate a spec file")
    sub.add_parser("verify", parents=[common],
                   help="run all metric checks over the spec grid")
    sub.add_parser("simulate", parents=[common],
                   help="closed-loop tracking run of the bundled scenario")
    sub.add_parser("demo-counterexample", parents=[common],
                   help="reproduce the vanishing-authority counterexample")
    return p


def _resolve_spec(arg: str | None, default: str | None = None) -> Path:
    name = arg if arg is not None else default
    if name is None:
        raise SpecError("--spec is required for this command")
    path = Path(name)
    if path.exists():
        return path
    try:
        return bundled_spec_path(name)
    except SpecError:
        raise SpecError(f"spec {name!r} is neither a file nor a bundled name") from None


def _apply_overrides(sf: SpecFile, args) -> SpecFile:
    for flag, value in (("--lambda", args.lam), ("--horizon", args.horizon),
                        ("--step", args.step)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise SpecError(f"{flag} must be positive and finite")
    for flag, value, least in (("--grid-density", args.grid_density, 1),
                               ("--segments", args.segments, 1),
                               ("--seed", args.seed, 0)):
        if value is not None and value < least:
            raise SpecError(f"{flag} must be >= {least}")
    if args.lam is not None:
        sf.metric.lam = args.lam
    if args.grid_density is not None:
        sf.grid = GridSpec(
            [(lo, hi, args.grid_density) for lo, hi, _ in sf.grid.x_ranges],
            sf.grid.u_samples, sf.grid.t_samples,
            sf.grid.delta_samples, sf.grid.seed,
        )
    if args.seed is not None:
        sf.grid.seed = args.seed
    if args.horizon is not None and sf.scenario is not None:
        sf.scenario.horizon = args.horizon
    if args.step is not None and sf.scenario is not None:
        sf.scenario.step = args.step
    if args.segments is not None and sf.scenario is not None:
        sf.scenario.segments = args.segments
    return sf


def _write_report(args, payload: dict, out_dir: Path, fname: str = "report.json") -> Path:
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / fname
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _status(flag: bool) -> str:
    return "PASS" if flag else "FAIL"


def cmd_validate(args) -> int:
    sf = load_spec_file(_resolve_spec(args.spec))
    sf = _apply_overrides(sf, args)
    sys_, met, grid = sf.system, sf.metric, sf.grid
    nx = int(np.prod([c for _, _, c in grid.x_ranges]))
    print(f"spec {sf.name!r}: valid")
    print(f"  states n={sys_.n}, inputs m={sys_.m}")
    print(f"  claimed bounds [{met.alpha1}, {met.alpha2}] at rate lambda={met.lam}")
    print(f"  grid: {nx} x-points, {len(grid.u_samples)} u-samples, "
          f"{len(grid.t_samples)} t-samples, seed {grid.seed}")
    if sf.scenario is not None:
        print(f"  scenario: x0={sf.scenario.x0.tolist()} -> "
              f"x*={sf.scenario.x_star.tolist()} over T={sf.scenario.horizon}")
    if sf.transform is not None:
        print("  transform: input map alpha/beta present")
    return EXIT_PASS


def cmd_verify(args) -> int:
    sf = _apply_overrides(load_spec_file(_resolve_spec(args.spec)), args)
    report = verify(sf.system, sf.metric, sf.grid)
    payload = {
        "command": "verify",
        "spec": sf.name,
        "seed": sf.grid.seed,
        "report": report.to_dict(),
    }
    path = _write_report(args, payload, Path(args.out))
    b = report.metric_bounds
    c = report.contraction
    c1 = report.condition1
    print(f"metric bounds: {_status(b.passed)} "
          f"(eigenvalues in [{b.min_eig:.9g}, {b.max_eig:.9g}])")
    wm = "vacuous" if c.worst_margin is None else f"{c.worst_margin:.9g}"
    print(f"kernel contraction: {_status(c.passed)} (worst margin {wm}, "
          f"{c.vacuous_points}/{c.checked_points} vacuous)")
    print(f"certificate sweep: {_status(c1.passed)} (max psi {c1.max_psi:.9g}, "
          f"{c1.invalid_count} invalid points)")
    if c1.power_law is not None and c1.power_law.exponent is not None:
        print(f"  psi growth exponent toward the worst point: "
              f"{c1.power_law.exponent:.3f}")
    print(f"strong conditions: {'hold' if report.strong.strong else 'do not hold'} "
          f"(max |H| {report.strong.max_H_norm:.3g})")
    print(f"verdict: {'POSITIVE' if report.verdict else 'NEGATIVE'} "
          f"(domain: grid in report, not the full state space)")
    print(f"report: {path}")
    return EXIT_PASS if report.verdict else EXIT_CONDITION_FAILED


def cmd_simulate(args) -> int:
    sf = _apply_overrides(load_spec_file(_resolve_spec(args.spec)), args)
    if sf.scenario is None:
        raise SpecError(f"spec {sf.name!r} has no scenario to simulate")
    sc = sf.scenario
    segments = sc.segments if sc.segments is not None else 32
    cfg = ControllerConfig(lam=sf.metric.lam, path_segments=segments)
    try:
        traj, rep = simulate_closed_loop(
            sf.system, sf.metric, cfg, sc.x_star, sc.u_star, sc.x0,
            horizon=sc.horizon, step=sc.step,
        )
    except ValueError as err:
        raise SpecError(f"scenario rejected: {err}") from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trajectory.csv"
    write_csv(csv_path, traj, rep.V)
    payload = {
        "command": "simulate",
        "spec": sf.name,
        "seed": sf.grid.seed,
        "scenario": {
            "x0": sc.x0.tolist(), "x_star": sc.x_star.tolist(),
            "u_star": sc.u_star.tolist(), "horizon": sc.horizon,
            "step": sc.step, "segments": segments,
        },
        "convergence": rep.to_dict(),
    }
    path = _write_report(args, payload, out_dir)
    if rep.infeasible_time is not None:
        print(f"controller infeasible at t={rep.infeasible_time}: "
              f"{rep.infeasible_message}")
        print(f"report: {path}")
        return EXIT_INFEASIBLE
    if rep.abort_time is not None:
        print(f"integration aborted at t={rep.abort_time} (non-finite state)")
        print(f"report: {path}")
        return EXIT_CONDITION_FAILED
    fr = "n/a" if rep.fitted_rate is None else f"{rep.fitted_rate:.4f}"
    ov = "n/a" if rep.overshoot is None else f"{rep.overshoot:.4f}"
    print(f"tracking run complete: rate {fr} (claimed {rep.claimed_rate}), "
          f"overshoot {ov} (claimed {rep.claimed_overshoot:.4f}), "
          f"status {rep.rate_status}")
    print(f"convergence: {_status(rep.passed)}")
    print(f"trajectory: {csv_path}")
    print(f"report: {path}")
    return EXIT_PASS if rep.passed else EXIT_CONDITION_FAILED


def cmd_demo_counterexample(args) -> int:
    sf = _apply_overrides(
        load_spec_file(_resolve_spec(args.spec, default="counterexample")), args
    )
    sys_, met, grid = sf.system, sf.metric, sf.grid
    lam = met.lam
    horizon = sf.scenario.horizon if sf.scenario is not None else 10.0
    step = sf.scenario.step if sf.scenario is not None else 1e-3
    if args.horizon is not None:
        horizon = args.horizon
    if args.step is not None:
        step = args.step

    report = verify(sys_, met, grid)

    # open-loop runs under the constant input u = 1
    run_one = integrate(sys_, np.ones(sys_.m), np.ones(sys_.n), 0.0, horizon, step)
    run_zero = integrate(sys_, np.ones(sys_.m), np.zeros(sys_.n), 0.0, horizon, step)
    dev_one = float(np.max(np.abs(run_one.states - 1.0)))
    dev_zero = float(np.max(np.abs(run_zero.states)))

    exponent = None
    if report.condition1.power_law is not None:
        exponent = report.condition1.power_law.exponent

    margin = report.contraction.worst_margin
    expected_margin = 2.0 * lam - 2.0
    checks = [
        ("metric bounds hold", report.metric_bounds.passed),
        ("kernel contraction passes", report.contraction.passed),
        ("kernel margin at the origin equals 2*lambda - 2",
         margin is not None and abs(margin - expected_margin) <= 1e-6),
        ("certificate sweep fails (psi blows up)", report.condition1.blow_up),
        ("psi growth fits a cubic power law (exponent in [-3.2, -2.8])",
         exponent is not None and -3.2 <= exponent <= -2.8),
        ("open-loop run from x0 = 1 under u = 1 stays at 1 (<= 1e-9)",
         dev_one <= 1e-9),
        ("open-loop run from x0 = 0 under u = 1 stays at 0 (<= 1e-9)",
         dev_zero <= 1e-9),
    ]
    all_ok = all(ok for _, ok in checks)
    first_bad = next((name for name, ok in checks if not ok), None)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "open_loop_from_one.csv", run_one,
              tracking_cost(run_one, np.ones(sys_.n), met))
    write_csv(out_dir / "open_loop_from_zero.csv", run_zero,
              tracking_cost(run_zero, np.ones(sys_.n), met))

    payload = {
        "command": "demo-counterexample",
        "spec": sf.name,
        "seed": grid.seed,
        "report": report.to_dict(),
        "open_loop": {
            "from_one_max_dev": dev_one,
            "from_zero_max_dev": dev_zero,
            "horizon": horizon,
            "step": step,
        },
        "checks": [{"name": name, "passed": bool(ok)} for name, ok in checks],
        "all_expected_outcomes": all_ok,
        "first_deviation": first_bad,
    }
    _write_report(args, payload, out_dir)
    _write_demo_markdown(out_dir / "demo.md", sf, report, checks, dev_one,
                         dev_zero, exponent, horizon)

    for name, ok in checks:
        print(f"[{'ok' if ok else 'DEVIATED'}] {name}")
    if all_ok:
        print("all expected outcomes reproduced")
        print(f"narrative: {out_dir / 'demo.md'}")
        return EXIT_PASS
    print(f"first deviation: {first_bad}")
    print(f"narrative: {out_dir / 'demo.md'}")
    return EXIT_CONDITION_FAILED


def _write_demo_markdown(path: Path, sf: SpecFile, report, checks,
                         dev_one: float, dev_zero: float,
                         exponent: float | None, horizon: float) -> None:
    met = sf.metric
    c1 = report.condition1
    margin = report.contraction.worst_margin
    lines = [
        "# A valid contraction metric that cannot be realized by feedback",
        "",
        "The scalar plant `dx/dt = -x + x^2 u` with the identity metric "
        f"contracts at rate lambda = {met.lam}: for tangents orthogonal to "
        "the control direction, the kernel condition holds with room to "
        "spare.  The catch is the input gain `x^2`, which vanishes at the "
        "origin faster than the metric can compensate.",
        "",
        "## What the verifier finds",
        "",
        f"* metric bounds: eigenvalues in [{report.metric_bounds.min_eig:.6g}, "
        f"{report.metric_bounds.max_eig:.6g}] against claimed "
        f"[{met.alpha1}, {met.alpha2}] -> "
        f"{'pass' if report.metric_bounds.passed else 'fail'}",
        f"* kernel contraction: worst margin "
        f"{'vacuous' if margin is None else f'{margin:.9g}'} (only the origin "
        "has a nonempty kernel; everywhere else the single input spans the "
        "tangent space) -> "
        f"{'pass' if report.contraction.passed else 'fail'}",
        f"* pairing certificate: max finite psi {c1.max_psi:.6g}, "
        f"{c1.invalid_count} points where H leaks outside range(Q) -> "
        f"{'pass' if c1.passed else 'fail (blow-up)'}",
    ]
    if exponent is not None:
        lines += [
            "",
            "## How fast psi degenerates",
            "",
            f"Probing psi along the ray toward the origin fits "
            f"log psi ~ {exponent:.3f} * log |x|: the required gain grows "
            "like 4 / |x|^3, so no continuous psi exists on any neighborhood "
            "of 0.",
            "",
            "| scale | psi |",
            "|---|---|",
        ]
        pl = c1.power_law
        lines += [f"| {s:.4g} | {p:.6g} |"
                  for s, p in zip(pl.scales, pl.psi_values)]
    lines += [
        "",
        "## Why no feedback can work from the origin",
        "",
        f"Under the constant input u = 1 the state x = 1 is an equilibrium "
        f"(max deviation {dev_one:.3g} over T = {horizon:g}), and x = 0 is "
        f"too (max deviation {dev_zero:.3g}): the pair (x* = 1, u* = 1) is a "
        "perfectly valid target trajectory, yet a plant started at the "
        "origin has zero control authority and never moves.  Metric "
        "validity alone does not buy a tracking controller; the certificate "
        "sweep above is exactly the obstruction.",
        "",
        "## Checklist",
        "",
    ]
    lines += [f"* [{'x' if ok else ' '}] {name}" for name, ok in checks]
    lines.append("")
    path.write_text("\n".join(lines))


_COMMANDS = {
    "validate": cmd_validate,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "demo-counterexample": cmd_demo_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpecError, NonFiniteEvalError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    _sys.exit(main())
