"""Smoke tests of the benchmark, kept out of the package's own suite.

    python3 -m pytest perfbench/tests -q

Each workload runs in smoke mode (small grids and horizons, a few seconds
each); the tests check that the one benchmark command prints every metric
named in BENCHMARK.json with its unit, and that every output check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    out = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name in want:
        # the human-readable lines name every metric too
        assert any(line.startswith(name) for line in out.stdout.splitlines()), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [*BENCH["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_report_comparison_tolerances():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    want = {"max_psi": 3e-17, "min_eig": 0.7320508075688772, "count": 3,
            "worst_at": {"x": [0.5, -2.0], "t": 0.0}, "passed": True}
    assert workloads.compare(dict(want), want) == []
    # rounding-level values may move within the absolute floor
    assert workloads.compare(dict(want, max_psi=4e-16), want) == []
    assert workloads.compare(dict(want, min_eig=0.7320508075688772 * (1 + 1e-13)),
                             want) == []
    assert workloads.compare(dict(want, min_eig=0.7320508075 + 1e-9), want)
    # locations, counts and booleans are exact
    assert workloads.compare(dict(want, worst_at={"x": [0.5 + 1e-15, -2.0], "t": 0.0}),
                             want)
    assert workloads.compare(dict(want, count=4), want)
    assert workloads.compare(dict(want, passed=False), want)
