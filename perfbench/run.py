#!/usr/bin/env python3
"""ccmkit benchmark: verify, closed-loop tracking and the transform probe.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; ccmkit is imported from ./src.  NAME is
one of verify-grid, track-constant, track-curved, probe-transform, or
``all`` to run each in turn in its own process.  One client issues each
operation when the last returns (a closed loop, in this one process).

--trace 0 measures the end-to-end metrics with nothing wrapped: one
warm-up operation per input at its small size, then rounds of operations
(every input once per round, in an order drawn from the seed) until
they have taken --seconds.  Set-up is timed in fresh processes started
between the timed operations, spread over the whole run.  --trace 1 alternates
untraced rounds with rounds that record spans around each layer, and
prints the per-layer metrics (see tracer.py).  --smoke runs every
operation at its small size, for a run of a few seconds.

Every operation's output is checked against perfbench/reference/.  The
last line of output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("verify-grid", "track-constant", "track-curved", "probe-transform")
SETUP_RUNS = 20
CHILD_TIMEOUT_S = 60

# set-up measured in a fresh process: import, then load and compile the specs
SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import ccmkit
from ccmkit import model, transforms
import numpy as np
for spec, with_transform in json.loads(sys.argv[1]):
    path = spec if spec.endswith(".json") else model.bundled_spec_path(spec)
    sf = model.load_spec_file(path)
    model.plant_for(sf.system, sf.metric)
    if with_transform:
        tf = transforms.FeedbackTransform.from_spec(sf)
        tf.at(np.zeros(sf.system.n))
        model.plant_for(transforms.apply_feedback_transform(sf.system, tf), sf.metric)
print(repr(time.perf_counter() - t0))
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every operation at its small size")
    return p.parse_args(argv)


def _quartile_spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _machine_facts(verify_threads) -> str:
    import numpy as np

    scipy = "installed" if importlib.util.find_spec("scipy") else "absent"
    used = "imported" if "scipy" in sys.modules else "not imported"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} verify_threads={verify_threads} "
            f"scipy={scipy}, {used}")


class Bench:
    def __init__(self, workload: str, seed: int, smoke: bool):
        import workloads

        self.w = workloads
        self.name = workload
        self.inputs = workloads.INPUTS[workload]
        self.rng = random.Random(seed)
        self.seed = seed % 2**32       # the CLI's grid seed must be >= 0
        self.size = "small" if smoke else "full"
        self.reference = workloads.Reference()
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.warmup: list = []

    def op(self, inp, size):
        return self.w.run_op(inp, size, self.seed, self.tmp / inp.key.replace("/", "-"),
                             self.reference)

    def warm_up(self) -> None:
        """One operation per input at its small size: lazy set-up and
        first-call costs stay out of the timed operations."""
        self.warmup += [self.op(inp, "small") for inp in self.inputs]

    def one_round(self, on_op=None) -> list:
        """One operation per input, in an order drawn from the seed."""
        records = []
        for inp in self.rng.sample(self.inputs, len(self.inputs)):
            records.append(self.op(inp, self.size))
            if on_op is not None:
                on_op()
        return records

    def rounds(self, budget: float, between=None) -> list:
        """Rounds until budget seconds have passed outside ``between`` (at
        least one round).  ``between(share)`` runs after each operation,
        given the share of the budget used so far."""
        records = []
        start = time.perf_counter()
        paused = 0.0

        def used() -> float:
            return time.perf_counter() - start - paused

        def after_op() -> None:
            nonlocal paused
            if between is not None:
                t0 = time.perf_counter()
                between(min(used() / budget, 1.0))
                paused += time.perf_counter() - t0

        while not records or used() < budget:
            records += self.one_round(after_op)
        return records

    def setup_seconds(self) -> float:
        """Set-up time of one fresh process."""
        specs = [[inp.spec, inp.kind == "probe"] for inp in self.inputs]
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(specs)],
                             env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass


def _times_by_input(records: list) -> dict:
    """Seconds of the operations that passed their check, per input."""
    times: dict = {}
    for r in records:
        if r.ok:
            times.setdefault(r.key, []).append(r.seconds)
    return times


def _op_lines(records: list) -> list:
    lines = []
    for key, t in _times_by_input(records).items():
        lines.append(f"  {key:28s} {len(t):3d} ops  median {statistics.median(t):.4f} s"
                     f"  quartile spread {_quartile_spread(t):.3f}")
    for r in records:
        if not r.ok:
            lines.append(f"  FAILED {r.key}: {r.detail}")
    return lines


def run_end_to_end(bench: Bench, seconds: float, smoke: bool) -> tuple:
    setup_runs = 1 if smoke else SETUP_RUNS
    setup: list = []

    def sample_setup(share: float) -> None:
        # set-up samples are spread over the run, between operations, so
        # that one slow phase of a shared host does not set their median
        while len(setup) < setup_runs * share:
            setup.append(bench.setup_seconds())

    bench.warm_up()
    timed = bench.rounds(seconds, between=sample_setup)
    sample_setup(1.0)
    # inputs differ in duration, so one median over all of them would sit
    # between two inputs' distributions; each input's median is combined
    per_input = [statistics.median(t) for t in _times_by_input(timed).values()]
    op_p50 = statistics.geometric_mean(per_input) if per_input else float("nan")
    width = len(bench.inputs)
    chunks = [timed[i:i + width] for i in range(0, len(timed), width)]
    round_rates = [sum(r.items for r in c) / sum(r.seconds for r in c)
                   for c in chunks if all(r.ok for r in c)] or [float("nan")]
    all_ops = bench.warmup + timed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_s": (op_p50, "s"),
        "items_per_s": (statistics.median(round_rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_ops_ratio": (sum(r.ok for r in all_ops) / len(all_ops), "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    lines = [
        f"machine: {_machine_facts(os.cpu_count())}",
        f"operations: {len(timed)} timed ({len(chunks)} rounds of {width} "
        f"inputs, one client, closed loop) after {len(bench.warmup)} warm-up; "
        f"{sum(not r.ok for r in all_ops)} of {len(all_ops)} failed their check",
        *_op_lines(timed),
        f"op_p50_s     {metrics['op_p50_s'][0]:.6f} s    geometric mean over "
        f"{len(per_input)} inputs of each input's median operation time, from "
        f"{sum(r.ok for r in timed)} timed operations",
        f"items_per_s  {metrics['items_per_s'][0]:.3f} 1/s  median over rounds of "
        f"{bench.w.WORKLOAD_ITEMS[bench.name]}",
        f"setup_s      {metrics['setup_s'][0]:.6f} s    median of {len(setup)} fresh "
        f"processes (import ccmkit, load and compile specs) started between "
        f"operations, quartile spread {_quartile_spread(setup):.3f}",
        f"ok_ops_ratio {metrics['ok_ops_ratio'][0]:.6f} ratio  operations whose exit "
        f"code and output matched the reference, over all attempted",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.3f} MB   peak resident memory "
        f"of this process",
    ]
    return all_ops, metrics, lines


def _verify_baselines(bench: Bench) -> tuple:
    """Plain, untraced library verify on each input: default pool and
    one thread, alternating.  Returns mean seconds per call of each."""
    from ccmkit import verifier

    default, single = [], []
    for inp in bench.inputs:
        extra, _ = inp.sizes[bench.size]
        density = int(extra[1]) if extra else None
        for threads, sink in ((None, default), (1, single)):
            sf = bench.w.load_spec(inp, density)
            t0 = time.perf_counter()
            verifier.verify(sf.system, sf.metric, sf.grid, threads=threads)
            sink.append(time.perf_counter() - t0)
    return statistics.fmean(default), statistics.fmean(single)


def run_traced(bench: Bench, seconds: float) -> tuple:
    import tracer

    bench.warm_up()
    tr = tracer.Tracer()
    totals: dict = {}
    threads = [1]

    def absorb():
        stats, pool = tr.take()
        threads.append(pool)
        for name, (calls, total, self_s) in stats.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s

    # untraced and traced rounds alternate, so that drift in the machine's
    # speed does not masquerade as tracing overhead
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain += bench.one_round()
        tr.install()
        try:
            traced += bench.one_round(on_op=absorb)
        finally:
            tr.uninstall()
    n_ops = len(traced)
    index = {"calls": 0, "total": 1, "self": 2}
    metrics = {}
    for metric, (span, stat) in tracer.SPAN_METRICS.items():
        value = totals.get(span, [0, 0.0, 0.0])[index[stat]] / n_ops
        metrics[metric] = (value, "count" if stat == "calls" else "s")
    feedbacks = totals.get("controller.tracking_feedback", [0])[0]
    energies = totals.get("controller.path_energy", [0])[0]
    metrics["controller.path_energy_evals_per_feedback"] = (
        energies / feedbacks if feedbacks else 0.0, "count")
    metrics["controller.path_energy_ratio"] = (
        statistics.fmean(tr.energy_ratios) if tr.energy_ratios else 0.0, "ratio")
    if bench.name == "verify-grid":
        default_s, single_s = _verify_baselines(bench)
    else:
        default_s = single_s = 0.0
    metrics["verifier.verify_default_s"] = (default_s, "s")
    metrics["verifier.verify_1thread_s"] = (single_s, "s")
    plain_mean = statistics.fmean(r.seconds for r in plain)
    traced_mean = statistics.fmean(r.seconds for r in traced)
    metrics["trace.overhead_ratio"] = (traced_mean / plain_mean, "ratio")

    verify_threads = max(threads) if bench.name == "verify-grid" else "n/a"
    op_time = traced_mean * n_ops
    lines = [
        f"machine: {_machine_facts(verify_threads)}",
        f"operations: {len(plain)} untraced and {n_ops} traced in alternating rounds, after "
        f"{len(bench.warmup)} warm-up",
        *_op_lines(plain + traced),
        "share of traced operation time (inclusive | self):",
    ]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, self_s) in ranked:
        lines.append(f"  {name:40s} {total / op_time:6.1%} | {self_s / op_time:6.1%}"
                     f"  {calls / n_ops:10.1f} calls/op")
    for metric in sorted(metrics):
        value, unit = metrics[metric]
        lines.append(f"{metric:44s} {value:.6g} {unit}")
    return bench.warmup + plain + traced, metrics, lines


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return out.returncode or 1
        doc = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        for metric, v in doc["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = v
        print()
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ccmkit" / "__init__.py").is_file():
        print(f"error: {SRC / 'ccmkit'} not found; run from the root of a "
              "ccmkit checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import ccmkit

    if not Path(ccmkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: ccmkit imported from {ccmkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            records, metrics, lines = run_traced(bench, args.seconds)
        else:
            records, metrics, lines = run_end_to_end(bench, args.seconds, args.smoke)
    finally:
        bench.close()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={bench.size}")
    print("\n".join(lines))
    failed = sum(not r.ok for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
