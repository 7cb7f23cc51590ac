#!/usr/bin/env python3
"""Regenerate the stored reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  Every input of every workload is run
once at each size and its output stored: verify reports and exit codes,
constant-metric trajectories (trajectories.npz), the convergence verdicts
of the curved run and the probe result.  The references define what the
benchmark accepts as correct, so regenerate them only from code whose
outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)

REF_SEED = 0


def main() -> int:
    import ccmkit

    ops: dict = {}
    arrays: dict = {}
    tmp = ROOT / ".perfbench_tmp" / "reference"
    try:
        for inputs in workloads.INPUTS.values():
            for inp in inputs:
                for size in ("full", "small"):
                    key = workloads.ref_key(inp, size)
                    _, raw = workloads.execute(inp, size, REF_SEED, tmp)
                    out = workloads.collect(inp, raw, tmp)
                    if inp.kind == "probe":
                        ops[key] = out["result"]
                        continue
                    entry = {"exit_code": out["exit_code"]}
                    if inp.kind == "verify":
                        entry["report"] = out["report"]["report"]
                    else:
                        entry["convergence"] = out["report"]["convergence"]
                        entry["trajectory_rows"] = int(out["trajectory"].shape[0])
                        if inp.kind == "track-constant":
                            arrays[key] = out["trajectory"]
                    ops[key] = entry
                    print(f"{key}: exit code {entry['exit_code']}")
    finally:
        shutil.rmtree(tmp.parent, ignore_errors=True)
    doc = {
        "note": "outputs of ccmkit when this benchmark was added; "
                "seed fields are not compared",
        "ccmkit_version": ccmkit.__version__,
        "seed": REF_SEED,
        "ops": ops,
    }
    workloads.REFERENCE_JSON.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    np.savez_compressed(workloads.REFERENCE_NPZ, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
