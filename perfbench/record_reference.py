"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Runs every workload once at seed 0 and writes ``perfbench/reference.json``:
the seed-independent summary values (D, U, b, ellipticity), the sampled
D(x) column of ``tanh``, and for ``circle2d`` the diffusion coefficient of a
spectral cell solve on a 16^2 cell, which has converged to about 1e-14
(12^2 and 20^2 agree with it to that level).  The committed file was
recorded at commit 4a1c4e2; re-record it only from a commit whose numbers
are trusted, since the benchmark's output checks compare against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from kinhom import harness  # noqa: E402

_KEPT = ("D_eff_", "U_", "b_", "ellipticity_min")

_SPECTRAL_2D = """\
[scenario]
dimension = 2

[velocity]
family = uniform_circle
n = 8

[cell]
n = 16
scheme = spectral

[sigma]
family = sinusoidal
alpha = 0.5
"""


def main() -> int:
    reference: dict = {}
    for name in workloads.NAMES:
        cfg = harness.parse_config(workloads.scenario(name, 0))
        report = harness.run_pipeline(cfg, jobs=1, seed=0)
        out = tempfile.mkdtemp(prefix="reference-", dir=HERE)
        try:
            harness.emit_tables(report, out)
            summary = workloads.read_summary(os.path.join(out, "summary.txt"))
            entry = {"summary": {k: v for k, v in summary.items() if k.startswith(_KEPT)}}
            if name == "tanh":
                entry["D_of_x"] = workloads.read_columns(os.path.join(out, "effective.csv"))["D_eff_11"]
        finally:
            shutil.rmtree(out)
        reference[name] = entry
    spectral = harness.run_pipeline(harness.parse_config(_SPECTRAL_2D), stop_after="effective")
    reference["circle2d"]["D_spectral"] = float(spectral.summary["D_eff_11"])
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
