"""Splitting error of the kinetic reference as a function of its step cap.

    python3 tools/split_study.py SCENARIO.ini --caps 0.8,0.6,0.5,0.4,0.2,0.1
    python3 tools/split_study.py --workload small_eps --seed 1

For every ``eps`` of the scenario's ``[kinetic]`` section and every cap
``c_split`` this prints the relative L2 error of the final ``f`` of plain
Strang (a loop of ``KineticSolver.step``) and of ``KineticSolver.run``
(the Richardson combination of a coarse and a fine Strang run) against a
reference: ``run`` at ``--ref-cap``.  Each line also gives the Strang
steps of both and the ``split_est`` of ``run``.

Then, per cap, it prints the residual series of the ``(phi=1, m=cos2pi,
c=a1)`` oscillation functional over the scenario's ``eps``, largest
first, and whether it falls, as acceptance criterion 6 requires.  On the
criterion-6 scenario (``CROSSVAL_CONFIG`` of ``tests/test_acceptance.py``
saved to a file) that series sits at roundoff, and this is what limits the
cap of ``run``.

Each cap runs the whole pipeline once (the ``run`` states and the sigma
rows) and one Strang loop per ``eps``.  ``--workload`` takes the scenario
of ``perfbench/workloads.py`` at ``--seed``.  BLAS runs single-threaded.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from kinhom import harness  # noqa: E402
from kinhom.kinetic_ref import KineticSolver  # noqa: E402
from kinhom.phase_space import checkpoint_substeps  # noqa: E402


def with_cap(cfg: harness.ScenarioConfig, cap: float) -> harness.ScenarioConfig:
    return dataclasses.replace(cfg, kinetic={**cfg.kinetic, "c_split": cap})


def strang(cfg: harness.ScenarioConfig, eps: float, cap: float) -> tuple[np.ndarray, int]:
    """Final ``f`` and step count of plain Strang at cap ``cap``."""
    vm, mg = cfg.build_velocity(), cfg.build_macro_grid()
    solver = KineticSolver(cfg.build_kernel(), vm, mg, epsilon=eps, c_split=cap)
    # the solver steps the real FFT of f along x, velocity-major (K, n_x//2 + 1)
    spectra, steps = np.fft.rfft(np.ascontiguousarray(cfg.initial_f(mg, vm).T)), 0
    for _, n_sub, sub_dt in checkpoint_substeps(cfg.checkpoint_times(), cfg.macro["t"],
                                                solver.default_dt()):
        for _ in range(n_sub):
            spectra = solver.step(spectra, sub_dt)
        steps += n_sub
    return np.ascontiguousarray(np.fft.irfft(spectra, n=mg.n_points).T), steps


def criterion6_series(report: harness.PipelineReport, epsilons: list[float]) -> list[float]:
    res = {r.epsilon: r.residual for r in report.sigma_rows
           if (r.phi, r.m, r.c) == ("1", "cos2pi", "a1")}
    return [res[e] for e in epsilons]


def rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("config", nargs="?", help="scenario INI file with a [kinetic] section")
    p.add_argument("--workload", help="a perfbench workload name instead of a file")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--caps", default="0.8,0.6,0.5,0.4,0.2,0.1",
                   help="comma-separated c_split values (default 0.8,0.6,0.5,0.4,0.2,0.1)")
    p.add_argument("--ref-cap", type=float, default=0.1,
                   help="c_split of the reference run (default 0.1)")
    args = p.parse_args(argv)
    if (args.config is None) == (args.workload is None):
        p.error("give a scenario file or --workload, not both")
    if args.workload is not None:
        import workloads

        text = workloads.scenario(args.workload, args.seed)
    else:
        with open(args.config) as fh:
            text = fh.read()
    cfg = harness.parse_config(text)
    if cfg.kinetic is None:
        p.error("the scenario has no [kinetic] section")
    caps = [float(c) for c in args.caps.split(",") if c.strip()]
    epsilons = sorted(cfg.kinetic["epsilons"], reverse=True)

    ref = harness.run_pipeline(with_cap(cfg, args.ref_cap)).kinetic_states
    print(f"scenario {cfg.scenario['name']}: reference = run at c_split {args.ref_cap:g}")
    print(f"{'eps':>8} {'cap':>5} {'strang_err':>11} {'strang_steps':>12} "
          f"{'run_err':>11} {'run_steps':>9} {'split_est':>11}")
    series = {}
    for cap in caps:
        report = harness.run_pipeline(with_cap(cfg, cap))
        series[cap] = criterion6_series(report, epsilons)
        for eps in epsilons:
            f_ref = ref[eps][-1].f
            f_strang, n_strang = strang(cfg, eps, cap)
            last = report.kinetic_states[eps][-1]
            print(f"{eps:8g} {cap:5g} {rel(f_strang, f_ref):11.3e} {n_strang:12d} "
                  f"{rel(last.f, f_ref):11.3e} {last.steps:9d} {last.split_est:11.3e}")
    print("criterion 6: (phi=1, m=cos2pi, c=a1) residual at eps = "
          + ", ".join(f"{e:g}" for e in epsilons))
    for cap, values in series.items():
        falls = all(a > b for a, b in zip(values, values[1:]))
        print(f"  c_split {cap:5g}: " + " ".join(f"{v:.2e}" for v in values)
              + ("  falls" if falls else "  does not fall"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
