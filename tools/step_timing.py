"""Per-call cost of a kinetic Strang step and its sub-steps on ``small_eps``.

    python3 tools/step_timing.py
    python3 tools/step_timing.py --seed 1 --repeats 40 --calls 200 --reduced

The kinetic reference of the ``small_eps`` scenario of
``perfbench/workloads.py`` spends its time in Strang steps.  This tool
builds the solver of the scenario's smallest ``eps`` at its coarse step
and prints the microseconds per call of:

* ``step``: one whole Strang step, :meth:`KineticSolver.step`;
* ``pair_step``: one stacked step of a coarse and a fine state at
  ``(dt, dt/2)``, ``(2, K, n_x//2 + 1)``;
* ``coarse_unit``: ``pair_step`` plus the lone second fine step, what
  :meth:`KineticSolver.run` pays per coarse step (three ``step`` rows
  before the pair was stacked);
* ``transport_half``: one exact-shift half-step (a step makes two);
* ``irfft``: the deviations ``f[1:] - f[0]`` back to real space, K-1 rows;
* ``collision_full``: the kept rows of the collision increment from those
  deviations, K-1 rows for the scenario's balanced kernel;
* ``rfft_lift``: those rows to Fourier space, K-1 rows, lifted to all K
  rows by the mass-conservation recombination and added to the state;
* ``tables``: the collision tables of one step size, the batched Padé
  exponential of ``dt Q / eps^2`` over the whole grid;
* ``expm_scipy``: the same exponentials by ``scipy.linalg.expm``, for
  comparison.

Each figure is the minimum over ``--repeats`` repeats of the mean over
``--calls`` calls; the two table rows make one call per repeat.  The
sub-steps run on the data a step would give them.  BLAS runs
single-threaded.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402
import workloads  # noqa: E402
from kinhom import harness, kinetic_ref  # noqa: E402
from kinhom.kinetic_ref import KineticSolver  # noqa: E402

SUB_STEPS = ("step", "pair_step", "coarse_unit", "transport_half", "irfft", "collision_full",
             "rfft_lift")
TABLES = ("tables", "expm_scipy")


def calls(solver: KineticSolver, spectra: np.ndarray, dt: float) -> dict:
    """One zero-argument callable per sub-step, on the data a step passes it."""
    n_x = solver.grid.n_points
    half = solver.transport_half(spectra, dt)
    g = np.fft.irfft(half[..., 1:, :] - half[..., :1, :], n=n_x)
    increment = solver.collision_full(g, dt)
    stacked, sizes = np.stack([spectra, spectra]), (dt, dt / 2)

    def coarse_unit():
        pair = solver.step(stacked, sizes)
        pair[1] = solver.step(pair[1], sizes[1])

    return {
        "step": lambda: solver.step(spectra, dt),
        "pair_step": lambda: solver.step(stacked, sizes),
        "coarse_unit": coarse_unit,
        "transport_half": lambda: solver.transport_half(spectra, dt),
        "irfft": lambda: np.fft.irfft(half[..., 1:, :] - half[..., :1, :], n=n_x),
        "collision_full": lambda: solver.collision_full(g, dt),
        "rfft_lift": lambda: solver._add_increment(half.copy(), increment),
    }


def table_calls(solver: KineticSolver, dt: float) -> dict:
    """The collision tables' exponentials of ``dt Q / eps^2``, both ways."""
    generators = dt / solver.epsilon**2 * solver._Q
    return {
        "tables": lambda: kinetic_ref._expm(generators),
        "expm_scipy": lambda: scipy.linalg.expm(generators),
    }


def best_us(fn, n_calls: int, repeats: int) -> float:
    """Minimum over ``repeats`` of the mean microseconds of ``n_calls`` calls."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(n_calls):
            fn()
        best = min(best, (clock() - t0) / n_calls)
    return 1e6 * best


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--repeats", type=int, default=40, help="repeats per figure (default 40)")
    p.add_argument("--calls", type=int, default=200, help="calls per repeat (default 200)")
    p.add_argument("--reduced", action="store_true", help="the reduced small_eps scenario")
    args = p.parse_args(argv)
    if args.repeats < 1 or args.calls < 1:
        p.error("--repeats and --calls must be at least 1")

    cfg = harness.parse_config(workloads.scenario("small_eps", args.seed, reduced=args.reduced))
    vm, grid = cfg.build_velocity(), cfg.build_macro_grid()
    eps = min(cfg.kinetic["epsilons"])
    solver = KineticSolver(cfg.build_kernel(), vm, grid, epsilon=eps,
                           c_split=cfg.kinetic["c_split"])
    dt = solver.default_dt()
    spectra = np.fft.rfft(np.ascontiguousarray(cfg.initial_f(grid, vm).T))
    # a few steps in, so the data are what the run steps on
    for _ in range(10):
        spectra = solver.step(spectra, dt)

    print(f"small_eps seed {args.seed}: {grid.n_points} cells, {vm.n_nodes} velocities, "
          f"eps {eps:g}, dt {dt:.4g}, min of {args.repeats} repeats of {args.calls} calls")
    print(f"{'sub-step':<16}{'us/call':>10}")
    for name, fn in calls(solver, spectra, dt).items():
        print(f"{name:<16}{best_us(fn, args.calls, args.repeats):>10.2f}")
    for name, fn in table_calls(solver, dt).items():
        print(f"{name:<16}{best_us(fn, 1, args.repeats):>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
