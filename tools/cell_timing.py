"""Per-position cost of the cell solves of a benchmark workload.

    python3 tools/cell_timing.py
    python3 tools/cell_timing.py --seed 1 --sweeps 5 --reduced
    python3 tools/cell_timing.py --workload circle2d --sweeps 5
    python3 tools/cell_timing.py --workload small_eps --sweeps 5

Under ``x_dependence = tanh`` every macro position has its own cell
problem.  This tool sweeps those positions (the macro cell
centres of the ``tanh`` scenario of ``perfbench/workloads.py``), or the one
``x = 0`` cell of ``circle2d`` (a 64^2 upwind cell with the 8-node circle)
or of ``small_eps`` (a 64-point Fourier-collocation cell with two
velocities), and prints the milliseconds per position of each layer of a
solve:

* ``assemble``: the operator at one position, which samples and gates
  the rates;
* ``equilibrium_F``: the principal-eigenvalue check, which builds the
  splitting ``P = M - N`` (the Fourier symbol of ``M``, no factorization)
  at its first use;
* ``solve_chi_star``: the adjoint correctors, split GMRES solves with one
  FFT pair per iteration;
* ``verify_variational``: the weak-form residual ``||P F|| / ||F||``, which
  the pipeline reads on the ``x = 0`` cell only;
* ``solve_cell``: the whole solve of one position, as the ``x = 0`` cell
  is solved;
* ``gate``: the kernel's rate factor ``c(x) s(y)`` at one position
  sampled on the cell grid and gated (:func:`kinhom.cell_solver.gate_rates`:
  positivity and finiteness of the samples, semi-detailed balance of the
  node table), with no operator around them, so
  ``assemble`` minus ``gate`` is what the operator itself costs;
* ``family``: the effective stage itself,
  :func:`kinhom.effective.assemble_effective` of the ``x = 0`` cell at the
  positions: under ``tanh`` each position assembled, gated and checked on
  the ray ``c(x) / c(0)`` times the ``x = 0`` rates, then the cells at the
  Chebyshev nodes in ``c`` (or at each distinct ``c``) in block-diagonal
  stacks of at most ``STACK_UNKNOWNS`` unknowns, and ``D`` interpolated;
  an unmodulated kernel (``circle2d``, ``small_eps``) takes the ``x = 0``
  cell's ``D`` as it is and solves no cell.  The row ends with the number
  of cells solved.

A sweep times every position once; each line is the minimum over
``--sweeps`` sweeps of the sweep's total divided by the number of
positions.  As in the effective stage, the ``x = 0`` cell stays alive
while the sweeps run.  ``solve_cell`` is the per-position cost of
solving the family one position at a time, and ``family`` that of the
effective stage's.  BLAS runs single-threaded.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from kinhom import harness  # noqa: E402
from kinhom.cell_solver import (  # noqa: E402
    assemble,
    equilibrium_F,
    gate_rates,
    solve_chi_star,
    verify_variational,
)
from kinhom.effective import assemble_effective, solve_cell  # noqa: E402

LAYERS = ("assemble", "equilibrium_F", "solve_chi_star", "verify_variational", "solve_cell",
          "gate", "family")
WORKLOADS = ("tanh", "circle2d", "small_eps")


def sweep(cell, positions) -> tuple[dict[str, float], int]:
    """Seconds spent in each layer over one pass of ``positions``, and the family's cell solves."""
    kernel, vm, settings = cell.op.kernel, cell.op.vm, cell.settings
    grid, scheme = settings["grid"], settings["scheme"]
    total = dict.fromkeys(LAYERS, 0.0)
    clock = time.perf_counter
    for x in positions:
        t0 = clock()
        op = assemble(kernel, x, vm, grid, scheme=scheme)
        t1 = clock()
        equilibrium_F(op)
        t2 = clock()
        solve_chi_star(op, tol=settings["tol"])
        t3 = clock()
        verify_variational(op)
        t4 = clock()
        total["assemble"] += t1 - t0
        total["equilibrium_F"] += t2 - t1
        total["solve_chi_star"] += t3 - t2
        total["verify_variational"] += t4 - t3
    for x in positions:
        t0 = clock()
        solve_cell(kernel, x, vm, **settings)
        total["solve_cell"] += clock() - t0
    t0 = clock()
    for x in positions:
        gate_rates(kernel, x, grid, vm)
    total["gate"] += clock() - t0
    t0 = clock()
    solves = assemble_effective(cell, np.array(positions)).family_cell_solves
    total["family"] += clock() - t0
    return total, solves


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default="tanh",
                   help="tanh: every macro position; circle2d, small_eps: the x = 0 cell "
                        "(default tanh)")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--sweeps", type=int, default=5, help="sweeps over the positions (default 5)")
    p.add_argument("--reduced", action="store_true", help="the reduced scenario")
    args = p.parse_args(argv)
    if args.sweeps < 1:
        p.error("--sweeps must be at least 1")

    cfg = harness.parse_config(workloads.scenario(args.workload, args.seed,
                                                  reduced=args.reduced))
    vm, kernel = cfg.build_velocity(), cfg.build_kernel()
    grid = cfg.build_cell_grid()
    positions = ([float(x) for x in cfg.build_macro_grid().axes()[0]]
                 if args.workload == "tanh" else [0.0])
    cell = solve_cell(kernel, 0.0, vm, backend=cfg.cell_backend(kernel), grid=grid,
                      scheme=cfg.cell["scheme"], n_modes=cfg.cell["n_modes"], tol=cfg.cell["tol"])
    best = dict.fromkeys(LAYERS, float("inf"))
    for _ in range(args.sweeps):
        total, solves = sweep(cell, positions)
        for name, secs in total.items():
            best[name] = min(best[name], secs)

    print(f"{args.workload} seed {args.seed}: {len(positions)} "
          f"position{'s' * (len(positions) != 1)}, {grid.n_points}-point "
          f"{cfg.cell['scheme']} cell, {vm.n_nodes} velocities, "
          f"min of {args.sweeps} sweeps")
    print(f"{'layer':<20}{'ms/position':>12}")
    for name in LAYERS:
        row = f"{name:<20}{1e3 * best[name] / len(positions):>12.3f}"
        print(row + f"  ({solves} cells)" if name == "family" else row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
