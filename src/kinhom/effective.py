"""Effective (homogenized) transport coefficients from cell solutions.

The macroscopic density solves a drift-diffusion equation in divergence
form,

    d rho / dt = Div( D grad rho + U rho ),

whose coefficients are velocity-and-cell averages of the microscopic
solutions:

* ``D``   comes from pairing the adjoint correctors against the transport
  flux of the equilibrium.  The raw pairing ``int M(chi_i a_j F) dmu`` is
  negative (semi-)definite; the divergence-form tensor is its negative,
  which is what this module returns and what the macro solver consumes.
* ``U``   pairs the correctors against the slow gradient of the
  equilibrium, and is zero: ``collision.gain_loss`` takes the loss rate as
  the gain's row sum, so ``P 1 = 0`` for every rate table and the
  equilibrium is the constant ``1 / mu(V)`` at every macro position.  It
  is kept only as a reported zero; the macro solver does not take it.
* ``b``   is the equilibrium flux ``int M(a F) dmu``; a nonzero value
  means the expansion lives in a co-moving frame, and downstream
  comparisons must shift by it.  It is the only drift.

Ellipticity of the symmetrized tensor is a hard gate: a non-positive
direction means the velocity set cannot span that direction and the
macroscopic model is meaningless there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kinhom.cell_solver import (
    CellRates,
    CellStack,
    assemble,
    assemble_spectral_ap,
    equilibrium_F,
    solve_chi_star,
)
from kinhom.phase_space import CellGrid, VelocityMeasure

__all__ = [
    "EllipticityError",
    "EffectiveCoefficients",
    "diffusion_matrix",
    "ellipticity_gate",
    "CellSolution",
    "default_backend",
    "solve_cell",
    "assemble_effective",
]


class EllipticityError(RuntimeError):
    """The symmetrized diffusion tensor has a non-positive direction."""


def diffusion_matrix(op, chi, convention: str = "effective") -> np.ndarray:
    """Homogenized diffusion tensor from correctors and the equilibrium ``op.F``.

    Computes the corrector-flux pairing ``M_ij = int M(chi_i a_j F) dmu``.
    With ``convention="effective"`` (default) returns ``-M``, the
    positive-definite divergence-form tensor; ``convention="pairing"``
    returns the raw (negative-definite) moment matrix.  A
    :class:`~kinhom.cell_solver.CellStack` gives one tensor per block,
    ``(m, d, d)``.
    """
    if convention not in ("effective", "pairing"):
        raise ValueError(f"unknown convention {convention!r}")
    d = op.vm.dim
    # M_ij = <a_j F, chi_i>.  On the frequency lattice the elementwise product
    # is the coefficient vector of a_j F only because both fields sit on the
    # zero-frequency row: the profile a_j(v) does not depend on y, nor does
    # the constant equilibrium
    mat = np.array([[np.real(op.pairings(op.velocity_profile(j) * op.F, op.unwrap(c)))
                     for j in range(d)] for c in chi])
    mat = op.per_cell(np.moveaxis(mat, 2, 0))  # (blocks, d, d) -> the operator's result
    return -mat if convention == "effective" else mat


def ellipticity_gate(D: np.ndarray) -> float:
    """Smallest eigenvalue of ``sym(D)``; raises if meaningfully negative.

    ``D`` is one ``(d, d)`` tensor or a stack ``(m, d, d)``, gated tensor by
    tensor in one batched ``eigvalsh``; the smallest eigenvalue of them all
    is returned.
    """
    sym = 0.5 * (D + np.swapaxes(D, -1, -2))
    lam_min = np.linalg.eigvalsh(sym).min(axis=-1)
    scale = np.fmax(np.trace(sym, axis1=-2, axis2=-1), 1.0)
    failing = lam_min <= -1e-10 * scale
    if np.any(failing):
        raise EllipticityError(
            f"symmetrized diffusion tensor has eigenvalue "
            f"{np.ravel(lam_min)[np.argmax(np.ravel(failing))]:.3e}; "
            "the velocity set does not span this direction"
        )
    return float(lam_min.min())


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Homogenized coefficients, possibly sampled along a macro axis.

    ``x is None`` means the kernel has no macroscopic modulation and the
    tensors are single ``(d, d)`` / ``(d,)`` arrays; otherwise the leading
    axis runs over ``x``.
    """

    x: np.ndarray | None
    D: np.ndarray
    U: np.ndarray
    flux: np.ndarray
    residual: float
    bound_constant: float
    ellipticity_min: float  # smallest eigenvalue of sym(D) over the positions

    @property
    def constant(self) -> bool:
        return self.x is None


def default_backend(kernel) -> str:
    """``"grid"`` for kernels with a finite period, else ``"spectral_ap"``."""
    return "grid" if kernel.natural_period is not None else "spectral_ap"


@dataclass(frozen=True)
class CellSolution:
    """One solved cell problem (see :func:`solve_cell`)."""

    op: object           # cell operator; its kernel, velocity set and equilibrium F
    lam: float
    b: np.ndarray        # equilibrium flux
    D: np.ndarray        # divergence-form diffusion tensor, ellipticity-gated
    ellipticity_min: float  # smallest eigenvalue of sym(D)
    residual: float
    bound_constant: float
    settings: dict       # the solve_cell keywords it was solved with, backend resolved


def solve_cell(kernel, x, vm: VelocityMeasure, *, backend: str | None = None,
               grid: CellGrid | None = None, scheme: str = "upwind", n_modes: int = 8,
               tol: float | None = None, rates: CellRates | None = None) -> CellSolution:
    """Solve the cell problem at ``x``: operator, equilibrium, correctors, ``D``.

    ``backend`` is ``"grid"`` (needs ``grid`` and ``scheme``) or
    ``"spectral_ap"`` (uses ``n_modes``); ``None`` picks
    :func:`default_backend`.  ``rates`` hands the grid operator rates gated
    already (see :func:`kinhom.cell_solver.assemble`); it is not a
    setting.  Raises :class:`EllipticityError` when the diffusion tensor
    has a non-positive direction.
    """
    backend = default_backend(kernel) if backend is None else backend
    if backend == "spectral_ap":
        op = assemble_spectral_ap(kernel, x, vm, n_modes=n_modes)
    elif grid is None:
        raise ValueError("grid backend needs a cell grid")
    else:
        op = assemble(kernel, x, vm, grid, scheme=scheme, rates=rates)
    lam, _ = equilibrium_F(op)
    star = solve_chi_star(op, tol=tol)
    D = diffusion_matrix(op, star.chi)
    return CellSolution(op=op, lam=lam, b=star.b, D=D, ellipticity_min=ellipticity_gate(D),
                        residual=star.residual, bound_constant=star.bound_constant,
                        settings=dict(backend=backend, grid=grid, scheme=scheme,
                                      n_modes=n_modes, tol=tol))


# Most unknowns one stacked solve of a sampled family takes (at least one
# position).  SuperLU's workspace grows with the stack, the time hardly:
# through the effective stage of the tanh benchmark (512 positions of 128
# unknowns; 2-core Xeon, one pinned CPU, min of 5 operations), stacks of
# 1024, 2048, 4096, 8192 and 65,536 unknowns took 0.17, 0.13-0.23, 0.11,
# 0.10 and 0.12-0.13 s, against 0.48 s for one solve per position, and
# added 2.1, 3.3, 6.3, 8.5 and 44 MB to the peak memory of the process,
# against 1.1 MB.  At 4096 the benchmark's tanh peak_rss_mb read 91.3 MB
# against 89.1 MB for one solve per position.
STACK_UNKNOWNS = 4096


def _stacked_rates(kernel, xs: np.ndarray, vm: VelocityMeasure, grid: CellGrid):
    """Loss ``(m, size)`` and gain ``(m, n, K, K)`` of the operators at ``xs``.

    One operator is assembled (and gated) per position and dropped once its
    rates are copied, before the next one is assembled.
    """
    n, K = grid.n_points, vm.n_nodes
    loss = np.empty((xs.size, n * K))
    gain = np.empty((xs.size, n, K, K))
    for i, xi in enumerate(xs):
        op = assemble(kernel, float(xi), vm, grid)
        loss[i], gain[i] = op.sigma_flat, op.gain
    return loss, gain


def _solve_stacked(kernel, x: np.ndarray, vm: VelocityMeasure, grid: CellGrid,
                   tol: float | None):
    """``(D, flux, residual, bound constant)`` of the upwind cells at ``x``.

    The positions are solved in chunks of at most ``STACK_UNKNOWNS``
    unknowns (at least one position), each chunk one
    :class:`~kinhom.cell_solver.CellStack`.
    ``D`` and the flux come per position, the diagnostics as their worst.
    """
    per_chunk = max(1, STACK_UNKNOWNS // (grid.n_points * vm.n_nodes))
    D, b, residual, bound = [], [], 0.0, 0.0
    for start in range(0, x.size, per_chunk):
        stack = CellStack(grid, vm, *_stacked_rates(kernel, x[start:start + per_chunk], vm, grid))
        equilibrium_F(stack)
        star = solve_chi_star(stack, tol=tol)
        D.append(diffusion_matrix(stack, star.chi))
        b.append(star.b)
        residual = max(residual, float(star.residual.max()))
        bound = max(bound, float(star.bound_constant.max()))
    return np.concatenate(D), np.concatenate(b), residual, bound


def assemble_effective(cell: CellSolution, x=None) -> EffectiveCoefficients:
    """Average the cell problems into macro coefficients.

    ``cell`` is the :func:`solve_cell` result at ``x = 0``.  ``x`` is
    ``None`` (no modulation) or a non-empty 1-D array of finite macro
    positions.  A kernel without modulation, or ``x = None``, gives the
    cell's own ``D``, flux and diagnostics.  Otherwise sampled assembly
    solves one cell per position with the kernel, velocity set and settings
    of ``cell`` and keeps only its ``D``, flux and diagnostics; the drift
    ``U`` is zero at every position (see the module docstring).  Upwind
    grid cells are assembled one position at a time, each operator dropped
    once its rates are copied, and solved in stacks of at most
    ``STACK_UNKNOWNS`` unknowns (see :class:`kinhom.cell_solver.CellStack`),
    each stack's matrices built directly from its rates; the ellipticity
    gate then runs once over all positions.  Dense cells (the
    grid's ``spectral`` scheme, the ``spectral_ap`` lattice) cost their
    factorization, not per-call overhead, and keep one :func:`solve_cell`
    per position, each operator dropped before the next solve.
    """
    kernel, vm = cell.op.kernel, cell.op.vm
    if x is None or kernel.x_dependence == "none":
        return EffectiveCoefficients(x=None, D=cell.D, U=np.zeros(vm.dim), flux=cell.b,
                                     residual=cell.residual, bound_constant=cell.bound_constant,
                                     ellipticity_min=cell.ellipticity_min)

    x_arr = np.asarray(x, dtype=float).reshape(-1)
    if x_arr.size == 0 or not np.all(np.isfinite(x_arr)):
        raise ValueError(f"sampled macro positions x must be non-empty and finite; got {x_arr}")
    settings = cell.settings
    if settings["backend"] == "grid" and settings["scheme"] == "upwind":
        D, b, residual, bound = _solve_stacked(kernel, x_arr, vm, settings["grid"],
                                               settings["tol"])
        ellipticity_min = ellipticity_gate(D)
    else:
        kept = []  # per position: D, flux, residual, bound constant, ellipticity
        for xi in x_arr:
            s = solve_cell(kernel, float(xi), vm, **settings)
            kept.append((s.D, s.b, s.residual, s.bound_constant, s.ellipticity_min))
        D, b, residual, bound, ellipticity = zip(*kept)
        D, b, residual, bound = np.stack(D), np.stack(b), max(residual), max(bound)
        ellipticity_min = min(ellipticity)
    return EffectiveCoefficients(x=x_arr, D=D, U=np.zeros((x_arr.size, vm.dim)), flux=b,
                                 residual=residual, bound_constant=bound,
                                 ellipticity_min=ellipticity_min)
