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
    # M_ij = <a_j F, chi_i>: every backend's fields are real samples on its
    # grid or torus, so a_j F is the pointwise product
    mat = np.array([[op.pairings(op.velocity_profile(j) * op.F, op.unwrap(c))
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
    chi: list            # the adjoint correctors, wrapped


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
                                      n_modes=n_modes, tol=tol), chi=star.chi)


# Most unknowns one stacked solve of a sampled family takes (at least one
# position): the length of its Krylov vectors, whose worst block sets the
# iteration count (12-18 a stack on tanh).  Through the tanh benchmark's
# effective stage (512 positions of 128 unknowns; 2-core Xeon, one pinned
# CPU, min of 5), stacks of 4096, 8192, 16,384, 32,768 and 65,536 unknowns
# took 95, 77, 72, 74 and 81 ms (1030 ms one position at a time) and added
# 1.7-3.3, 3.6-4.7, 7.3-8.8, 14 and 27 MB to the peak memory (0.5 MB).  At
# 16,384 the 39 MB basis stays above glibc's 32 MB mmap ceiling, so freeing
# it moves no allocator threshold: tanh peak_rss_mb 91.5-92.1, 94.2 at 8192.
STACK_UNKNOWNS = 16384


def _stack(build, xs: np.ndarray, like) -> CellStack:
    """The operators ``build(x)`` at ``xs`` as one :class:`CellStack` laid out ``like`` one.

    One operator is assembled (and gated) per position and dropped once its
    rates are copied, before the next one is assembled.
    """
    loss = np.empty((xs.size, like.block_size))
    gain = np.empty((xs.size, *like.gains.shape[1:]))
    for i, xi in enumerate(xs):
        op = build(float(xi))
        loss[i], gain[i] = op.losses[0], op.gains[0]
    return CellStack(like.grid, like.vm, loss, gain, like.scheme)


def _solve_stacked(cell: CellSolution, x: np.ndarray):
    """``(D, flux, residual, bound constant)`` of the cells at ``x``.

    The cells take the kernel, velocity set and settings of ``cell``, on
    either backend.  The positions are solved in chunks of at most
    ``STACK_UNKNOWNS`` unknowns (at least one position), each chunk one
    :class:`~kinhom.cell_solver.CellStack`.  ``D`` and the flux come per
    position, the diagnostics as their worst.
    """
    like, settings = cell.op, cell.settings
    kernel, vm = like.kernel, like.vm
    if settings["backend"] == "spectral_ap":
        def build(xi):
            return assemble_spectral_ap(kernel, xi, vm, n_modes=settings["n_modes"])
    else:
        def build(xi):
            return assemble(kernel, xi, vm, settings["grid"], scheme=settings["scheme"])
    per_chunk = max(1, STACK_UNKNOWNS // like.block_size)
    D, b, residual, bound = [], [], 0.0, 0.0
    for start in range(0, x.size, per_chunk):
        stack = _stack(build, x[start:start + per_chunk], like)
        equilibrium_F(stack)
        star = solve_chi_star(stack, tol=settings["tol"])
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
    ``U`` is zero at every position (see the module docstring).  Every
    backend and scheme takes one path: the positions are assembled one at
    a time, each operator dropped once its rates are copied, and solved in
    stacks of at most ``STACK_UNKNOWNS`` unknowns (see
    :class:`kinhom.cell_solver.CellStack`), with no factorization; the
    ellipticity gate then runs once over all positions.
    """
    kernel, vm = cell.op.kernel, cell.op.vm
    if x is None or kernel.x_dependence == "none":
        return EffectiveCoefficients(x=None, D=cell.D, U=np.zeros(vm.dim), flux=cell.b,
                                     residual=cell.residual, bound_constant=cell.bound_constant,
                                     ellipticity_min=cell.ellipticity_min)

    x_arr = np.asarray(x, dtype=float).reshape(-1)
    if x_arr.size == 0 or not np.all(np.isfinite(x_arr)):
        raise ValueError(f"sampled macro positions x must be non-empty and finite; got {x_arr}")
    D, b, residual, bound = _solve_stacked(cell, x_arr)
    return EffectiveCoefficients(x=x_arr, D=D, U=np.zeros((x_arr.size, vm.dim)), flux=b,
                                 residual=residual, bound_constant=bound,
                                 ellipticity_min=ellipticity_gate(D))
