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

from kinhom.cell_solver import assemble, assemble_spectral_ap, equilibrium_F, solve_chi_star
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
    returns the raw (negative-definite) moment matrix.
    """
    if convention not in ("effective", "pairing"):
        raise ValueError(f"unknown convention {convention!r}")
    d = op.vm.dim
    # M_ij = <a_j F, chi_i>.  On the frequency lattice the elementwise product
    # is the coefficient vector of a_j F only because both fields sit on the
    # zero-frequency row: the profile a_j(v) does not depend on y, nor does
    # the constant equilibrium
    mat = np.array([[float(np.real(op.inner(op.velocity_profile(j) * op.F, op.unwrap(c))))
                     for j in range(d)] for c in chi])
    return -mat if convention == "effective" else mat


def ellipticity_gate(D: np.ndarray) -> float:
    """Smallest eigenvalue of ``sym(D)``; raises if meaningfully negative."""
    sym = 0.5 * (D + D.T)
    lam_min = float(np.linalg.eigvalsh(sym).min())
    scale = max(float(np.trace(sym)), 1.0)
    if lam_min <= -1e-10 * scale:
        raise EllipticityError(
            f"symmetrized diffusion tensor has eigenvalue {lam_min:.3e}; "
            "the velocity set does not span this direction"
        )
    return lam_min


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
    residual: float
    bound_constant: float
    settings: dict       # the solve_cell keywords it was solved with, backend resolved


def solve_cell(kernel, x, vm: VelocityMeasure, *, backend: str | None = None,
               grid: CellGrid | None = None, scheme: str = "upwind", n_modes: int = 8,
               tol: float | None = None, plans: dict | None = None) -> CellSolution:
    """Solve the cell problem at ``x``: operator, equilibrium, correctors, ``D``.

    ``backend`` is ``"grid"`` (needs ``grid`` and ``scheme``) or
    ``"spectral_ap"`` (uses ``n_modes``); ``None`` picks
    :func:`default_backend`.  ``plans`` shares the grid operator's index
    plan between solves (see :func:`kinhom.cell_solver.assemble`); it is
    not a setting.  Raises :class:`EllipticityError` when the diffusion
    tensor has a non-positive direction.
    """
    backend = default_backend(kernel) if backend is None else backend
    if backend == "spectral_ap":
        op = assemble_spectral_ap(kernel, x, vm, n_modes=n_modes)
    elif grid is None:
        raise ValueError("grid backend needs a cell grid")
    else:
        op = assemble(kernel, x, vm, grid, scheme=scheme, plans=plans)
    lam, _ = equilibrium_F(op)
    star = solve_chi_star(op, tol=tol)
    D = diffusion_matrix(op, star.chi)
    ellipticity_gate(D)
    return CellSolution(op=op, lam=lam, b=star.b, D=D, residual=star.residual,
                        bound_constant=star.bound_constant,
                        settings=dict(backend=backend, grid=grid, scheme=scheme,
                                      n_modes=n_modes, tol=tol))


def assemble_effective(cell: CellSolution, x=None) -> EffectiveCoefficients:
    """Average the cell problems into macro coefficients.

    ``cell`` is the :func:`solve_cell` result at ``x = 0``.  ``x`` is
    ``None`` (no modulation) or a non-empty 1-D array of finite macro
    positions.  A kernel without modulation, or ``x = None``, gives the
    cell's own ``D``, flux and diagnostics.  Otherwise sampled assembly
    solves one cell per position with the kernel, velocity set and settings
    of ``cell``, keeps only its ``D``, flux and diagnostics, and drops each
    operator before the next solve; the drift ``U`` is zero at every
    position (see the module docstring).  The positions share one index
    plan of the grid operator, which this call drops when it returns.
    """
    kernel, vm = cell.op.kernel, cell.op.vm
    if x is None or kernel.x_dependence == "none":
        return EffectiveCoefficients(x=None, D=cell.D, U=np.zeros(vm.dim), flux=cell.b,
                                     residual=cell.residual, bound_constant=cell.bound_constant)

    x_arr = np.asarray(x, dtype=float).reshape(-1)
    if x_arr.size == 0 or not np.all(np.isfinite(x_arr)):
        raise ValueError(f"sampled macro positions x must be non-empty and finite; got {x_arr}")
    kept = []  # per position: D, flux, residual, bound constant
    plans = {}
    for xi in x_arr:
        s = solve_cell(kernel, float(xi), vm, plans=plans, **cell.settings)
        kept.append((s.D, s.b, s.residual, s.bound_constant))
    D, b, residual, bound = zip(*kept)
    return EffectiveCoefficients(x=x_arr, D=np.stack(D), U=np.zeros((x_arr.size, vm.dim)),
                                 flux=np.stack(b), residual=max(residual),
                                 bound_constant=max(bound))
