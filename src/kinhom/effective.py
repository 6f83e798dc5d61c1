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
* ``U``   pairs the correctors against the macroscopic gradient of the
  equilibrium, and vanishes identically whenever the equilibrium does not
  depend on the slow variable (which balanced kernels force).
* ``b``   is the equilibrium flux ``int M(a F) dmu``; a nonzero value
  means the expansion lives in a co-moving frame, and downstream
  comparisons must shift by it.

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


def _pairing(op, chi, G) -> np.ndarray:
    """Corrector pairing ``M_ij = int M(chi_i a_j G) dmu`` of a field ``G``."""
    d = op.vm.dim
    G_flat = op.unwrap(G)
    mat = np.zeros((d, d))
    for i in range(d):
        moments = op.pair_mean_y(op.unwrap(chi[i]), G_flat)  # M(chi_i,k G_k) per node
        for j in range(d):
            mat[i, j] = float(np.sum(op.vm.weights * op.vm.field[:, j] * moments))
    return mat


def diffusion_matrix(op, chi, F, convention: str = "effective") -> np.ndarray:
    """Homogenized diffusion tensor from correctors and equilibrium.

    Computes the corrector-flux pairing ``M_ij = int M(chi_i a_j F) dmu``.
    With ``convention="effective"`` (default) returns ``-M``, the
    positive-definite divergence-form tensor; ``convention="pairing"``
    returns the raw (negative-definite) moment matrix.
    """
    if convention not in ("effective", "pairing"):
        raise ValueError(f"unknown convention {convention!r}")
    mat = _pairing(op, chi, F)
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
    """One solved cell problem at macro position ``x`` (see :func:`solve_cell`)."""

    x: float
    op: object
    lam: float
    F: object            # wrapped equilibrium
    chi: list            # wrapped adjoint correctors, one per dimension
    b: np.ndarray        # equilibrium flux
    D: np.ndarray        # divergence-form diffusion tensor, ellipticity-gated
    residual: float
    bound_constant: float
    settings: tuple      # (backend, grid, scheme, n_modes, tol) it was solved with


def solve_cell(kernel, x, vm: VelocityMeasure, *, backend: str | None = None,
               grid: CellGrid | None = None, scheme: str = "upwind", n_modes: int = 8,
               tol: float | None = None) -> CellSolution:
    """Solve the cell problem at ``x``: operator, equilibrium, correctors, ``D``.

    ``backend`` is ``"grid"`` (needs ``grid`` and ``scheme``) or
    ``"spectral_ap"`` (uses ``n_modes``); ``None`` picks
    :func:`default_backend`.  Raises :class:`EllipticityError` when the
    diffusion tensor has a non-positive direction.
    """
    backend = default_backend(kernel) if backend is None else backend
    if backend == "spectral_ap":
        op = assemble_spectral_ap(kernel, x, vm, n_modes=n_modes)
    elif grid is None:
        raise ValueError("grid backend needs a cell grid")
    else:
        op = assemble(kernel, x, vm, grid, scheme=scheme)
    lam, F = equilibrium_F(op)
    star = solve_chi_star(op, F, tol=tol)
    D = diffusion_matrix(op, star.chi, F)
    ellipticity_gate(D)
    return CellSolution(x=x, op=op, lam=lam, F=F, chi=star.chi, b=star.b, D=D,
                        residual=star.residual, bound_constant=star.bound_constant,
                        settings=(backend, grid, scheme, n_modes, tol))


def _require_increasing(x: np.ndarray) -> None:
    """Refuse sampled macro positions the slow gradient cannot use, saying why."""
    rule = "sampled macro positions x need at least 3 finite, strictly increasing values"
    if x.size < 3:
        raise ValueError(f"{rule}; got only {x.size}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{rule}; x[{bad[0]}] = {x[bad[0]]} is not finite")
    bad = np.flatnonzero(np.diff(x) <= 0)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{rule}; x[{i}] = {x[i]} is followed by x[{i + 1}] = {x[i + 1]}")


def assemble_effective(
    kernel,
    vm: VelocityMeasure,
    x=None,
    *,
    grid: CellGrid | None = None,
    scheme: str = "upwind",
    backend: str | None = None,
    n_modes: int = 8,
    tol: float | None = None,
    cell: CellSolution | None = None,
) -> EffectiveCoefficients:
    """Solve the cell problems and average them into macro coefficients.

    ``x`` is ``None`` (no modulation) or a 1-D array of at least three
    strictly increasing macro positions.  The whitelisted macroscopic
    modulations vary along the first coordinate only, so sampled assembly
    differentiates the equilibrium along that axis (second order, centered
    inside, one-sided at the ends) to build the drift.  Kernels without modulation short-circuit to a single cell
    solve.

    Sampled assembly keeps fields, not operators: each position's flat
    equilibrium and correctors, ``D``, flux and diagnostics are kept and
    its operator and factorization are dropped; the drift pairs the fields
    through one retained operator, since the pairing depends only on the
    grid or lattice shape and the velocity set.

    The cell settings are those of :func:`solve_cell`.  ``cell``, a
    :func:`solve_cell` result for the same kernel, velocity set and
    settings, stands in for the single solve at ``x = 0`` when the kernel
    has no modulation or ``x`` is ``None``; the result is the same with or
    without it.
    """
    backend = default_backend(kernel) if backend is None else backend
    if cell is not None and (cell.op.kernel is not kernel or cell.op.vm is not vm
                             or cell.settings != (backend, grid, scheme, n_modes, tol)):
        raise ValueError("cell was solved for another kernel, velocity set or settings")

    def solve(xi: float) -> CellSolution:
        return solve_cell(kernel, xi, vm, backend=backend, grid=grid, scheme=scheme,
                          n_modes=n_modes, tol=tol)

    if x is None or kernel.x_dependence == "none":
        c = cell if cell is not None and cell.x == 0.0 else solve(0.0)
        return EffectiveCoefficients(x=None, D=c.D, U=np.zeros(vm.dim), flux=c.b,
                                     residual=c.residual, bound_constant=c.bound_constant)

    x_arr = np.asarray(x, dtype=float).reshape(-1)
    _require_increasing(x_arr)
    kept = []  # per position: flat F, flat correctors, D, flux, residual, bound constant
    for xi in x_arr:
        s = solve(float(xi))
        op = s.op
        kept.append((op.unwrap(s.F), [op.unwrap(c) for c in s.chi], s.D, s.b,
                     s.residual, s.bound_constant))
    F, chi, D, b, residual, bound = zip(*kept)

    # slow gradient of the equilibrium along the (first) macro axis; the drift
    # U_i = -sum_j int M(chi_i a_j dF/dx_j) dmu keeps only its j = 1 term,
    # and 0.0 - pairing (not -pairing) writes a zero drift as 0, not -0
    dF_dx1 = np.gradient(np.stack(F), x_arr, axis=0, edge_order=2)
    U = np.stack([0.0 - _pairing(op, chi_m, dF)[:, 0] for chi_m, dF in zip(chi, dF_dx1)])
    return EffectiveCoefficients(x=x_arr, D=np.stack(D), U=U, flux=np.stack(b),
                                 residual=max(residual), bound_constant=max(bound))
