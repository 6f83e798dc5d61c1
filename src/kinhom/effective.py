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

from kinhom.cell_solver import (
    assemble,
    assemble_spectral_ap,
    corrector_diagnostics,
    equilibrium_F,
    solve_chi_star,
)
from kinhom.phase_space import CellGrid, VelocityMeasure

__all__ = [
    "EllipticityError",
    "EffectiveCoefficients",
    "VfcReport",
    "diffusion_matrix",
    "drift_vector",
    "ellipticity_gate",
    "check_vfc",
    "assemble_effective",
]


class EllipticityError(RuntimeError):
    """The symmetrized diffusion tensor has a non-positive direction."""


def diffusion_matrix(op, chi, F, convention: str = "effective") -> np.ndarray:
    """Homogenized diffusion tensor from correctors and equilibrium.

    Computes the corrector-flux pairing ``M_ij = int M(chi_i a_j F) dmu``.
    With ``convention="effective"`` (default) returns ``-M``, the
    positive-definite divergence-form tensor; ``convention="pairing"``
    returns the raw (negative-definite) moment matrix.
    """
    if convention not in ("effective", "pairing"):
        raise ValueError(f"unknown convention {convention!r}")
    d = op.vm.dim
    F_flat = op.unwrap(F)
    mat = np.zeros((d, d))
    for i in range(d):
        chi_flat = op.unwrap(chi[i])
        moments = op.pair_mean_y(chi_flat, F_flat)  # M(chi_i,k F_k) per node
        for j in range(d):
            mat[i, j] = float(np.sum(op.vm.weights * op.vm.field[:, j] * moments))
    return -mat if convention == "effective" else mat


def ellipticity_gate(D: np.ndarray, tol: float = 1e-10) -> float:
    """Smallest eigenvalue of ``sym(D)``; raises if meaningfully negative."""
    sym = 0.5 * (D + D.T)
    lam_min = float(np.linalg.eigvalsh(sym).min())
    scale = max(float(np.trace(sym)), 1.0)
    if lam_min <= -tol * scale:
        raise EllipticityError(
            f"symmetrized diffusion tensor has eigenvalue {lam_min:.3e}; "
            "the velocity set does not span this direction"
        )
    return lam_min


def drift_vector(op, chi, dF_dx) -> np.ndarray:
    """Homogenized drift from correctors and the slow gradient of F.

    ``dF_dx`` is a sequence of flat fields, one per macroscopic direction
    (missing trailing directions are treated as zero).  Returns the
    divergence-form drift ``U_i = -sum_j int M(chi_i a_j dF/dx_j) dmu``.
    """
    d = op.vm.dim
    U = np.zeros(d)
    for j, dF in enumerate(dF_dx):
        if dF is None:
            continue
        dF_flat = op.unwrap(dF)
        for i in range(d):
            moments = op.pair_mean_y(op.unwrap(chi[i]), dF_flat)
            U[i] -= float(np.sum(op.vm.weights * op.vm.field[:, j] * moments))
    return U


@dataclass(frozen=True)
class VfcReport:
    """Vanishing-flux check: equilibrium flux and verdict."""

    flux: np.ndarray
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.max(np.abs(self.flux)) <= self.tol)


def check_vfc(op, F, tol: float = 1e-12) -> VfcReport:
    """Report the equilibrium flux ``b_j = int M(a_j F) dmu``.

    A vanishing flux means the diffusion limit needs no co-moving frame.
    """
    F_flat = op.unwrap(F)
    d = op.vm.dim
    b = np.array([
        float(np.real(op.inner(F_flat, op.velocity_profile(j)))) for j in range(d)
    ])
    return VfcReport(flux=b, tol=tol)


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

    def at_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients at arbitrary macro points (interpolating if sampled)."""
        points = np.atleast_1d(np.asarray(points, dtype=float))
        n = points.shape[0]
        if self.constant:
            return (
                np.broadcast_to(self.D, (n, *self.D.shape)).copy(),
                np.broadcast_to(self.U, (n, *self.U.shape)).copy(),
            )
        d = self.D.shape[-1]
        D_out = np.empty((n, d, d))
        U_out = np.empty((n, d))
        for i in range(d):
            U_out[:, i] = np.interp(points, self.x, self.U[:, i])
            for j in range(d):
                D_out[:, i, j] = np.interp(points, self.x, self.D[:, i, j])
        return D_out, U_out


def _solve_at(kernel, x, vm, backend, grid, scheme, n_modes, tol):
    if backend == "spectral_ap":
        op = assemble_spectral_ap(kernel, x, vm, n_modes=n_modes)
    else:
        op = assemble(kernel, x, vm, grid, scheme=scheme)
    _, F = equilibrium_F(op)
    chi, b = solve_chi_star(op, F, tol=tol)
    D = diffusion_matrix(op, chi, F)
    ellipticity_gate(D)
    res, const = corrector_diagnostics(op, chi, b)
    return op, op.unwrap(F), chi, b, D, res, const


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
) -> EffectiveCoefficients:
    """Solve the cell problems and average them into macro coefficients.

    ``x`` may be ``None`` (no modulation), a scalar, or a 1-D array of
    macro positions.  The whitelisted macroscopic modulations vary along
    the first coordinate only, so sampled assembly differentiates the
    equilibrium along that axis (centered inside, one-sided at the ends)
    to build the drift.  Kernels without modulation short-circuit to a
    single cell solve.

    ``backend`` is ``"grid"`` or ``"spectral_ap"``; by default kernels
    with a finite period use the grid backend and genuinely quasi-periodic
    ones the frequency lattice.
    """
    if backend is None:
        backend = "grid" if kernel.natural_period is not None else "spectral_ap"
    if backend == "grid" and grid is None:
        raise ValueError("grid backend needs a cell grid")

    x_independent = getattr(kernel, "x_dependence", "none") == "none"
    if x is None or np.isscalar(x) or x_independent:
        x0 = 0.0 if x is None else (float(np.atleast_1d(np.asarray(x, dtype=float))[0]))
        _, _, _, b, D, res, const = _solve_at(
            kernel, x0, vm, backend, grid, scheme, n_modes, tol
        )
        U = np.zeros(vm.dim)
        return EffectiveCoefficients(
            x=None, D=D, U=U, flux=b, residual=res, bound_constant=const
        )

    x_arr = np.asarray(x, dtype=float).reshape(-1)
    n_x = x_arr.size
    solved = [
        _solve_at(kernel, float(xi), vm, backend, grid, scheme, n_modes, tol) for xi in x_arr
    ]

    d = vm.dim
    D_all = np.stack([s[4] for s in solved])
    b_all = np.stack([s[3] for s in solved])
    res = max(s[5] for s in solved)
    const = max(s[6] for s in solved)

    # slow gradient of the equilibrium along the (first) macro axis
    F_stack = np.stack([np.asarray(s[1]) for s in solved])
    dF_dx1 = np.gradient(F_stack, x_arr, axis=0, edge_order=2)
    U_all = np.zeros((n_x, d))
    for m, (op, _, chi, _, _, _, _) in enumerate(solved):
        grads = [dF_dx1[m]] + [None] * (d - 1)
        U_all[m] = drift_vector(op, chi, grads)
    return EffectiveCoefficients(
        x=x_arr, D=D_all, U=U_all, flux=b_all, residual=res, bound_constant=const
    )
