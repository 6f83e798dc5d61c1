"""Conservative theta-scheme integrator for the homogenized limit.

Solves the Cauchy problem of the homogenized limit

    d rho / dt = div( D(x)^T grad rho )

on a truncated, cell-centered macro grid with periodic or no-flux
boundaries.  The drift of the limit is zero: every cell equilibrium is the
constant (see :mod:`kinhom.effective`).  The spatial operator ``L`` is the
flux form: every face between two cells carries one flux, from the
face-averaged tensor, and the divergence telescopes, so the total mass is
conserved to roundoff by construction.  ``L`` is never assembled as a
matrix; each path keeps only what its steps use.

Time stepping is the theta scheme (Crank-Nicolson by default,
unconditionally stable for theta >= 1/2).  How a step is solved depends on
the input, with the same operator and the same scheme either way:

* periodic grid, the same ``D`` in every cell (1-D or 2-D): ``L`` is
  circulant, so a step is the pointwise Fourier multiplier
  ``(1 + (1-theta) dt lam) / (1 - theta dt lam)`` on the ``rfftn`` half
  spectrum (``L`` and ``rho`` are real).  The symbol is the closed form

      lam(k) = - sum_a D_aa (2 sin(k_a h_a / 2) / h_a)^2
               - sum_{j != a} D_ja sin(k_j h_j) sin(k_a h_a) / (h_j h_a),

  real, and exactly 0 at the zero mode (the column sum of a flux-form
  ``L``), so the multiplier keeps the mass exactly;
* a 1-D grid with per-cell ``D``, or with no-flux walls: one coefficient
  per face, ``0.5 (D_C + D_R) / h^2`` (``n`` faces when periodic, the last
  joining cell ``n-1`` to cell 0, and ``n-1`` faces between no-flux
  walls).  ``L`` is then symmetric and tridiagonal, cyclic when periodic,
  and its face coefficients are positive once ``D`` has passed the
  ellipticity gate upstream, so ``A = I - theta dt L`` is symmetric
  positive definite: LAPACK ``dpttrf`` factors it once per step size, a
  solve is one ``dpttrs``, and the two periodic corners are folded in with
  one Sherman-Morrison correction (:class:`_SPDTridiagonal`).  The
  right-hand matrix is ``I + (1-theta) dt L = (1/theta) I -
  ((1-theta)/theta) A``, so for ``theta >= 1/2`` a step is one solve,
  ``(1/theta) A^{-1} rho - ((1-theta)/theta) rho``.  Below 1/2 that
  difference would amplify roundoff by ``(1-theta)/theta``, so the
  explicit-gated steps, ``theta = 0`` among them, form
  ``rho + (1-theta) dt L rho`` (the difference of the face fluxes) before
  the solve.

A 2-D grid that is not circulant (per-cell ``D``, or no-flux walls) is
refused: no scenario builds one.

A run keeps only its checkpoints, so it advances one checkpoint interval
per ``step(rho, dt, n)`` call.  On the Fourier path the ``n`` steps of an
interval are one multiplication by the power ``m(dt)**n`` of the step
multiplier ``m(dt)`` (the scheme is linear, time-invariant and diagonal in
Fourier space); the tridiagonal path solves ``n`` times.  The power or the
solve is cached per step size.

The module loads no scipy; the first tridiagonal step size loads
``dpttrf``/``dpttrs`` from ``scipy.linalg``.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from kinhom.phase_space import MacroGrid, checkpoint_substeps, step_key

__all__ = ["MacroField", "DriftDiffusionSolver"]


@dataclass(frozen=True)
class MacroField:
    """Density checkpoints ``rho(t_n, x_j)`` with their grid and step size."""

    times: np.ndarray           # (n_t,)
    values: np.ndarray          # (n_t, *grid.shape)
    grid: MacroGrid
    dt: float
    steps: int                  # theta steps taken from t = 0

    def mass(self) -> np.ndarray:
        """Total mass per checkpoint (cell sums times cell volume)."""
        axes = tuple(range(1, self.values.ndim))
        return self.values.sum(axis=axes) * self.grid.cell_volume

    def at_time(self, t: float) -> np.ndarray:
        """The checkpoint at ``t``, within 1e-9 relative."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"no checkpoint at t={t} (nearest {self.times[idx]})")
        return self.values[idx]


def _per_cell(coef, n_cells: int, expect_shape: tuple) -> np.ndarray:
    """Broadcast a constant coefficient to per-cell samples."""
    arr = np.asarray(coef, dtype=float)
    if arr.shape == expect_shape:
        return np.broadcast_to(arr, (n_cells, *expect_shape)).copy()
    if arr.shape == (n_cells, *expect_shape):
        return arr.copy()
    raise ValueError(
        f"coefficient shape {arr.shape} is neither {expect_shape} nor per-cell"
    )


def _faces(D: np.ndarray, h: float, periodic: bool):
    """The 1-D flux-form ``L`` as face coefficients, their right cells and its diagonal.

    ``D`` holds one coefficient per cell.  Face ``i`` joins cell ``i`` to
    cell ``right[i]``, ``i + 1`` or, for the last face of a periodic grid,
    0; its coefficient is ``0.5 (D_C + D_R) / h / h``, and every cell's
    diagonal entry is minus the coefficients of its faces.
    """
    n = D.size
    m = n if periodic else n - 1
    right = np.arange(1, m + 1) % n
    faces = 0.5 * (D[:m] + D[right]) / h / h
    diag = np.zeros(n)
    diag[:m] -= faces
    diag[right] -= faces
    return faces, right, diag


class _SPDTridiagonal:
    """Solves by a symmetric positive definite tridiagonal ``A``, cyclic or not.

    ``A`` has the main diagonal ``diag``, the off-diagonal ``off`` on both
    sides and, when ``corner`` is nonzero, ``A[0, n-1] = A[n-1, 0] =
    corner``.  LAPACK ``dpttrf`` factors the tridiagonal part as
    ``L D L^T`` and a solve is one ``dpttrs``.  The corners are folded in
    with one Sherman-Morrison correction (Press et al., *Numerical
    Recipes*, 3rd ed., §2.7): with ``gamma = -A[0, 0]`` and ``u = (gamma,
    0, ..., 0, corner)``, ``A = T - u u^T / |gamma|``, so the tridiagonal
    ``T`` is ``A`` plus a positive semidefinite term and SPD whenever ``A``
    is.  With ``v = u / gamma`` and ``z = T^{-1} u``, kept with the
    factors, ``A^{-1} b = y - (v.y / (1 + v.z)) z`` for ``y = T^{-1} b``.
    A matrix that is not positive definite is refused with ``ValueError``.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray, corner: float):
        from scipy.linalg.lapack import dpttrf, dpttrs

        self._dpttrs = dpttrs
        diag = np.array(diag, dtype=float)
        gamma = -diag[0]
        if corner:
            diag[0] -= gamma
            diag[-1] -= corner * corner / gamma
        self._d, self._e, info = dpttrf(diag, off)
        if info != 0:
            raise ValueError(f"I - theta dt L is not positive definite (dpttrf info {info})")
        self._z = None
        if corner:
            u = np.zeros(diag.size)
            u[0], u[-1] = gamma, corner
            z = self._dpttrs(self._d, self._e, u)[0]
            denom = 1.0 + z[0] + corner / gamma * z[-1]
            if not denom > 0.0:
                raise ValueError("I - theta dt L is not positive definite (cyclic correction)")
            self._z, self._w0, self._w1 = z, 1.0 / denom, corner / gamma / denom

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._dpttrs(self._d, self._e, b)[0]
        if self._z is not None:
            y -= (self._w0 * y[0] + self._w1 * y[-1]) * self._z
        return y


class DriftDiffusionSolver:
    """Flux-form theta scheme for the homogenized diffusion equation.

    Parameters
    ----------
    grid :
        Cell-centered macro grid (1-D or 2-D; periodic or no-flux).  A 2-D
        grid must be periodic with one ``D``.
    D :
        Diffusion tensor ``(d, d)``, constant or per cell (leading axis =
        flattened grid, C order), finite.  The symmetrized tensor must
        have passed the ellipticity gate upstream.
    theta :
        Implicitness: 1/2 = Crank-Nicolson (default), 1 = implicit Euler,
        0 = explicit (stability-checked against ``h^2 / (2 d max|D|)``).

    ``symbol`` holds the half-spectrum eigenvalues of ``L`` when steps are
    Fourier multipliers, and is None when they are tridiagonal solves.
    """

    def __init__(self, grid: MacroGrid, D, theta: float = 0.5):
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        self.grid = grid
        self.theta = float(theta)
        d = grid.dim
        self.D = _per_cell(D, grid.n_points, (d, d))
        if not np.all(np.isfinite(self.D)):
            raise ValueError("D must be finite")
        self.symbol = self._circulant_symbol()
        if self.symbol is None:
            if d != 1:
                raise ValueError("a 2-D macro grid must be periodic with one D")
            self._faces, self._right, self._diag = _faces(
                self.D[:, 0, 0], grid.spacing[0], grid.bc == "periodic")
            # exact-conservation sanity: the column sums of a flux-form L vanish
            colsum = self._diag.copy()
            colsum[:self._faces.size] += self._faces
            colsum[self._right] += self._faces
            leak = np.abs(colsum).max()
            if leak > 1e-12 * max(1.0, np.abs(self._diag).max()):
                raise AssertionError(f"flux-form assembly lost conservation ({leak:.3e})")
        # the multiplier power per (step key, count) when ``symbol`` is set,
        # else a solve by the factored implicit matrix per step key
        self._factor_cache: dict[object, object] = {}

    # -- operator ---------------------------------------------------------------

    def _circulant_symbol(self) -> np.ndarray | None:
        """Eigenvalues of ``L`` on the ``rfftn`` half spectrum when it is circulant, else None.

        ``L`` is circulant when the grid is periodic and every cell holds
        the same ``D``.  The symbol is the closed form of the module
        docstring, in ``x_a = k_a h_a = 2 pi m_a / n_a``: the half-angle
        square ``sin(x_a/2)^2`` leaves the low modes at relative roundoff,
        where ``2 - 2 cos(x_a)`` would cancel.
        """
        if self.grid.bc != "periodic" or np.any(self.D != self.D[0]):
            return None
        D, shape, h = self.D[0], self.grid.shape, self.grid.spacing
        freqs = [np.fft.fftfreq(n) for n in shape[:-1]] + [np.fft.rfftfreq(shape[-1])]
        f = np.meshgrid(*freqs, indexing="ij", sparse=True)
        symbol = np.zeros(tuple(x.size for x in freqs))
        for a in range(len(shape)):
            symbol -= D[a, a] * (2.0 * np.sin(np.pi * f[a]) / h[a]) ** 2
            for j in range(len(shape)):
                if j != a:
                    symbol -= (D[j, a] * np.sin(2.0 * np.pi * f[j]) * np.sin(2.0 * np.pi * f[a])
                               / (h[j] * h[a]))
        return symbol

    def _apply_L(self, rho: np.ndarray) -> np.ndarray:
        """``L rho`` on a 1-D grid: the difference of the face fluxes ``faces (rho_R - rho_C)``."""
        m = self._faces.size
        flux = self._faces * (rho[self._right] - rho[:m])
        out = np.zeros_like(rho)
        out[:m] = flux
        out[self._right] -= flux
        return out

    # -- stepping ----------------------------------------------------------------

    @functools.cached_property
    def _max_dnorm(self) -> float:
        """Largest spectral norm of the per-cell ``D``; read only by the explicit gate."""
        return float(np.linalg.norm(self.D, 2, axis=(1, 2)).max()) if self.grid.n_points else 0.0

    def _stability_limit(self) -> float:
        h2 = min(self.grid.spacing) ** 2
        return np.inf if self._max_dnorm == 0 else h2 / (2.0 * self.grid.dim * self._max_dnorm)

    def _multiplier(self, dt: float, n: int) -> np.ndarray:
        """``m(dt)**n``: ``n`` theta steps of size ``dt`` in Fourier space."""
        key = (step_key(dt), n)
        if key not in self._factor_cache:
            lam = self.symbol
            m = (1.0 + (1.0 - self.theta) * dt * lam) / (1.0 - self.theta * dt * lam)
            self._factor_cache[key] = m**n
        return self._factor_cache[key]

    def _factors(self, dt: float):
        """A solve by ``A = I - theta dt L`` for steps of size ``dt`` (:class:`_SPDTridiagonal`)."""
        key = step_key(dt)
        if key not in self._factor_cache:
            tdt = self.theta * dt
            n = self.grid.n_points
            corner = -tdt * self._faces[-1] if self.grid.bc == "periodic" else 0.0
            self._factor_cache[key] = _SPDTridiagonal(
                1.0 - tdt * self._diag, -tdt * self._faces[:n - 1], corner).solve
        return self._factor_cache[key]

    def step(self, rho: np.ndarray, dt: float, n: int = 1) -> np.ndarray:
        """Advance ``n`` theta-scheme steps of size ``dt`` (shape-preserving)."""
        if not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"step count must be an integer >= 1, got {n!r}")
        if self.theta < 0.5 and dt > self._stability_limit():
            raise ValueError(
                f"explicit step dt={dt:.3e} exceeds the stability "
                f"limit {self._stability_limit():.3e}"
            )
        if self.symbol is not None:
            shape = self.grid.shape
            axes = tuple(range(len(shape)))
            rho_hat = np.fft.rfftn(np.asarray(rho, dtype=float).reshape(shape))
            return np.fft.irfftn(rho_hat * self._multiplier(dt, n), s=shape, axes=axes)
        solve = self._factors(dt)
        flat = np.asarray(rho, dtype=float).reshape(-1)
        if self.theta >= 0.5:
            # A^{-1} (I + (1-theta) dt L) x = (1/theta) A^{-1} x - ((1-theta)/theta) x;
            # the difference amplifies roundoff by (1-theta)/theta, at most 1 here
            # (1.8e-2 relative after 1000 steps at theta = 1e-12, hence the product below 1/2).
            # solve returns a fresh array, scaled in place: rho is never written
            a, b = 1.0 / self.theta, (1.0 - self.theta) / self.theta
            for _ in range(n):
                y = solve(flat)
                y *= a
                y -= b * flat
                flat = y
        else:
            for _ in range(n):
                flat = solve(flat + (1.0 - self.theta) * dt * self._apply_L(flat))
        return flat.reshape(self.grid.shape)

    def run(self, rho0: np.ndarray, T: float, dt: float | None = None,
            checkpoints: np.ndarray | None = None) -> MacroField:
        """Integrate to time ``T``, recording the requested checkpoints.

        ``checkpoints`` defaults to ``[0, T]``; the step size is shrunk
        per interval so checkpoint times are hit exactly.
        """
        rho0 = np.asarray(rho0, dtype=float).reshape(self.grid.shape)
        dt_target = float(dt) if dt is not None else float(T) / 1024.0
        plan = checkpoint_substeps(checkpoints, T, dt_target)
        slices = [rho0]
        rho = rho0
        for _, n_sub, sub_dt in plan:
            rho = self.step(rho, sub_dt, n_sub)
            slices.append(rho)
        times = np.array([0.0] + [t1 for t1, _, _ in plan])
        return MacroField(times=times, values=np.stack(slices), grid=self.grid,
                          dt=plan[-1][2] if plan else dt_target,
                          steps=sum(n_sub for _, n_sub, _ in plan))
