"""Conservative theta-scheme integrator for the homogenized limit.

Solves the Cauchy problem of the homogenized limit

    d rho / dt = div( D(x)^T grad rho )

on a truncated, cell-centered macro grid with periodic or no-flux
boundaries.  The drift of the limit is zero: every cell equilibrium is the
constant (see :mod:`kinhom.effective`).  The spatial operator is assembled
in flux form: every face between two cells carries one flux value, from
the face-averaged tensor, and the divergence telescopes, so the total mass
is conserved to roundoff by construction — not as a happy numerical
accident.

Time stepping is the theta scheme (Crank-Nicolson by default,
unconditionally stable for theta >= 1/2).  How a step is solved depends on
the input, with the same operator and the same scheme either way:

* periodic grid, the same ``D`` in every cell: ``L`` is
  circulant, so a step is the pointwise Fourier multiplier
  ``(1 + (1-theta) dt lam) / (1 - theta dt lam)`` with ``lam = rfftn(L e_0)``
  (real transforms: ``L`` and ``rho`` are real, so half the spectrum
  determines the step).  The first column ``L e_0`` comes from the same
  assembly on a periodic grid of 3 cells per axis at the same spacing,
  which holds the whole stencil, so ``L`` itself is never built;
* per-cell coefficients or a no-flux grid: the implicit matrix
  ``I - theta dt L`` is LU-factorized (``splu``).  The right-hand matrix
  is ``I + (1-theta) dt L = (1/theta) I - ((1-theta)/theta) (I - theta dt
  L)``, so for ``theta >= 1/2`` a step is one solve,
  ``(1/theta) lu.solve(rho) - ((1-theta)/theta) rho``, with no product by
  it.  Below 1/2 that difference would amplify roundoff by
  ``(1-theta)/theta``, so the explicit-gated steps, ``theta = 0`` among
  them, keep the product by the right-hand matrix before the solve.
  Only this path assembles ``L``
  (:attr:`DriftDiffusionSolver.L`, built at first use), at its first
  step size.

A run keeps only its checkpoints, so it advances one checkpoint interval
per ``step(rho, dt, n)`` call.  On the Fourier path the ``n`` steps of an
interval are one multiplication by the power ``m(dt)**n`` of the step
multiplier ``m(dt)`` (the scheme is linear, time-invariant and diagonal in
Fourier space); the LU path solves ``n`` times.  The power or the factors
are cached per step size.  The zero mode of the symbol is set to exactly 0,
the column sum of a flux-form ``L``, so the multiplier keeps the mass
exactly instead of compounding the transform's roundoff over the steps.

scipy is imported by the solver, not by this module: the first sparse
assembly, of the 3-cell stencil at construction on the Fourier path or of
``L`` at the first LU-path step size, loads ``scipy.sparse``, and the
first LU-path step size loads its ``splu``.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from kinhom.phase_space import MacroGrid, checkpoint_substeps, step_key

if TYPE_CHECKING:
    from scipy import sparse

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


def _flux_form(shape: tuple[int, ...], spacing: tuple[float, ...], D: np.ndarray,
               periodic: bool) -> sparse.csr_matrix:
    """The flux-form ``div(D^T grad)`` on a cell-centred grid, C order.

    ``D`` holds one ``(d, d)`` tensor per cell.  Every face carries one
    flux, from the face-averaged tensor; the mixed terms ``D_{j,ax} d_j``
    (periodic grids only) take the centred difference along ``j`` averaged
    over the face's two cells.
    """
    import scipy.sparse as sparse

    d = len(shape)
    n = int(np.prod(shape))
    cells = np.arange(n).reshape(shape)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(r, c, v):
        rows.append(np.asarray(r).ravel())
        cols.append(np.asarray(c).ravel())
        vals.append(np.asarray(v).ravel())

    for ax in range(d):
        h = spacing[ax]
        C = cells
        R = np.roll(cells, -1, axis=ax)
        mask = np.ones(shape, dtype=bool)
        if not periodic:
            sl = [slice(None)] * d
            sl[ax] = -1
            mask[tuple(sl)] = False  # no face beyond the last cell
        Cm, Rm = C[mask], R[mask]

        # one flux per interior/periodic face: list of (column, coefficient)
        face_terms: list[tuple[np.ndarray, np.ndarray]] = []

        Dax = D[:, ax, ax]
        a_f = 0.5 * (Dax[Cm] + Dax[Rm]) / h
        face_terms.append((Rm, a_f))
        face_terms.append((Cm, -a_f))

        # mixed terms D_{j,ax} d_j rho at the face (periodic only)
        for j in range(d):
            if j == ax:
                continue
            Dj = D[:, j, ax]
            d_f = 0.5 * (Dj[Cm] + Dj[Rm])
            if np.all(d_f == 0.0):
                continue
            hj = spacing[j]
            Rj = np.roll(cells, -1, axis=j)
            Lj = np.roll(cells, 1, axis=j)
            quarter = d_f / (4.0 * hj)
            face_terms.append((Rj[mask], quarter))
            face_terms.append((Lj[mask], -quarter))
            RjR = np.roll(R, -1, axis=j)
            LjR = np.roll(R, 1, axis=j)
            face_terms.append((RjR[mask], quarter))
            face_terms.append((LjR[mask], -quarter))

        # divergence: face (C -> R) adds +flux/h at C and -flux/h at R
        for col, coef in face_terms:
            add(Cm, col, coef / h)
            add(Rm, col, -coef / h)

    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


def _check_conservation(colsum: float, scale: float) -> None:
    """Exact-conservation sanity: column sums of a flux-form divergence vanish."""
    if colsum > 1e-12 * max(1.0, scale):
        raise AssertionError(f"flux-form assembly lost conservation ({colsum:.3e})")


class DriftDiffusionSolver:
    """Flux-form theta scheme for the homogenized diffusion equation.

    Parameters
    ----------
    grid :
        Cell-centered macro grid (1-D or 2-D; periodic or no-flux).
    D :
        Diffusion tensor ``(d, d)``, constant or per cell (leading axis =
        flattened grid, C order).  The symmetrized tensor must have passed
        the ellipticity gate upstream.
    theta :
        Implicitness: 1/2 = Crank-Nicolson (default), 1 = implicit Euler,
        0 = explicit (stability-checked against ``h^2 / (2 d max|D|)``).

    ``symbol`` holds the half-spectrum eigenvalues of ``L`` when steps are
    Fourier multipliers, and is None when they are LU solves.
    """

    def __init__(self, grid: MacroGrid, D, theta: float = 0.5):
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        self.grid = grid
        self.theta = float(theta)
        d = grid.dim
        n = grid.n_points
        self.D = _per_cell(D, n, (d, d))
        if grid.bc != "periodic" and d == 2:
            off = np.abs(self.D[:, 0, 1]).max() + np.abs(self.D[:, 1, 0]).max()
            if off > 0:
                raise NotImplementedError(
                    "off-diagonal diffusion with no-flux boundaries is not supported"
                )
        self.symbol = self._circulant_symbol()
        # the multiplier power per (step key, count) when ``symbol`` is set,
        # else the LU factors of the implicit matrix per step key
        self._factor_cache: dict[object, object] = {}
        # the right-hand matrix per step key, below theta = 1/2 only (see step)
        self._rhs_cache: dict[float, sparse.csr_matrix] = {}

    # -- operator ---------------------------------------------------------------

    @functools.cached_property
    def L(self) -> sparse.csr_matrix:
        """The flux-form operator, ``(n, n)`` sparse, assembled at first use.

        The LU path builds it at its first step size; the Fourier path never
        does (its symbol comes from the stencil alone), so only a caller
        that reads it pays for it there.
        """
        L = _flux_form(self.grid.shape, self.grid.spacing, self.D, self.grid.bc == "periodic")
        _check_conservation(np.abs(np.asarray(L.sum(axis=0))).max(), abs(L).max())
        return L

    def _circulant_symbol(self) -> np.ndarray | None:
        """Eigenvalues ``rfftn(L e_0)`` of ``L`` when it is circulant, else None.

        ``L`` is circulant when the grid is periodic and every cell holds
        the same ``D``; its first column is then the stencil, and the DFT
        diagonalizes it.  ``L`` is real, so the half spectrum of ``rfftn``
        holds every eigenvalue up to conjugation.  The column comes from
        :func:`_flux_form` on the smallest periodic grid that holds the
        stencil, 3 cells per axis at the same spacing: offsets -1, 0 and 1
        along each axis are distinct there, so its first column has the
        entries of ``L e_0``, placed by offset, and ``L`` is not assembled.
        """
        if self.grid.bc != "periodic" or np.any(self.D != self.D[0]):
            return None
        d = self.grid.dim
        stencil = _flux_form((3,) * d, self.grid.spacing,
                             np.broadcast_to(self.D[0], (3**d, d, d)), periodic=True)
        e0 = np.zeros(3**d)
        e0[0] = 1.0
        column = np.zeros(self.grid.shape)
        column[np.ix_(*[[0, 1, -1]] * d)] = (stencil @ e0).reshape((3,) * d)
        _check_conservation(abs(column.sum()), np.abs(column).max())
        symbol = np.fft.rfftn(column)
        # the zero mode is the first column sum, 0 in flux form; rfftn
        # returns it as roundoff, which the multiplier would compound
        symbol.flat[0] = 0.0
        return symbol

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
        """LU factors of ``I - theta dt L`` for steps of size ``dt``, and the right-hand matrix.

        The right-hand matrix ``I + (1-theta) dt L`` is built and kept below
        ``theta = 1/2`` only, and is None from there on (see :meth:`step`).
        """
        key = step_key(dt)
        if key not in self._factor_cache:
            import scipy.sparse as sparse
            from scipy.sparse.linalg import splu

            eye = sparse.identity(self.grid.n_points, format="csr")
            self._factor_cache[key] = splu((eye - self.theta * dt * self.L).tocsc())
            if self.theta < 0.5:
                self._rhs_cache[key] = (eye + (1.0 - self.theta) * dt * self.L).tocsr()
        return self._factor_cache[key], self._rhs_cache.get(key)

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
        lu, rhs = self._factors(dt)
        flat = np.asarray(rho, dtype=float).reshape(-1)
        if rhs is None:
            # lhs^{-1} rhs x = (1/theta) lhs^{-1} x - ((1-theta)/theta) x; the
            # difference amplifies roundoff by (1-theta)/theta, at most 1 here
            # (1.8e-2 relative after 1000 steps at theta = 1e-12, hence rhs below 1/2)
            a, b = 1.0 / self.theta, (1.0 - self.theta) / self.theta
            for _ in range(n):
                flat = a * lu.solve(flat) - b * flat
        else:
            for _ in range(n):
                flat = lu.solve(rhs @ flat)
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
