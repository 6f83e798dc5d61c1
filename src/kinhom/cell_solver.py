"""Microstructure cell problems: equilibrium, correctors, adjoints.

The discrete cell operator is

    P = a(v) . grad_y + Sigma - K      (transport + absorption - gain)

acting on real phase-space fields over (points of a periodic grid) x
(velocity set).  Its adjoint in the natural weighted inner product  <f, g>
= int M(f g) dmu  is the weighted transpose, so duality, conservation, and
the Fredholm alternative hold *exactly* in floating point, not just in the
continuum limit.

Every cell lives on a periodic grid, a torus, and two backends fill it:

* the grid backend (`assemble`) samples the kernel on the cell grid, with
  first-order upwind (positivity-preserving) or Fourier
  collocation (spectrally accurate) transport;
* the frequency-lattice backend (`assemble_spectral_ap`) takes a
  quasi-periodic profile as the trace ``s(y) = S(y, ..., y)`` of a
  function ``S`` on the torus of its generator frequencies ``g_j``
  (period ``2 pi / g_j`` along axis ``j``, so ``d/dy`` is the sum of the
  axis derivatives; Kozlov, *Math. USSR Sb.* 35 (1979) 481-498), samples
  ``S`` on ``2 n_modes + 1`` points an axis, and transports by Fourier
  collocation there: the fields' Fourier coefficients are their
  coefficients on the lattice of frequencies ``sum_j t_j g_j``.

Solves split ``P = M - N`` and invert only ``M = T + Sigma_bar``, the
transport plus each node's mean loss, which is diagonal in Fourier space
and inverted by FFT (:class:`_FourierSplit`).  The loss is the gain's row
sum, so the equilibrium is the constant: ``M 1`` is the eigenvector of ``O
= N M^{-1}`` with eigenvalue 1, which one application checks.  Correctors
are Krylov solves of ``(I - O) v = g``, ``f = M^{-1} v``, with the
one-dimensional kernel deflated out.  Every cell applies ``P`` as ``M f -
N f``, so no cell forms its transport as a matrix, a factorization or a
dense array.  Every kernel is the separable ``c(x) s(y) g(v, w)``, so a
cell keeps its rates as the samples ``c(x) s(y_j)`` and one ``K x K`` gain
table ``G = g w``: ``K f`` is the samples times ``f G^T`` at each point.

Cell problems are small and many (one per macro position when the rates
vary with x), so a solve does only its arithmetic: GMRES runs in this
module, operation for operation scipy's ``gmres`` without its per-call
set-up.  Assembly samples and gates the rates; the splitting follows when
a solve asks for it.  :class:`CellStack` solves the positions of one
sampled family together, as one block-diagonal system with every
per-cell gate applied to each block; a single operator is its one-block
case.

scipy is imported inside the Krylov loop alone, so importing this module
and assembling a cell load numpy alone; the first solve loads
``scipy.linalg``; no cell loads scipy's sparse package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from kinhom.collision import ScatteringKernel, sdb_gap
from kinhom.phase_space import CellGrid, VelocityMeasure

__all__ = [
    "CompatibilityError",
    "ConvergenceError",
    "CellOperator",
    "CellStack",
    "RING_LEVEL",
    "SpectralCellOperator",
    "CorrectorSolution",
    "ChiStarSolution",
    "assemble",
    "assemble_spectral_ap",
    "equilibrium_F",
    "gate_rates",
    "solve_corrector",
    "solve_adjoint_corrector",
    "solve_chi_star",
    "verify_variational",
]


class CompatibilityError(ValueError):
    """Right-hand side violates the solvability (mean-compatibility) condition."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""


# ---------------------------------------------------------------------------
# the splitting P = M - N
# ---------------------------------------------------------------------------


def _upwind_terms(grid: CellGrid, field: np.ndarray) -> list[np.ndarray]:
    """Per axis, the first-order upwind symbol of each node, ``(K, n_freq)``.

    ``|a_k,ax| / h_ax (1 - exp(-+ i xi_ax h_ax))`` (``-`` upwind from
    ``f_{j-1}``), at the frequencies ``rfftn`` keeps along the axis.
    """
    steps = np.abs(field) / np.array(grid.spacing)  # (K, dim)
    terms = []
    for ax, n_ax in enumerate(grid.shape):
        # rfftn keeps the non-negative frequencies of the last axis only
        freqs = np.arange(n_ax // 2 + 1 if ax == len(grid.shape) - 1 else n_ax)
        shift = np.exp(-2j * np.pi * freqs / n_ax)  # f_{j-1}
        shifts = np.where(field[:, ax, None] > 0, shift, shift.conj())
        terms.append(steps[:, ax, None] * (1.0 - shifts))  # (K, n_freq)
    return terms


def _collocation_terms(grid, field: np.ndarray) -> list[np.ndarray]:
    """Per axis, the Fourier-collocation symbol ``i a_k,ax xi_ax`` of each node.

    The derivative drops the unpaired Nyquist wavenumber of an even axis,
    so it maps real fields to real fields and has exactly zero mean.
    """
    terms = []
    for ax, (n_ax, period) in enumerate(zip(grid.shape, grid.period)):
        freq = np.fft.rfftfreq if ax == len(grid.shape) - 1 else np.fft.fftfreq
        wavenumber = freq(n_ax, 1.0 / n_ax)  # integers, as rfftn orders them
        if n_ax % 2 == 0:
            wavenumber[n_ax // 2] = 0.0
        terms.append(1j * field[:, ax, None] * (2.0 * np.pi / period * wavenumber))
    return terms


class _FourierSplit:
    """``M = T + Sigma_bar``, applied and inverted by FFT.

    ``Sigma_bar`` is the loss ``(m, size)`` averaged over the grid points,
    per block and node, and ``T`` the transport whose per-axis node symbols
    are ``terms`` (:func:`_upwind_terms` or :func:`_collocation_terms`).
    ``M`` couples no blocks or nodes and is a convolution on the periodic
    grid, with symbol ``Sigma_bar_k`` plus the terms, so ``M`` and
    ``M^{-1}`` are an ``rfftn``, a multiply and an ``irfftn`` over
    node-major fields, contiguous along the transforms; ``M* = M^T`` (the
    weights are constant on a node) takes the conjugate symbol.  The
    reference-medium splitting of FFT-based homogenization (Moulinec and
    Suquet, *Comput. Methods Appl. Mech. Engrg.* 157 (1998) 69-94).  ``N =
    M - P = K - diag(excess)``.
    """

    def __init__(self, grid, loss: np.ndarray, terms: list[np.ndarray]):
        m, dim = len(loss), len(grid.shape)
        by_point = loss.reshape(m, grid.n_points, -1)
        K = by_point.shape[2]
        mean = by_point.mean(axis=1)  # (m, K)
        self.excess = (by_point - mean[:, None]).ravel()
        self.one = np.repeat(mean[:, None], grid.n_points, axis=1).ravel()  # M 1, as T 1 = 0
        symbol = mean.reshape(m, K, *(1,) * dim).astype(complex)
        for ax, term in enumerate(terms):
            symbol = symbol + term.reshape(K, *(-1 if a == ax else 1 for a in range(dim)))
        self._symbol = symbol
        self._inverse = 1.0 / symbol
        self._shape = (m, *grid.shape, K)
        self._axes = tuple(range(2, 2 + dim))

    def _transform(self, b: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        f = np.ascontiguousarray(np.moveaxis(b.reshape(self._shape), -1, 1))
        out = np.fft.irfftn(np.fft.rfftn(f, axes=self._axes) * multiplier,
                            s=self._shape[1:-1], axes=self._axes)
        return np.moveaxis(out, 1, -1).reshape(-1)

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self._transform(f, self._symbol)

    def apply_adjoint(self, f: np.ndarray) -> np.ndarray:
        return self._transform(f, self._symbol.conj())

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._transform(b, self._inverse)

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        return self._transform(b, self._inverse.conj())


# ---------------------------------------------------------------------------
# cells on a periodic grid
# ---------------------------------------------------------------------------


class _CellOperatorBase:
    """Cells of one periodic grid and velocity set: one operator, or a stack of them.

    Block ``i`` is the cell of the samples ``samples[i]`` ``c(x) s(y_j)``
    and the gain table ``G = g w`` (``(m, n)`` and ``(K, K)``; other shapes
    are refused) on the ``n`` points of ``grid`` (a
    :class:`~kinhom.phase_space.CellGrid`, or the lattice's
    :class:`_Torus`), with the transport ``a_k`` along every axis; its
    flat loss ``losses[i]``, the samples times the row sums of ``G``, is
    formed here once.  Fields are real and flat, block after block, in
    (point, node) order.  The solves work per block: :meth:`pairings`,
    :meth:`norms` and :meth:`means` give one value a block, and
    :meth:`per_cell` turns such values into the operator's result, the one
    cell's for one cell.

    ``scheme`` is the transport, ``upwind`` or ``spectral`` (Fourier
    collocation), and picks the symbol of ``M`` alone.  Every cell splits
    ``P = M - N`` at ``M`` (:class:`_FourierSplit`, built at first use):
    ``P f = M f - K f + (Sigma - Sigma_bar) f``.
    """

    def __init__(self, grid, vm: VelocityMeasure, samples: np.ndarray, G: np.ndarray,
                 scheme: str = "upwind"):
        if scheme not in ("upwind", "spectral"):
            raise ValueError(f"unknown transport scheme {scheme!r}")
        n, K, m = grid.n_points, vm.n_nodes, len(samples)
        for name, part, shape in (("samples", samples, (m, n)), ("gain", G, (K, K))):
            if part.shape != shape:
                raise ValueError(f"{name} of shape {part.shape} does not fit {m} cells of "
                                 f"{n} points and {K} velocities: expected {shape}")
        self.grid = grid
        self.vm = vm
        self.scheme = scheme
        self.n_points = n
        self.n_blocks, self.block_size = m, n * K
        self.size = m * n * K
        self.samples = samples
        self.G = G
        self.losses = (samples[..., None] * G.sum(axis=1)).reshape(m, -1)
        self.sigma_min = float(self.losses.min())

    @functools.cached_property
    def const(self) -> np.ndarray:
        # at first use, so an operator that is only gated never allocates it
        return np.ones(self.size)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return np.tile(np.tile(self.vm.weights, self.n_points) / self.n_points, self.n_blocks)

    # -- inner-product geometry --------------------------------------------

    def _blocks(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.n_blocks, -1)

    def pairings(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Per block, the weighted pairing ``int M(f g) dmu`` of flat vectors."""
        return np.add.reduce(self._blocks(self.weights * f * g), axis=1)

    def norms(self, f: np.ndarray) -> np.ndarray:
        return np.sqrt(np.add.reduce(self._blocks(self.weights * (f * f)), axis=1))

    def means(self, f: np.ndarray) -> np.ndarray:
        """Per block, ``int M(f) dmu`` of a flat field: the weighted sum of its samples."""
        return self.pairings(self.const, f)

    def per_cell(self, values: np.ndarray):
        """The operator's result from per-block ``values``, ``(n_blocks, ...)``.

        One cell's is its block's value (a scalar for a scalar); a
        :class:`CellStack` returns the values of all its blocks.
        """
        return values[0]

    def inner(self, f: np.ndarray, g: np.ndarray):
        """Weighted pairing ``int M(f g) dmu`` on flat vectors."""
        return self.per_cell(self.pairings(f, g))

    def norm(self, f: np.ndarray):
        return self.per_cell(self.norms(f))

    @functools.cached_property
    def F(self) -> np.ndarray:
        """Flat equilibrium ``1 / mu(V)`` spanning ``ker P``; read-only, as the solves share it."""
        F = (self._blocks(self.const) / self.means(self.const)[:, None]).reshape(-1)
        F.flags.writeable = False
        return F

    # -- the splitting --------------------------------------------------------

    @functools.cached_property
    def M(self) -> _FourierSplit:
        field = np.broadcast_to(self.vm.field, (self.vm.n_nodes, len(self.grid.shape)))
        terms = _upwind_terms if self.scheme == "upwind" else _collocation_terms
        return _FourierSplit(self.grid, self.losses, terms(self.grid, field))

    # -- operator actions ----------------------------------------------------

    def apply_P(self, f: np.ndarray) -> np.ndarray:
        """``M f - N f``, ``N = K - diag(M.excess)``."""
        return self.M.apply(f) - self.apply_K(f) + self.M.excess * f

    def apply_P_adjoint(self, f: np.ndarray) -> np.ndarray:
        return self.M.apply_adjoint(f) - self.apply_K_adjoint(f) + self.M.excess * f

    def _gain(self, f: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The samples times ``f right`` at every point, ``right`` ``(K, K)`` C-ordered."""
        by_point = f.reshape(-1, self.vm.n_nodes) @ right
        return (self.samples.reshape(-1, 1) * by_point).reshape(-1)

    def apply_K(self, f: np.ndarray) -> np.ndarray:
        # a copy: matmul took twice as long with the transposed view on the right
        return self._gain(f, self.G.T.copy())

    def apply_K_adjoint(self, f: np.ndarray) -> np.ndarray:
        """The weighted transpose of ``K``: ``G^T`` conjugated by the weights."""
        w = self.vm.weights
        return self._gain(f, self.G * w[:, None] / w)

    def apply_O(self, f: np.ndarray) -> np.ndarray:
        """``N M^{-1}``, ``N = M - P = K - diag(M.excess)``."""
        u = self.M.solve(f)
        return self.apply_K(u) - self.M.excess * u

    def apply_O_adjoint(self, f: np.ndarray) -> np.ndarray:
        u = self.M.solve_adjoint(f)
        return self.apply_K_adjoint(u) - self.M.excess * u

    # -- fields ----------------------------------------------------------------

    def velocity_profile(self, component: int) -> np.ndarray:
        """Flat field of ``a_component(v)`` (y-independent)."""
        return np.tile(self.vm.field[:, component], self.n_blocks * self.n_points)

    def dense_P(self) -> np.ndarray:
        """``P`` as a dense array, :meth:`apply_P` of each identity column."""
        n = self.size
        if n > 6000:
            raise ValueError(f"dense dump limited to 6000 rows, operator has {n}")
        out, column = np.empty((n, n)), np.zeros(n)
        for j in range(n):
            column[j] = 1.0
            out[:, j] = self.apply_P(column)
            column[j] = 0.0
        return out


# ---------------------------------------------------------------------------
# grid backend
# ---------------------------------------------------------------------------


def _gated(samples: np.ndarray, kernel, vm: VelocityMeasure) -> tuple[np.ndarray, np.ndarray]:
    """``(samples, G = g w)`` once the samples are positive and finite and ``g`` in balance.

    The first gate is ``min > 0`` and ``max < inf``: a NaN fails both (``min``
    and ``max`` propagate it), 0, negative values and ±inf one.  The second
    is the :func:`sdb_gap` of the node table ``g`` alone, as the positive
    samples cancel from the relative gap.
    """
    if not (samples.min() > 0 and samples.max() < np.inf):
        raise ValueError("scattering rates must be positive and finite on the grid")
    g = kernel.node_matrix(vm)
    sdb_gap(g, vm.weights).require()
    return samples, g * vm.weights


def gate_rates(kernel, x, grid: CellGrid, vm: VelocityMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The gated rates of ``kernel`` at ``x`` on ``grid``, ``(samples, G)`` (see :func:`_gated`).

    ``samples`` ``(n,)`` are ``c(x) s(y_j)``
    (:meth:`~kinhom.collision.ScatteringKernel.sample_cell`), ``G`` ``(K,
    K)`` the gain table ``g w``.
    """
    return _gated(kernel.sample_cell(x, grid), kernel, vm)


class CellOperator(_CellOperatorBase):
    """Cell operator sampled on a periodic grid (see :func:`assemble`).

    Construction samples and gates the rates (:func:`gate_rates`) and
    keeps the samples ``c(x) s(y_j)``, the gain table ``G`` and the flat
    loss ``losses[0]``; the splitting follows at first use.
    """

    def __init__(self, kernel, x, vm: VelocityMeasure, grid: CellGrid, scheme: str):
        if grid.dim != vm.dim:
            raise ValueError(f"cell grid dim {grid.dim} != velocity dim {vm.dim}")
        self.kernel = kernel
        self.x = x
        samples, G = gate_rates(kernel, x, grid, vm)
        super().__init__(grid, vm, samples[None], G, scheme)


def assemble(kernel, x, vm: VelocityMeasure, grid: CellGrid,
             scheme: str = "upwind") -> CellOperator:
    """Build the grid-backend cell operator of ``kernel`` at macro position ``x``.

    Samples ``c(x) s(y)`` once and refuses the rates unless positive,
    finite and in semi-detailed balance (:func:`gate_rates`).  The
    splitting is built at first use.
    """
    return CellOperator(kernel, x, vm, grid, scheme)


class CellStack(_CellOperatorBase):
    """Cell operators of one grid, velocity set and scheme, stacked block-diagonally.

    Block ``i`` is the operator of the samples ``samples[i]`` (``(m, n)``;
    an operator keeps its own as ``samples[0]``) and the one gain table
    ``G`` of them all, built as that operator is, with block offsets, and
    with one Fourier symbol a block.  Fields are flat, block after block.
    Results are per block, so
    :func:`equilibrium_F`, :func:`solve_chi_star` and
    :func:`kinhom.effective.diffusion_matrix` gate every block as the cell
    it is and return one value a block; the corrector solves run one
    Krylov loop on the whole stack.
    """

    def per_cell(self, values: np.ndarray) -> np.ndarray:
        return values


# ---------------------------------------------------------------------------
# frequency-lattice backend
# ---------------------------------------------------------------------------


#: Outermost-ring weight of the lattice corrector above which the harness
#: warns; D's error stays below its square (about 1e-8 here).
RING_LEVEL = 1e-4


@dataclass(frozen=True)
class _Torus:
    """Periodic grid of the lattice: ``shape`` points over ``period`` along each axis."""

    shape: tuple[int, ...]
    period: tuple[float, ...]

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)


def _generator_key(f) -> float:
    """The lookup key of frequency ``+-f``: ``|f|`` to 9 decimals."""
    return round(float(abs(f)), 9)


def _lattice_generators(kernel: ScatteringKernel) -> list[float]:
    """The distinct positive frequencies of the kernel's profile, sorted.

    They generate the frequency lattice; at most two are supported.
    Frequencies with one :func:`_generator_key` are one generator, which
    keeps the exact value of the first of them.
    """
    freqs, _ = kernel.profile_frequencies()
    gens = {}
    for f in freqs:
        if abs(f) > 1e-12:
            gens.setdefault(_generator_key(f), float(abs(f)))
    if len(gens) > 2:
        raise ValueError("at most two generator frequencies are supported")
    return sorted(gens.values())


def _torus_profile(kernel: ScatteringKernel, gens: list[float], shape: tuple) -> np.ndarray:
    """The profile's lift ``S`` at the torus points, flat, row-major.

    The profile mode of frequency ``+-g_j`` varies along axis ``j`` alone,
    as ``exp(+-2 pi i t / n_j)`` at point ``t`` of the axis.
    """
    freqs, coeffs = kernel.profile_frequencies()
    keys = [_generator_key(g) for g in gens]
    points = np.indices(shape)
    S = np.zeros(shape, dtype=complex)
    for f, cf in zip(freqs, coeffs):
        if abs(f) < 1e-12:
            S += cf
        else:
            j = keys.index(_generator_key(f))
            S += cf * np.exp(2j * np.pi * np.sign(f) * points[j] / shape[j])
    return S.real.ravel()


class SpectralCellOperator(_CellOperatorBase):
    """Cell operator of a quasi-periodic profile on its lifted torus.

    The profile's generator frequencies ``g_j`` (at most two; a profile
    without one takes a single point) span a torus with period ``2 pi /
    g_j`` along axis ``j``, on which ``c(x) S`` is sampled at ``2 n_modes +
    1`` points an axis and transport is Fourier collocation with ``a_k``
    along every axis.  A field's Fourier coefficients (:meth:`coeffs`) are
    its coefficients on the lattice ``sum_j t_j g_j``, ``|t_j| <=
    n_modes`` (``lattice``).  Collocation and the Galerkin compression
    onto that lattice agree on every mode whose neighbours stay inside it,
    and differ below convergence only through the outermost ring
    (:meth:`ring_weight`).
    """

    def __init__(self, kernel: ScatteringKernel, x, vm: VelocityMeasure, n_modes: int = 8):
        if vm.dim != 1:
            raise ValueError("the frequency-lattice backend is one-dimensional")
        gens = _lattice_generators(kernel)
        m = int(n_modes)
        box = (2 * m + 1,) * len(gens)
        torus = _Torus(box or (1,), tuple(2.0 * np.pi / g for g in gens) or (2.0 * np.pi,))
        samples = float(kernel.x_factor(x)) * _torus_profile(kernel, gens, torus.shape)
        samples, G = _gated(samples, kernel, vm)
        super().__init__(torus, vm, samples[None], G, "spectral")
        self.kernel = kernel
        self.x = x
        self.n_modes = m
        # the box -m..m per generator, row-major, as coeffs orders it
        self._coords = np.indices(box).reshape(len(gens), math.prod(box)).T - m
        self.lattice = (self._coords * np.array(gens)).sum(axis=1)

    def coeffs(self, flat: np.ndarray) -> np.ndarray:
        """``(n_lattice, K)`` complex: the Fourier coefficients of a flat field at ``lattice``.

        The FFT of its samples over the torus, modes in the order of
        ``lattice``.
        """
        axes = tuple(range(len(self.grid.shape)))
        values = flat.reshape(*self.grid.shape, self.vm.n_nodes)
        modes = np.fft.fftshift(np.fft.fftn(values, axes=axes), axes=axes)
        return modes.reshape(self.n_points, -1) / self.n_points

    def ring_weight(self, flat: np.ndarray) -> float:
        """``||flat on the outermost lattice ring|| / ||flat||``.

        The ring is the modes with some ``|t_j| = n_modes``, the last ones
        the truncation keeps; the norms are Parseval's, weighted by the
        velocity measure.  For the adjoint corrector it measures what the
        truncation drops: D's error stays below its square.
        """
        power = np.abs(self.coeffs(flat)) ** 2 @ self.vm.weights
        ring = np.any(np.abs(self._coords) == self.n_modes, axis=1)
        total = power.sum()
        return float(np.sqrt(power[ring].sum() / total)) if total > 0 else 0.0


def assemble_spectral_ap(kernel: ScatteringKernel, x, vm: VelocityMeasure,
                         n_modes: int = 8) -> SpectralCellOperator:
    """Build the frequency-lattice cell operator for a quasi-periodic kernel.

    Refuses rates that are not positive or fail semi-detailed balance.
    """
    return SpectralCellOperator(kernel, x, vm, n_modes=n_modes)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def _scaled(coef, flat: np.ndarray) -> np.ndarray:
    """``flat`` cut into ``coef.size`` equal blocks, block ``i`` scaled by ``coef[i]``.

    A scalar ``coef`` scales the whole of ``flat``.
    """
    coef = np.atleast_1d(coef)
    return (coef[:, None] * flat.reshape(coef.size, -1)).reshape(-1)


def _ratio(num: np.ndarray, den: np.ndarray, otherwise) -> np.ndarray:
    """``num / den`` per block, ``otherwise`` where ``den`` is not positive."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), otherwise)


def _first_failing(values: np.ndarray, failing: np.ndarray) -> float:
    """The value of the first block that fails a gate."""
    return float(values[np.argmax(failing)])


def equilibrium_F(op: _CellOperatorBase):
    """Principal eigenvalue of the iteration map ``O = N M^{-1}``; normalized equilibrium.

    The loss is the gain's row sum (the samples times those of ``G``), so
    ``P 1 = 0`` and ``h = M 1`` satisfies ``O h = N 1 = M 1 - P 1 = h``.
    ``lam``, the Rayleigh quotient ``1 - <h, P 1> / <h, h>`` of ``O`` at
    ``h`` (one application, no solve), must be 1 within 1e-8 (else kernel
    and quadrature are inconsistent).  The returned field is ``op.F = 1 /
    mu(V)``, so ``int M(F) dmu = 1``.  On a :class:`CellStack` the
    quotient, and its gate, are per block.

    Returns
    -------
    (lam, F) :
        The eigenvalue (one per block of a stack) and the flat equilibrium
        field ``op.F``.
    """
    h = op.M.one
    lam = op.pairings(h, op.apply_O(h)) / op.pairings(h, h)
    off = np.abs(lam - 1.0) > 1e-8
    if np.any(off):
        raise ConvergenceError(
            f"principal eigenvalue {_first_failing(lam, off)!r} deviates from 1 beyond 1.0e-08; "
            "kernel and quadrature are inconsistent"
        )
    return op.per_cell(lam), op.F


@dataclass(frozen=True)
class CorrectorSolution:
    """A flat corrector field with its solve diagnostics."""

    field: np.ndarray
    residual: float
    bound_constant: float
    iterations: int


@functools.cache
def _lartg(char: str):
    """LAPACK's Givens rotation ``lartg`` for dtype ``char``, looked up once."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs("lartg", dtype=np.dtype(char))


def _gmres(matvec, b: np.ndarray, rtol: float, restart: int,
           maxiter: int) -> tuple[np.ndarray, int]:
    """Restarted GMRES from ``x0 = 0``; returns ``(x, info)``.

    The arithmetic of scipy's ``sparse.linalg.gmres(A, b, rtol=rtol, atol=0,
    restart=restart, maxiter=maxiter)`` (scipy 1.17, no preconditioner),
    operation for operation, so ``x``, ``info`` and the ``matvec`` calls are
    the same: modified Gram-Schmidt, LAPACK ``lartg`` rotations, the
    gh-8400 restart control of the inner tolerance, and the true residual
    after each cycle, in scipy's ``(restart + 1, n)`` basis (uninitialized,
    so only written rows take memory).  It drops the operator wrapper, the
    per-call LAPACK lookup and the fancy-indexed Hessenberg updates.
    ``info`` is 0 on convergence and ``maxiter`` otherwise.
    """
    dtype = b.dtype.type
    dot = np.vdot if np.iscomplexobj(b) else np.dot
    lartg = _lartg(b.dtype.char)
    eps = np.finfo(b.dtype.char).eps
    n = b.size
    restart = min(restart, n)
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = max(0.0, float(rtol) * float(bnrm2))
    ptol_max_factor = 1.0
    ptol = bnrm2 * min(ptol_max_factor, atol / bnrm2)
    x = np.zeros(n, dtype=b.dtype)
    if bnrm2 < atol:
        return x, 0
    r = b
    basis = np.empty((restart + 1, n), dtype=b.dtype)
    for _ in range(maxiter):
        beta = np.linalg.norm(r)
        np.multiply(r, 1 / beta, out=basis[0])
        S = [dtype(beta)]     # right-hand side of the rotated least-squares problem
        rotations = []        # (c, s) of each column
        H = []                # rotated Hessenberg columns, entries 0..col
        breakdown = False
        for col in range(restart):
            w = matvec(basis[col])
            h0 = np.linalg.norm(w)
            hcol = []
            for v in basis[:col + 1]:
                t = dot(v, w)
                hcol.append(t)
                w -= t * v
            h1 = np.linalg.norm(w)
            if h1 <= eps * h0:  # exact solution in the current space
                sub = dtype(0)
                breakdown = True
            else:
                sub = dtype(h1)
                w *= 1 / h1
            basis[col + 1] = w
            for k in range(col):
                c, s = rotations[k]
                n0, n1 = hcol[k], hcol[k + 1]
                hcol[k] = c * n0 + s * n1
                hcol[k + 1] = -s.conj() * n0 + c * n1
            c, s, mag = lartg(hcol[col], sub)
            rotations.append((dtype(c), dtype(s)))
            hcol[col] = mag
            H.append(np.array(hcol, dtype=b.dtype))
            tmp = -np.conjugate(s) * S[col]
            S[col] = dtype(c * S[col])
            S.append(dtype(tmp))
            presid = np.abs(tmp)
            if presid <= ptol or breakdown:
                break
        # back substitution on the upper-triangular H, skipping zero pivots
        if H[col][col] == 0:
            S[col] = dtype(0)
        y = np.array(S[:col + 1], dtype=b.dtype)
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= H[k][k]
                yk = y[k]
                y[:k] -= yk * H[k][:k]
        if y[0] != 0:
            y[0] /= H[0][0]
        x += y @ basis[:col + 1]
        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # inner tolerance met, true residual not: tighten it
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, 0 if rnorm <= atol else maxiter


def _deflated_gmres(op: _CellOperatorBase, action, rhs: np.ndarray,
                    deflate: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """GMRES on the deflated fixed-point system.

    ``action`` is the map ``v -> (I - O) v`` (or its adjoint twin); the
    projector removes the ``deflate`` direction, which spans the cokernel,
    so the restricted operator is nonsingular and iterates stay in the
    solvable subspace; on a :class:`CellStack` it removes each block's.
    Returns the solution and the number of operator applications.
    """
    norm2 = op.inner(deflate, deflate)
    count = 0

    def project(f):
        return f - _scaled(op.inner(deflate, f) / norm2, deflate)

    def projected(v):
        nonlocal count
        count += 1
        return project(action(v))

    x, info = _gmres(projected, project(rhs), tol,
                     restart=min(rhs.size, 300), maxiter=50)
    if info != 0:
        raise ConvergenceError(f"deflated GMRES failed to converge (info={info})")
    return x, count


def _gauged_solve(op: _CellOperatorBase, rhs, tol: float | None, *,
                  adjoint: bool) -> CorrectorSolution:
    """Shared body of the forward and adjoint corrector solves.

    ``null`` spans the cokernel: ``const`` for ``P``, ``op.F`` for ``P*``.
    Checks ``<null, rhs> = 0`` against ``1e-10 * max(1, ||rhs||)`` (``||F||
    ||rhs||`` for ``P*``), solves ``(I - O) v = rhs`` (or its adjoint) by
    deflated GMRES, maps back through ``M^{-1}`` (or ``M*^{-1}``), gauges
    the result to zero mean, and gates on a relative residual of 1e-9.  On
    a :class:`CellStack` each gate and the gauge are per block, and the
    residual and bound constant come one per block.
    """
    null, null_scale = (op.F, op.norms(op.F)) if adjoint else (op.const, 1.0)
    rhs_flat = np.asarray(rhs, dtype=float)
    if rhs_flat.shape != (op.size,):
        raise ValueError(f"expected flat size {op.size}, got {rhs_flat.shape}")
    rhs_norm = op.norms(rhs_flat)
    compat = op.pairings(null, rhs_flat)
    kind = "adjoint " if adjoint else ""
    off = np.abs(compat) > 1e-10 * np.fmax(1.0, null_scale * rhs_norm)
    if np.any(off):
        pairing = "rhs F" if adjoint else "g"
        raise CompatibilityError(
            f"int M({pairing}) dmu = {_first_failing(compat, off):.3e} violates the "
            f"{kind}solvability condition"
        )
    apply_O = op.apply_O_adjoint if adjoint else op.apply_O
    tol = 1e-12 if tol is None else tol
    h, n_iter = _deflated_gmres(op, lambda v: v - apply_O(v), rhs_flat, null, tol)
    f = op.M.solve_adjoint(h) if adjoint else op.M.solve(h)
    f = f - _scaled(op.means(f) / op.means(op.const), op.const)
    residual = op.norms((op.apply_P_adjoint(f) if adjoint else op.apply_P(f)) - rhs_flat)
    failing = (rhs_norm > 0) & (residual > 1e-9 * rhs_norm)
    if np.any(failing):
        raise ConvergenceError(
            f"{kind}corrector residual {_first_failing(residual, failing):.3e} "
            "exceeds 1e-9 relative"
        )
    constant = _ratio(op.norms(f), rhs_norm, 0.0)
    return CorrectorSolution(field=f, residual=op.per_cell(residual),
                             bound_constant=op.per_cell(constant), iterations=n_iter)


def solve_corrector(op: _CellOperatorBase, g, tol: float | None = None) -> CorrectorSolution:
    """Solve ``P f = g`` for the unique zero-mean corrector.

    Requires the compatibility condition ``int M(g) dmu = 0``; solves ``(I
    - O) v = g`` by deflated GMRES, maps back through ``f = M^{-1} v``, and
    gauges the result to ``int M(f) dmu = 0``.
    """
    return _gauged_solve(op, g, tol, adjoint=False)


def solve_adjoint_corrector(op: _CellOperatorBase, rhs, tol: float | None = None) -> CorrectorSolution:
    """Solve ``P* phi = rhs`` (adjoint cell problem) with zero-mean gauge.

    The solvability condition is ``int M(rhs * F) dmu = 0`` with ``F =
    op.F`` the equilibrium spanning ``ker P``.
    """
    return _gauged_solve(op, rhs, tol, adjoint=True)


@dataclass(frozen=True)
class ChiStarSolution:
    """Adjoint correctors with the equilibrium flux and their worst diagnostics.

    ``residual`` is the largest ``||P* chi_j - rhs_j|| / ||rhs_j||`` and
    ``bound_constant`` the largest ``||chi_j|| / ||rhs_j||``; a vanishing
    right-hand side reports the absolute residual and a zero constant.  For
    a :class:`CellStack` both are per block and ``b`` is ``(m, d)``.
    """

    chi: list               # one flat field a transport direction
    b: np.ndarray
    residual: float
    bound_constant: float


def solve_chi_star(op: _CellOperatorBase, tol: float | None = None) -> ChiStarSolution:
    """Adjoint correctors driven by the transport directions.

    For each spatial component ``j`` this solves ``P* chi_j = -(a_j - b_j)``
    where ``b_j = int M(a_j F) dmu`` is the equilibrium flux.  The shift by
    ``b_j`` restores solvability whenever the flux does not vanish; ``b``
    is returned so downstream consumers know the co-moving frame.  The
    residual and bound diagnostics come from each corrector solve.  On a
    :class:`CellStack`, ``b`` is ``(m, d)`` and the diagnostics are per block.
    """
    d = op.vm.dim
    chi, b = [], []
    worst_res = worst_const = 0.0
    for j in range(d):
        a_j = op.velocity_profile(j)
        b_j = op.pairings(op.F, a_j)  # int M(a_j F) dmu
        b.append(b_j)
        rhs = -(a_j - _scaled(b_j, op.const))
        sol = solve_adjoint_corrector(op, rhs, tol=tol)
        chi.append(sol.field)
        residual, constant = np.atleast_1d(sol.residual), np.atleast_1d(sol.bound_constant)
        worst_res = np.maximum(worst_res, _ratio(residual, op.norms(rhs), residual))
        worst_const = np.maximum(worst_const, constant)
    return ChiStarSolution(chi=chi, b=op.per_cell(np.stack(b, axis=-1)),
                           residual=op.per_cell(worst_res), bound_constant=op.per_cell(worst_const))


def verify_variational(op: _CellOperatorBase) -> float:
    """Weak-form residual of the equilibrium ``op.F``: ``||P F|| / ||F||``.

    ``|<F, P* phi>| = |<P F, phi>| <= ||P F|| ||phi||``, so it bounds the
    weak form against every test field ``phi`` at once; a gain out of
    balance with the loss lifts it off roundoff.  A stack's worst block.
    """
    return float(np.max(op.norms(op.apply_P(op.F)) / op.norms(op.F)))
