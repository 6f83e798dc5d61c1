"""Microstructure cell problems: equilibrium, correctors, adjoints.

The discrete cell operator is

    P = a(v) . grad_y + Sigma - K      (transport + absorption - gain)

acting on phase-space fields over (cell grid) x (velocity set).  Its
adjoint in the natural weighted inner product  <f, g> = int M(f g) dmu  is
assembled as the weighted transpose, so duality, conservation, and the
Fredholm alternative hold *exactly* in floating point, not just in the
continuum limit.

Two backends share one protocol:

* a grid backend (`assemble`) sampling the kernel on a periodic grid, with
  first-order upwind (sparse, positivity-preserving) or Fourier collocation
  (dense, spectrally accurate) transport;
* a frequency-lattice backend (`assemble_spectral_ap`) for quasi-periodic
  profiles, a Galerkin compression onto integer combinations of the
  profile's generator frequencies.

Solves split ``P = M - N`` and invert only ``M``: ``A``, LU-factored, on
a dense operator, ``T + Sigma_bar`` (upwind transport plus each node's
mean loss) by FFT on upwind grid cells (:class:`_FourierSplit`).  The loss
is the gain's row sum, so the equilibrium is the constant: ``M 1`` is the
eigenvector of ``O = N M^{-1}`` with eigenvalue 1, which one application
checks.  Correctors are Krylov solves of ``(I - O) v = g``, ``f = M^{-1}
v``, with the one-dimensional kernel deflated out.

Cell problems are small and many (one per macro position when the rates
vary with x), so a solve does only its arithmetic: GMRES runs in this
module, operation for operation scipy's ``gmres`` without its per-call
set-up.  Assembly samples and gates the rates; the matrices and the
splitting follow when a solve asks for them.  :class:`CellStack` solves
the positions of one sampled family together, as one block-diagonal
system with every per-cell gate applied to each block; a single grid
operator is its one-block case.

scipy is imported inside the functions that build, factor or densify an
operator, so importing this module, and the gates the check stage runs
(:func:`dense_cell_gate`, :func:`lattice_cell_gate`), load numpy alone;
the first assembly of a process loads ``scipy.sparse``, the first solve
``scipy.linalg``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from kinhom.collision import PhaseField, ScatteringKernel, _sampled, gain_loss, sdb_gap
from kinhom.phase_space import CellGrid, VelocityMeasure

if TYPE_CHECKING:
    from scipy import sparse

    from kinhom.collision import SdbReport

__all__ = [
    "CompatibilityError",
    "ConvergenceError",
    "CellOperator",
    "CellRates",
    "CellStack",
    "DENSE_CELL_BYTES",
    "SpectralCellOperator",
    "SpectralField",
    "CorrectorSolution",
    "ChiStarSolution",
    "assemble",
    "assemble_spectral_ap",
    "dense_cell_gate",
    "equilibrium_F",
    "gate_rates",
    "lattice_cell_gate",
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
# differentiation matrices
# ---------------------------------------------------------------------------


def _spectral_matrix(n: int, period: float) -> np.ndarray:
    """Dense Fourier-collocation differentiation matrix (periodic)."""
    import scipy.linalg

    k = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    col = np.fft.ifft(1j * k).real  # derivative of the discrete delta
    return scipy.linalg.circulant(col)


# ---------------------------------------------------------------------------
# splittings P = M - N
# ---------------------------------------------------------------------------


class _Factorized:
    """``M = A`` (LU-factored; ``M*`` in the ``weights`` product) and ``N = K``: dense cells."""

    excess = None  # N = K

    def __init__(self, A: np.ndarray, weights: np.ndarray, const: np.ndarray):
        import scipy.linalg

        self.solve = functools.partial(scipy.linalg.lu_solve, scipy.linalg.lu_factor(A))
        self._trans = 2 if np.iscomplexobj(A) else 1
        self._weights = weights
        self.one = A @ const  # M 1

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        return self.solve(self._weights * b, trans=self._trans) / self._weights


class _FourierSplit:
    """``M = T + Sigma_bar`` of upwind grid cells, inverted by FFT.

    ``Sigma_bar`` is the loss ``(m, size)`` averaged over the grid points,
    per block and node.  ``M`` couples no blocks or nodes and is circulant
    on the periodic grid, with symbol ``Sigma_bar_k + sum_ax |a_k,ax| /
    h_ax (1 - exp(-+ i xi_ax h_ax))`` (``-`` upwind from ``f_{j-1}``), so
    ``M^{-1}`` is an ``rfftn``, a multiply and an ``irfftn`` over node-major
    fields, contiguous along the transforms; ``M* = M^T`` (the weights are
    constant on a node) takes the conjugate symbol.  The reference-medium
    splitting of FFT-based homogenization (Moulinec and Suquet, *Comput.
    Methods Appl. Mech. Engrg.* 157 (1998) 69-94).  ``N = M - P = K - diag(excess)``.
    """

    def __init__(self, grid: CellGrid, vm: VelocityMeasure, loss: np.ndarray):
        m, K, dim = len(loss), vm.n_nodes, grid.dim
        by_point = loss.reshape(m, grid.n_points, K)
        mean = by_point.mean(axis=1)  # (m, K)
        self.excess = (by_point - mean[:, None]).ravel()
        self.one = np.repeat(mean[:, None], grid.n_points, axis=1).ravel()  # M 1, as T 1 = 0
        steps = np.abs(vm.field) / np.array(grid.spacing)  # (K, dim)
        symbol = mean.reshape(m, K, *(1,) * dim).astype(complex)
        for ax, n_ax in enumerate(grid.shape):
            # rfftn keeps the non-negative frequencies of the last axis only
            freqs = np.arange(n_ax // 2 + 1 if ax == dim - 1 else n_ax)
            shift = np.exp(-2j * np.pi * freqs / n_ax)  # f_{j-1}
            shifts = np.where(vm.field[:, ax, None] > 0, shift, shift.conj())
            term = steps[:, ax, None] * (1.0 - shifts)  # (K, n_freq)
            symbol = symbol + term.reshape(K, *(-1 if a == ax else 1 for a in range(dim)))
        self._inverse = 1.0 / symbol
        self._shape = (m, *grid.shape, K)
        self._axes = tuple(range(2, 2 + dim))

    def _transform(self, b: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        f = np.ascontiguousarray(np.moveaxis(b.reshape(self._shape), -1, 1))
        out = np.fft.irfftn(np.fft.rfftn(f, axes=self._axes) * multiplier,
                            s=self._shape[1:-1], axes=self._axes)
        return np.moveaxis(out, 1, -1).reshape(-1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._transform(b, self._inverse)

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        return self._transform(b, self._inverse.conj())


# ---------------------------------------------------------------------------
# shared solver protocol
# ---------------------------------------------------------------------------


def _adjoint(mat):
    """Conjugate transpose; for a real matrix the transpose, sharing storage."""
    return mat.conj().T if np.iscomplexobj(mat) else mat.T


class _CellOperatorBase:
    """State shared by both backends.

    The matrices are built at first use: :meth:`_build` returns ``A_mat``
    (``A = transport + Sigma``) and ``K_mat`` (the gain), and ``P = A -
    K`` and the splitting ``P = M - N`` (``M``) follow from them; the
    conjugate transposes ``P_H`` and ``K_H`` are built once each.
    Subclasses also populate ``weights`` (flat inner-product weights),
    ``const`` (the constant function, from which ``F`` follows),
    ``sigma_min``, ``vm``, and conversion helpers.

    An operator holds ``n_blocks`` cells on the diagonal of its matrices,
    one but for a :class:`CellStack`, with fields flat, block after block.
    The solves work per block: :meth:`pairings`, :meth:`norms` and
    :meth:`means` give one value a block, and :meth:`per_cell` turns such
    values into the operator's result, the one cell's for one cell.
    """

    weights: np.ndarray
    const: np.ndarray
    sigma_min: float
    vm: VelocityMeasure
    dtype: type
    n_blocks = 1

    # -- inner-product geometry --------------------------------------------

    def _blocks(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.n_blocks, -1)

    def pairings(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Per block, the weighted pairing ``int M(conj(f) g) dmu`` of flat vectors."""
        return np.add.reduce(self._blocks(self.weights * np.conj(f) * g), axis=1)

    def norms(self, f: np.ndarray) -> np.ndarray:
        return np.sqrt(np.real(np.add.reduce(self._blocks(self.weights * np.abs(f) ** 2),
                                             axis=1)))

    def means(self, f: np.ndarray) -> np.ndarray:
        """Per block, ``int M(f) dmu`` of a flat field.

        Pairing against the constant field keeps this correct for both
        backends: on the grid it is the plain weighted sum, on the frequency
        lattice only the zero mode carries a nonzero cell mean.
        """
        return np.real(self.pairings(self.const, f))

    def per_cell(self, values: np.ndarray):
        """The operator's result from per-block ``values``, ``(n_blocks, ...)``.

        One cell's is its block's value (a scalar for a scalar); a
        :class:`CellStack` returns the values of all its blocks.
        """
        return values[0]

    def inner(self, f: np.ndarray, g: np.ndarray):
        """Weighted pairing ``int M(conj(f) g) dmu`` on flat vectors."""
        return self.per_cell(self.pairings(f, g))

    def norm(self, f: np.ndarray):
        return self.per_cell(self.norms(f))

    def mean_v(self, f: np.ndarray):
        """``int M(f) dmu`` of a flat field (see :meth:`means`)."""
        return self.per_cell(self.means(f))

    @functools.cached_property
    def F(self) -> np.ndarray:
        """Flat equilibrium ``1 / mu(V)`` spanning ``ker P``; read-only, as the solves share it."""
        F = (self._blocks(self.const) / self.means(self.const)[:, None]).reshape(-1)
        F.flags.writeable = False
        return F

    def _build(self) -> tuple:
        """``(A, K)`` of the operator."""
        raise NotImplementedError

    def _split(self, A):  # a dense operator: M = A, N = K
        return _Factorized(A, self.weights, self.const)

    @functools.cached_property
    def _matrices(self) -> tuple:
        """``(A, K, P, M)``, built at first use."""
        A, K_mat = self._build()
        return A, K_mat, A - K_mat, self._split(A)

    @property
    def A_mat(self):
        return self._matrices[0]

    @property
    def K_mat(self):
        return self._matrices[1]

    @property
    def P(self):
        return self._matrices[2]

    @property
    def M(self):
        return self._matrices[3]

    @functools.cached_property
    def P_H(self):
        return _adjoint(self.P)

    @functools.cached_property
    def K_H(self):
        return _adjoint(self.K_mat)

    # -- operator actions ----------------------------------------------------

    def apply_P(self, f: np.ndarray) -> np.ndarray:
        return self.P @ f

    def apply_P_adjoint(self, f: np.ndarray) -> np.ndarray:
        return (self.P_H @ (self.weights * f)) / self.weights

    def apply_K(self, f: np.ndarray) -> np.ndarray:
        return self.K_mat @ f

    def apply_K_adjoint(self, f: np.ndarray) -> np.ndarray:
        return (self.K_H @ (self.weights * f)) / self.weights

    def apply_O(self, f: np.ndarray) -> np.ndarray:
        """``N M^{-1}``, ``N = M - P = K - diag(M.excess)``; ``K A^{-1}`` where ``M = A``."""
        u, excess = self.M.solve(f), self.M.excess
        return self.apply_K(u) if excess is None else self.apply_K(u) - excess * u

    def apply_O_adjoint(self, f: np.ndarray) -> np.ndarray:
        u, excess = self.M.solve_adjoint(f), self.M.excess
        return self.apply_K_adjoint(u) if excess is None else self.apply_K_adjoint(u) - excess * u

    def hermitize(self, flat: np.ndarray) -> np.ndarray:
        """Project onto fields with real samples (identity on a real grid)."""
        return flat

    # -- diagnostics -----------------------------------------------------------

    def dense_P(self) -> np.ndarray:
        n = self.P.shape[0]
        if n > 6000:
            raise ValueError(f"dense dump limited to 6000 rows, operator has {n}")
        import scipy.sparse

        return self.P.toarray() if scipy.sparse.issparse(self.P) else np.array(self.P)


# ---------------------------------------------------------------------------
# grid backend
# ---------------------------------------------------------------------------


# Largest memory a dense cell operator may take, the grid's ``scheme =
# "spectral"`` and the frequency lattice alike: half of an 8 GiB machine,
# the smallest the tests and the benchmark run on, so the rest of the
# process and the machine's other work keep the other half.  That is about
# 9460 grid unknowns (6 * 8 * 9460**2 bytes), or 5792 lattice unknowns
# (8 * 16 * 5792**2); larger grid cells take ``scheme = "upwind"`` (sparse)
# or the spectral_ap backend, larger lattices fewer modes.
DENSE_CELL_BYTES = 4 * 2**30


def _dense_cell_bytes(size: int) -> int:
    """Bytes of the dense grid operator on ``size`` unknowns.

    Counts six float64 ``size x size`` arrays: transport, gain, ``A``,
    ``P`` and the LU factor of ``A`` are alive together, and forming ``A``
    takes one more temporarily.
    """
    return 6 * 8 * size * size


def dense_cell_gate(scheme: str, size: int) -> None:
    """Refuse a dense ``spectral`` grid cell on ``size`` unknowns over budget.

    Raises ``ValueError`` with the byte count when the dense operator would
    exceed ``DENSE_CELL_BYTES``; ``upwind`` is sparse and always passes.
    Allocates nothing, so the check stage can run it before any solve.
    """
    if scheme != "spectral":
        return
    need = _dense_cell_bytes(size)
    if need > DENSE_CELL_BYTES:
        raise ValueError(
            f"dense spectral cell operator on {size} unknowns needs {need} "
            f"bytes ({need / 2**30:.1f} GiB), over DENSE_CELL_BYTES = "
            f"{DENSE_CELL_BYTES}; use scheme = upwind or a coarser cell grid"
        )


def _gain_matrix(gain: np.ndarray) -> sparse.csr_matrix:
    """The block-diagonal gain of the cells of ``gain`` ``(m, n, K, K)``.

    A dense ``K x K`` block on each grid point of each cell, rows in (cell,
    point, node) order.
    """
    import scipy.sparse as sparse

    K = gain.shape[-1]
    size = gain.size // K
    block_cols = np.arange(0, size, K, dtype=np.int32)[:, None, None] + np.arange(K, dtype=np.int32)
    cols = np.broadcast_to(block_cols, (size // K, K, K)).ravel()
    return sparse.csr_matrix((gain.ravel(), cols, np.arange(0, size * K + 1, K, dtype=np.int32)),
                             shape=(size, size))


def _upwind_matrices(grid: CellGrid, vm: VelocityMeasure, loss: np.ndarray,
                     gain: np.ndarray) -> tuple:
    """``(A, K)`` of the upwind cells of ``loss`` ``(m, size)`` and ``gain`` ``(m, n, K, K)``.

    Block ``i`` of the block-diagonal matrices is the cell of row ``i``,
    rows in (point, node) order.  ``A = T + Sigma``, with ``T`` the
    first-order upwind ``a . grad_y`` on the periodic grid: at each point
    and node ``k``, the loss plus ``|a_k,ax| / h_ax`` summed over the axes
    on the diagonal, and ``-|a_k,ax| / h_ax`` at the upwind neighbour along
    each axis whose term is not zero, ``f_{j-1}`` for a positive component
    and ``f_{j+1}`` otherwise.  ``K`` is :func:`_gain_matrix` of ``gain``.
    """
    import scipy.sparse as sparse

    m, size = loss.shape
    K, n = vm.n_nodes, grid.n_points
    steps = np.abs(vm.field) / np.array(grid.spacing)  # (K, dim)
    # one diagonal value per entry, so a diagonal sums its terms in one order
    diag_vals = (loss.reshape(m, n, K) + steps.sum(axis=1)).ravel()
    # the neighbours f_{j-1} and f_{j+1} of every point along every axis,
    # (dim, 2, n), and one line of entries per non-zero (node, axis) term;
    # indices are int32, the type scipy picks, so the constructor converts
    # no array
    points = np.arange(n, dtype=np.int32).reshape(grid.shape)
    neighbours = np.stack([[np.roll(points, s, axis=ax).ravel() for s in (1, -1)]
                           for ax in range(grid.dim)])
    node, ax = np.nonzero(steps)
    k = node.astype(np.int32)[:, None]
    rows = (points.reshape(1, n) * np.int32(K) + k).reshape(1, -1)
    cols = (neighbours[ax, (vm.field[node, ax] <= 0).astype(np.intp)] * np.int32(K)
            + k).reshape(1, -1)
    off_vals = np.repeat(-steps[node, ax], n)
    offsets = np.int32(size) * np.arange(m, dtype=np.int32)[:, None]
    diag = np.arange(m * size, dtype=np.int32)
    A = sparse.csr_matrix((np.concatenate([diag_vals, np.tile(off_vals, m)]),
                           (np.concatenate([diag, (rows + offsets).ravel()]),
                            np.concatenate([diag, (cols + offsets).ravel()]))),
                          shape=(m * size, m * size))
    return A, _gain_matrix(gain)


@dataclass(frozen=True)
class CellRates:
    """Gated rates at position ``x`` on ``grid`` with the velocity set ``vm``.

    The gain blocks ``gain`` are ``(n, K, K)`` and the loss ``loss``
    ``(n, K)``.  Made by :func:`gate_rates`; :func:`assemble` takes them in
    place of sampling and gating the kernel again, at the position, grid
    and velocity set they were gated at only.
    """

    x: object
    grid: CellGrid
    vm: VelocityMeasure
    gain: np.ndarray
    loss: np.ndarray

    def gated_at(self, x, grid: CellGrid, vm: VelocityMeasure) -> bool:
        """Whether these are the rates at ``x`` on ``grid`` with ``vm``."""
        return (np.array_equal(self.x, x) and self.grid == grid
                and np.array_equal(self.vm.nodes, vm.nodes)
                and np.array_equal(self.vm.weights, vm.weights))


def gate_rates(kernel, x, grid: CellGrid, vm: VelocityMeasure,
               sdb: SdbReport | None = None) -> CellRates:
    """The rates of ``kernel`` at ``x`` sampled on ``grid``, gated.

    ``kernel`` is a kernel or its samples there, ``(*grid.shape, K, K)``
    (as for :func:`kinhom.collision.check_sdb`).  Refuses rates that are
    not positive and finite (before the balance gate, which would read
    their gap as NaN), then rates that fail semi-detailed balance.  The
    first gate is ``min > 0`` and ``max < inf``: a NaN fails both
    comparisons (``min`` and ``max`` propagate it), and 0, negative values
    and ±inf fail one, with no boolean temporaries.  ``sdb``
    is :func:`kinhom.collision.check_sdb` of these very samples when the
    caller has measured it; it is taken as given, not measured again.  The
    samples are not kept: the gain is a new array, so they can be freed
    before the matrices are built.
    """
    K = vm.n_nodes
    samp = _sampled(kernel, x, grid, vm).reshape(-1, K, K)
    if not (samp.min() > 0 and samp.max() < np.inf):
        raise ValueError("scattering rates must be positive and finite on the grid")
    (sdb_gap(samp, vm.weights) if sdb is None else sdb).require()
    return CellRates(x, grid, vm, *gain_loss(samp, vm.weights))


class _GridCells(_CellOperatorBase):
    """Grid cells of one grid and velocity set: one operator, or a stack of them.

    Block ``i`` is the cell of the flat loss ``loss[i]`` and the gain blocks
    ``gain[i]`` (``(m, size)`` and ``(m, n, K, K)``, kept as ``losses`` and
    ``gains``; other shapes are refused), from which an upwind operator's
    matrices and splitting are built at first use.  Fields are flat.
    """

    scheme = "upwind"

    def __init__(self, grid: CellGrid, vm: VelocityMeasure, loss: np.ndarray,
                 gain: np.ndarray):
        n, K, m = grid.n_points, vm.n_nodes, len(loss)
        for name, part, shape in (("loss", loss, (m, n * K)), ("gain", gain, (m, n, K, K))):
            if part.shape != shape:
                raise ValueError(f"{name} of shape {part.shape} does not fit {m} cells of "
                                 f"{n} points and {K} velocities: expected {shape}")
        self.grid = grid
        self.vm = vm
        self.dtype = float
        self.n_points = grid.n_points
        self.n_blocks, self.block_size = loss.shape
        self.size = loss.size
        self.losses = loss
        self.gains = gain
        self.sigma_min = float(loss.min())

    @functools.cached_property
    def const(self) -> np.ndarray:
        # at first use, so an operator that is only gated never allocates it
        return np.ones(self.size)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return np.tile(np.tile(self.vm.weights, self.n_points) / self.n_points, self.n_blocks)

    def _build(self) -> tuple:
        return _upwind_matrices(self.grid, self.vm, self.losses, self.gains)

    def _split(self, A):
        if self.scheme != "upwind":
            return super()._split(A)
        return _FourierSplit(self.grid, self.vm, self.losses)

    def pairings(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Per block ``int M(f g) dmu``: grid fields are real, so no ``conj``."""
        return np.add.reduce(self._blocks(self.weights * f * g), axis=1)

    def norms(self, f: np.ndarray) -> np.ndarray:
        return np.sqrt(np.add.reduce(self._blocks(self.weights * (f * f)), axis=1))

    def velocity_profile(self, component: int) -> np.ndarray:
        """Flat field of ``a_component(v)`` (y-independent)."""
        return np.tile(self.vm.field[:, component], self.n_blocks * self.n_points)

    def wrap(self, flat: np.ndarray) -> np.ndarray:
        return flat

    def unwrap(self, field) -> np.ndarray:
        flat = np.asarray(field)
        if flat.shape != (self.size,):
            raise ValueError(f"expected flat size {self.size}, got {flat.shape}")
        return flat


class CellOperator(_GridCells):
    """Cell operator sampled on a periodic grid (see :func:`assemble`).

    Construction samples and gates the rates and keeps the gain ``gain``
    ``(n, K, K)`` and the flat loss ``sigma_flat``; the matrices follow at
    first use.
    """

    def __init__(self, kernel, x, vm: VelocityMeasure, grid: CellGrid, scheme: str,
                 rates: CellRates | None = None):
        # the matrices wait for the first solve, but scipy still loads at
        # the first assembly of a process, which the check stage never makes
        import scipy.sparse  # noqa: F401

        if grid.dim != vm.dim:
            raise ValueError(f"cell grid dim {grid.dim} != velocity dim {vm.dim}")
        if scheme not in ("upwind", "spectral"):
            raise ValueError(f"unknown transport scheme {scheme!r}")
        self.kernel = kernel
        self.x = x
        self.scheme = scheme
        self.field_shape = (*grid.shape, vm.n_nodes)
        dense_cell_gate(scheme, grid.n_points * vm.n_nodes)

        if rates is None:
            rates = gate_rates(kernel, x, grid, vm)
        elif not rates.gated_at(x, grid, vm):
            raise ValueError(f"rates gated at x = {rates.x!r} on {rates.grid} do not serve "
                             f"x = {x!r} on {grid} with this velocity set")
        super().__init__(grid, vm, rates.loss.reshape(1, -1), rates.gain[None])
        if self.sigma_min <= 0:
            raise ValueError("absorption rate must be strictly positive")

    @property
    def gain(self) -> np.ndarray:
        return self.gains[0]

    @property
    def sigma_flat(self) -> np.ndarray:
        return self.losses[0]

    def _build(self) -> tuple:
        if self.scheme == "upwind":
            return super()._build()
        grid, K = self.grid, self.vm.n_nodes
        diffs = [_spectral_matrix(grid.shape[ax], grid.period[ax]) for ax in range(grid.dim)]
        T = np.zeros((self.size, self.size))
        for k in range(K):
            mats = [a * d for a, d in zip(self.vm.field[k].tolist(), diffs)]
            T[k::K, k::K] = mats[0] if grid.dim == 1 else (
                np.kron(mats[0], np.eye(grid.shape[1])) + np.kron(np.eye(grid.shape[0]), mats[1]))
        return T + np.diag(self.sigma_flat), _gain_matrix(self.gains).toarray()

    # -- field conversion ----------------------------------------------------

    def wrap(self, flat: np.ndarray) -> PhaseField:
        return PhaseField(values=np.real(flat).reshape(self.field_shape),
                          grid=self.grid, vm=self.vm)

    def unwrap(self, field) -> np.ndarray:
        if isinstance(field, PhaseField):
            return field.values.reshape(-1)
        return super().unwrap(field)


def assemble(kernel, x, vm: VelocityMeasure, grid: CellGrid,
             scheme: str = "upwind", *, rates: CellRates | None = None) -> CellOperator:
    """Build the grid-backend cell operator at macro position ``x``.

    Refuses rates that are not positive or fail semi-detailed balance;
    ``rates`` are the kernel's rates at ``x`` on ``grid`` already through
    :func:`gate_rates`, when the caller has them, so they are neither
    sampled nor gated again (rates gated elsewhere are refused).  The
    matrices and the splitting are built at first use.
    """
    return CellOperator(kernel, x, vm, grid, scheme, rates)


class CellStack(_GridCells):
    """Upwind cell operators of one grid and velocity set, stacked block-diagonally.

    Block ``i`` is the operator of the flat loss ``loss[i]`` and the gain
    ``gain[i]`` (``(m, size)`` and ``(m, n, K, K)``, what
    :class:`CellOperator` keeps as ``sigma_flat`` and ``gain``), built as
    a :class:`CellOperator` is, with block offsets, and with one Fourier
    symbol a block.  Fields are flat, block after block.  Results are per
    block, so :func:`equilibrium_F`, :func:`solve_chi_star` and
    :func:`kinhom.effective.diffusion_matrix` gate every block as the cell
    it is and return one value a block; the corrector solves run one
    Krylov loop on the whole stack.
    """

    def per_cell(self, values: np.ndarray) -> np.ndarray:
        return values


# ---------------------------------------------------------------------------
# frequency-lattice backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralField:
    """Phase-space field in frequency coordinates: ``coeffs[m, k]``."""

    coeffs: np.ndarray       # (n_lattice, K) complex
    freqs: np.ndarray        # (n_lattice,) float
    vm: VelocityMeasure

    def sample(self, y: np.ndarray) -> np.ndarray:
        """Real samples at fast coordinates ``y``, shape ``(len(y), K)``."""
        phases = np.exp(1j * np.asarray(y, dtype=float)[:, None] * self.freqs[None, :])
        return (phases @ self.coeffs).real

    def mean_y(self) -> np.ndarray:
        zero = np.flatnonzero(np.abs(self.freqs) < 1e-12)
        if zero.size == 0:
            return np.zeros(self.vm.n_nodes)
        return self.coeffs[zero[0]].real


def _lattice_generators(kernel: ScatteringKernel) -> list[float]:
    """The distinct positive frequencies of the kernel's profile, sorted.

    They generate the frequency lattice; at most two are supported.
    """
    freqs, _ = kernel.profile_frequencies()
    gens = sorted({round(float(abs(f)), 9) for f in freqs if abs(f) > 1e-12})
    if len(gens) > 2:
        raise ValueError("at most two generator frequencies are supported")
    return gens


def _lattice_cell_bytes(size: int) -> int:
    """Bytes of the frequency-lattice operator on ``size`` unknowns.

    Counts eight complex128 ``size x size`` arrays: ``A``, the gain, ``P``,
    the LU factor of ``A`` and the conjugate transposes of ``P`` and the
    gain are alive together, and forming ``A`` takes two more temporarily
    (measured peak: about 7.3 such arrays).
    """
    return 8 * 16 * size * size


def lattice_cell_gate(kernel: ScatteringKernel, vm: VelocityMeasure, n_modes: int) -> None:
    """Refuse a frequency-lattice cell over ``DENSE_CELL_BYTES``.

    The lattice keeps ``2 n_modes + 1`` modes per generator, times the
    velocity nodes.  Raises ``ValueError`` with the byte count; allocates
    nothing, so the check stage can run it before any solve.
    """
    size = (2 * int(n_modes) + 1) ** len(_lattice_generators(kernel)) * vm.n_nodes
    need = _lattice_cell_bytes(size)
    if need > DENSE_CELL_BYTES:
        raise ValueError(
            f"frequency-lattice cell operator on {size} unknowns needs {need} "
            f"bytes ({need / 2**30:.1f} GiB), over DENSE_CELL_BYTES = "
            f"{DENSE_CELL_BYTES}; lower cell.n_modes"
        )


class SpectralCellOperator(_CellOperatorBase):
    """Galerkin compression of the cell operator onto a frequency lattice.

    Unknowns are complex coefficients on integer combinations of the
    profile's generator frequencies (one or two generators in 1-D).  The
    inner product is the Parseval pairing weighted by the velocity measure,
    under which the adjoint is the conjugate transpose, so the Fredholm
    bookkeeping is as exact as in the grid backend.
    """

    def __init__(self, kernel: ScatteringKernel, x, vm: VelocityMeasure, n_modes: int = 8):
        if vm.dim != 1:
            raise ValueError("the frequency-lattice backend is one-dimensional")
        lattice_cell_gate(kernel, vm, n_modes)
        freqs, coeffs = kernel.profile_frequencies()
        c = float(np.asarray(kernel.x_factor(x)))
        gens = _lattice_generators(kernel)
        self.kernel = kernel
        self.x = x
        self.vm = vm
        self.dtype = complex

        # integer-coordinate lattice: the box -m..m per generator, row-major,
        # so -t is the reversed index and t = 0 the middle one
        m = int(n_modes)
        box = (2 * m + 1,) * len(gens)
        n_lat = int(np.prod(box))
        coords = np.indices(box).reshape(len(gens), n_lat).T - m
        self.lattice = (coords * np.array(gens)).sum(axis=1)
        self.n_lattice = n_lat
        self.mirror = np.arange(n_lat - 1, -1, -1)

        # profile multiplication operator on the lattice
        mult = np.zeros((n_lat, n_lat), dtype=complex)
        for f, cf in zip(freqs, coeffs):
            shift = np.zeros(len(gens), dtype=int)
            if abs(f) >= 1e-12:
                shift[gens.index(round(float(abs(f)), 9))] = int(np.sign(f))
            target = coords + shift
            inside = np.all(np.abs(target) <= m, axis=1)
            rows = np.ravel_multi_index(tuple((target[inside] + m).T), box)
            mult[rows, np.flatnonzero(inside)] += cf
        K = vm.n_nodes
        g = kernel.node_matrix(vm)
        sdb_gap(g, vm.weights).require()  # the profile factor cancels from the gap
        gain_v, sig_v = gain_loss(c * g, vm.weights)  # per node pair, per node
        self._mult, self._gain_v, self._sig_v = mult, gain_v, sig_v
        self.size = n_lat * K
        self.weights = np.tile(vm.weights, n_lat)
        const = np.zeros(self.size, dtype=complex)
        zero_row = n_lat // 2
        const[zero_row * K: zero_row * K + K] = 1.0
        self.const = const
        self.zero_row = zero_row
        # Sigma(y, v) = s(y) * sig_v[v] with s bounded below by its closed-form minimum
        self.sigma_min = float(kernel._profile_min() * sig_v.min())

    def _build(self) -> tuple:
        K = self.vm.n_nodes
        a = self.vm.field[:, 0]
        transport = np.diag(np.kron(1j * self.lattice, np.ones(K)) * np.tile(a, self.n_lattice))
        return (transport + np.kron(self._mult, np.diag(self._sig_v)),
                np.kron(self._mult, self._gain_v))

    # -- field conversion ------------------------------------------------------

    def wrap(self, flat: np.ndarray) -> SpectralField:
        coeffs = np.asarray(flat, dtype=complex).reshape(self.n_lattice, self.vm.n_nodes)
        return SpectralField(coeffs=coeffs, freqs=self.lattice, vm=self.vm)

    def unwrap(self, field) -> np.ndarray:
        if isinstance(field, SpectralField):
            return field.coeffs.reshape(-1)
        flat = np.asarray(field, dtype=complex)
        if flat.shape != (self.size,):
            raise ValueError(f"expected flat size {self.size}, got {flat.shape}")
        return flat

    def hermitize(self, flat: np.ndarray) -> np.ndarray:
        """Project onto conjugate-symmetric (real-valued) coefficient vectors."""
        co = np.asarray(flat, dtype=complex).reshape(self.n_lattice, self.vm.n_nodes)
        sym = 0.5 * (co + np.conj(co[self.mirror]))
        return sym.reshape(-1)

    def velocity_profile(self, component: int) -> np.ndarray:
        out = np.zeros(self.size, dtype=complex)
        K = self.vm.n_nodes
        out[self.zero_row * K: self.zero_row * K + K] = self.vm.field[:, component]
        return out


def assemble_spectral_ap(kernel: ScatteringKernel, x, vm: VelocityMeasure,
                         n_modes: int = 8) -> SpectralCellOperator:
    """Build the frequency-lattice cell operator for a quasi-periodic kernel.

    Refuses kernels that fail semi-detailed balance.
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

    The loss is the gain's row sum (see :func:`kinhom.collision.gain_loss`),
    so ``P 1 = 0`` and ``h = M 1`` satisfies ``O h = N 1 = M 1 - P 1 = h``.
    ``lam``, the Rayleigh quotient ``1 - <h, P 1> / <h, h>`` of ``O`` at
    ``h`` (one application, no solve), must be 1 within 1e-8 (else kernel
    and quadrature are inconsistent).  The returned field is ``op.F = 1 /
    mu(V)``, so ``int M(F) dmu = 1``.  On a :class:`CellStack` the
    quotient, and its gate, are per block.

    Returns
    -------
    (lam, F) :
        The eigenvalue (one per block of a stack) and the wrapped
        equilibrium field.
    """
    h = op.M.one
    lam = np.real(op.pairings(h, op.apply_O(h))) / np.real(op.pairings(h, h))
    off = np.abs(lam - 1.0) > 1e-8
    if np.any(off):
        raise ConvergenceError(
            f"principal eigenvalue {_first_failing(lam, off)!r} deviates from 1 beyond 1.0e-08; "
            "kernel and quadrature are inconsistent"
        )
    return op.per_cell(lam), op.wrap(op.F)


@dataclass(frozen=True)
class CorrectorSolution:
    """A corrector field with its solve diagnostics."""

    field: object
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

    The arithmetic of ``scipy.sparse.linalg.gmres(A, b, rtol=rtol, atol=0,
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

    x, info = _gmres(projected, project(rhs.astype(op.dtype)), tol,
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
    rhs_flat = op.unwrap(rhs).astype(op.dtype)
    rhs_norm = op.norms(rhs_flat)
    compat = np.real(op.pairings(null, rhs_flat))
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
    f = op.hermitize(op.M.solve_adjoint(h) if adjoint else op.M.solve(h))
    f = f - _scaled(op.means(f) / op.means(op.const), op.const)
    residual = op.norms((op.apply_P_adjoint(f) if adjoint else op.apply_P(f)) - rhs_flat)
    failing = (rhs_norm > 0) & (residual > 1e-9 * rhs_norm)
    if np.any(failing):
        raise ConvergenceError(
            f"{kind}corrector residual {_first_failing(residual, failing):.3e} "
            "exceeds 1e-9 relative"
        )
    constant = _ratio(op.norms(f), rhs_norm, 0.0)
    return CorrectorSolution(field=op.wrap(f), residual=op.per_cell(residual),
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

    chi: list
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
        b_j = np.real(op.pairings(op.F, a_j))  # int M(a_j F) dmu
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
