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

Solves handle the singular structure explicitly.  The loss is the gain's
row sum, so the equilibrium is the constant: ``A 1`` is the eigenvector of
the gain-relaxation map  O = K A^{-1}  with eigenvalue 1, which one
application checks.  Corrector equations are Krylov solves of the
rewritten fixed-point system with the one-dimensional kernel deflated out.

Cell problems are small and solved many times (one per macro position when
the rates vary with x), so a solve does only its arithmetic: GMRES runs in
this module, operation for operation scipy's ``gmres`` (same iterates,
same iteration counts) without its per-call set-up.  The upwind operator
is assembled from an index plan, built once per (cell grid, velocity set):
the sparse structure of ``A``, ``K`` and ``P``, where each part's entries
sit in ``P``, the CSC order of ``A`` and the transport values.  An operator
at one position then fills only data; the operators of one sampled family
share a plan through the ``plans`` dict of :func:`assemble`.

scipy is imported inside the functions that build, factor or densify an
operator, so importing this module, and the gates the check stage runs
(:func:`dense_cell_gate`, :func:`lattice_cell_gate`), load numpy alone;
the first assembly of a process loads ``scipy.sparse`` and
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

__all__ = [
    "CompatibilityError",
    "ConvergenceError",
    "CellOperator",
    "DENSE_CELL_BYTES",
    "SpectralCellOperator",
    "SpectralField",
    "CorrectorSolution",
    "ChiStarSolution",
    "assemble",
    "assemble_spectral_ap",
    "dense_cell_gate",
    "equilibrium_F",
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


@functools.lru_cache(maxsize=32)
def _upwind_matrix(n: int, h: float, speed: float) -> sparse.csr_matrix:
    """First-order upwind discretization of ``speed * d/dy`` (periodic).

    Built once per ``(n, h, speed)`` and shared by every cell operator, so
    its arrays are read-only.
    """
    import scipy.sparse as sparse

    if speed == 0.0:
        return _read_only(sparse.csr_matrix((n, n)))
    # backward difference (f_j - f_{j-1}) / h for speed > 0, forward
    # difference (f_{j+1} - f_j) / h otherwise: |speed|/h on the diagonal,
    # its negative at the upwind neighbour; two entries a row, columns sorted
    diag = abs(speed / h)
    j = np.arange(n)
    nb = (j - 1) % n if speed > 0 else (j + 1) % n
    low = np.where(nb < j, -diag, diag)  # value at the lower column
    data = np.stack([low, -low], axis=1).ravel()
    indices = np.stack([np.minimum(j, nb), np.maximum(j, nb)], axis=1).ravel()
    return _read_only(sparse.csr_matrix((data, indices, np.arange(0, 2 * n + 1, 2)),
                                        shape=(n, n)))


def _read_only(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    for part in (mat.data, mat.indices, mat.indptr):
        part.flags.writeable = False
    return mat


def _spectral_matrix(n: int, period: float) -> np.ndarray:
    """Dense Fourier-collocation differentiation matrix (periodic)."""
    import scipy.linalg

    k = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    col = np.fft.ifft(1j * k).real  # derivative of the discrete delta
    return scipy.linalg.circulant(col)


def _transport_matrix(grid: CellGrid, velocity: np.ndarray, scheme: str):
    """Discrete ``a . grad_y`` on the flattened grid for one velocity node."""
    mats = []
    for axis in range(grid.dim):
        n = grid.shape[axis]
        h = grid.spacing[axis]
        a = float(velocity[axis])
        if scheme == "upwind":
            mats.append(_upwind_matrix(n, h, a))
        else:
            mats.append(a * _spectral_matrix(n, grid.period[axis]))
    if grid.dim == 1:
        return mats[0]
    if scheme == "upwind":
        import scipy.sparse as sparse

        eye0 = sparse.identity(grid.shape[0], format="csr")
        eye1 = sparse.identity(grid.shape[1], format="csr")
        return sparse.kron(mats[0], eye1, format="csr") + sparse.kron(eye0, mats[1], format="csr")
    return np.kron(mats[0], np.eye(grid.shape[1])) + np.kron(np.eye(grid.shape[0]), mats[1])


# ---------------------------------------------------------------------------
# factorization wrapper (sparse or dense, real or complex)
# ---------------------------------------------------------------------------


def splu(mat):
    """scipy's sparse LU, imported at the first factorization.

    A name of this module, so a test can wrap every factorization.
    """
    import scipy.sparse.linalg

    return scipy.sparse.linalg.splu(mat)


class _Factorized:
    def __init__(self, mat):
        import scipy.sparse

        self._sparse = scipy.sparse.issparse(mat)
        if self._sparse:
            self._lu = splu(mat.tocsc())  # a CSC matrix is factored as it is, no copy
        else:
            import scipy.linalg

            self._lu = scipy.linalg.lu_factor(np.asarray(mat))
        self._complex = np.iscomplexobj(mat.data if self._sparse else mat)

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._sparse:
            return self._lu.solve(b)
        import scipy.linalg

        return scipy.linalg.lu_solve(self._lu, b)

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        """Solve with the (conjugate) transpose of the factored matrix."""
        if self._sparse:
            return self._lu.solve(b, trans="H" if self._complex else "T")
        import scipy.linalg

        return scipy.linalg.lu_solve(self._lu, b, trans=2 if self._complex else 1)


# ---------------------------------------------------------------------------
# shared solver protocol
# ---------------------------------------------------------------------------


def _adjoint(mat):
    """Conjugate transpose; for a real matrix the transpose, sharing storage."""
    return mat.conj().T if np.iscomplexobj(mat) else mat.T


class _CellOperatorBase:
    """State shared by both backends.

    Subclasses pass ``A = transport + Sigma`` and the gain ``K`` to
    :meth:`_set_matrices`, which stores ``A_mat``, ``K_mat``, ``P = A - K``,
    the factorized ``A_fact`` and the conjugate transposes ``P_H`` and
    ``K_H``, built once so adjoint actions do not rebuild them per call.
    A subclass that has ``P`` and a CSC copy of ``A`` already passes them.
    Subclasses also populate ``weights`` (flat inner-product weights),
    ``const`` (the constant function), ``sigma_min``, ``vm``, and
    conversion helpers.  The equilibrium ``F`` follows from ``const``.
    """

    P: np.ndarray
    K_mat: np.ndarray
    A_mat: np.ndarray
    P_H: np.ndarray
    K_H: np.ndarray
    A_fact: _Factorized
    weights: np.ndarray
    const: np.ndarray
    sigma_min: float
    vm: VelocityMeasure
    dtype: type

    # -- inner-product geometry --------------------------------------------

    def inner(self, f: np.ndarray, g: np.ndarray):
        """Weighted pairing ``int M(conj(f) g) dmu`` on flat vectors."""
        return np.sum(self.weights * np.conj(f) * g)

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.real(np.sum(self.weights * np.abs(f) ** 2))))

    def mean_v(self, f: np.ndarray) -> float:
        """``int M(f) dmu`` of a flat field.

        Pairing against the constant field keeps this correct for both
        backends: on the grid it is the plain weighted sum, on the frequency
        lattice only the zero mode carries a nonzero cell mean.
        """
        return float(np.real(self.inner(self.const, f)))

    @functools.cached_property
    def F(self) -> np.ndarray:
        """Flat equilibrium ``1 / mu(V)`` spanning ``ker P``; read-only, as the solves share it."""
        F = self.const / self.mean_v(self.const)
        F.flags.writeable = False
        return F

    def _set_matrices(self, A, K_mat, P=None, A_csc=None) -> None:
        self.A_mat = A
        self.K_mat = K_mat
        self.P = A - K_mat if P is None else P
        self.A_fact = _Factorized(A if A_csc is None else A_csc)
        self.P_H = _adjoint(self.P)
        self.K_H = _adjoint(K_mat)

    # -- operator actions ----------------------------------------------------

    def apply_P(self, f: np.ndarray) -> np.ndarray:
        return self.P @ f

    def apply_P_adjoint(self, f: np.ndarray) -> np.ndarray:
        return (self.P_H @ (self.weights * f)) / self.weights

    def apply_K(self, f: np.ndarray) -> np.ndarray:
        return self.K_mat @ f

    def apply_K_adjoint(self, f: np.ndarray) -> np.ndarray:
        return (self.K_H @ (self.weights * f)) / self.weights

    def apply_A_inverse(self, f: np.ndarray) -> np.ndarray:
        return self.A_fact.solve(f)

    def apply_A_adjoint_inverse(self, f: np.ndarray) -> np.ndarray:
        return self.A_fact.solve_adjoint(self.weights * f) / self.weights

    def apply_O(self, f: np.ndarray) -> np.ndarray:
        """Gain-relaxation map ``K A^{-1}``."""
        return self.apply_K(self.apply_A_inverse(f))

    def apply_O_adjoint(self, f: np.ndarray) -> np.ndarray:
        return self.apply_K_adjoint(self.apply_A_adjoint_inverse(f))

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


def _plan_key(grid: CellGrid, vm: VelocityMeasure) -> tuple:
    """What an upwind plan depends on: the grid and the nodes' speeds and weights."""
    return (grid.shape, grid.period, vm.field.shape, vm.field.tobytes(), vm.weights.tobytes())


class _UpwindPlan:
    """Index plan of the upwind cell operator on one grid and velocity set.

    Everything of ``A = T + Sigma``, ``K`` and ``P = A - K`` that does not
    depend on the rates: the CSR structure of the three, the transport
    values on ``A``'s entries, the entries of ``A``'s diagonal, where
    ``A``'s and ``K``'s entries sit in ``P``, the CSC order of ``A``, and
    the weights.  :meth:`matrices` then fills data only, and the result is
    bitwise what ``A - K`` and ``A.tocsc()`` give.  The arrays are shared
    by the operators built from the plan, so they are read-only.  Building
    it costs about one assembly by constructors: one COO build of ``A``,
    one sparse add for ``P`` and one ``tocsc``.
    """

    def __init__(self, grid: CellGrid, vm: VelocityMeasure):
        import scipy.sparse as sparse

        K, n = vm.n_nodes, grid.n_points
        size = n * K
        self.shape = (size, size)

        # A's structure from one COO build: Sigma on the diagonal, velocity
        # k's stencil T_k[r, c] at (r*K + k, c*K + k).  Entries are coded, the
        # diagonal 1 and stencil entry i 2 (i + 1), so a diagonal entry that
        # sums both parts still names the stencil entry.  Indices are int32,
        # the type scipy picks, so the constructors convert no array
        diag = np.arange(size, dtype=np.int32)
        rows, cols, stencil = [diag], [diag], []
        for k in range(K):
            Tk = _transport_matrix(grid, vm.field[k], "upwind")
            rows.append(np.repeat(diag[k::K], np.diff(Tk.indptr)))
            cols.append(Tk.indices * np.int32(K) + np.int32(k))
            stencil.append(Tk.data)
        stencil = np.concatenate(stencil)
        codes = np.concatenate([np.ones(size, dtype=np.int32),
                                2 * np.arange(1, stencil.size + 1, dtype=np.int32)])
        A = sparse.csr_matrix((codes, (np.concatenate(rows), np.concatenate(cols))),
                              shape=self.shape)
        self.on_diag = (A.data & 1).astype(bool)  # in row order, one entry a row
        has_stencil = A.data > 1
        self.transport = np.zeros(A.nnz)
        self.transport[has_stencil] = stencil[(A.data[has_stencil] >> 1) - 1]
        self.A_indices, self.A_indptr = A.indices, A.indptr

        # the gain: a dense K x K block on each grid point, rows in (point, node) order
        block_cols = diag[::K, None, None] + np.arange(K, dtype=np.int32)
        Kc = sparse.csr_matrix((np.full(size * K, 2, dtype=np.int8),
                                np.broadcast_to(block_cols, (n, K, K)).ravel(),
                                np.arange(0, size * K + 1, K, dtype=np.int32)), shape=self.shape)
        self.K_indices, self.K_indptr = Kc.indices, Kc.indptr

        # P's structure is the merge A - K makes; adding A coded 1 and K coded 2
        # makes the same merge, and the code says whose entries each one holds.
        # Both keep their order in P, so a mask of P's entries places each.
        # The sum's indices sit in a buffer sized for both operands; the
        # operators keep a compact copy
        Pc = sparse.csr_matrix((np.ones(A.nnz, dtype=np.int8), A.indices, A.indptr),
                               shape=self.shape) + Kc
        self.from_A = (Pc.data & 1).astype(bool)
        self.from_K = (Pc.data & 2).astype(bool)
        self.P_indices, self.P_indptr = Pc.indices.copy(), Pc.indptr

        # A in CSC: the transpose of the entry numbers gives the order
        At = sparse.csr_matrix((np.arange(A.nnz, dtype=np.int32), A.indices, A.indptr),
                               shape=self.shape).tocsc()
        self.csc_order, self.csc_indices, self.csc_indptr = At.data, At.indices, At.indptr

        self.weights = np.tile(vm.weights, n) / n
        for part in (self.on_diag, self.transport, self.A_indices, self.A_indptr,
                     self.K_indices, self.K_indptr, self.from_A, self.from_K,
                     self.P_indices, self.P_indptr, self.csc_order, self.csc_indices,
                     self.csc_indptr, self.weights):
            part.flags.writeable = False

    def matrices(self, sigma: np.ndarray, gain: np.ndarray):
        """``(A, K, P, A in CSC)`` for the loss ``sigma`` and gain blocks ``gain``."""
        import scipy.sparse as sparse

        a = self.transport.copy()
        a[self.on_diag] += sigma  # T_kk + Sigma, the one sum on A's diagonal
        g = gain.ravel()
        A = sparse.csr_matrix((a, self.A_indices, self.A_indptr), shape=self.shape)
        Km = sparse.csr_matrix((g, self.K_indices, self.K_indptr), shape=self.shape)
        # P's data is a - g where both hold an entry, a or -g where one does:
        # -g everywhere K is, then a added in place ((-g) + a is a - g to the bit)
        p = np.zeros(self.P_indices.size)
        p[self.from_K] = g
        np.negative(p, out=p)
        p[self.from_A] += a
        # A - K drops an entry that comes out zero; keep its structure exactly
        P = (sparse.csr_matrix((p, self.P_indices, self.P_indptr), shape=self.shape)
             if p.all() else A - Km)
        A_csc = sparse.csc_matrix((a[self.csc_order], self.csc_indices, self.csc_indptr),
                                  shape=self.shape)
        return A, Km, P, A_csc


def _upwind_matrices(grid: CellGrid, vm: VelocityMeasure, plans: dict | None,
                     sigma: np.ndarray, gain: np.ndarray):
    """``(weights, (A, K, P, A in CSC))`` from the plan in ``plans``, built if missing.

    A plan no dict keeps is freed on return, before the factorization's peak.
    """
    key = _plan_key(grid, vm)
    plan = None if plans is None else plans.get(key)
    if plan is None:
        plan = _UpwindPlan(grid, vm)
        if plans is not None:
            plans[key] = plan
    return plan.weights, plan.matrices(sigma, gain)


def _gated_gain_loss(kernel, x, grid: CellGrid, vm: VelocityMeasure):
    """Gain ``(n, K, K)`` and loss ``(n, K)`` of the rates sampled on ``grid``.

    Refuses rates that are not positive and finite, or that fail
    semi-detailed balance.  The rates are freed on return: the operator
    keeps only the gain, so they are not alive at the factorization's peak.
    """
    K, n = vm.n_nodes, grid.n_points
    samp = _sampled(kernel, x, grid, vm).reshape(n, K, K)
    if not np.all(np.isfinite(samp) & (samp > 0)):
        raise ValueError("scattering rates must be positive and finite on the grid")
    sdb_gap(samp, vm.weights).require()
    return gain_loss(samp, vm.weights)


class CellOperator(_CellOperatorBase):
    """Cell operator sampled on a periodic grid (see :func:`assemble`)."""

    def __init__(self, kernel, x, vm: VelocityMeasure, grid: CellGrid, scheme: str,
                 plans: dict | None = None):
        if grid.dim != vm.dim:
            raise ValueError(f"cell grid dim {grid.dim} != velocity dim {vm.dim}")
        if scheme not in ("upwind", "spectral"):
            raise ValueError(f"unknown transport scheme {scheme!r}")
        self.kernel = kernel
        self.x = x
        self.vm = vm
        self.grid = grid
        self.scheme = scheme
        self.dtype = float

        K = vm.n_nodes
        n = grid.n_points
        self.n_points = n
        self.size = n * K
        self.field_shape = (*grid.shape, K)
        dense_cell_gate(scheme, self.size)

        gain, sigma = _gated_gain_loss(kernel, x, grid, vm)
        self.sigma_min = float(sigma.min())
        if self.sigma_min <= 0:
            raise ValueError("absorption rate must be strictly positive")
        sigma_flat = sigma.reshape(-1)

        if scheme == "spectral":
            T = np.zeros((self.size, self.size))
            for k in range(K):
                T[k::K, k::K] = _transport_matrix(grid, vm.field[k], scheme)
            Km = np.zeros((self.size, self.size))
            diag_idx = np.arange(n) * K
            for k in range(K):
                for l in range(K):
                    Km[diag_idx + k, diag_idx + l] = gain[:, k, l]
            self._set_matrices(T + np.diag(sigma_flat), Km)
            self.weights = np.tile(vm.weights, n) / n
        else:
            self.weights, matrices = _upwind_matrices(grid, vm, plans, sigma_flat, gain)
            self._set_matrices(*matrices)
        self.const = np.ones(self.size)
        self.sigma_flat = sigma_flat

    # -- inner-product geometry --------------------------------------------

    def inner(self, f: np.ndarray, g: np.ndarray):
        """Weighted pairing ``int M(f g) dmu``: grid fields are real, so no ``conj``."""
        return np.add.reduce(self.weights * f * g)

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.add.reduce(self.weights * (f * f))))

    # -- field conversion ----------------------------------------------------

    def wrap(self, flat: np.ndarray) -> PhaseField:
        return PhaseField(values=np.real(flat).reshape(self.field_shape),
                          grid=self.grid, vm=self.vm)

    def unwrap(self, field) -> np.ndarray:
        if isinstance(field, PhaseField):
            return field.values.reshape(-1)
        flat = np.asarray(field)
        if flat.shape != (self.size,):
            raise ValueError(f"expected flat size {self.size}, got {flat.shape}")
        return flat

    def velocity_profile(self, component: int) -> np.ndarray:
        """Flat field of ``a_component(v)`` (y-independent)."""
        return np.tile(self.vm.field[:, component], self.n_points)


def assemble(kernel, x, vm: VelocityMeasure, grid: CellGrid,
             scheme: str = "upwind", *, plans: dict | None = None) -> CellOperator:
    """Build the grid-backend cell operator at macro position ``x``.

    Refuses kernels that fail semi-detailed balance.  An ``upwind``
    operator is filled in from an index plan of its grid and velocity set;
    ``plans`` is a dict the caller keeps to share plans between operators
    (the positions of one sampled family), keyed by what a plan depends
    on.  Without it the plan is built for this operator alone.
    """
    return CellOperator(kernel, x, vm, grid, scheme, plans)


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

        a = vm.field[:, 0]
        transport = np.diag(np.kron(1j * self.lattice, np.ones(K)) * np.tile(a, n_lat))
        A = transport + np.kron(mult, np.diag(sig_v))
        Km = np.kron(mult, gain_v)
        self._set_matrices(A, Km)
        self.size = n_lat * K
        self.weights = np.tile(vm.weights, n_lat)
        const = np.zeros(self.size, dtype=complex)
        zero_row = n_lat // 2
        const[zero_row * K: zero_row * K + K] = 1.0
        self.const = const
        self.zero_row = zero_row
        # Sigma(y, v) = s(y) * sig_v[v] with s bounded below by its closed-form minimum
        self.sigma_min = float(kernel._profile_min() * sig_v.min())

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


def equilibrium_F(op: _CellOperatorBase):
    """Principal eigenvalue of the gain-relaxation map; normalized equilibrium.

    The loss is the gain's row sum (see :func:`kinhom.collision.gain_loss`),
    so ``P 1 = 0``: ``h = A 1`` satisfies ``O h = K 1 = A 1 = h``, and the
    equilibrium is the constant.  ``lam`` is the Rayleigh quotient of
    ``O = K A^{-1}`` at ``h``, one application; it must be 1 within 1e-8
    (anything else signals kernel/quadrature inconsistency).  The returned
    field is ``op.F = 1 / mu(V)``, so ``int M(F) dmu = 1``.

    Returns
    -------
    (lam, F) :
        The eigenvalue and the wrapped equilibrium field.
    """
    h = op.A_mat @ op.const
    lam = float(np.real(op.inner(h, op.apply_O(h)))) / float(np.real(op.inner(h, h)))
    if abs(lam - 1.0) > 1e-8:
        raise ConvergenceError(
            f"principal eigenvalue {lam!r} deviates from 1 beyond 1.0e-08; "
            "kernel and quadrature are inconsistent"
        )
    return lam, op.wrap(op.F)


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
    after each cycle.  What it drops is the set-up around a small solve:
    the operator wrapper, the per-call LAPACK lookup, the full-size basis
    allocation and the fancy-indexed Hessenberg updates.  ``info`` is 0 on
    convergence and ``maxiter`` otherwise.
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
    for _ in range(maxiter):
        beta = np.linalg.norm(r)
        basis = [r * (1 / beta)]
        S = [dtype(beta)]     # right-hand side of the rotated least-squares problem
        rotations = []        # (c, s) of each column
        H = []                # rotated Hessenberg columns, entries 0..col
        breakdown = False
        for col in range(restart):
            w = matvec(basis[col])
            h0 = np.linalg.norm(w)
            hcol = []
            for v in basis:
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
            basis.append(w)
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
        x += y @ np.array(basis[:col + 1])
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
    solvable subspace.  Returns the solution and the number of operator
    applications.
    """
    norm2 = op.inner(deflate, deflate)
    count = 0

    def project(f):
        return f - (op.inner(deflate, f) / norm2) * deflate

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
    ||rhs||`` for ``P*``), solves the rewritten fixed-point system by
    deflated GMRES, maps back through ``A^{-1}`` (or its adjoint), gauges
    the result to zero mean, and gates on a relative residual of 1e-9.
    """
    null, null_scale = (op.F, op.norm(op.F)) if adjoint else (op.const, 1.0)
    rhs_flat = op.unwrap(rhs).astype(op.dtype)
    rhs_norm = op.norm(rhs_flat)
    compat = float(np.real(op.inner(null, rhs_flat)))
    kind = "adjoint " if adjoint else ""
    if abs(compat) > 1e-10 * max(1.0, null_scale * rhs_norm):
        pairing = "rhs F" if adjoint else "g"
        raise CompatibilityError(
            f"int M({pairing}) dmu = {compat:.3e} violates the {kind}solvability condition"
        )
    apply_O = op.apply_O_adjoint if adjoint else op.apply_O
    tol = 1e-12 if tol is None else tol
    h, n_iter = _deflated_gmres(op, lambda v: v - apply_O(v), rhs_flat, null, tol)
    f = op.hermitize(op.apply_A_adjoint_inverse(h) if adjoint else op.apply_A_inverse(h))
    f = f - (op.mean_v(f) / op.mean_v(op.const)) * op.const
    residual = op.norm((op.apply_P_adjoint(f) if adjoint else op.apply_P(f)) - rhs_flat)
    if rhs_norm > 0 and residual > 1e-9 * rhs_norm:
        raise ConvergenceError(
            f"{kind}corrector residual {residual:.3e} exceeds 1e-9 relative"
        )
    constant = op.norm(f) / rhs_norm if rhs_norm > 0 else 0.0
    return CorrectorSolution(field=op.wrap(f), residual=residual,
                             bound_constant=constant, iterations=n_iter)


def solve_corrector(op: _CellOperatorBase, g, tol: float | None = None) -> CorrectorSolution:
    """Solve ``P f = g`` for the unique zero-mean corrector.

    Requires the compatibility condition ``int M(g) dmu = 0``; solves the
    rewritten system ``(I - O) h = g`` by deflated GMRES, maps back through
    ``f = A^{-1} h``, and gauges the result to ``int M(f) dmu = 0``.
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
    right-hand side reports the absolute residual and a zero constant.
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
    residual and bound diagnostics come from each corrector solve.
    """
    d = op.vm.dim
    chi = []
    b = np.zeros(d)
    worst_res = worst_const = 0.0
    for j in range(d):
        a_j = op.velocity_profile(j)
        b[j] = float(np.real(op.inner(op.F, a_j)))  # int M(a_j F) dmu
        rhs = -(a_j - b[j] * op.const)
        sol = solve_adjoint_corrector(op, rhs, tol=tol)
        chi.append(sol.field)
        nrm = op.norm(rhs)
        worst_res = max(worst_res, sol.residual / nrm if nrm > 0 else sol.residual)
        worst_const = max(worst_const, sol.bound_constant)
    return ChiStarSolution(chi=chi, b=b, residual=worst_res, bound_constant=worst_const)


def verify_variational(op: _CellOperatorBase, seed: int = 0) -> float:
    """Weak-form residual of the equilibrium ``op.F`` against a test-field battery.

    Returns ``max |<F, P* phi>| / (||F|| ||phi||)`` over structured and
    eight random test fields; a converged equilibrium drives this to roundoff,
    an unconverged one does not.
    """
    rng = np.random.default_rng(seed)
    tests = [op.const.astype(op.dtype)]
    for j in range(op.vm.dim):
        a_j = op.velocity_profile(j)
        tests.append(a_j.astype(op.dtype))
        # velocity profiles live on the mean-zero-frequency row, so the
        # elementwise square is the coefficient vector of a_j(v)^2
        tests.append((a_j ** 2).astype(op.dtype))
    for _ in range(8):
        tests.append(op.hermitize(rng.standard_normal(op.size).astype(op.dtype)))
    worst = 0.0
    for phi in tests:
        denom = op.norm(op.F) * op.norm(phi)
        if denom == 0:
            continue
        worst = max(worst, abs(float(np.real(op.inner(op.F, op.apply_P_adjoint(phi))))) / denom)
    return worst
