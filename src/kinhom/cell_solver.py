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

Solves handle the singular structure explicitly: the equilibrium comes from
power iteration on the gain-relaxation map  O = K A^{-1}  (principal
eigenvalue 1), and corrector equations are Krylov solves of the rewritten
fixed-point system with the one-dimensional kernel deflated out.

Cell problems are small and solved many times (one per macro position when
the rates vary with x), so a solve does only its arithmetic: GMRES runs in
this module, operation for operation scipy's ``gmres`` (same iterates,
same iteration counts) without its per-call set-up, and the upwind
stencils are built once per (n, h, speed) and shared by every cell.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

from kinhom.collision import PhaseField, ScatteringKernel, _sampled, gain_loss, sdb_gap
from kinhom.phase_space import CellGrid, VelocityMeasure

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
    "solve_corrector",
    "solve_adjoint_corrector",
    "solve_chi_star",
    "verify_variational",
]

log = logging.getLogger(__name__)


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
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    col = np.fft.ifft(1j * k).real  # derivative of the discrete delta
    return scipy.linalg.circulant(col)


def _transport_matrix(grid: CellGrid, velocity: np.ndarray, scheme: str):
    """Discrete ``a . grad_y`` on the flattened grid for one velocity node."""
    if scheme not in ("upwind", "spectral"):
        raise ValueError(f"unknown transport scheme {scheme!r}")
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
        eye0 = sparse.identity(grid.shape[0], format="csr")
        eye1 = sparse.identity(grid.shape[1], format="csr")
        return sparse.kron(mats[0], eye1, format="csr") + sparse.kron(eye0, mats[1], format="csr")
    return np.kron(mats[0], np.eye(grid.shape[1])) + np.kron(np.eye(grid.shape[0]), mats[1])


# ---------------------------------------------------------------------------
# factorization wrapper (sparse or dense, real or complex)
# ---------------------------------------------------------------------------


class _Factorized:
    def __init__(self, mat):
        self._sparse = sparse.issparse(mat)
        if self._sparse:
            self._lu = splu(mat.tocsc())
        else:
            self._lu = scipy.linalg.lu_factor(np.asarray(mat))
        self._complex = np.iscomplexobj(mat.data if self._sparse else mat)

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._sparse:
            return self._lu.solve(b)
        return scipy.linalg.lu_solve(self._lu, b)

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        """Solve with the (conjugate) transpose of the factored matrix."""
        if self._sparse:
            return self._lu.solve(b, trans="H" if self._complex else "T")
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
    Subclasses also populate ``weights`` (flat inner-product weights),
    ``const`` (the constant function), ``sigma_min``, ``vm``, and
    conversion helpers.
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

    def _set_matrices(self, A, K_mat) -> None:
        self.A_mat = A
        self.K_mat = K_mat
        self.P = A - K_mat
        self.A_fact = _Factorized(A)
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
        return self.P.toarray() if sparse.issparse(self.P) else np.array(self.P)


# ---------------------------------------------------------------------------
# grid backend
# ---------------------------------------------------------------------------


# Largest memory the dense ``scheme = "spectral"`` grid operator may take:
# half of an 8 GiB machine, the smallest the tests and the benchmark run on,
# so the rest of the process and the machine's other work keep the other
# half.  That is about 9460 unknowns (6 * 8 * 9460**2 bytes); larger cells
# take ``scheme = "upwind"`` (sparse) or the spectral_ap backend.
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


class CellOperator(_CellOperatorBase):
    """Cell operator sampled on a periodic grid (see :func:`assemble`)."""

    def __init__(self, kernel, x, vm: VelocityMeasure, grid: CellGrid, scheme: str):
        if grid.dim != vm.dim:
            raise ValueError(f"cell grid dim {grid.dim} != velocity dim {vm.dim}")
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

        samp = _sampled(kernel, x, grid, vm).reshape(n, K, K)
        sdb_gap(samp, vm.weights).require()
        if np.any(samp <= 0):
            raise ValueError("scattering rates must be strictly positive on the grid")

        gain, sigma = gain_loss(samp, vm.weights)
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
            A = T + np.diag(sigma_flat)
        else:
            # A = transport + Sigma in one constructor: Sigma on the diagonal,
            # velocity k's stencil T_k[r, c] at (r*K + k, c*K + k); a diagonal
            # entry sums two terms, so the order of summation cannot matter
            diag = np.arange(self.size)
            rows, cols, vals = [diag], [diag], [sigma_flat]
            for k in range(K):
                Tk = _transport_matrix(grid, vm.field[k], scheme)
                rows.append(np.repeat(np.arange(n) * K + k, np.diff(Tk.indptr)))
                cols.append(Tk.indices * K + k)
                vals.append(Tk.data)
            A = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                                  shape=(self.size, self.size))
            # gain: a dense K x K block on each grid point, rows in (point, node) order
            block_cols = np.arange(n)[:, None, None] * K + np.arange(K)
            Km = sparse.csr_matrix(
                (gain.ravel(), np.broadcast_to(block_cols, (n, K, K)).ravel(),
                 np.arange(0, self.size * K + 1, K)),
                shape=(self.size, self.size))
        self._set_matrices(A, Km)
        self.weights = np.tile(vm.weights, n) / n
        self.const = np.ones(self.size)
        self.sigma_flat = sigma_flat

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

    def pair_mean_y(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Per-node cell average ``M(f_k g_k)``, shape ``(K,)``."""
        prod = (f * g).reshape(self.n_points, self.vm.n_nodes)
        return prod.mean(axis=0)

    def values(self, flat: np.ndarray) -> np.ndarray:
        return np.asarray(flat, dtype=float)


def assemble(kernel, x, vm: VelocityMeasure, grid: CellGrid,
             scheme: str = "upwind") -> CellOperator:
    """Build the grid-backend cell operator at macro position ``x``.

    Refuses kernels that fail semi-detailed balance.
    """
    return CellOperator(kernel, x, vm, grid, scheme)


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
        freqs, coeffs = kernel.profile_frequencies()
        c = float(np.asarray(kernel.x_factor(x)))
        gens = sorted({round(float(abs(f)), 9) for f in freqs if abs(f) > 1e-12})
        if len(gens) > 2:
            raise ValueError("at most two generator frequencies are supported")
        self.kernel = kernel
        self.x = x
        self.vm = vm
        self.dtype = complex

        # integer-coordinate lattice
        m = int(n_modes)
        if len(gens) == 0:
            coords = np.zeros((1, 1), dtype=int)
            lattice = np.zeros(1)
        elif len(gens) == 1:
            coords = np.arange(-m, m + 1, dtype=int)[:, None]
            lattice = coords[:, 0] * gens[0]
        else:
            aa, bb = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
            coords = np.stack([aa.ravel(), bb.ravel()], axis=1)
            lattice = coords[:, 0] * gens[0] + coords[:, 1] * gens[1]
        self.lattice = lattice.astype(float)
        n_lat = coords.shape[0]
        self.n_lattice = n_lat
        index = {tuple(t): i for i, t in enumerate(coords)}
        self.mirror = np.array([index[tuple(-t)] for t in coords])

        # profile multiplication operator on the lattice
        mult = np.zeros((n_lat, n_lat), dtype=complex)
        for f, cf in zip(freqs, coeffs):
            if abs(f) < 1e-12:
                shift = tuple([0] * coords.shape[1])
            else:
                g_idx = gens.index(round(float(abs(f)), 9))
                shift = tuple(
                    int(np.sign(f)) if i == g_idx else 0 for i in range(coords.shape[1])
                )
            for i, t in enumerate(coords):
                target = tuple(np.asarray(t) + np.asarray(shift))
                j = index.get(target)
                if j is not None:
                    mult[j, i] += cf
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
        zero_row = index[tuple([0] * coords.shape[1])]
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

    def pair_mean_y(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        fc = np.asarray(f, dtype=complex).reshape(self.n_lattice, self.vm.n_nodes)
        gc = np.asarray(g, dtype=complex).reshape(self.n_lattice, self.vm.n_nodes)
        return np.sum(fc * np.conj(gc), axis=0).real

    def values(self, flat: np.ndarray) -> np.ndarray:
        """Real space samples for positivity diagnostics."""
        y = np.linspace(0.0, 64.0, 2048, endpoint=False)
        return self.wrap(flat).sample(y).reshape(-1)


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
    """Principal eigenpair of the gain-relaxation map; normalized equilibrium.

    Power iteration on ``O = K A^{-1}`` until the Rayleigh quotient moves
    by at most 1e-12, within 100000 iterations; it must land on 1 within
    1e-8 (anything else signals kernel/quadrature inconsistency).  The
    returned field satisfies ``int M(F) dmu = 1`` and is strictly positive.

    Returns
    -------
    (lam, F) :
        The converged eigenvalue and the wrapped equilibrium field.
    """
    h = op.apply_P(op.const) + op.apply_K(op.const)  # = A(1), strictly positive
    h = h / op.norm(h)
    lam_prev = np.inf
    lam = 0.0
    for _ in range(100_000):
        oh = op.apply_O(h)
        lam = float(np.real(op.inner(h, oh))) / float(np.real(op.inner(h, h)))
        nrm = op.norm(oh)
        if nrm == 0.0:
            raise ConvergenceError("gain-relaxation map annihilated the iterate")
        h = oh / nrm
        if abs(lam - lam_prev) <= 1e-12:
            break
        lam_prev = lam
    else:
        raise ConvergenceError(
            "power iteration did not converge in 100000 iterations "
            f"(last increment {abs(lam - lam_prev):.3e})"
        )
    if abs(lam - 1.0) > 1e-8:
        raise ConvergenceError(
            f"principal eigenvalue {lam!r} deviates from 1 beyond 1.0e-08; "
            "kernel and quadrature are inconsistent"
        )
    F = op.hermitize(op.apply_A_inverse(h))
    mass = op.mean_v(F)
    if mass == 0.0:
        raise ConvergenceError("equilibrium has zero mean; cannot normalize")
    F = F / mass
    vals = op.values(F)
    scale = float(np.max(np.abs(vals)))
    if vals.min() <= -1e-12 * scale:
        raise ConvergenceError(
            f"equilibrium has negative samples (min {vals.min():.3e})"
        )
    if isinstance(F, np.ndarray) and not np.iscomplexobj(F):
        tiny = vals.min()
        if tiny <= 0.0:
            n_clamped = int(np.sum(F <= 0))
            log.warning("clamping %d nonpositive equilibrium samples to tiny positive", n_clamped)
            F = np.where(F <= 0, 1e-16 * scale, F)
    return lam, op.wrap(F)


@dataclass(frozen=True)
class CorrectorSolution:
    """A corrector field with its solve diagnostics."""

    field: object
    residual: float
    bound_constant: float
    iterations: int


# Givens rotations from LAPACK, one routine per dtype
_LARTG = {char: get_lapack_funcs("lartg", dtype=np.dtype(char)) for char in "dD"}


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
    lartg = _LARTG[b.dtype.char]
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


def _gauged_solve(op: _CellOperatorBase, rhs, null: np.ndarray, tol: float | None,
                  *, adjoint: bool, null_scale: float) -> CorrectorSolution:
    """Shared body of the forward and adjoint corrector solves.

    ``null`` spans the cokernel of the operator being inverted: the
    constant for ``P``, the equilibrium for ``P*``.  Checks compatibility
    ``<null, rhs> = 0`` against ``1e-10 * max(1, null_scale ||rhs||)``,
    solves the rewritten fixed-point system by deflated GMRES, maps back
    through ``A^{-1}`` (or its adjoint), gauges the result to zero mean,
    and gates on a relative residual of 1e-9.
    """
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
    return _gauged_solve(op, g, op.const, tol, adjoint=False, null_scale=1.0)


def solve_adjoint_corrector(op: _CellOperatorBase, rhs, F, tol: float | None = None) -> CorrectorSolution:
    """Solve ``P* phi = rhs`` (adjoint cell problem) with zero-mean gauge.

    The solvability condition is ``int M(rhs * F) dmu = 0`` with ``F`` the
    equilibrium spanning ``ker P``.
    """
    F_flat = op.unwrap(F).astype(op.dtype)
    return _gauged_solve(op, rhs, F_flat, tol, adjoint=True, null_scale=op.norm(F_flat))


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


def solve_chi_star(op: _CellOperatorBase, F, tol: float | None = None) -> ChiStarSolution:
    """Adjoint correctors driven by the transport directions.

    For each spatial component ``j`` this solves ``P* chi_j = -(a_j - b_j)``
    where ``b_j = int M(a_j F) dmu`` is the equilibrium flux.  The shift by
    ``b_j`` restores solvability whenever the flux does not vanish; ``b``
    is returned so downstream consumers know the co-moving frame.  The
    residual and bound diagnostics come from each corrector solve.
    """
    F_flat = op.unwrap(F)
    d = op.vm.dim
    chi = []
    b = np.zeros(d)
    worst_res = worst_const = 0.0
    for j in range(d):
        a_j = op.velocity_profile(j)
        b[j] = float(np.real(op.inner(F_flat, a_j)))  # int M(a_j F) dmu
        rhs = -(a_j - b[j] * op.const)
        sol = solve_adjoint_corrector(op, rhs, F, tol=tol)
        chi.append(sol.field)
        nrm = op.norm(rhs)
        worst_res = max(worst_res, sol.residual / nrm if nrm > 0 else sol.residual)
        worst_const = max(worst_const, sol.bound_constant)
    return ChiStarSolution(chi=chi, b=b, residual=worst_res, bound_constant=worst_const)


def verify_variational(op: _CellOperatorBase, F, seed: int = 0) -> float:
    """Weak-form residual of the equilibrium against a test-field battery.

    Returns ``max |<F, P* phi>| / (||F|| ||phi||)`` over structured and
    eight random test fields; a converged equilibrium drives this to roundoff,
    an unconverged one does not.
    """
    F_flat = op.unwrap(F)
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
        denom = op.norm(F_flat) * op.norm(phi)
        if denom == 0:
            continue
        worst = max(worst, abs(float(np.real(op.inner(F_flat, op.apply_P_adjoint(phi))))) / denom)
    return worst
