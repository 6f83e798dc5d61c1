"""Scattering kernels and the velocity-jump collision operators.

Every built-in kernel is a positive separable product

    sigma(x, y, v, w) = c(x) * s(y) * g(v, w)

where ``c`` comes from a small whitelist of macroscopic modulations,
``s`` is a microstructure profile (periodic, quasi-periodic, or periodic
plus a vanishing defect), and ``g`` is a scalar or a node table.  One
table builds the periodic or quasi-periodic part of ``s`` as a
``SpectralAPFn`` that cell samples, frequencies and bounds all read; only
the kinetic reference's pointwise :meth:`ScatteringKernel.evaluate` adds
the defect.

The gain/loss operators act on phase-space fields:

    (Q f)(y, v)  = int sigma(x, y, v, w) (f(y, w) - f(y, v)) dmu(w)
    (K f)(y, v)  = int sigma(x, y, v, w) f(y, w) dmu(w)
    (Q* p)       = Q p with the kernel's velocity slots swapped

so the loss rate integrates the *second* velocity slot, the same slot as
the gain:

    Sigma(y, v) = int sigma(x, y, v, w) dmu(w),     Q = K - Sigma * id.

:func:`gain_loss` builds ``(K, Sigma)`` from full rate arrays for the
kinetic reference; the cell operators of :mod:`kinhom.cell_solver` keep
the separable factors instead, the samples ``c(x) s(y)`` of
:meth:`ScatteringKernel.sample_cell` and the one table ``g w``, and form
the same loss from them.  With this loss ``Q 1 = 0`` for every kernel.
Mass conservation and the duality of ``Q`` and ``Q*`` need semi-detailed
balance, equal outgoing and incoming rates

    out(v) = int sigma(., v, w) dmu(w),   in(v) = int sigma(., w, v) dmu(w).

:func:`sdb_gap` measures the one relative gap every solver gates on: the
maximum over samples and nodes of ``|out - in| / max(|out|, |in|, 1e-300)``.
Solvers refuse kernels whose gap exceeds ``SDB_TOL`` = 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kinhom.mv_algebra import RepresentationError, SpectralAPFn
from kinhom.phase_space import CellGrid, VelocityMeasure

__all__ = [
    "BalanceError",
    "ONE_DIMENSIONAL_KINDS",
    "ScatteringKernel",
    "SdbReport",
    "make_kernel",
    "check_sdb",
    "gain_loss",
    "sdb_gap",
]


class BalanceError(ValueError):
    """A kernel violates semi-detailed balance where balance is required."""


# kernel families whose profile exists only in one dimension
ONE_DIMENSIONAL_KINDS = ("quasi_periodic", "quasi_approx", "sinusoidal_defect")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class ScatteringKernel:
    """Separable jump-rate kernel ``c(x) s(y) g(v, w)``.

    Use :func:`make_kernel` to construct one of the named families.  The
    kernel itself is velocity-set agnostic: the node factor ``g`` is either
    a scalar or a table whose shape is validated against the velocity set
    at call time.  ``profile`` is the periodic or almost-periodic part of
    ``s`` and ``natural_period`` the smallest cell period that represents it
    exactly, or ``None``; both come from :meth:`_profile_table`.
    """

    def __init__(
        self,
        kind: str,
        *,
        base: float = 1.0,
        alpha: float = 0.0,
        alpha1: float = 0.0,
        alpha2: float = 0.0,
        p: int = 0,
        q: int = 1,
        s0: float = 1.0,
        table: np.ndarray | None = None,
        defect_amplitude: float = 0.0,
        defect_width: float = 0.25,
        x_dependence: str = "none",
        x_amplitude: float = 0.0,
        dim: int = 1,
    ):
        if kind not in ("constant", "sinusoidal", "quasi_periodic", "quasi_approx", "sinusoidal_defect"):
            raise ValueError(f"unknown kernel kind {kind!r}")
        if x_dependence not in ("none", "tanh"):
            raise ValueError(f"x dependence {x_dependence!r} is not whitelisted")
        if kind in ONE_DIMENSIONAL_KINDS and dim != 1:
            raise ValueError(f"{kind} profiles are one-dimensional")
        self.kind = kind
        self.base = float(base)
        self.alpha = float(alpha)
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        for name, value in (("p", p), ("q", q)):
            if not (np.isfinite(value) and value == round(value)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        self.p = int(p)
        self.q = int(q)
        self.s0 = float(s0)
        self.table = None if table is None else np.asarray(table, dtype=float)
        self.defect_amplitude = float(defect_amplitude)
        self.defect_width = float(defect_width)
        self.x_dependence = x_dependence
        self.x_amplitude = float(x_amplitude)
        self.dim = int(dim)
        self._validate()
        self.profile, self.natural_period = self._profile_table()
        if self._profile_min() <= 0:
            raise ValueError("profile parameters allow nonpositive rates")
        self._cell_profile: tuple[CellGrid, np.ndarray] | None = None  # see sample_cell
        self._scalar_tables: dict[int, np.ndarray] = {}  # see node_matrix

    # -- construction --------------------------------------------------------

    def _validate(self) -> None:
        if self.kind == "quasi_approx" and (self.q < 1 or self.p < 1):
            raise ValueError("rational approximant needs positive integers p, q")
        if self.kind == "sinusoidal_defect" and not (np.isfinite(self.defect_width)
                                                     and self.defect_width > 0):
            raise ValueError("defect width must be positive and finite")
        # NaN fails every comparison below, so it is refused here
        numbers = (self.base, self.alpha, self.alpha1, self.alpha2, self.s0,
                   self.defect_amplitude, self.defect_width, self.x_amplitude)
        if not (np.all(np.isfinite(numbers))
                and (self.table is None or np.all(np.isfinite(self.table)))):
            raise ValueError("kernel parameters must be finite")
        if self.table is not None:
            if self.table.ndim != 2 or self.table.shape[0] != self.table.shape[1]:
                raise ValueError("node table must be square")
            if np.any(self.table <= 0):
                raise ValueError("node table must be strictly positive")
        elif self.s0 <= 0:
            raise ValueError("scalar node factor must be strictly positive")
        if self.x_dependence == "tanh" and abs(self.x_amplitude) >= 1:
            raise ValueError("tanh modulation amplitude must satisfy |beta| < 1")

    def _profile_table(self) -> tuple[SpectralAPFn, float | None]:
        """``(profile, natural_period)`` of each kind."""
        w = 2.0 * np.pi
        const = SpectralAPFn.constant(self.base, self.dim)
        if self.kind == "constant":
            return const, 1.0
        if self.kind == "sinusoidal" and self.dim == 2:
            # sin(a) sin(b) = (cos(a - b) - cos(a + b)) / 2
            modes = np.array([[w, w], [-w, -w], [w, -w], [-w, w]])
            return const + SpectralAPFn(modes, self.alpha / 4 * np.array([-1, -1, 1, 1])), 1.0
        if self.kind in ("sinusoidal", "sinusoidal_defect"):
            return const + SpectralAPFn.sine(w, self.alpha), 1.0
        if self.kind == "quasi_periodic":
            w2, period = 2.0 * np.sqrt(2.0) * np.pi, None
        else:  # quasi_approx
            w2, period = w * self.p / self.q, float(self.q)
        waves = SpectralAPFn.cosine(w, self.alpha1) + SpectralAPFn.cosine(w2, self.alpha2)
        return const + waves, period

    def _profile_spread(self) -> float:
        """Bound on ``|s - M(s)|``: the oscillating amplitudes plus the defect's."""
        oscillating = np.any(self.profile.freqs != 0.0, axis=1)
        return float(np.abs(self.profile.coeffs[oscillating]).sum()) + abs(self.defect_amplitude)

    def _profile_min(self) -> float:
        return self.profile.mean() - self._profile_spread()

    # -- factors -------------------------------------------------------------

    def x_factor(self, x):
        """Macroscopic modulation ``c(x)``.

        ``x`` is a scalar, a batch of scalar positions, or a batch of
        points ``(n, d)``; a flat length-``d`` vector is read as one point
        when the kernel is multi-dimensional.  The tanh family modulates
        with the first coordinate.
        """
        x = np.asarray(x, dtype=float)
        single_point = x.ndim == 1 and self.dim > 1 and x.size == self.dim
        if single_point:
            x = x[None, :]
        first = x if x.ndim <= 1 else x[..., 0]
        if self.x_dependence == "none":
            out = np.ones_like(first)
        else:
            out = 1.0 + self.x_amplitude * np.tanh(first)
        return float(out[0]) if single_point else out

    def profile_values(self, y: np.ndarray) -> np.ndarray:
        """Profile ``s`` at arbitrary fast coordinates, defect included."""
        s = self.profile.evaluate(y)
        if self.kind == "sinusoidal_defect":
            s = s + self.defect_amplitude * np.exp(-((np.asarray(y) / self.defect_width) ** 2))
        return s

    def profile_frequencies(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact frequency content ``(freqs, coeffs)`` of the 1-D ``profile``."""
        if self.profile.dim != 1:
            raise RepresentationError("spectral profile factor is one-dimensional")
        return self.profile.freqs[:, 0], self.profile.coeffs

    def fast_period(self) -> float:
        """Shortest period in ``y`` among the profile's oscillating modes.

        ``2 pi / |omega|`` for the largest frequency ``omega`` of ``profile``
        with a nonzero coefficient: the kernel period 1 of the one-mode
        periodic families, and the shortest wave of a quasi-periodic
        profile or its approximant.  A profile that does not oscillate
        gives the unit cell, 1.
        """
        freqs, coeffs = self.profile_frequencies()
        live = np.abs(freqs[(freqs != 0.0) & (coeffs != 0.0)])
        return float(2.0 * np.pi / live.max()) if live.size else 1.0

    def node_matrix(self, vm: VelocityMeasure) -> np.ndarray:
        """The ``(K, K)`` node factor ``g`` resolved against a velocity set.

        A scalar factor ``s0`` gives one read-only ``K x K`` table per node
        count, built at its first use.
        """
        if self.table is None:
            K = vm.n_nodes
            if K not in self._scalar_tables:
                g = np.full((K, K), self.s0)
                g.flags.writeable = False
                self._scalar_tables[K] = g
            return self._scalar_tables[K]
        if self.table.shape != (vm.n_nodes, vm.n_nodes):
            raise ValueError(
                f"node table is {self.table.shape}, velocity set has {vm.n_nodes} nodes"
            )
        return self.table

    # -- sampling -------------------------------------------------------------

    def evaluate(self, x, y: np.ndarray, vm: VelocityMeasure) -> np.ndarray:
        """Pointwise rates ``sigma(x, y, v_k, v_l)``, shape ``(*y, K, K)``.

        Index ``k`` is the first velocity slot, ``l`` the second.  The
        kinetic reference evaluates this along ``y = x/eps``, defect included.
        """
        out = np.multiply.outer(self.profile_values(y), self.node_matrix(vm))
        c = self.x_factor(x)
        return np.asarray(c)[..., None, None] * out if np.ndim(c) else float(c) * out

    def sample_cell(self, x, grid: CellGrid) -> np.ndarray:
        """The rate factor ``c(x) s(y)`` at the points of a cell grid, flat ``(n,)``.

        Points are in ``grid.points()`` order; the rates are these samples
        times the node table ``g``.  The cell samples ``profile`` only: a
        vanishing defect leaves the homogenized coefficients unchanged, so
        no cell copies it.  The profile samples of the last grid are kept,
        read-only, with the grid: a grid is checked against the kernel (a
        periodic kernel, whose period the cell period contains, in the
        kernel's dimension; :class:`RepresentationError` otherwise) and
        sampled when it is not the kept grid object, and a call with the
        kept grid (``CellGrid`` is frozen) is ``c(x)`` times its samples, so
        the sampled positions of a modulated kernel check the grid and
        evaluate ``s`` once.
        """
        if self._cell_profile is None or self._cell_profile[0] is not grid:
            self._cell_profile = (grid, self._profile_samples(grid))
        return float(self.x_factor(x)) * self._cell_profile[1]

    def _profile_samples(self, grid: CellGrid) -> np.ndarray:
        """``s`` at the points of ``grid``, read-only, once the grid fits the kernel."""
        period = self.natural_period
        if period is None:
            raise RepresentationError(
                f"{self.kind} kernel is not periodic; use the spectral backend"
            )
        if any(abs((p / period) - round(p / period)) > 1e-9 for p in grid.period):
            raise RepresentationError(
                f"cell period {grid.period} does not contain the kernel period {period}"
            )
        if grid.dim != self.dim:
            raise RepresentationError(
                f"kernel oscillates in {self.dim} dimension(s) but the cell "
                f"grid has {grid.dim}"
            )
        pts = grid.points()
        s = self.profile.evaluate(pts[:, 0] if grid.dim == 1 else pts)
        s.flags.writeable = False
        return s

    def __repr__(self) -> str:
        return f"ScatteringKernel(kind={self.kind!r}, x_dependence={self.x_dependence!r})"


def make_kernel(kind: str, **params) -> ScatteringKernel:
    """Build a kernel family by name.

    Recognized kinds: ``constant`` (s0), ``table`` (table), ``sinusoidal``
    (alpha, optional table), ``quasi_periodic`` (alpha1, alpha2, optional
    table), ``quasi_approx`` (alpha1, alpha2, p, q), ``sinusoidal_defect``
    (alpha, defect_amplitude, defect_width).  All accept ``x_dependence``
    (``none`` or ``tanh``) with ``x_amplitude``, and ``dim``.
    """
    if kind == "table":
        table = params.pop("table")
        return ScatteringKernel("constant", table=np.asarray(table, dtype=float), **params)
    if kind == "constant":
        s0 = params.pop("s0", 1.0)
        return ScatteringKernel("constant", s0=s0, **params)
    return ScatteringKernel(kind, **params)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def gain_loss(rates, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted gain block and loss rate of rates ``(..., K, K)``.

    Returns ``(rates * w, Sigma)``: the gain block ``sigma(., v_k, v_l) mu_l``
    and the loss ``Sigma(., v_k)``, its sum over the second slot ``l``.
    """
    gain = np.asarray(rates, dtype=float) * weights
    return gain, gain.sum(axis=-1)


#: Largest relative semi-detailed balance gap a solver accepts.
SDB_TOL = 1e-12


@dataclass(frozen=True)
class SdbReport:
    """Outcome of the semi-detailed balance check."""

    max_abs_gap: float
    max_rel_gap: float

    @property
    def passed(self) -> bool:
        return self.max_rel_gap <= SDB_TOL

    def require(self) -> None:
        """Raise :class:`BalanceError` unless the check passed."""
        if not self.passed:
            raise BalanceError(
                f"kernel violates semi-detailed balance "
                f"(relative gap {self.max_rel_gap:.3e} > {SDB_TOL:.1e})"
            )


def sdb_gap(rates, weights: np.ndarray) -> SdbReport:
    """Semi-detailed balance gap of rates ``(..., K, K)`` under ``weights``.

    Compares the outgoing rate (second slot integrated) with the incoming
    rate (first slot integrated) at every sample and node; the relative gap
    is measured against the larger of the two.  Each sum is one
    matrix-vector product over all samples at once: the rates as C-ordered
    rows of ``K``, and a C-ordered copy of the transposed rates likewise,
    times ``weights``.  The two take the same arithmetic, so symmetric
    rates read a gap of exactly 0 (``weights @ rates`` sums in another
    order and reads roundoff).  For a separable kernel the node table alone
    decides, since the positive factor ``c(x) s(y)`` cancels from the
    relative gap.
    """
    rates = np.asarray(rates, dtype=float, order="C")
    K = rates.shape[-1]
    outgoing = rates.reshape(-1, K) @ weights
    incoming = np.swapaxes(rates, -1, -2).copy().reshape(-1, K) @ weights
    gap = np.abs(outgoing - incoming)
    scale = np.maximum(np.maximum(np.abs(outgoing), np.abs(incoming)), 1e-300)
    return SdbReport(
        max_abs_gap=float(gap.max()),
        max_rel_gap=float((gap / scale).max()),
    )


def check_sdb(kernel: ScatteringKernel, vm: VelocityMeasure) -> SdbReport:
    """:func:`sdb_gap` of the kernel's node table ``g`` under ``vm``.

    The positive factor ``c(x) s(y)`` of every rate cancels from the
    relative gap, so the table decides balance everywhere and nothing is
    sampled; each cell operator gates the same table once.
    """
    return sdb_gap(kernel.node_matrix(vm), vm.weights)
