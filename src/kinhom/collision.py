"""Scattering kernels and the velocity-jump collision operators.

Every built-in kernel is a positive separable product

    sigma(x, y, v, w) = c(x) * s(y) * g(v, w)

where ``c`` comes from a small whitelist of macroscopic modulations,
``s`` is a microstructure profile (periodic, quasi-periodic, or periodic
plus a vanishing defect), and ``g`` is a scalar or a node table.

The gain/loss operators act on sampled phase-space fields:

    (Q f)(y, v)  = int sigma(x, y, v, w) (f(y, w) - f(y, v)) dmu(w)
    (K f)(y, v)  = int sigma(x, y, v, w) f(y, w) dmu(w)
    (Q* p)       = Q p with the kernel's velocity slots swapped

so the loss rate integrates the *second* velocity slot, the same slot as
the gain:

    Sigma(y, v) = int sigma(x, y, v, w) dmu(w),     Q = K - Sigma * id.

:func:`gain_loss` builds ``(K, Sigma)`` for every operator in the package:
the cell operators, the kinetic reference and the ``apply_*`` functions.
With this loss ``Q 1 = 0`` for every kernel.  Mass conservation and the
duality of ``Q`` and ``Q*`` need semi-detailed balance, equal outgoing and
incoming rates

    out(v) = int sigma(., v, w) dmu(w),   in(v) = int sigma(., w, v) dmu(w).

:func:`sdb_gap` measures the one relative gap every solver gates on: the
maximum over samples and nodes of ``|out - in| / max(|out|, |in|, 1e-300)``.
Solvers refuse kernels whose gap exceeds ``SDB_TOL`` = 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kinhom.mv_algebra import (
    AsymptoticPeriodicFn,
    MeanValueFunction,
    PeriodicGridFn,
    RepresentationError,
    SpectralAPFn,
)
from kinhom.phase_space import CellGrid, VelocityMeasure

__all__ = [
    "BalanceError",
    "PhaseField",
    "ScatteringKernel",
    "SdbReport",
    "make_kernel",
    "absorption_rate",
    "apply_Q",
    "apply_Q_star",
    "apply_K",
    "check_sdb",
    "gain_loss",
    "sdb_gap",
]

ROOT2 = float(np.sqrt(2.0))


class BalanceError(ValueError):
    """A kernel violates semi-detailed balance where balance is required."""


# ---------------------------------------------------------------------------
# phase-space fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseField:
    """Samples ``f(y_j, v_k)`` on a cell grid times a velocity set.

    ``values`` has shape ``(*grid.shape, K)``; the velocity index is last.
    """

    values: np.ndarray
    grid: CellGrid
    vm: VelocityMeasure

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expected = (*self.grid.shape, self.vm.n_nodes)
        if values.shape != expected:
            raise ValueError(f"field shape {values.shape} != grid x velocity {expected}")
        object.__setattr__(self, "values", values)

    def velocity_integral(self) -> np.ndarray:
        """``int f dmu`` at every grid point."""
        return self.vm.integrate(self.values, axis=-1)

    def mean_y(self) -> np.ndarray:
        """Cell average per velocity node, shape ``(K,)``."""
        axes = tuple(range(self.grid.dim))
        return self.values.mean(axis=axes)

    def mean_v_total(self) -> float:
        """``int M(f) dmu`` — cell average then velocity integral."""
        return float(self.vm.integrate(self.mean_y(), axis=-1))

    def norm(self) -> float:
        """Natural norm: sqrt( int M(f^2) dmu )."""
        axes = tuple(range(self.grid.dim))
        return float(np.sqrt(self.vm.integrate((self.values ** 2).mean(axis=axes), axis=-1)))

    def with_values(self, values: np.ndarray) -> "PhaseField":
        return PhaseField(values=values, grid=self.grid, vm=self.vm)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class ScatteringKernel:
    """Separable jump-rate kernel ``c(x) s(y) g(v, w)``.

    Use :func:`make_kernel` to construct one of the named families.  The
    kernel itself is velocity-set agnostic: the node factor ``g`` is either
    a scalar or a table whose shape is validated against the velocity set
    at call time.
    """

    #: profile kinds with an exact finite frequency content
    _SPECTRAL_KINDS = ("constant", "sinusoidal", "quasi_periodic", "quasi_approx")

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
        if kind in ("quasi_periodic", "quasi_approx", "sinusoidal_defect") and dim != 1:
            raise ValueError(f"{kind} profiles are one-dimensional")
        self.kind = kind
        self.base = float(base)
        self.alpha = float(alpha)
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        self.p = int(p)
        self.q = int(q)
        self.s0 = float(s0)
        self.table = None if table is None else np.asarray(table, dtype=float)
        self.defect_amplitude = float(defect_amplitude)
        self.defect_width = float(defect_width)
        self.x_dependence = x_dependence
        self.x_amplitude = float(x_amplitude)
        self.dim = int(dim)
        self._validate_positive()

    # -- construction checks -----------------------------------------------

    def _profile_min(self) -> float:
        if self.kind == "constant":
            return self.base
        if self.kind == "sinusoidal":
            return self.base - abs(self.alpha)
        if self.kind in ("quasi_periodic", "quasi_approx"):
            return self.base - abs(self.alpha1) - abs(self.alpha2)
        if self.kind == "sinusoidal_defect":
            return self.base - abs(self.alpha) - abs(self.defect_amplitude)
        raise AssertionError(self.kind)

    def _validate_positive(self) -> None:
        if self.kind == "quasi_approx" and (self.q < 1 or self.p < 1):
            raise ValueError("rational approximant needs positive integers p, q")
        if self.table is not None:
            if self.table.ndim != 2 or self.table.shape[0] != self.table.shape[1]:
                raise ValueError("node table must be square")
            if np.any(self.table <= 0):
                raise ValueError("node table must be strictly positive")
        elif self.s0 <= 0:
            raise ValueError("scalar node factor must be strictly positive")
        if self._profile_min() <= 0:
            raise ValueError("profile parameters allow nonpositive rates")
        if self.x_dependence == "tanh" and abs(self.x_amplitude) >= 1:
            raise ValueError("tanh modulation amplitude must satisfy |beta| < 1")

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
        """Closed-form profile ``s`` at arbitrary fast coordinates."""
        y = np.asarray(y, dtype=float)
        if self.kind == "constant":
            shape = y.shape if self.dim == 1 else y.shape[:-1]
            return np.full(shape, self.base)
        if self.kind == "sinusoidal":
            if self.dim == 1:
                return self.base + self.alpha * np.sin(2.0 * np.pi * y)
            return self.base + self.alpha * np.sin(2 * np.pi * y[..., 0]) * np.sin(2 * np.pi * y[..., 1])
        if self.kind == "quasi_periodic":
            return (
                self.base
                + self.alpha1 * np.cos(2.0 * np.pi * y)
                + self.alpha2 * np.cos(2.0 * ROOT2 * np.pi * y)
            )
        if self.kind == "quasi_approx":
            return (
                self.base
                + self.alpha1 * np.cos(2.0 * np.pi * y)
                + self.alpha2 * np.cos(2.0 * np.pi * (self.p / self.q) * y)
            )
        if self.kind == "sinusoidal_defect":
            bump = self.defect_amplitude * np.exp(-((y / self.defect_width) ** 2))
            return self.base + self.alpha * np.sin(2.0 * np.pi * y) + bump
        raise AssertionError(self.kind)

    @property
    def natural_period(self) -> float | None:
        """Smallest cell period that represents the profile exactly, if any."""
        if self.kind in ("constant", "sinusoidal", "sinusoidal_defect"):
            return 1.0
        if self.kind == "quasi_approx":
            return float(self.q)
        return None  # genuinely quasi-periodic

    def profile_frequencies(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact frequency content ``(freqs, coeffs)`` of the profile."""
        if self.kind not in self._SPECTRAL_KINDS:
            raise RepresentationError(f"{self.kind} profile has no finite spectrum")
        if self.kind == "constant":
            return np.array([0.0]), np.array([self.base + 0j])
        if self.kind == "sinusoidal":
            if self.dim != 1:
                raise RepresentationError("spectral profile factor is one-dimensional")
            w = 2.0 * np.pi
            return (
                np.array([0.0, w, -w]),
                np.array([self.base, self.alpha / 2j, -self.alpha / 2j], dtype=complex),
            )
        w2 = 2.0 * ROOT2 * np.pi if self.kind == "quasi_periodic" else 2.0 * np.pi * self.p / self.q
        w1 = 2.0 * np.pi
        return (
            np.array([0.0, w1, -w1, w2, -w2]),
            np.array(
                [self.base, self.alpha1 / 2, self.alpha1 / 2, self.alpha2 / 2, self.alpha2 / 2],
                dtype=complex,
            ),
        )

    def node_matrix(self, vm: VelocityMeasure) -> np.ndarray:
        """The ``(K, K)`` node factor ``g`` resolved against a velocity set."""
        if self.table is None:
            return np.full((vm.n_nodes, vm.n_nodes), self.s0)
        if self.table.shape != (vm.n_nodes, vm.n_nodes):
            raise ValueError(
                f"node table is {self.table.shape}, velocity set has {vm.n_nodes} nodes"
            )
        return self.table

    # -- sampling -------------------------------------------------------------

    def evaluate(self, x, y: np.ndarray, vm: VelocityMeasure) -> np.ndarray:
        """Pointwise rates ``sigma(x, y, v_k, v_l)``, shape ``(*y, K, K)``.

        Index ``k`` is the first velocity slot, ``l`` the second.  This is
        the closed form used by the kinetic reference along ``y = x/eps``.
        """
        s = self.profile_values(y)
        g = self.node_matrix(vm)
        c = self.x_factor(x)
        out = np.multiply.outer(s, g)
        return np.asarray(c)[..., None, None] * out if np.ndim(c) else float(c) * out

    def sample_cell(self, x, grid: CellGrid, vm: VelocityMeasure) -> np.ndarray:
        """Rates on a full cell grid, shape ``(*grid.shape, K, K)``."""
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
        y = pts[:, 0] if grid.dim == 1 else pts
        vals = self.evaluate(x, y, vm)
        return vals.reshape(*grid.shape, vm.n_nodes, vm.n_nodes)

    def mv_function(self, x, k: int, l: int, grid: CellGrid | None = None) -> MeanValueFunction:
        """The profile of ``sigma(x, . , v_k, v_l)`` as a mean-value function."""
        c = float(np.asarray(self.x_factor(x)))
        amp = c * float(self.node_matrix_entry(k, l))
        if grid is not None:
            if self.kind == "sinusoidal_defect":
                per = PeriodicGridFn.from_callable(
                    lambda yy: self.base + self.alpha * np.sin(2 * np.pi * yy),
                    grid.shape, dim=1, period=grid.period,
                ) * amp
                half = 8.0 * self.defect_width
                axis = np.linspace(-half, half, 1024)
                bump = amp * self.defect_amplitude * np.exp(-((axis / self.defect_width) ** 2))
                return AsymptoticPeriodicFn(per, axis, bump)
            if grid.dim == 1:
                prof = PeriodicGridFn.from_callable(
                    self.profile_values, grid.shape, dim=1, period=grid.period
                )
            else:
                prof = PeriodicGridFn.from_callable(
                    lambda y1, y2: self.profile_values(np.stack([y1, y2], axis=-1)),
                    grid.shape, dim=2, period=grid.period,
                )
            return prof * amp
        freqs, coeffs = self.profile_frequencies()
        return SpectralAPFn(freqs, coeffs * amp)

    def node_matrix_entry(self, k: int, l: int) -> float:
        if self.table is None:
            return self.s0
        return float(self.table[k, l])

    def sup_bound(self) -> float:
        """A sup bound for the rate over all arguments."""
        g_max = self.s0 if self.table is None else float(self.table.max())
        s_max = {
            "constant": self.base,
            "sinusoidal": self.base + abs(self.alpha),
            "quasi_periodic": self.base + abs(self.alpha1) + abs(self.alpha2),
            "quasi_approx": self.base + abs(self.alpha1) + abs(self.alpha2),
            "sinusoidal_defect": self.base + abs(self.alpha) + abs(self.defect_amplitude),
        }[self.kind]
        c_max = 1.0 + abs(self.x_amplitude)
        return c_max * s_max * g_max

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


def _sampled(kernel_or_array, x, grid: CellGrid, vm: VelocityMeasure) -> np.ndarray:
    if isinstance(kernel_or_array, ScatteringKernel):
        return kernel_or_array.sample_cell(x, grid, vm)
    arr = np.asarray(kernel_or_array, dtype=float)
    if arr.shape == (vm.n_nodes, vm.n_nodes):
        return np.broadcast_to(arr, (*grid.shape, vm.n_nodes, vm.n_nodes))
    if arr.shape != (*grid.shape, vm.n_nodes, vm.n_nodes):
        raise ValueError("sampled kernel has the wrong shape")
    return arr


def gain_loss(rates, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted gain block and loss rate of rates ``(..., K, K)``.

    Returns ``(rates * w, Sigma)``: the gain block ``sigma(., v_k, v_l) mu_l``
    and the loss ``Sigma(., v_k)``, its sum over the second slot ``l``.
    """
    gain = np.asarray(rates, dtype=float) * weights
    return gain, gain.sum(axis=-1)


def _swapped(kernel, x, grid: CellGrid, vm: VelocityMeasure) -> np.ndarray:
    return np.swapaxes(_sampled(kernel, x, grid, vm), -1, -2)


def absorption_rate(kernel, x, grid: CellGrid, vm: VelocityMeasure) -> np.ndarray:
    """Incoming rate ``int sigma(x, y, w, v) dmu(w)``, shape ``(*grid.shape, K)``.

    The *first* velocity slot is integrated: this is the loss rate of the
    slot-swapped kernel that defines ``Q*``.  It equals the loss rate of
    ``Q`` exactly when the kernel satisfies semi-detailed balance.
    """
    return gain_loss(_swapped(kernel, x, grid, vm), vm.weights)[1]


def apply_Q(kernel, x, f: PhaseField) -> PhaseField:
    """Jump operator: gain minus same-slot loss."""
    gain, loss = gain_loss(_sampled(kernel, x, f.grid, f.vm), f.vm.weights)
    return f.with_values(np.einsum("...kl,...l->...k", gain, f.values) - loss * f.values)


def apply_K(kernel, x, f: PhaseField) -> PhaseField:
    """Gain part only: ``int sigma(x, y, v, w) f(w) dmu(w)``."""
    gain, _ = gain_loss(_sampled(kernel, x, f.grid, f.vm), f.vm.weights)
    return f.with_values(np.einsum("...kl,...l->...k", gain, f.values))


def apply_Q_star(kernel, x, f: PhaseField) -> PhaseField:
    """Adjoint jump operator (kernel velocity slots swapped)."""
    return apply_Q(_swapped(kernel, x, f.grid, f.vm), x, f)


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
    is measured against the larger of the two.  For a separable kernel the
    node table alone decides, since the positive factor ``c(x) s(y)``
    cancels from the relative gap.
    """
    rates = np.asarray(rates, dtype=float)
    outgoing = np.tensordot(rates, weights, axes=([-1], [0]))
    incoming = np.tensordot(rates, weights, axes=([-2], [0]))
    gap = np.abs(outgoing - incoming)
    scale = np.maximum(np.maximum(np.abs(outgoing), np.abs(incoming)), 1e-300)
    return SdbReport(
        max_abs_gap=float(gap.max()),
        max_rel_gap=float((gap / scale).max()),
    )


def check_sdb(kernel, x, grid: CellGrid, vm: VelocityMeasure) -> SdbReport:
    """:func:`sdb_gap` of the kernel sampled on a cell grid."""
    return sdb_gap(_sampled(kernel, x, grid, vm), vm.weights)
