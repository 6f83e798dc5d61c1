"""Discrete function representations that carry a mean value.

Microstructure profiles enter the solvers in one of three interchangeable
forms:

``PeriodicGridFn``
    Uniform collocation samples of a periodic function.  The mean value is
    the plain grid average, which is exact (trapezoid == midpoint on a
    periodic grid) for trigonometric content below the Nyquist limit.

``SpectralAPFn``
    A finite trigonometric sum ``u(y) = sum_m c_m exp(i lam_m . y)`` with
    real frequencies that need not be commensurate.  Coefficients are stored
    with conjugate symmetry so samples are real.  The mean value is the
    coefficient at frequency zero.

``AsymptoticPeriodicFn``
    A periodic part plus a localized defect that vanishes at infinity.  The
    defect is invisible to the mean value and to seminorms but participates
    in pointwise evaluation.

All representations support the same algebra: addition, multiplication,
scaling, translation, differentiation in the fast variable, the mean value
``M(u)``, and the seminorm ``(M(|u|^p))**(1/p)`` for p in {1, 2}.  Mixing
representations in a binary operation raises ``RepresentationError``; the
only sanctioned cross-representation operation is :func:`mean_of_product`,
which matches frequencies explicitly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

__all__ = [
    "RepresentationError",
    "PeriodicGridFn",
    "SpectralAPFn",
    "AsymptoticPeriodicFn",
    "TruncationReport",
    "mean_value",
    "besicovitch_seminorm",
    "grad_y",
    "add",
    "multiply",
    "scale",
    "translate",
    "mean_of_product",
]

log = logging.getLogger(__name__)

#: Default cap on the number of modes a spectral product may keep.
DEFAULT_MAX_MODES = 1024

#: Frequencies closer than this (absolute) are treated as identical.
FREQ_TOL = 1e-9


class RepresentationError(ValueError):
    """Operands use incompatible discrete representations."""


# ---------------------------------------------------------------------------
# periodic grid representation
# ---------------------------------------------------------------------------


class PeriodicGridFn:
    """Periodic function sampled on a uniform grid.

    Parameters
    ----------
    values :
        Real samples, shape ``(n,)`` in one dimension or ``(n1, n2)`` in two.
        Sample ``j`` sits at ``y_j = j * period / n``.
    period :
        Period per dimension (scalar broadcasts).  Defaults to 1, i.e. the
        unit cell.
    """

    def __init__(self, values: np.ndarray, period: float | tuple[float, ...] = 1.0):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2):
            raise RepresentationError(f"grid functions are 1-D or 2-D, got ndim={values.ndim}")
        if np.isscalar(period):
            period = (float(period),) * values.ndim
        period = tuple(float(p) for p in period)
        if len(period) != values.ndim:
            raise RepresentationError("period length must match dimension")
        if any(p <= 0 for p in period):
            raise RepresentationError("periods must be positive")
        self.values = values
        self.period = period

    # -- basic geometry ------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(p / n for p, n in zip(self.period, self.shape))

    def axes(self) -> tuple[np.ndarray, ...]:
        """Sample coordinates along each axis."""
        return tuple(
            np.arange(n) * (p / n) for n, p in zip(self.shape, self.period)
        )

    def _check_compatible(self, other: "PeriodicGridFn") -> None:
        if not isinstance(other, PeriodicGridFn):
            raise RepresentationError(
                f"cannot combine PeriodicGridFn with {type(other).__name__}"
            )
        if other.shape != self.shape or any(
            abs(p - q) > FREQ_TOL for p, q in zip(other.period, self.period)
        ):
            raise RepresentationError("grid shape/period mismatch")

    # -- mean structure --------------------------------------------------

    def mean(self) -> float:
        return float(self.values.mean())

    def seminorm(self, p: int = 2) -> float:
        if p not in (1, 2):
            raise ValueError("seminorm supports p in {1, 2}")
        return float(np.mean(np.abs(self.values) ** p) ** (1.0 / p))

    # -- calculus ---------------------------------------------------------

    def _wavenumbers(self) -> tuple[np.ndarray, ...]:
        return tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=p / n)
            for n, p in zip(self.shape, self.period)
        )

    def grad(self, scheme: str = "spectral") -> tuple["PeriodicGridFn", ...]:
        """Partial derivatives along each fast direction.

        ``spectral`` differentiates in Fourier space (exact below Nyquist,
        Nyquist mode dropped); ``centered`` uses second-order differences.
        Either way the derivative has exactly zero mean.
        """
        if scheme == "spectral":
            fhat = np.fft.fftn(self.values)
            out = []
            for axis, k in enumerate(self._wavenumbers()):
                k = k.copy()
                n = self.shape[axis]
                if n % 2 == 0:
                    k[n // 2] = 0.0  # odd derivative of the Nyquist mode
                shape = [1] * self.dim
                shape[axis] = n
                dhat = fhat * (1j * k.reshape(shape))
                out.append(PeriodicGridFn(np.fft.ifftn(dhat).real, self.period))
            return tuple(out)
        if scheme == "centered":
            out = []
            for axis in range(self.dim):
                h = self.spacing[axis]
                d = (np.roll(self.values, -1, axis) - np.roll(self.values, 1, axis)) / (2 * h)
                out.append(PeriodicGridFn(d, self.period))
            return tuple(out)
        raise ValueError(f"unknown gradient scheme {scheme!r}")

    def translate(self, shift: float | tuple[float, ...]) -> "PeriodicGridFn":
        """Shifted samples of ``y -> u(y + shift)`` (exact below Nyquist)."""
        if np.isscalar(shift):
            shift = (float(shift),) * self.dim
        fhat = np.fft.fftn(self.values)
        for axis, k in enumerate(self._wavenumbers()):
            shape = [1] * self.dim
            shape[axis] = self.shape[axis]
            fhat = fhat * np.exp(1j * k * shift[axis]).reshape(shape)
        return PeriodicGridFn(np.fft.ifftn(fhat).real, self.period)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Periodic linear interpolation at arbitrary coordinates.

        ``points`` has shape ``(m,)`` in one dimension or ``(m, 2)`` in two.
        """
        from scipy import ndimage

        pts = np.asarray(points, dtype=float)
        if self.dim == 1:
            idx = (pts / self.spacing[0]) % self.shape[0]
            return ndimage.map_coordinates(self.values, [idx], order=1, mode="grid-wrap")
        idx = [
            (pts[..., axis] / self.spacing[axis]) % self.shape[axis]
            for axis in range(self.dim)
        ]
        return ndimage.map_coordinates(self.values, idx, order=1, mode="grid-wrap")

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if np.isscalar(other):
            return PeriodicGridFn(self.values + other, self.period)
        self._check_compatible(other)
        return PeriodicGridFn(self.values + other.values, self.period)

    __radd__ = __add__

    def __mul__(self, other):
        if np.isscalar(other):
            return PeriodicGridFn(self.values * other, self.period)
        self._check_compatible(other)
        return PeriodicGridFn(self.values * other.values, self.period)

    __rmul__ = __mul__

    def __neg__(self):
        return PeriodicGridFn(-self.values, self.period)

    def __sub__(self, other):
        return self + (-1.0) * other if not np.isscalar(other) else self + (-other)

    # -- serialization ----------------------------------------------------

    def to_rows(self) -> list[str]:
        """Flat decimal-text serialization (row-major)."""
        head = "grid " + " ".join(str(n) for n in self.shape)
        head += " period " + " ".join(f"{p:.17g}" for p in self.period)
        body = [f"{v:.17g}" for v in self.values.ravel(order="C")]
        return [head, *body]

    @classmethod
    def from_rows(cls, rows: list[str]) -> "PeriodicGridFn":
        head = rows[0].split()
        if head[0] != "grid":
            raise RepresentationError("not a grid serialization")
        ip = head.index("period")
        shape = tuple(int(t) for t in head[1:ip])
        period = tuple(float(t) for t in head[ip + 1:])
        values = np.array([float(r) for r in rows[1:]]).reshape(shape, order="C")
        return cls(values, period)

    @classmethod
    def from_callable(cls, fn, n, dim: int = 1, period: float | tuple[float, ...] = 1.0):
        """Sample ``fn`` on the uniform grid; ``fn`` maps coordinate arrays to values."""
        if np.isscalar(period):
            period = (float(period),) * dim
        if np.isscalar(n):
            n = (int(n),) * dim
        axes = [np.arange(ni) * (p / ni) for ni, p in zip(n, period)]
        if dim == 1:
            return cls(np.asarray(fn(axes[0]), dtype=float), period)
        yy = np.meshgrid(*axes, indexing="ij")
        return cls(np.asarray(fn(*yy), dtype=float), period)

    def __repr__(self) -> str:
        return f"PeriodicGridFn(shape={self.shape}, period={self.period})"


# ---------------------------------------------------------------------------
# almost-periodic spectral representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationReport:
    """What a capped spectral product threw away."""

    kept_modes: int
    dropped_modes: int
    dropped_l2: float


def _canonical_freq_key(freq: np.ndarray) -> tuple[float, ...]:
    # Round so that float sums of identical frequencies collapse to one key.
    return tuple(np.round(np.atleast_1d(freq) / FREQ_TOL).astype(np.int64) * FREQ_TOL)


class SpectralAPFn:
    """Finite trigonometric sum with arbitrary real frequencies.

    Parameters
    ----------
    freqs :
        Array of shape ``(m, dim)`` (a flat ``(m,)`` array is promoted to
        one dimension).  Frequencies are in radians per unit length.
    coeffs :
        Complex coefficients, shape ``(m,)``.  The constructor enforces
        conjugate symmetry, adding mirror frequencies as needed, so that
        pointwise samples are real.
    """

    def __init__(self, freqs: np.ndarray, coeffs: np.ndarray):
        freqs = np.asarray(freqs, dtype=float)
        if freqs.ndim == 1:
            freqs = freqs[:, None]
        coeffs = np.asarray(coeffs, dtype=complex)
        if freqs.shape[0] != coeffs.shape[0]:
            raise RepresentationError("freqs and coeffs lengths differ")

        # Merge by rounded key, but store each key's first exact frequency:
        # the key itself is off by up to FREQ_TOL / 2, which a phase
        # ``lam * y`` grows with ``y``.
        merged: dict[tuple[float, ...], complex] = {}
        exact: dict[tuple[float, ...], np.ndarray] = {}
        for lam, c in zip(freqs, coeffs):
            key = _canonical_freq_key(lam)
            merged[key] = merged.get(key, 0j) + c
            exact.setdefault(key, lam)
        # Hermitian symmetrization: pair lam with -lam.
        sym: dict[tuple[float, ...], complex] = {}
        for key, c in merged.items():
            mirror = tuple(-k for k in key)
            cm = merged.get(mirror, 0j)
            sym[key] = 0.5 * (c + np.conj(cm))
            sym[mirror] = 0.5 * (cm + np.conj(c))
            exact.setdefault(mirror, 0.0 - exact[key])
        keys = sorted(sym.keys())
        self.freqs = np.array([exact[k] for k in keys]).reshape(len(keys), freqs.shape[1])
        self.coeffs = np.array([sym[k] for k in keys], dtype=complex)
        self.truncation: TruncationReport | None = None

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    @property
    def n_modes(self) -> int:
        return self.freqs.shape[0]

    def _zero_index(self) -> int | None:
        hit = np.flatnonzero(np.all(np.abs(self.freqs) < FREQ_TOL, axis=1))
        return int(hit[0]) if hit.size else None

    # -- mean structure ---------------------------------------------------

    def mean(self) -> float:
        i = self._zero_index()
        return float(self.coeffs[i].real) if i is not None else 0.0

    def seminorm(self, p: int = 2) -> float:
        if p == 2:
            # Distinct real frequencies are orthonormal under the mean, so
            # the quadratic seminorm is exactly the coefficient l2 norm.
            return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))
        if p == 1:
            period, n = self._commensurate_sampling()
            y = np.linspace(0.0, period, n, endpoint=False)
            if self.dim == 1:
                samples = self.evaluate(y)
            else:
                # sample along a generic line through the torus
                direction = np.arange(1, self.dim + 1, dtype=float)
                pts = y[:, None] * direction[None, :]
                samples = self.evaluate(pts)
            return float(np.mean(np.abs(samples)))
        raise ValueError("seminorm supports p in {1, 2}")

    def _commensurate_sampling(self, max_den: int = 4000) -> tuple[float, int]:
        """Common approximate period of the frequency module and a sample count."""
        rates = []
        for lam in self.freqs:
            for comp in np.atleast_1d(lam):
                if abs(comp) > FREQ_TOL:
                    rates.append(abs(comp) / (2.0 * np.pi))
        if not rates:
            return 1.0, 64
        fracs = [Fraction(r).limit_denominator(max_den) for r in rates]
        q = 1
        for f in fracs:
            q = lcm(q, f.denominator)
            if q > 200_000:
                q = 200_000
                break
        period = float(q)
        max_rate = max(rates)
        n = int(min(max(4096, 16 * np.ceil(max_rate * period)), 2 ** 21))
        return period, n

    # -- calculus ---------------------------------------------------------

    def grad(self, scheme: str = "spectral") -> tuple["SpectralAPFn", ...]:
        del scheme  # differentiation is exact in this representation
        return tuple(
            SpectralAPFn(self.freqs, self.coeffs * (1j * self.freqs[:, axis]))
            for axis in range(self.dim)
        )

    def translate(self, shift: float | tuple[float, ...]) -> "SpectralAPFn":
        if np.isscalar(shift):
            shift = (float(shift),) * self.dim
        phase = np.exp(1j * self.freqs @ np.asarray(shift, dtype=float))
        return SpectralAPFn(self.freqs, self.coeffs * phase)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        # real phase first: complex points would make the product a complex matmul
        if self.dim == 1:
            phases = np.exp(1j * (np.atleast_1d(pts)[:, None] * self.freqs[:, 0][None, :]))
        else:
            phases = np.exp(1j * (pts.reshape(-1, self.dim) @ self.freqs.T))
        vals = (phases @ self.coeffs).real
        return vals.reshape(np.shape(pts) if self.dim == 1 else np.shape(pts)[:-1])

    # -- algebra ----------------------------------------------------------

    def _check_compatible(self, other: "SpectralAPFn") -> None:
        if not isinstance(other, SpectralAPFn):
            raise RepresentationError(
                f"cannot combine SpectralAPFn with {type(other).__name__}"
            )
        if other.dim != self.dim:
            raise RepresentationError("spectral dimension mismatch")

    def __add__(self, other):
        if np.isscalar(other):
            other = SpectralAPFn(np.zeros((1, self.dim)), np.array([other + 0j]))
        self._check_compatible(other)
        return SpectralAPFn(
            np.vstack([self.freqs, other.freqs]),
            np.concatenate([self.coeffs, other.coeffs]),
        )

    __radd__ = __add__

    def __mul__(self, other):
        if np.isscalar(other):
            return SpectralAPFn(self.freqs, self.coeffs * other)
        return self.multiply(other)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralAPFn(self.freqs, -self.coeffs)

    def __sub__(self, other):
        return self + (-other) if not np.isscalar(other) else self + (-other)

    def multiply(self, other: "SpectralAPFn", max_modes: int | None = None) -> "SpectralAPFn":
        """Pointwise product; the frequency set is the sumset of the factors.

        If the product exceeds ``max_modes`` frequencies the smallest
        coefficients are dropped and the discarded l2 weight is recorded on
        the result (``.truncation``) and logged.
        """
        self._check_compatible(other)
        cap = DEFAULT_MAX_MODES if max_modes is None else int(max_modes)
        sums = self.freqs[:, None, :] + other.freqs[None, :, :]
        prods = self.coeffs[:, None] * other.coeffs[None, :]
        out = SpectralAPFn(sums.reshape(-1, self.dim), prods.ravel())
        if out.n_modes > cap:
            # keep conjugate pairs together, or re-symmetrization in the
            # constructor would push the result back over the cap
            order = np.argsort(np.abs(out.coeffs))[::-1]
            index_of = {_canonical_freq_key(f): i for i, f in enumerate(out.freqs)}
            chosen: set[int] = set()
            for i in order:
                if i in chosen:
                    continue
                mirror = index_of.get(tuple(-k for k in _canonical_freq_key(out.freqs[i])), i)
                need = 1 if mirror == i else 2
                if len(chosen) + need > cap:
                    continue  # a smaller mode may still fit
                chosen.add(i)
                chosen.add(mirror)
            keep = np.sort(np.fromiter(chosen, dtype=int, count=len(chosen)))
            dropped = np.setdiff1d(np.arange(out.n_modes), keep)
            report = TruncationReport(
                kept_modes=int(keep.size),
                dropped_modes=int(dropped.size),
                dropped_l2=float(np.sqrt(np.sum(np.abs(out.coeffs[dropped]) ** 2))),
            )
            log.warning(
                "spectral product truncated: kept %d modes, dropped %d (l2 weight %.3e)",
                report.kept_modes, report.dropped_modes, report.dropped_l2,
            )
            out = SpectralAPFn(out.freqs[keep], out.coeffs[keep])
            out.truncation = report
        return out

    # -- serialization ----------------------------------------------------

    def to_rows(self) -> list[str]:
        """(frequency vector, re, im) triples in decimal text."""
        rows = [f"spectral {self.dim}"]
        for lam, c in zip(self.freqs, self.coeffs):
            freq_txt = " ".join(f"{f:.17g}" for f in lam)
            rows.append(f"{freq_txt} {c.real:.17g} {c.imag:.17g}")
        return rows

    @classmethod
    def from_rows(cls, rows: list[str]) -> "SpectralAPFn":
        head = rows[0].split()
        if head[0] != "spectral":
            raise RepresentationError("not a spectral serialization")
        dim = int(head[1])
        freqs, coeffs = [], []
        for row in rows[1:]:
            parts = [float(t) for t in row.split()]
            freqs.append(parts[:dim])
            coeffs.append(complex(parts[dim], parts[dim + 1]))
        return cls(np.array(freqs), np.array(coeffs))

    @classmethod
    def constant(cls, value: float, dim: int = 1) -> "SpectralAPFn":
        return cls(np.zeros((1, dim)), np.array([value + 0j]))

    @classmethod
    def cosine(cls, freq: float, amplitude: float = 1.0) -> "SpectralAPFn":
        """amplitude * cos(freq * y) in one dimension."""
        return cls(np.array([[freq], [-freq]]), np.array([amplitude / 2 + 0j] * 2))

    @classmethod
    def sine(cls, freq: float, amplitude: float = 1.0) -> "SpectralAPFn":
        return cls(
            np.array([[freq], [-freq]]),
            np.array([amplitude / 2j, -amplitude / 2j]),
        )

    def __repr__(self) -> str:
        return f"SpectralAPFn(n_modes={self.n_modes}, dim={self.dim})"


# ---------------------------------------------------------------------------
# periodic + vanishing defect representation
# ---------------------------------------------------------------------------


class AsymptoticPeriodicFn:
    """Periodic background plus a localized defect that dies out at infinity.

    The defect lives on a truncated uniform window (1-D) and is taken to be
    zero outside it.  It contributes nothing to the mean value or seminorms;
    it matters only for pointwise evaluation, e.g. when a kernel is sampled
    along the ray ``y = x / eps``.
    """

    def __init__(
        self,
        periodic: PeriodicGridFn,
        defect_axis: np.ndarray,
        defect_values: np.ndarray,
    ):
        if periodic.dim != 1:
            raise RepresentationError("defect representation is one-dimensional")
        defect_axis = np.asarray(defect_axis, dtype=float)
        defect_values = np.asarray(defect_values, dtype=float)
        if defect_axis.shape != defect_values.shape or defect_axis.ndim != 1:
            raise RepresentationError("defect axis/values mismatch")
        if defect_axis.size >= 2 and not np.all(np.diff(defect_axis) > 0):
            raise RepresentationError("defect axis must be increasing")
        self.periodic = periodic
        self.defect_axis = defect_axis
        self.defect_values = defect_values

    @property
    def dim(self) -> int:
        return 1

    def _check_compatible(self, other: "AsymptoticPeriodicFn") -> None:
        if not isinstance(other, AsymptoticPeriodicFn):
            raise RepresentationError(
                f"cannot combine AsymptoticPeriodicFn with {type(other).__name__}"
            )
        self.periodic._check_compatible(other.periodic)
        if (
            other.defect_axis.shape != self.defect_axis.shape
            or np.max(np.abs(other.defect_axis - self.defect_axis)) > FREQ_TOL
        ):
            raise RepresentationError("defect windows differ")

    def _periodic_on_defect(self) -> np.ndarray:
        return self.periodic.evaluate(self.defect_axis)

    # -- mean structure ---------------------------------------------------

    def mean(self) -> float:
        return self.periodic.mean()

    def seminorm(self, p: int = 2) -> float:
        return self.periodic.seminorm(p)

    # -- calculus ---------------------------------------------------------

    def grad(self, scheme: str = "spectral") -> tuple["AsymptoticPeriodicFn", ...]:
        (dper,) = self.periodic.grad(scheme)
        if self.defect_axis.size >= 2:
            ddef = np.gradient(self.defect_values, self.defect_axis)
        else:
            ddef = np.zeros_like(self.defect_values)
        return (AsymptoticPeriodicFn(dper, self.defect_axis, ddef),)

    def translate(self, shift: float) -> "AsymptoticPeriodicFn":
        shifted = np.interp(
            self.defect_axis + float(shift),
            self.defect_axis,
            self.defect_values,
            left=0.0,
            right=0.0,
        )
        return AsymptoticPeriodicFn(self.periodic.translate(shift), self.defect_axis, shifted)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        base = self.periodic.evaluate(pts)
        bump = np.interp(pts, self.defect_axis, self.defect_values, left=0.0, right=0.0)
        return base + bump

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if np.isscalar(other):
            return AsymptoticPeriodicFn(
                self.periodic + other, self.defect_axis, self.defect_values
            )
        self._check_compatible(other)
        return AsymptoticPeriodicFn(
            self.periodic + other.periodic,
            self.defect_axis,
            self.defect_values + other.defect_values,
        )

    __radd__ = __add__

    def __mul__(self, other):
        if np.isscalar(other):
            return AsymptoticPeriodicFn(
                self.periodic * other, self.defect_axis, self.defect_values * other
            )
        self._check_compatible(other)
        # (p1 + d1)(p2 + d2) = p1 p2 + (p1 d2 + d1 p2 + d1 d2); every term
        # after the first decays, so it stays in the defect slot.
        p1 = self._periodic_on_defect()
        p2 = other._periodic_on_defect()
        cross = p1 * other.defect_values + self.defect_values * p2
        cross += self.defect_values * other.defect_values
        return AsymptoticPeriodicFn(
            self.periodic * other.periodic, self.defect_axis, cross
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-1.0) * other if not np.isscalar(other) else self + (-other)

    def __repr__(self) -> str:
        return (
            f"AsymptoticPeriodicFn(periodic={self.periodic!r}, "
            f"window=[{self.defect_axis[0]:g}, {self.defect_axis[-1]:g}])"
        )


MeanValueFunction = PeriodicGridFn | SpectralAPFn | AsymptoticPeriodicFn


# ---------------------------------------------------------------------------
# functional front door
# ---------------------------------------------------------------------------


def _require_mv(u) -> None:
    if not isinstance(u, (PeriodicGridFn, SpectralAPFn, AsymptoticPeriodicFn)):
        raise RepresentationError(f"{type(u).__name__} is not a mean-value function")


def mean_value(u: MeanValueFunction) -> float:
    """The averaging functional M(u)."""
    _require_mv(u)
    return u.mean()


def besicovitch_seminorm(u: MeanValueFunction, p: int = 2) -> float:
    """``(M(|u|^p))**(1/p)`` for p in {1, 2}."""
    _require_mv(u)
    return u.seminorm(p)


def grad_y(u: MeanValueFunction, scheme: str = "spectral"):
    """Tuple of partial derivatives in the fast variable."""
    _require_mv(u)
    return u.grad(scheme)


def add(u: MeanValueFunction, w: MeanValueFunction) -> MeanValueFunction:
    _require_mv(u)
    return u + w


def multiply(u: MeanValueFunction, w, max_modes: int | None = None) -> MeanValueFunction:
    _require_mv(u)
    if isinstance(u, SpectralAPFn) and isinstance(w, SpectralAPFn):
        return u.multiply(w, max_modes=max_modes)
    return u * w


def scale(u: MeanValueFunction, c: float) -> MeanValueFunction:
    _require_mv(u)
    return u * float(c)


def translate(u: MeanValueFunction, shift) -> MeanValueFunction:
    """``y -> u(y + shift)``; the mean value is invariant."""
    _require_mv(u)
    return u.translate(shift)


def mean_of_product(u: MeanValueFunction, w: MeanValueFunction) -> float:
    """``M(u * w)`` allowing mixed representations.

    Same-representation arguments multiply natively.  A periodic grid
    function against a spectral function is resolved by matching the grid's
    Fourier modes against the spectral frequencies: only shared frequencies
    contribute to the mean of the product.
    """
    _require_mv(u)
    _require_mv(w)
    if isinstance(u, SpectralAPFn) ^ isinstance(w, SpectralAPFn):
        spec = u if isinstance(u, SpectralAPFn) else w
        grid = w if isinstance(u, SpectralAPFn) else u
        if isinstance(grid, AsymptoticPeriodicFn):
            grid = grid.periodic  # defect has no mean
        if not isinstance(grid, PeriodicGridFn) or grid.dim != spec.dim:
            raise RepresentationError("mixed mean requires a matching periodic grid")
        fhat = np.fft.fftn(grid.values) / grid.values.size
        kaxes = grid._wavenumbers()
        total = 0.0
        for lam, c in zip(spec.freqs, spec.coeffs):
            idx = []
            ok = True
            for axis, k in enumerate(kaxes):
                hit = np.flatnonzero(np.abs(k - (-lam[axis])) < FREQ_TOL)
                if hit.size == 0:
                    ok = False
                    break
                idx.append(int(hit[0]))
            if ok:
                # M(u w) picks u-hat at -lam against w-hat at lam
                total += (fhat[tuple(idx)] * c).real
        return float(total)
    return mean_value(multiply(u, w))
