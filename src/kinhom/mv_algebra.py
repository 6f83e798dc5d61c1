"""Discrete functions that carry a mean value.

The homogenized limit sees a microstructure profile only through mean-value
quantities.  ``SpectralAPFn`` carries them: a finite trigonometric sum
``u(y) = sum_m c_m exp(i lam_m . y)`` with real frequencies that need not
be commensurate.  Coefficients are stored with conjugate symmetry so
samples are real.  The mean value is the coefficient at frequency zero.
Every scattering kernel carries its periodic or quasi-periodic profile in
this form (``ScatteringKernel.profile``); the cell operators sample it on
their grids and hold fields as flat sample arrays.

Operands that do not fit together raise ``RepresentationError``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RepresentationError",
    "SpectralAPFn",
]

#: Frequencies closer than this (absolute) are treated as identical.
FREQ_TOL = 1e-9


class RepresentationError(ValueError):
    """Operands use incompatible discrete representations."""


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

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    def mean(self) -> float:
        hit = np.flatnonzero(np.all(np.abs(self.freqs) < FREQ_TOL, axis=1))
        return float(self.coeffs[hit[0]].real) if hit.size else 0.0

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        # real phase first: complex points would make the product a complex matmul
        if self.dim == 1:
            phases = np.exp(1j * (np.atleast_1d(pts)[:, None] * self.freqs[:, 0][None, :]))
        else:
            phases = np.exp(1j * (pts.reshape(-1, self.dim) @ self.freqs.T))
        vals = (phases @ self.coeffs).real
        return vals.reshape(np.shape(pts) if self.dim == 1 else np.shape(pts)[:-1])

    def __add__(self, other: "SpectralAPFn") -> "SpectralAPFn":
        if not isinstance(other, SpectralAPFn):
            raise RepresentationError(
                f"cannot combine SpectralAPFn with {type(other).__name__}"
            )
        if other.dim != self.dim:
            raise RepresentationError("spectral dimension mismatch")
        return SpectralAPFn(
            np.vstack([self.freqs, other.freqs]),
            np.concatenate([self.coeffs, other.coeffs]),
        )

    @classmethod
    def constant(cls, value: float, dim: int = 1) -> "SpectralAPFn":
        return cls(np.zeros((1, dim)), np.array([value + 0j]))

    @classmethod
    def cosine(cls, freq: float, amplitude: float = 1.0) -> "SpectralAPFn":
        """amplitude * cos(freq * y) in one dimension."""
        return cls(np.array([[freq], [-freq]]), np.array([amplitude / 2 + 0j] * 2))

    @classmethod
    def sine(cls, freq: float, amplitude: float = 1.0) -> "SpectralAPFn":
        """amplitude * sin(freq * y) in one dimension."""
        return cls(
            np.array([[freq], [-freq]]),
            np.array([amplitude / 2j, -amplitude / 2j]),
        )

    def __repr__(self) -> str:
        return f"SpectralAPFn(n_modes={self.freqs.shape[0]}, dim={self.dim})"
