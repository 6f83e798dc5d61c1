import numpy as np
import pytest

from kinhom.mv_algebra import RepresentationError, SpectralAPFn

RT2 = np.sqrt(2.0)


def test_quasi_periodic_parseval():
    u = (
        SpectralAPFn.constant(1.0)
        + SpectralAPFn.cosine(2 * np.pi, 0.2)
        + SpectralAPFn.cosine(2 * RT2 * np.pi, 0.2)
    )
    # distinct frequencies are orthonormal: M(u^2) = 1 + 0.02 + 0.02
    assert abs(np.sqrt(np.sum(np.abs(u.coeffs) ** 2)) - np.sqrt(1.04)) < 1e-14
    assert u.mean() == 1.0


def test_incompatible_representations_raise():
    with pytest.raises(RepresentationError, match="dimension"):
        SpectralAPFn.constant(1.0) + SpectralAPFn.constant(1.0, dim=2)
    with pytest.raises(RepresentationError, match="cannot combine SpectralAPFn with ndarray"):
        SpectralAPFn.constant(1.0) + np.ones(8)


@pytest.mark.parametrize("w", [2 * np.pi, 2 * RT2 * np.pi, 2 * np.pi * 239 / 169])
def test_spectral_frequencies_are_stored_exactly(w):
    # merging by a rounded key must not round the stored frequency: the
    # phase error grows with y
    u = SpectralAPFn.cosine(w, 0.2)
    assert sorted(u.freqs[:, 0].tolist()) == [-w, w]
    y = np.array([1000.0])
    assert abs(u.evaluate(y)[0] - 0.2 * np.cos(w * y[0])) < 1e-12
    # a mirror the input lacks is the exact negative
    v = SpectralAPFn(np.array([w]), np.array([0.1 + 0j]))
    assert sorted(v.freqs[:, 0].tolist()) == [-w, w]


def test_spectral_evaluate_in_two_dimensions():
    w = 2 * np.pi
    freqs = np.array([[0.0, 0.0], [w, w], [-w, -w], [w, -w], [-w, w]])
    u = SpectralAPFn(freqs, np.array([1.0, -0.125, -0.125, 0.125, 0.125], dtype=complex))
    pts = np.random.default_rng(0).uniform(-3.0, 3.0, (4, 5, 2))
    expect = 1.0 + 0.5 * np.sin(w * pts[..., 0]) * np.sin(w * pts[..., 1])
    assert u.evaluate(pts).shape == (4, 5)
    assert np.allclose(u.evaluate(pts), expect, rtol=0, atol=1e-14)
