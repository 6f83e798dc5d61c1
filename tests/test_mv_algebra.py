import numpy as np
import pytest

from kinhom.mv_algebra import (
    AsymptoticPeriodicFn,
    PeriodicGridFn,
    RepresentationError,
    SpectralAPFn,
    besicovitch_seminorm,
    grad_y,
    mean_of_product,
    mean_value,
    multiply,
    translate,
)

RT2 = np.sqrt(2.0)


def test_grid_mean_exact_for_trig_polynomial():
    # the grid average integrates resolved trig modes exactly
    u = PeriodicGridFn.from_callable(lambda y: 2.0 + 0.7 * np.cos(2 * np.pi * 3 * y), 64)
    assert abs(mean_value(u) - 2.0) < 1e-14


def test_cosine_seminorm_matches_quadrature():
    # closed form: M(cos^2) = 1/2, so the 2-seminorm is 1/sqrt(2);
    # cross-check with a fine trapezoid quadrature as an independent oracle
    grid = PeriodicGridFn.from_callable(lambda y: np.cos(2 * np.pi * y), 128)
    spec = SpectralAPFn.cosine(2 * np.pi)
    y = np.linspace(0.0, 1.0, 20001)
    quad = np.sqrt(np.trapezoid(np.cos(2 * np.pi * y) ** 2, y))
    assert abs(besicovitch_seminorm(grid) - 1 / RT2) < 1e-14
    assert abs(besicovitch_seminorm(spec) - 1 / RT2) < 1e-14
    assert abs(quad - 1 / RT2) < 1e-6


def test_seminorm_p1_of_cosine():
    # M(|cos|) = 2/pi
    spec = SpectralAPFn.cosine(2 * np.pi)
    assert abs(besicovitch_seminorm(spec, p=1) - 2 / np.pi) < 1e-3


def test_mean_translation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = rng.standard_normal(4)
        u = PeriodicGridFn.from_callable(
            lambda y: coeffs[0]
            + coeffs[1] * np.cos(2 * np.pi * y)
            + coeffs[2] * np.sin(4 * np.pi * y)
            + coeffs[3] * np.cos(6 * np.pi * y),
            64,
        )
        s = float(rng.uniform(-2, 2))
        assert abs(mean_value(translate(u, s)) - mean_value(u)) < 1e-12
        v = SpectralAPFn(
            np.array([0.0, 2 * np.pi, 2 * RT2 * np.pi]),
            np.array([coeffs[0], coeffs[1], coeffs[2]], dtype=complex),
        )
        assert abs(mean_value(translate(v, s)) - mean_value(v)) < 1e-12


def test_spectral_product_frequency_sumset():
    a = SpectralAPFn.cosine(2 * np.pi, 1.0)
    b = SpectralAPFn.cosine(2 * RT2 * np.pi, 1.0)
    prod = multiply(a, b)
    # cos(u)cos(w) has modes at u+w and u-w only; incommensurate -> mean 0
    assert abs(mean_value(prod)) < 1e-14
    same = multiply(a, a)
    assert abs(mean_value(same) - 0.5) < 1e-14


def test_quasi_periodic_parseval():
    u = (
        SpectralAPFn.constant(1.0)
        + SpectralAPFn.cosine(2 * np.pi, 0.2)
        + SpectralAPFn.cosine(2 * RT2 * np.pi, 0.2)
    )
    # distinct frequencies are orthonormal: M(u^2) = 1 + 0.02 + 0.02
    assert abs(besicovitch_seminorm(u) - np.sqrt(1.04)) < 1e-14


def test_gradient_has_zero_mean_and_exact_derivative():
    u = PeriodicGridFn.from_callable(lambda y: np.sin(2 * np.pi * y), 64)
    (du,) = grad_y(u)
    y = u.axes()[0]
    assert np.max(np.abs(du.values - 2 * np.pi * np.cos(2 * np.pi * y))) < 1e-12
    assert abs(mean_value(du)) < 1e-13

    v = SpectralAPFn.sine(3.0, 2.0)
    (dv,) = grad_y(v)
    pts = np.linspace(0, 5, 50)
    assert np.max(np.abs(dv.evaluate(pts) - 6.0 * np.cos(3.0 * pts))) < 1e-12


def test_grad_centered_second_order():
    errs = []
    for n in (32, 64):
        u = PeriodicGridFn.from_callable(lambda y: np.sin(2 * np.pi * y), n)
        (du,) = u.grad(scheme="centered")
        y = u.axes()[0]
        errs.append(np.max(np.abs(du.values - 2 * np.pi * np.cos(2 * np.pi * y))))
    assert errs[0] / errs[1] > 3.5  # ~4x per halving


def test_mixed_mean_of_product():
    grid = PeriodicGridFn.from_callable(lambda y: np.cos(2 * np.pi * 2 * y), 64)
    spec_same = SpectralAPFn.cosine(4 * np.pi)
    spec_other = SpectralAPFn.cosine(2 * RT2 * np.pi)
    assert abs(mean_of_product(grid, spec_same) - 0.5) < 1e-13
    assert abs(mean_of_product(grid, spec_other)) < 1e-13


def test_incompatible_representations_raise():
    grid = PeriodicGridFn(np.ones(8))
    spec = SpectralAPFn.constant(1.0)
    with pytest.raises(RepresentationError):
        multiply(grid, spec)
    with pytest.raises(RepresentationError):
        grid + PeriodicGridFn(np.ones(16))


def test_translate_grid_matches_resampling():
    u = PeriodicGridFn.from_callable(lambda y: np.cos(2 * np.pi * y) + np.sin(4 * np.pi * y), 64)
    shifted = u.translate(0.3)
    y = u.axes()[0]
    exact = np.cos(2 * np.pi * (y + 0.3)) + np.sin(4 * np.pi * (y + 0.3))
    assert np.max(np.abs(shifted.values - exact)) < 1e-12


def test_defect_invisible_to_mean_but_not_pointwise():
    base = PeriodicGridFn.from_callable(lambda y: 1.0 + 0.5 * np.sin(2 * np.pi * y), 64)
    axis = np.linspace(-4, 4, 161)
    bump = 0.3 * np.exp(-(axis**2) / 0.5)
    u = AsymptoticPeriodicFn(base, axis, bump)
    assert abs(mean_value(u) - 1.0) < 1e-14
    assert abs(besicovitch_seminorm(u) - base.seminorm()) < 1e-14
    # at the bump center the defect contributes
    assert abs(u.evaluate(np.array([0.0]))[0] - (base.evaluate(np.array([0.0]))[0] + 0.3)) < 1e-2
    # far away it is gone
    assert abs(u.evaluate(np.array([100.0]))[0] - base.evaluate(np.array([100.0]))[0]) < 1e-12


def test_defect_product_stays_localized():
    base = PeriodicGridFn.from_callable(lambda y: np.full_like(y, 2.0), 16)
    axis = np.linspace(-2, 2, 81)
    bump = np.exp(-(axis**2))
    u = AsymptoticPeriodicFn(base, axis, bump)
    w = u * u
    assert abs(mean_value(w) - 4.0) < 1e-14
    # (2 + b)^2 = 4 + 4b + b^2 at the center: 4 + 4 + 1
    assert abs(w.evaluate(np.array([0.0]))[0] - 9.0) < 1e-10


def test_serialization_round_trip():
    u = PeriodicGridFn.from_callable(lambda y: np.sin(2 * np.pi * y), 16)
    v = PeriodicGridFn.from_rows(u.to_rows())
    assert np.array_equal(u.values, v.values) and u.period == v.period

    s = SpectralAPFn.cosine(2 * RT2 * np.pi, 0.7) + SpectralAPFn.constant(1.5)
    t = SpectralAPFn.from_rows(s.to_rows())
    assert np.allclose(s.freqs, t.freqs) and np.allclose(s.coeffs, t.coeffs)


def test_spectral_product_truncation_reports_dropped_weight():
    rng = np.random.default_rng(3)
    freqs = rng.uniform(0.5, 40.0, 40)
    u = SpectralAPFn(freqs, rng.standard_normal(40) + 0j)
    prod = u.multiply(u, max_modes=50)
    assert prod.n_modes <= 50
    assert prod.truncation is not None
    assert prod.truncation.dropped_modes > 0
    assert prod.truncation.dropped_l2 > 0


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
