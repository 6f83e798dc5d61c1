"""Homogenized coefficients: closed forms, gates, covariance, sampling."""

import gc
import re
import weakref

import numpy as np
import pytest

from kinhom import effective
from kinhom.cell_solver import assemble, equilibrium_F, solve_chi_star
from kinhom.collision import make_kernel
from kinhom.effective import (
    EllipticityError,
    assemble_effective,
    diffusion_matrix,
    ellipticity_gate,
    solve_cell,
)
from kinhom.phase_space import CellGrid, two_velocity_1d, uniform_circle

VM = two_velocity_1d()
GRID = CellGrid((32,))
CONSTANT = make_kernel("constant", s0=1.0)
SINUSOIDAL = make_kernel("sinusoidal", base=1.0, alpha=0.5)


def test_constant_kernel_coefficients():
    # sigma = 1, weights (1, 1): D = 1/2, no drift, no equilibrium flux
    eff = assemble_effective(CONSTANT, VM, grid=GRID)
    assert eff.constant
    assert abs(eff.D[0, 0] - 0.5) < 1e-10
    assert abs(eff.U[0]) < 1e-12
    assert abs(eff.flux[0]) < 1e-12
    assert eff.residual < 1e-9


def test_pairing_and_divergence_form_conventions():
    op = assemble(CONSTANT, 0.0, VM, GRID, scheme="upwind")
    _, F = equilibrium_F(op)
    chi = solve_chi_star(op, F).chi
    raw = diffusion_matrix(op, chi, F, convention="pairing")
    eff = diffusion_matrix(op, chi, F, convention="effective")
    assert abs(raw[0, 0] + 0.5) < 1e-10
    assert np.max(np.abs(eff + raw)) < 1e-15
    with pytest.raises(ValueError):
        diffusion_matrix(op, chi, F, convention="symmetrized")


def test_ellipticity_gate():
    assert ellipticity_gate(np.array([[0.5]])) == pytest.approx(0.5)
    # the antisymmetric part never enters the verdict
    skew = np.array([[1.0, 0.4], [-0.4, 1.0]])
    assert ellipticity_gate(skew) == pytest.approx(1.0)
    # a tiny negative eigenvalue inside the tolerance is reported, not fatal
    assert ellipticity_gate(np.diag([1.0, -1e-12])) == pytest.approx(-1e-12)
    with pytest.raises(EllipticityError):
        ellipticity_gate(np.diag([1.0, -0.1]))


def test_diffusion_scales_inversely_with_kernel_strength():
    # Exact only for cell-constant rates: the corrector is then flat and the
    # transport term inert, so D(c sigma) = D(sigma) / c.  (An oscillating
    # kernel rebalances transport against collisions and breaks this.)
    c = 3.7
    base = assemble_effective(CONSTANT, VM, grid=GRID)
    scaled = assemble_effective(make_kernel("constant", s0=c), VM, grid=GRID)
    assert abs(scaled.D[0, 0] - base.D[0, 0] / c) < 1e-10
    assert abs(scaled.flux[0]) < 1e-12


def test_diffusion_is_gauge_invariant_when_flux_vanishes():
    op = assemble(SINUSOIDAL, 0.0, VM, GRID, scheme="upwind")
    _, F = equilibrium_F(op)
    star = solve_chi_star(op, F)
    chi, b = star.chi, star.b
    assert abs(b[0]) < 1e-12
    D = diffusion_matrix(op, chi, F)
    shifted = [op.wrap(op.unwrap(chi[0]) + 0.3 * op.const)]
    D_shift = diffusion_matrix(op, shifted, F)
    assert np.max(np.abs(D_shift - D)) < 1e-12


def test_asymmetric_weights_closed_forms():
    # weights (1, 2) on nodes (-1, +1), sigma = 1: mu(V) = 3, F = 1/3,
    # flux b = 1/3, and D = -(1/3) sum w a (-(a - b)/3) = 8/27.
    vm = two_velocity_1d(weights=(1.0, 2.0))
    eff = assemble_effective(CONSTANT, vm, grid=GRID)
    assert abs(eff.flux[0] - 1.0 / 3.0) < 1e-10
    assert abs(eff.D[0, 0] - 8.0 / 27.0) < 1e-10
    assert abs(eff.U[0]) < 1e-12


def test_circle_velocity_set_gives_isotropic_tensor():
    vm = uniform_circle(8, speed=1.3)
    kernel = make_kernel("constant", s0=1.0, dim=2)
    eff = assemble_effective(kernel, vm, grid=CellGrid((8, 8)))
    expected = 1.3**2 / (4.0 * np.pi)
    assert np.max(np.abs(eff.D - expected * np.eye(2))) < 1e-10
    assert np.max(np.abs(eff.U)) < 1e-12
    assert ellipticity_gate(eff.D) > 0.0


def test_slow_modulation_sampled_coefficients():
    # sigma(x, y) = (1 + 0.4 tanh x): D(x) = 1 / (2 (1 + 0.4 tanh x)), U = 0
    kernel = make_kernel("constant", s0=1.0, x_dependence="tanh", x_amplitude=0.4)
    x = np.linspace(-2.0, 2.0, 21)
    eff = assemble_effective(kernel, VM, x=x, grid=CellGrid((16,)))
    assert not eff.constant
    expected = 1.0 / (2.0 * (1.0 + 0.4 * np.tanh(x)))
    assert np.max(np.abs(eff.D[:, 0, 0] - expected)) < 1e-8
    # the equilibrium never depends on x, so the sampled drift is exactly zero
    assert np.max(np.abs(eff.U)) < 1e-12
    assert np.max(np.abs(eff.flux)) < 1e-12


def test_grid_backend_requires_a_grid():
    with pytest.raises(ValueError):
        assemble_effective(CONSTANT, VM)


def _same_coefficients(a, b):
    assert (a.x is None) == (b.x is None)
    for name in ("D", "U", "flux"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.residual == b.residual and a.bound_constant == b.bound_constant


@pytest.mark.parametrize("kernel, x", [
    (SINUSOIDAL, None),
    (SINUSOIDAL, np.linspace(-1.0, 1.0, 5)),  # x-independent: one solve stands for all
    (make_kernel("sinusoidal", x_dependence="tanh", x_amplitude=0.3), None),
    (make_kernel("sinusoidal", x_dependence="tanh", x_amplitude=0.3), np.array([0.2, 0.5, 0.9])),
    (make_kernel("sinusoidal", x_dependence="tanh", x_amplitude=0.3), np.array([-0.5, 0.0, 0.5])),
])
def test_a_solved_cell_gives_the_same_coefficients(kernel, x):
    vm = two_velocity_1d(weights=(1.0, 2.0))
    cell = solve_cell(kernel, 0.0, vm, grid=GRID)
    _same_coefficients(assemble_effective(kernel, vm, x=x, grid=GRID, cell=cell),
                       assemble_effective(kernel, vm, x=x, grid=GRID))


def test_a_cell_from_another_problem_is_refused():
    cell = solve_cell(SINUSOIDAL, 0.0, VM, grid=GRID)
    with pytest.raises(ValueError, match="another kernel"):
        assemble_effective(CONSTANT, VM, grid=GRID, cell=cell)
    with pytest.raises(ValueError, match="another kernel"):
        assemble_effective(SINUSOIDAL, two_velocity_1d(), grid=GRID, cell=cell)
    with pytest.raises(ValueError, match="another kernel"):
        assemble_effective(SINUSOIDAL, VM, grid=GRID, scheme="spectral", cell=cell)
    with pytest.raises(ValueError, match="another kernel"):
        assemble_effective(SINUSOIDAL, VM, backend="spectral_ap", cell=cell)


TANH = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh", x_amplitude=0.5)


@pytest.mark.parametrize("backend", ["grid", "spectral_ap"])
def test_sampled_assembly_matches_a_per_cell_reference(backend):
    vm = two_velocity_1d(weights=(1.0, 2.0))
    grid = CellGrid((16,))
    x = np.linspace(-1.5, 1.5, 7)
    eff = assemble_effective(TANH, vm, x=x, grid=grid, backend=backend)
    # reference: keep every solved cell, then differentiate and pair;
    # 0.0 - pairing, not -pairing, gives a zero drift as +0.0
    solved = [solve_cell(TANH, xi, vm, backend=backend, grid=grid) for xi in x]
    dF = np.gradient(np.stack([s.op.unwrap(s.F) for s in solved]), x, axis=0, edge_order=2)
    U = np.stack([0.0 - diffusion_matrix(s.op, s.chi, dF[m], convention="pairing")[:, 0]
                  for m, s in enumerate(solved)])
    assert np.array_equal(eff.x, x)
    assert np.array_equal(eff.D, np.stack([s.D for s in solved]))
    assert np.array_equal(eff.U, U)
    assert np.array_equal(eff.flux, np.stack([s.b for s in solved]))
    assert eff.residual == max(s.residual for s in solved)
    assert eff.bound_constant == max(s.bound_constant for s in solved)


def test_sampled_assembly_keeps_no_operator(monkeypatch):
    built, alive = [], []

    def recording_assemble(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in built))
        op = assemble(*args, **kwargs)
        built.append(weakref.ref(op))
        return op

    monkeypatch.setattr(effective, "assemble", recording_assemble)
    eff = assemble_effective(TANH, VM, x=np.linspace(-1.0, 1.0, 5), grid=CellGrid((16,)))
    gc.collect()
    assert len(built) == 5 and eff.D.shape == (5, 1, 1)
    # at most the previous position's operator lives while the next is built
    assert max(alive) <= 1
    assert [ref for ref in built if ref() is not None] == []


@pytest.mark.parametrize("x, cause", [
    # repeated position: the drift was nan
    (np.array([-0.5, 0.0, 0.0, 0.5]), r"x\[1\] = 0.0 is followed by x\[2\] = 0.0"),
    # decreasing: interpolation was wrong
    (np.array([0.5, 0.0, -0.5]), r"x\[0\] = 0.5 is followed by x\[1\] = 0.0"),
    (np.array([0.0, 1.0, 0.5]), r"x\[1\] = 1.0 is followed by x\[2\] = 0.5"),
    # one point: np.gradient raised IndexError
    (np.array([0.25]), "got only 1"),
    # too few for the second-order gradient
    (np.array([0.0, 1.0]), "got only 2"),
    (np.array([0.0, np.nan, 1.0]), r"x\[1\] = nan is not finite"),
], ids=["repeated", "decreasing", "unsorted", "one", "two", "nan"])
def test_sampled_positions_must_increase(x, cause):
    with pytest.raises(ValueError, match="at least 3 finite, strictly increasing") as err:
        assemble_effective(TANH, VM, x=x, grid=CellGrid((16,)))
    assert re.search(cause, str(err.value))
