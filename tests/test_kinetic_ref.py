"""Kinetic reference integrator: invariants, oracles, guards."""

import numpy as np
import pytest
import scipy.linalg

from kinhom.collision import BalanceError, make_kernel
from kinhom.kinetic_ref import KineticSolver, StabilityError, periodic_shift, shift_wavenumbers
from kinhom.phase_space import MacroGrid, two_velocity_1d

VM = two_velocity_1d()
GRID = MacroGrid(half_width=2.0, shape=(64,), bc="periodic")
SINUSOIDAL = make_kernel("sinusoidal", base=1.0, alpha=0.5)


def _smooth_initial(grid, vm):
    x = grid.axes()[0]
    base = np.exp(-(x**2) / (2.0 * 0.4**2))
    return np.stack([base * (1.0 + 0.2 * k) for k in range(vm.n_nodes)], axis=1)


@pytest.mark.parametrize("scheme", ["upwind", "shift"])
@pytest.mark.parametrize("collision", ["implicit", "exact"])
def test_global_equilibrium_is_steady(scheme, collision):
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.5,
                           scheme=scheme, collision=collision)
    f0 = np.full((GRID.n_points, VM.n_nodes), 0.5)
    states = solver.run(f0, 0.05)
    assert np.max(np.abs(states[-1].f - f0)) < 1e-13


def test_mass_conserved_over_many_steps():
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.3)
    f = _smooth_initial(GRID, VM)
    m0 = (f @ VM.weights).sum() * GRID.cell_volume
    dt = solver.default_dt()
    for _ in range(1000):
        f = solver.step(f, dt)
    m1 = (f @ VM.weights).sum() * GRID.cell_volume
    assert abs(m1 - m0) <= 1e-12 * abs(m0)


def test_collision_step_closed_form_decay():
    # constant unit rates, weights (1, 1): deviations orthogonal to the
    # equilibrium decay at rate sigma mu(V) = 2 in the scaled time dt/eps^2
    solver = KineticSolver(make_kernel("constant", s0=1.0), VM,
                           MacroGrid(half_width=1.0, shape=(8,), bc="periodic"),
                           epsilon=1.0, collision="exact")
    dev = np.array([1.0, -1.0])
    f0 = 0.5 + 0.01 * np.tile(dev, (8, 1))
    dt = 0.25
    out = solver.collision_full(f0, dt)
    factor = np.exp(-2.0 * dt)  # tau = dt / eps^2 = dt here
    expect = 0.5 + 0.01 * factor * np.tile(dev, (8, 1))
    assert np.max(np.abs(out - expect)) < 1e-14

    implicit = KineticSolver(make_kernel("constant", s0=1.0), VM,
                             MacroGrid(half_width=1.0, shape=(8,), bc="periodic"),
                             epsilon=1.0, collision="implicit")
    out_i = implicit.collision_full(f0, dt)
    expect_i = 0.5 + 0.01 / (1.0 + 2.0 * dt) * np.tile(dev, (8, 1))
    assert np.max(np.abs(out_i - expect_i)) < 1e-14


def test_collision_decay_with_asymmetric_weights():
    # weights (1, 2): mu(V) = 3, and the mu-orthogonal deviation is (2, -1)
    vm = two_velocity_1d(weights=(1.0, 2.0))
    grid = MacroGrid(half_width=1.0, shape=(8,), bc="periodic")
    solver = KineticSolver(make_kernel("constant", s0=1.0), vm, grid,
                           epsilon=1.0, collision="exact")
    dev = np.array([2.0, -1.0])
    f0 = 1.0 / 3.0 + 0.01 * np.tile(dev, (8, 1))
    out = solver.collision_full(f0, 0.2)
    expect = 1.0 / 3.0 + 0.01 * np.exp(-3.0 * 0.2) * np.tile(dev, (8, 1))
    assert np.max(np.abs(out - expect)) < 1e-14


def test_l2_monitor_never_grows_for_balanced_kernels():
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.4)
    states = solver.run(_smooth_initial(GRID, VM), 0.2,
                        checkpoints=np.linspace(0.0, 0.2, 6))
    norms = [s.l2_norm() for s in states]
    assert all(n1 <= n0 * (1 + 1e-12) for n0, n1 in zip(norms, norms[1:]))


def test_unbalanced_kernel_is_refused_unless_negative_control():
    lopsided = np.array([[1.0, 2.0], [0.5, 1.0]])
    with pytest.raises(BalanceError):
        KineticSolver(lopsided, VM, GRID, epsilon=0.5)
    # negative control: the gate off, mass genuinely drifts
    solver = KineticSolver(lopsided, VM, GRID, epsilon=0.5, validate=False)
    f = _smooth_initial(GRID, VM)
    m0 = (f @ VM.weights).sum() * GRID.cell_volume
    for _ in range(50):
        f = solver.step(f, solver.default_dt())
    m1 = (f @ VM.weights).sum() * GRID.cell_volume
    assert abs(m1 - m0) > 1e-6 * abs(m0)


def test_upwind_cfl_gate_and_default_dt():
    eps = 0.25
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps)
    h = GRID.spacing[0]
    assert solver.default_dt() == pytest.approx(0.9 * eps * h)
    with pytest.raises(StabilityError):
        solver.step(_smooth_initial(GRID, VM), 2.0 * solver.default_dt())
    # the splitting cap takes over for the exact closure when it is tighter
    exact = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps, collision="exact")
    x = GRID.axes()[0]
    sigma_max = 2.0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * x / eps)).max()
    expected = min(0.9 * eps * h, 0.1 * eps**2 / sigma_max)
    assert exact.default_dt() == pytest.approx(expected)


def test_shift_transport_matches_integer_roll():
    n_x = 32
    grid = MacroGrid(half_width=1.0, shape=(n_x,), bc="periodic")
    eps = 0.5
    solver = KineticSolver(make_kernel("constant", s0=1.0), VM, grid,
                           epsilon=eps, scheme="shift")
    h = grid.spacing[0]
    m = 3
    dt = 2.0 * eps * h * m  # half-step moves speed-one data by m cells
    rng = np.random.default_rng(7)
    f = rng.standard_normal((n_x, VM.n_nodes))
    out = solver.transport_half(f, dt)
    # node order (-1, +1): f(t, x) = f0(x - a t/eps)
    assert np.max(np.abs(out[:, 0] - np.roll(f[:, 0], -m))) < 1e-12
    assert np.max(np.abs(out[:, 1] - np.roll(f[:, 1], m))) < 1e-12
    # a scalar shift of one column, as the harness shifts densities
    moved = periodic_shift(f[:, 1], m * h, shift_wavenumbers(grid))
    assert np.max(np.abs(moved - np.roll(f[:, 1], m))) < 1e-12


def test_shift_half_step_is_bitwise_the_periodic_shift():
    eps = 0.05
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps, scheme="shift",
                           collision="exact")
    f = _smooth_initial(GRID, VM)
    dt = solver.default_dt()
    kappa = shift_wavenumbers(GRID)
    # the phase table is keyed on the exact step; the 1e-14 neighbour moves the
    # result, and a key rounded to 12 digits would give it the phase of dt
    for step in (dt, np.nextafter(dt, 1.0), dt * (1.0 + 1e-14), dt):
        expect = periodic_shift(f, VM.field[:, 0] * step / (2.0 * eps), kappa)
        assert np.array_equal(solver.transport_half(f, step), expect)


def test_exact_collision_is_bitwise_the_per_point_expm():
    eps = 0.05
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps, collision="exact")
    f = _smooth_initial(GRID, VM)
    dt = solver.default_dt()
    tau = dt / eps**2
    mats = np.stack([scipy.linalg.expm(tau * Q) for Q in solver._Q])
    expect = np.einsum("xkl,xl->xk", mats, f)
    assert np.array_equal(solver.collision_full(f, dt), expect)


@pytest.mark.parametrize("collision", ["implicit", "exact"])
def test_collision_cache_tells_small_steps_apart(collision):
    # the cache key keeps 12 significant digits, whatever the size of dt
    def solver():
        return KineticSolver(SINUSOIDAL, VM, GRID, epsilon=1e-4, collision=collision)

    f = _smooth_initial(GRID, VM)
    warm = solver()
    warm.collision_full(f, 1.0e-12)
    assert np.array_equal(warm.collision_full(f, 1.0004e-12),
                          solver().collision_full(f, 1.0004e-12))
    # steps that differ only by roundoff share one set of matrices
    dt = warm.default_dt()
    assert np.array_equal(warm.collision_full(f, np.nextafter(dt, 1.0)),
                          warm.collision_full(f, dt))


def test_per_point_rate_table_matches_kernel_evaluation():
    eps = 0.35
    x = GRID.axes()[0]
    rates = SINUSOIDAL.evaluate(x, x / eps, VM)
    from_table = KineticSolver(rates, VM, GRID, epsilon=eps)
    from_kernel = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps)
    f = _smooth_initial(GRID, VM)
    dt = from_kernel.default_dt()
    assert np.max(np.abs(from_table.step(f, dt) - from_kernel.step(f, dt))) < 1e-15
    # per-point loop reference for the vectorized generators: g diag(mu) - diag(g mu)
    tol = 4.0 * np.finfo(float).eps * rates.max()
    for g, Q in zip(rates, from_table._Q):
        assert np.max(np.abs(Q - (g * VM.weights - np.diag(g @ VM.weights)))) <= tol


def test_constructor_and_run_guards():
    with pytest.raises(ValueError):
        KineticSolver(SINUSOIDAL, VM, GRID, epsilon=-0.1)
    with pytest.raises(ValueError):
        KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.5, scheme="lax")
    with pytest.raises(ValueError):
        KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.5, collision="chebyshev")
    with pytest.raises(ValueError):
        KineticSolver(SINUSOIDAL, VM,
                      MacroGrid(half_width=2.0, shape=(64,), bc="no-flux"),
                      epsilon=0.5)
    with pytest.raises(ValueError):
        KineticSolver(np.array([[1.0, 1.0], [1.0, -1.0]]), VM, GRID, epsilon=0.5)
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.5)
    with pytest.raises(ValueError):
        solver.run(np.zeros((3, 3)), 0.1)
    with pytest.raises(ValueError):
        solver.run(_smooth_initial(GRID, VM), 0.1,
                   checkpoints=np.array([0.05, 0.1]))
