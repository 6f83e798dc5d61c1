"""Kinetic reference integrator: invariants, oracles, guards."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kinhom import harness
from kinhom.collision import BalanceError, make_kernel
from kinhom.kinetic_ref import (
    C_SPLIT_EXTRAPOLATED,
    TAIL_LEVEL,
    KineticSolver,
    initial_tail,
    periodic_shift,
    shift_wavenumbers,
)
from kinhom.phase_space import (
    MacroGrid,
    checkpoint_substeps,
    two_velocity_1d,
    velocity_from_tables,
)

VM = two_velocity_1d()
GRID = MacroGrid(half_width=2.0, shape=(64,), bc="periodic")
SINUSOIDAL = make_kernel("sinusoidal", base=1.0, alpha=0.5)


def _hat(f):
    """The solver's state from ``f`` of shape ``(n_x, K)``: the real FFT along
    ``x``, velocity-major ``(K, n_x//2 + 1)``."""
    return np.fft.rfft(f.T)


def _real(spectra, grid):
    """``f`` of shape ``(n_x, K)`` back from the solver's state."""
    return np.fft.irfft(spectra, n=grid.n_points).T


def _collide(solver, f, dt):
    """The collision step of ``f`` of shape ``(n_x, K)`` by a per-point
    ``scipy.linalg.expm(dt Q / eps^2)`` over all K rows."""
    mats = scipy.linalg.expm(dt / solver.epsilon**2 * solver._Q)  # (n_x, K, K)
    return np.einsum("xkl,xl->xk", mats, f)


def _solver_collide(solver, f, dt):
    """The solver's collision step of ``f`` of shape ``(n_x, K)``: ``f`` plus
    its increment, whose kept rows :meth:`collision_full` makes from the
    deviations ``f[1:] - f[0]`` of the velocity-major ``(K, n_x)`` and whose
    lift gives all K rows."""
    f = f.T
    return (f + solver._lift @ solver.collision_full(f[1:] - f[0], dt)).T


def _real_space_step(solver, f, dt):
    """One Strang step composed in real space: shift, collision, shift."""
    shift = solver.vm.field[:, 0] * dt / (2.0 * solver.epsilon)
    kappa = shift_wavenumbers(solver.grid)
    mid = _collide(solver, periodic_shift(f, shift, kappa), dt)
    return periodic_shift(mid, shift, kappa)


def _smooth_initial(grid, vm):
    x = grid.axes()[0]
    base = np.exp(-(x**2) / (2.0 * 0.4**2))
    return np.stack([base * (1.0 + 0.2 * k) for k in range(vm.n_nodes)], axis=1)


# ids name the collision-transport pair, the one the solver runs
@pytest.mark.parametrize("c_split", ["auto"], ids=["exact-shift"])
def test_global_equilibrium_is_steady(c_split):
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.5, c_split=c_split)
    f0 = np.full((GRID.n_points, VM.n_nodes), 0.5)
    states = solver.run(f0, 0.05)
    assert np.max(np.abs(states[-1].f - f0)) < 1e-13


def test_mass_conserved_over_many_steps():
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.3)
    f = _smooth_initial(GRID, VM)
    m0 = (f @ VM.weights).sum() * GRID.cell_volume
    dt = solver.default_dt()
    spectra = _hat(f)
    for _ in range(1000):
        spectra = solver.step(spectra, dt)
    f = _real(spectra, GRID)
    m1 = (f @ VM.weights).sum() * GRID.cell_volume
    assert abs(m1 - m0) <= 1e-12 * abs(m0)


def test_collision_step_closed_form_decay():
    # constant unit rates, weights (1, 1): deviations orthogonal to the
    # equilibrium decay at rate sigma mu(V) = 2 in the scaled time dt/eps^2
    solver = KineticSolver(make_kernel("constant", s0=1.0), VM,
                           MacroGrid(half_width=1.0, shape=(8,), bc="periodic"),
                           epsilon=1.0)
    dev = np.array([1.0, -1.0])
    f0 = 0.5 + 0.01 * np.tile(dev, (8, 1))
    dt = 0.25
    out = _solver_collide(solver, f0, dt)
    factor = np.exp(-2.0 * dt)  # tau = dt / eps^2 = dt here
    expect = 0.5 + 0.01 * factor * np.tile(dev, (8, 1))
    assert np.max(np.abs(out - expect)) < 1e-14


def test_collision_decay_with_asymmetric_weights():
    # weights (1, 2): mu(V) = 3, and the mu-orthogonal deviation is (2, -1)
    vm = two_velocity_1d(weights=(1.0, 2.0))
    grid = MacroGrid(half_width=1.0, shape=(8,), bc="periodic")
    solver = KineticSolver(make_kernel("constant", s0=1.0), vm, grid, epsilon=1.0)
    dev = np.array([2.0, -1.0])
    f0 = 1.0 / 3.0 + 0.01 * np.tile(dev, (8, 1))
    out = _solver_collide(solver, f0, 0.2)
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
    spectra = _hat(f)
    for _ in range(50):
        spectra = solver.step(spectra, solver.default_dt())
    f = _real(spectra, GRID)
    m1 = (f @ VM.weights).sum() * GRID.cell_volume
    assert abs(m1 - m0) > 1e-6 * abs(m0)


def test_shift_transport_matches_integer_roll():
    n_x = 32
    grid = MacroGrid(half_width=1.0, shape=(n_x,), bc="periodic")
    eps = 0.5
    solver = KineticSolver(make_kernel("constant", s0=1.0), VM, grid, epsilon=eps)
    h = grid.spacing[0]
    m = 3
    dt = 2.0 * eps * h * m  # half-step moves speed-one data by m cells
    rng = np.random.default_rng(7)
    f = rng.standard_normal((n_x, VM.n_nodes))
    out = _real(solver.transport_half(_hat(f), dt), grid)
    # node order (-1, +1): f(t, x) = f0(x - a t/eps)
    assert np.max(np.abs(out[:, 0] - np.roll(f[:, 0], -m))) < 1e-12
    assert np.max(np.abs(out[:, 1] - np.roll(f[:, 1], m))) < 1e-12
    # a scalar shift of one column, as the harness shifts densities
    moved = periodic_shift(f[:, 1], m * h, shift_wavenumbers(grid))
    assert np.max(np.abs(moved - np.roll(f[:, 1], m))) < 1e-12


@pytest.mark.parametrize("n_cols", [1, 17], ids=["column", "half-spectrum-wide"])
def test_scalar_shift_moves_every_column_of_2d_values(n_cols):
    # the phase runs along axis 0; broadcast along the last axis it raises on
    # a (32, 1) column and gives each of 17 = 32//2 + 1 columns one phase
    grid = MacroGrid(half_width=1.0, shape=(32,), bc="periodic")
    m = 3
    f = np.random.default_rng(n_cols).standard_normal((32, n_cols))
    moved = periodic_shift(f, m * grid.spacing[0], shift_wavenumbers(grid))
    assert moved.shape == f.shape
    assert np.max(np.abs(moved - np.roll(f, m, axis=0))) < 1e-12


def test_initial_tail_is_the_parseval_weight_from_half_nyquist_up(caplog):
    # on 64 cells half the Nyquist wavenumber is mode 16: a pair of modes
    # below it has no tail, mode 16 is all tail, and a mix splits by Parseval
    x = GRID.axes()[0]
    k = 2.0 * np.pi / (2.0 * GRID.half_width)
    low = 1.0 + np.cos(3 * k * x)          # power 1 + 1/2
    high = 0.5 * np.sin(16 * k * x)        # power 1/8
    with caplog.at_level("WARNING", logger="kinhom.kinetic_ref"):
        assert initial_tail(low) < 1e-15
        assert initial_tail(high) == pytest.approx(1.0, rel=1e-12)
        assert initial_tail(low + high) == pytest.approx(np.sqrt(0.125 / 1.625), rel=1e-12)
        # the zero and Nyquist modes stand for themselves alone
        assert initial_tail(1.0 + np.tile([1.0, -1.0], 32)) == pytest.approx(np.sqrt(0.5),
                                                                             rel=1e-12)
    warned = [r for r in caplog.records if r.name == "kinhom.kinetic_ref"]
    assert len(warned) == 3 and all(f"(above {TAIL_LEVEL:g})" in r.getMessage() for r in warned)


def test_shift_half_step_is_bitwise_the_periodic_shift():
    eps = 0.05
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps)
    dt = solver.default_dt()
    kappa = shift_wavenumbers(GRID)
    # random data has O(1) content in the Nyquist mode of the even grid
    noise = np.random.default_rng(3).standard_normal((GRID.n_points, VM.n_nodes))
    for f in (_smooth_initial(GRID, VM), noise):
        # the phase table is keyed on the exact step; the 1e-14 neighbour moves the
        # result, and a key rounded to 12 digits would give it the phase of dt
        for step in (dt, np.nextafter(dt, 1.0), dt * (1.0 + 1e-14), dt):
            expect = periodic_shift(f, VM.field[:, 0] * step / (2.0 * eps), kappa)
            assert np.array_equal(_real(solver.transport_half(_hat(f), step), GRID), expect)


def test_spectral_steps_match_real_space_steps_through_the_nyquist_mode():
    # random data on an even grid carries O(1) Nyquist content; irfft keeps
    # only the real part of that mode, so its phase must be cos(kappa_N shift)
    grid = MacroGrid(half_width=1.0, shape=(32,), bc="periodic")
    solver = KineticSolver(SINUSOIDAL, VM, grid, epsilon=0.3)
    f = np.random.default_rng(11).standard_normal((grid.n_points, VM.n_nodes))
    dt = 7.0 * solver.default_dt()  # shifts of a few cells, not whole cells
    spectra, expect = _hat(f), f
    for _ in range(3):
        spectra = solver.step(spectra, dt)
        expect = _real_space_step(solver, expect, dt)
    assert np.max(np.abs(_real(spectra, grid) - expect)) <= 1e-13


def _balanced_solver(n_nodes, grid, rng):
    nodes = np.linspace(-1.0, 1.0, n_nodes)[:, None]
    vm = velocity_from_tables(nodes=nodes, weights=np.linspace(0.5, 1.5, n_nodes))
    table = rng.uniform(0.5, 1.5, (n_nodes, n_nodes))
    return KineticSolver(table + table.T, vm, grid, epsilon=0.05)


@pytest.mark.parametrize("n_nodes", [2, 4, 8])
def test_collision_is_bitwise_the_node_order_sum_of_its_tables(n_nodes):
    # out[i] = D[k, 1] g[0] + D[k, 2] g[1] + ..., k the i-th kept row of
    # D = expm(tau Q) - I and g = f[1:] - f[0], each product and add in that
    # order, at every grid point
    grid = MacroGrid(half_width=1.0, shape=(2048,), bc="periodic")
    rng = np.random.default_rng(n_nodes)
    solver = _balanced_solver(n_nodes, grid, rng)
    f = rng.standard_normal((n_nodes, grid.n_points))
    g = f[1:] - f[0]
    dt = solver.default_dt()
    tables = solver._collision_matrices(dt)  # [l - 1, i, x]
    # a validated kernel keeps rows 1..K-1
    assert tables.shape == (n_nodes - 1, n_nodes - 1, grid.n_points)
    expect = np.empty((n_nodes - 1, grid.n_points))
    for i in range(n_nodes - 1):
        expect[i] = tables[0, i] * g[0]
        for l in range(1, n_nodes - 1):
            expect[i] += tables[l, i] * g[l]
    out = solver.collision_full(g, dt)
    assert out.shape == expect.shape
    assert np.array_equal(out, expect)


@pytest.mark.parametrize("multiple", [0.5, 1.0, 7.0, 50.0])
@pytest.mark.parametrize("n_nodes", [2, 4, 8])
def test_collision_tables_match_the_per_point_expm(n_nodes, multiple):
    # the batched Pade(13) tables, and the full columns the lift rebuilds from
    # them, against scipy's expm at every point, relative to max |expm - I|
    grid = MacroGrid(half_width=1.0, shape=(2048,), bc="periodic")
    solver = _balanced_solver(n_nodes, grid, np.random.default_rng(n_nodes))
    dt = multiple * solver.default_dt()
    D = scipy.linalg.expm(dt / solver.epsilon**2 * solver._Q) - np.eye(n_nodes)
    tables = solver._collision_matrices(dt).transpose(2, 1, 0)  # (n_x, K-1, K-1)
    tol = 2e-14 * np.max(np.abs(D))
    assert np.max(np.abs(tables - D[:, 1:, 1:])) <= tol
    lifted = np.einsum("kr,xrl->xkl", solver._lift, tables)
    assert np.max(np.abs(lifted - D[:, :, 1:])) <= tol


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_node_tables_match_the_closed_form_on_small_eps():
    # Q 1 = 0 makes A = tau Q satisfy A^2 = -t A with t = -tr A, so
    # expm(A) - I = -expm1(-t)/t A exactly; on the small_eps generator
    cfg = harness.parse_config(_workloads().scenario("small_eps", 1))
    vm, grid = cfg.build_velocity(), cfg.build_macro_grid()
    eps = min(cfg.kinetic["epsilons"])
    solver = KineticSolver(cfg.build_kernel(), vm, grid, epsilon=eps)
    for multiple in (0.5, 1.0, 7.0, 50.0):
        dt = multiple * solver.default_dt()
        A = dt / eps**2 * solver._Q
        t = -np.trace(A, axis1=1, axis2=2)
        exact = (-np.expm1(-t) / t)[:, None, None] * A
        tables = solver._collision_matrices(dt)  # (1, 1, n_x): entry (1, 1)
        tol = 1e-14 * np.max(np.abs(exact))
        assert np.max(np.abs(tables[0, 0] - exact[:, 1, 1])) <= tol
        lifted = solver._lift[:, 0] * tables[0, 0][:, None]  # column 1
        assert np.max(np.abs(lifted - exact[:, :, 1])) <= tol


@pytest.mark.parametrize("n_nodes", [2, 4, 8])
def test_balanced_steps_hold_the_weighted_zero_mode(n_nodes):
    # mu^T (M - I) = 0: the lift fixes row 0 of the increment, so the weighted
    # zero mode sum_k mu_k f_hat_k[0], the mass, holds to roundoff
    grid = MacroGrid(half_width=1.0, shape=(256,), bc="periodic")
    rng = np.random.default_rng(200 + n_nodes)
    solver = _balanced_solver(n_nodes, grid, rng)
    spectra = _hat(rng.uniform(0.5, 1.5, (grid.n_points, n_nodes)))
    weights = solver.vm.weights
    m0 = weights @ spectra[:, 0]
    dt = solver.default_dt()
    for _ in range(200):
        spectra = solver.step(spectra, dt)
    assert abs(weights @ spectra[:, 0] - m0) <= 1e-14 * abs(m0)


@pytest.mark.parametrize("n_nodes", [2, 4, 8])
def test_deviation_steps_match_full_matrix_steps(n_nodes):
    # the old step: irfft of all K rows, the per-point expm(tau Q) product,
    # rfft; random data on an even grid carries O(1) Nyquist content
    grid = MacroGrid(half_width=1.0, shape=(64,), bc="periodic")
    rng = np.random.default_rng(100 + n_nodes)
    solver = _balanced_solver(n_nodes, grid, rng)
    f = rng.standard_normal((grid.n_points, n_nodes))
    dt = 7.0 * solver.default_dt()
    mats = scipy.linalg.expm(dt / solver.epsilon**2 * solver._Q)
    spectra = expect = _hat(f)
    for _ in range(3):
        spectra = solver.step(spectra, dt)
        mid = np.fft.irfft(solver.transport_half(expect, dt), n=grid.n_points)
        mid = np.einsum("xkl,lx->kx", mats, mid)
        expect = solver.transport_half(np.fft.rfft(mid), dt)
    got, want = _real(spectra, grid), _real(expect, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_velocity_constant_data_get_a_zero_increment():
    # Q 1 = 0 for any table, the unbalanced one too: a velocity-constant f has
    # no deviations, and its increment is exactly zero
    lopsided = np.array([[1.0, 2.0], [0.5, 1.0]])
    for kernel, validate in ((SINUSOIDAL, True), (lopsided, False)):
        solver = KineticSolver(kernel, VM, GRID, epsilon=0.2, validate=validate)
        row = np.random.default_rng(5).standard_normal(GRID.n_points)
        f = np.stack([row] * VM.n_nodes)
        out = solver.collision_full(f[1:] - f[0], solver.default_dt())
        # rows 1..K-1 for the balanced kernel, all K for the negative control
        rows = VM.n_nodes - 1 if validate else VM.n_nodes
        assert out.shape == (rows, GRID.n_points) and not np.any(out)


def test_one_node_run_is_pure_transport():
    # no deviation rows, so no collision: the run is the exact shift by a T / eps
    vm = velocity_from_tables(nodes=np.array([[0.7]]), weights=np.array([1.0]))
    eps, T = 0.3, 0.05
    for n_x in (33, 64):
        grid = MacroGrid(half_width=1.0, shape=(n_x,), bc="periodic")
        solver = KineticSolver(np.array([[1.3]]), vm, grid, epsilon=eps)
        x = grid.axes()[0]
        # odd grids have no Nyquist mode, so random data shift exactly
        f0 = (np.random.default_rng(n_x).standard_normal((n_x, 1)) if n_x % 2
              else np.exp(-(x**2) / 0.05)[:, None])
        states = solver.run(f0, T, checkpoints=np.linspace(0.0, T, 4))
        expect = periodic_shift(f0, vm.field[:, 0] * T / eps, shift_wavenumbers(grid))
        assert states[-1].steps > 0
        assert np.max(np.abs(states[-1].f - expect)) <= 1e-13


@pytest.mark.parametrize("epsilon", [1e-4], ids=["exact"])
def test_collision_cache_tells_small_steps_apart(epsilon):
    # the cache key keeps 12 significant digits, whatever the size of dt
    def solver():
        return KineticSolver(SINUSOIDAL, VM, GRID, epsilon=epsilon)

    f = _smooth_initial(GRID, VM)
    warm = solver()
    _solver_collide(warm, f, 1.0e-12)
    assert np.array_equal(_solver_collide(warm, f, 1.0004e-12),
                          _solver_collide(solver(), f, 1.0004e-12))
    # steps that differ only by roundoff share one set of matrices
    dt = warm.default_dt()
    assert np.array_equal(_solver_collide(warm, f, np.nextafter(dt, 1.0)),
                          _solver_collide(warm, f, dt))


def test_collision_tables_are_looked_up_by_exact_step_first(monkeypatch):
    # step_key formats a string; a repeated step finds its tables without it,
    # and a roundoff neighbour falls back to it once and shares the same set
    from kinhom import kinetic_ref

    keys = []
    step_key = kinetic_ref.step_key

    def counted(dt):
        keys.append(dt)
        return step_key(dt)

    monkeypatch.setattr(kinetic_ref, "step_key", counted)
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.2)
    dt = solver.default_dt()
    first = solver._collision_matrices(dt)
    for _ in range(3):
        assert solver._collision_matrices(dt) is first
    assert keys == [dt]
    near = np.nextafter(dt, 1.0)
    assert solver._collision_matrices(near) is first
    assert solver._collision_matrices(near) is first
    assert keys == [dt, near]


def test_per_point_rate_table_matches_kernel_evaluation():
    eps = 0.35
    x = GRID.axes()[0]
    rates = SINUSOIDAL.evaluate(x, x / eps, VM)
    from_table = KineticSolver(rates, VM, GRID, epsilon=eps)
    from_kernel = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps)
    f = _smooth_initial(GRID, VM)
    dt = from_kernel.default_dt()
    by_table = _real(from_table.step(_hat(f), dt), GRID)
    by_kernel = _real(from_kernel.step(_hat(f), dt), GRID)
    assert np.max(np.abs(by_table - by_kernel)) < 1e-15
    # per-point loop reference for the vectorized generators: g diag(mu) - diag(g mu)
    tol = 4.0 * np.finfo(float).eps * rates.max()
    for g, Q in zip(rates, from_table._Q):
        assert np.max(np.abs(Q - (g * VM.weights - np.diag(g @ VM.weights)))) <= tol


def test_constructor_and_run_guards():
    with pytest.raises(ValueError):
        KineticSolver(SINUSOIDAL, VM, GRID, epsilon=-0.1)
    with pytest.raises(ValueError):
        KineticSolver(SINUSOIDAL, VM,
                      MacroGrid(half_width=2.0, shape=(64,), bc="no-flux"),
                      epsilon=0.5)
    with pytest.raises(ValueError):
        KineticSolver(np.array([[1.0, 1.0], [1.0, -1.0]]), VM, GRID, epsilon=0.5)
    # `rates <= 0` is False for NaN, so a NaN rate passed the guard
    for bad in (np.nan, np.inf):
        rates = SINUSOIDAL.evaluate(GRID.axes()[0], GRID.axes()[0] / 0.5, VM)
        rates[7, 0, 1] = bad
        for validate in (True, False):
            with pytest.raises(ValueError, match="positive and finite"):
                KineticSolver(rates, VM, GRID, epsilon=0.5, validate=validate)
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.5)
    with pytest.raises(ValueError):
        solver.run(np.zeros((3, 3)), 0.1)
    with pytest.raises(ValueError):
        solver.run(_smooth_initial(GRID, VM), 0.1,
                   checkpoints=np.array([0.05, 0.1]))


def _strang(solver, f, plan, refine=1):
    """Plain Strang through ``plan``, each interval at ``refine`` times its steps."""
    spectra = _hat(f)
    for _, n_sub, sub_dt in plan:
        for _ in range(refine * n_sub):
            spectra = solver.step(spectra, sub_dt / refine)
    return _real(spectra, solver.grid)


@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_extrapolated_run_is_within_3e_5_of_a_finer_extrapolated_pair(eps):
    # reference: (4 S_{dt/2} - S_dt)/3 with the coarse step at cap 0.1, built
    # here from step loops; plain Strang at that cap is about 9e-5 away
    T = 0.1
    times = np.linspace(0.0, T, 3)
    f0 = _smooth_initial(GRID, VM)
    ref_solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps, c_split=0.1)
    plan = checkpoint_substeps(times, T, ref_solver.default_dt())
    coarse = _strang(ref_solver, f0, plan)
    ref = (4.0 * _strang(ref_solver, f0, plan, refine=2) - coarse) / 3.0
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps)
    final = solver.run(f0, T, checkpoints=times)[-1]
    assert np.linalg.norm(final.f - ref) / np.linalg.norm(ref) <= 3e-5
    # the step-doubling estimate bounds the fine run's own splitting error
    assert final.split_est > np.linalg.norm(final.f - ref) / np.linalg.norm(ref)


def test_fine_run_takes_exactly_twice_the_coarse_steps():
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.1)
    dt = solver.default_dt()
    # first interval: 3 + 7.5e-13 coarse steps long, so ceil rounds down at dt
    # but up at dt/2, where it is 6 + 1.5e-12 steps long
    t1 = 3.0 * dt * (1.0 + 2.5e-13)
    times = np.array([0.0, t1, t1 + 2.5 * dt])
    plan = checkpoint_substeps(times, times[-1], dt)
    assert plan[0][1] == 3
    assert checkpoint_substeps(times, times[-1], dt / 2)[0][1] == 7
    calls = []
    step = solver.step

    def recorded(f, sizes, out=None):
        calls.append(sizes)
        return step(f, sizes, out=out)

    solver.step = recorded
    states = solver.run(_smooth_initial(GRID, VM), times[-1], checkpoints=times)
    # each coarse step is one stacked call, the coarse run's step with the
    # fine run's first, and one lone call, the fine run's second step
    expect_calls, expect_coarse, expect_fine = [], [], []
    for _, n_sub, sub_dt in plan:
        expect_calls += [(sub_dt, sub_dt / 2), sub_dt / 2] * n_sub
        expect_coarse += [sub_dt] * n_sub
        expect_fine += [sub_dt / 2] * (2 * n_sub)
    assert calls == expect_calls
    # one Strang step per stacked entry, each with its own size: entry 0 of a
    # stacked call advances the coarse run, entry 1 and a lone call the fine run
    coarse = [sizes[0] for sizes in calls if isinstance(sizes, tuple)]
    fine = [sizes[1] if isinstance(sizes, tuple) else sizes for sizes in calls]
    assert coarse == expect_coarse
    assert fine == expect_fine
    assert [s.steps for s in states] == [0, 9, 18]
    assert [s.dt for s in states] == [dt] + [sub_dt for _, _, sub_dt in plan]


def _stack_solver(case):
    """The solvers a stacked step is checked on, with their kept row count."""
    if case == "two-node":
        return KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.1), 1
    if case == "three-node-table":
        vm = velocity_from_tables(nodes=np.array([[-1.3], [0.4], [1.0]]),
                                  weights=np.array([0.7, 1.1, 2.0]))
        g = np.random.default_rng(3).uniform(0.2, 2.0, (3, 3))
        kernel = make_kernel("table", table=(g + g.T) / 2)
        return KineticSolver(kernel, vm, GRID, epsilon=0.1), 2
    if case == "negative-control":
        lopsided = np.array([[1.0, 2.0], [0.5, 1.0]])
        return KineticSolver(lopsided, VM, GRID, epsilon=0.1, validate=False), 2
    vm = velocity_from_tables(nodes=np.array([[0.7]]), weights=np.array([1.0]))
    return KineticSolver(np.array([[1.3]]), vm, GRID, epsilon=0.1), 0


@pytest.mark.parametrize("case", ["two-node", "three-node-table", "negative-control",
                                  "one-node"])
def test_a_stacked_step_is_bitwise_the_two_single_steps(case):
    solver, rows = _stack_solver(case)
    n_nodes, n_x = solver.vm.n_nodes, GRID.n_points
    rng = np.random.default_rng(17)
    # random data on an even grid carry O(1) Nyquist content
    coarse = _hat(rng.standard_normal((n_x, n_nodes)))
    fine = _hat(rng.standard_normal((n_x, n_nodes)))
    dt = solver.default_dt()
    sizes = (dt, dt / 2)
    pair = np.stack([coarse, fine])
    for _ in range(3):
        pair = solver.step(pair, sizes)
        coarse = solver.step(coarse, dt)
        fine = solver.step(fine, dt / 2)
        assert np.array_equal(pair[0], coarse)
        assert np.array_equal(pair[1], fine)
    # the stacked tables, built once from the per-size ones
    phase = solver._phase_cache[sizes]
    assert phase.shape == (2, n_nodes, n_x // 2 + 1)
    assert np.array_equal(phase[1], solver._phase_cache[dt / 2])
    tables = solver._collision_matrices(sizes)
    assert tables.shape == (n_nodes - 1, 2, rows, n_x)
    assert solver._collision_matrices(sizes) is tables
    assert np.array_equal(tables[:, 0], solver._collision_matrices(dt))


def test_a_step_into_its_own_input_is_bitwise_the_fresh_step():
    # the run steps the fine half of its pair in place, through ``out``
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.1)
    rng = np.random.default_rng(5)
    coarse = _hat(rng.standard_normal((GRID.n_points, VM.n_nodes)))
    fine = _hat(rng.standard_normal((GRID.n_points, VM.n_nodes)))
    dt = solver.default_dt()
    want = solver.step(fine, dt)
    pair = np.stack([coarse, fine])
    view = pair[1]
    assert solver.step(view, dt, out=view) is view
    assert np.array_equal(pair[1], want)
    assert np.array_equal(pair[0], coarse)


def test_a_run_over_equal_intervals_builds_one_table_set_per_size():
    # ten equal checkpoint intervals: (t1 - t0) / n_sub differs by roundoff
    # between them, and the run steps them all at one size
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.2)
    times = np.linspace(0.0, 0.05, 11)
    plan = checkpoint_substeps(times, times[-1], solver.default_dt())
    assert len({sub_dt for _, _, sub_dt in plan}) > 1
    states = solver.run(_smooth_initial(GRID, VM), times[-1], checkpoints=times)
    dt = plan[0][2]
    sizes = [dt, dt / 2, (dt, dt / 2)]
    # one phase table and one collision table per size: coarse, fine and the pair
    assert list(solver._phase_cache) == sizes
    assert list(solver._collision_by_dt) == sizes
    assert len(solver._collision_cache) == 2
    # each state still reports its own interval's step
    assert [s.dt for s in states[1:]] == [sub_dt for _, _, sub_dt in plan]


@pytest.mark.parametrize("kernel", [
    SINUSOIDAL,
    make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2),
], ids=["sinusoidal", "quasi_periodic"])
def test_run_is_bitwise_a_coarse_loop_then_a_fine_loop_of_single_steps(kernel):
    times = np.array([0.0, 0.013, 0.03, 0.05])
    f0 = _smooth_initial(GRID, VM)
    states = KineticSolver(kernel, VM, GRID, epsilon=0.2).run(f0, times[-1], checkpoints=times)
    # a fresh solver, so no table of the run is reused
    solver = KineticSolver(kernel, VM, GRID, epsilon=0.2)
    plan = checkpoint_substeps(times, times[-1], solver.default_dt())
    assert len(states) == len(plan) + 1
    coarse = fine = _hat(f0)
    for state, (_, n_sub, sub_dt) in zip(states[1:], plan):
        for _ in range(n_sub):
            coarse = solver.step(coarse, sub_dt)
        for _ in range(2 * n_sub):
            fine = solver.step(fine, sub_dt / 2)
        c = np.ascontiguousarray(_real(coarse, GRID))
        fi = np.ascontiguousarray(_real(fine, GRID))
        assert np.array_equal(state.f, (4.0 * fi - c) / 3.0)
        w = VM.weights
        est = float(np.sqrt(np.sum(w * (fi - c) ** 2) / np.sum(w * fi**2))) / 3.0
        assert state.split_est == est


def test_extrapolated_run_conserves_mass_and_l2():
    solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=0.1)
    times = np.linspace(0.0, 0.1, 6)
    states = solver.run(_smooth_initial(GRID, VM), 0.1, checkpoints=times)
    plan = checkpoint_substeps(times, 0.1, solver.default_dt())
    assert states[-1].steps == 3 * sum(n_sub for _, n_sub, _ in plan)
    m0 = states[0].mass()
    assert all(abs(s.mass() - m0) <= 1e-13 * m0 for s in states)
    norms = [s.l2_norm() for s in states]
    assert all(n1 <= n0 * (1 + 1e-12) for n0, n1 in zip(norms, norms[1:]))


@pytest.mark.parametrize("auto", [C_SPLIT_EXTRAPOLATED], ids=["shift-exact-0.5"])
def test_split_cap_auto_and_explicit(auto):
    eps = 0.1
    x = GRID.axes()[0]
    sigma_max = 2.0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * x / eps)).max()
    assert auto == 0.5
    for c_split, cap in (("auto", auto), (0.25, 0.25)):
        solver = KineticSolver(SINUSOIDAL, VM, GRID, epsilon=eps, c_split=c_split)
        assert solver.c_split == cap
        assert solver.default_dt() == pytest.approx(cap * eps**2 / sigma_max)


SMALL_EPS_REDUCED = """\
[cell]
n = 16
scheme = spectral

[sigma]
family = sinusoidal
alpha = 0.5

[macro]
n = 128
t = 0.05
checkpoints = 10

[kinetic]
epsilons = 0.4, 0.2
"""


@pytest.mark.parametrize("eps", [0.4, 0.2])
def test_run_matches_a_richardson_pair_of_real_space_steps(eps):
    # the reduced small_eps scenario; every checkpoint of the spectral run
    # against the same coarse and fine Strang runs composed in real space
    cfg = harness.parse_config(SMALL_EPS_REDUCED)
    vm, grid = cfg.build_velocity(), cfg.build_macro_grid()
    solver = KineticSolver(cfg.build_kernel(), vm, grid, epsilon=eps)
    times, T = cfg.checkpoint_times(), cfg.macro["t"]
    f0 = cfg.initial_f(grid, vm)
    states = solver.run(f0, T, checkpoints=times)
    coarse = fine = f0
    plan = checkpoint_substeps(times, T, solver.default_dt())
    assert len(states) == len(plan) + 1
    for state, (t1, n_sub, sub_dt) in zip(states[1:], plan):
        for _ in range(n_sub):
            coarse = _real_space_step(solver, coarse, sub_dt)
        for _ in range(2 * n_sub):
            fine = _real_space_step(solver, fine, sub_dt / 2)
        expect = (4.0 * fine - coarse) / 3.0
        assert state.t == t1
        assert np.linalg.norm(state.f - expect) <= 1e-12 * np.linalg.norm(expect)
