"""Macro diffusion integrator: exact solutions, conservation, orders."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from kinhom.harness import parse_config
from kinhom.macro_solver import DriftDiffusionSolver
from kinhom.phase_space import MacroGrid


def _gaussian(x, width):
    return np.exp(-(x**2) / (2.0 * width**2))


def _periodized_heat_solution(x, t, width, D, L):
    """Free-space Gaussian evolution summed over periodic images."""
    var = width**2 + 2.0 * D * t
    out = np.zeros_like(x)
    for k in range(-3, 4):
        out += width / np.sqrt(var) * np.exp(-((x + k * L) ** 2) / (2.0 * var))
    return out


def test_heat_kernel_accuracy():
    mg = MacroGrid(half_width=4.0, shape=(512,), bc="periodic")
    x = mg.axes()[0]
    rho0 = _gaussian(x, 0.1)
    solver = DriftDiffusionSolver(mg, D=np.array([[0.5]]))
    T = 0.5
    field = solver.run(rho0, T, dt=T / 1024.0)
    exact = _periodized_heat_solution(x, T, 0.1, 0.5, 8.0)
    rel = np.linalg.norm(field.values[-1] - exact) / np.linalg.norm(exact)
    assert rel <= 1e-3
    mass = field.mass()
    assert abs(mass[-1] - mass[0]) <= 1e-12 * mass[0]


def test_mass_conserved_over_many_steps_periodic():
    mg = MacroGrid(half_width=2.0, shape=(64,), bc="periodic")
    x = mg.axes()[0]
    # per-cell positive diffusion
    D = (0.3 + 0.1 * np.sin(np.pi * x / 2.0)).reshape(-1, 1, 1)
    solver = DriftDiffusionSolver(mg, D=D)
    rho = _gaussian(x, 0.4) + 0.05
    m0 = rho.sum() * mg.cell_volume
    for _ in range(1000):
        rho = solver.step(rho, 1e-3)
    m1 = rho.sum() * mg.cell_volume
    assert abs(m1 - m0) <= 1e-12 * m0


def test_mass_conserved_no_flux_walls():
    # diffusion carries mass to the walls; the closed ends must not leak
    mg = MacroGrid(half_width=1.0, shape=(48,), bc="no-flux")
    x = mg.axes()[0]
    solver = DriftDiffusionSolver(mg, D=np.array([[0.05]]))
    rho = _gaussian(x, 0.2)
    field = solver.run(rho, 1.0, dt=1e-3)
    mass = field.mass()
    assert abs(mass[-1] - mass[0]) <= 1e-12 * mass[0]


def test_time_stepping_self_convergence_is_second_order():
    mg = MacroGrid(half_width=4.0, shape=(128,), bc="periodic")
    x = mg.axes()[0]
    rho0 = _gaussian(x, 0.3)
    solver = DriftDiffusionSolver(mg, D=np.array([[0.3]]))
    T = 0.25
    ref = solver.run(rho0, T, dt=T / 512.0).values[-1]
    errs = [
        np.linalg.norm(solver.run(rho0, T, dt=T / n).values[-1] - ref)
        for n in (16, 32, 64)
    ]
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_explicit_step_is_stability_checked():
    mg = MacroGrid(half_width=4.0, shape=(64,), bc="periodic")
    x = mg.axes()[0]
    solver = DriftDiffusionSolver(mg, D=np.array([[0.5]]), theta=0.0)
    limit = mg.spacing[0] ** 2 / (2.0 * 0.5)  # h^2 / (2 d max|D|)
    rho = _gaussian(x, 0.5)
    with pytest.raises(ValueError):
        solver.step(rho, 1.25 * limit)
    out = solver.step(rho, 0.8 * limit)
    assert out.shape == rho.shape


def test_two_dim_anisotropic_variance_growth():
    # second moments of div(D grad rho) grow linearly: Cov(T) - Cov(0) = 2 D T
    mg = MacroGrid(half_width=4.0, shape=(48, 48), bc="periodic")
    ax, ay = mg.axes()
    X, Y = np.meshgrid(ax, ay, indexing="ij")
    D = np.array([[0.5, 0.15], [0.15, 0.3]])
    solver = DriftDiffusionSolver(mg, D=D)
    rho0 = np.exp(-(X**2 + Y**2) / (2.0 * 0.5**2))
    T = 0.5
    field = solver.run(rho0, T, dt=T / 128.0)

    def cov(r):
        m = r.sum()
        mx = (X * r).sum() / m
        my = (Y * r).sum() / m
        return np.array([
            [((X - mx) ** 2 * r).sum() / m, ((X - mx) * (Y - my) * r).sum() / m],
            [((X - mx) * (Y - my) * r).sum() / m, ((Y - my) ** 2 * r).sum() / m],
        ])

    growth = cov(field.values[-1]) - cov(field.values[0])
    assert np.max(np.abs(growth - 2.0 * D * T)) < 0.01 * np.max(2.0 * D * T)
    mass = field.mass()
    assert abs(mass[-1] - mass[0]) <= 1e-12 * mass[0]


def test_no_flux_refuses_mixed_tensor():
    mg = MacroGrid(half_width=2.0, shape=(16, 16), bc="no-flux")
    D = np.array([[0.5, 0.1], [0.1, 0.5]])
    with pytest.raises(NotImplementedError):
        DriftDiffusionSolver(mg, D=D)


def test_checkpoint_lookup_and_validation():
    mg = MacroGrid(half_width=2.0, shape=(32,), bc="periodic")
    x = mg.axes()[0]
    solver = DriftDiffusionSolver(mg, D=np.array([[0.2]]))
    rho0 = _gaussian(x, 0.5)
    field = solver.run(rho0, 0.3, dt=0.1, checkpoints=np.array([0.0, 0.25, 0.3]))
    assert np.allclose(field.times, [0.0, 0.25, 0.3])
    assert field.dt == pytest.approx(0.05)  # shrunk to land on the checkpoint
    assert field.at_time(0.25).shape == mg.shape
    with pytest.raises(KeyError):
        field.at_time(0.17)
    with pytest.raises(ValueError):
        solver.run(rho0, 0.3, checkpoints=np.array([0.1, 0.3]))
    with pytest.raises(ValueError):
        solver.run(rho0, 0.3, checkpoints=np.array([0.0, 0.2]))
    # a zero horizon takes no step and keeps only the initial slice
    field = solver.run(rho0, 0.0, dt=0.1, checkpoints=np.array([0.0]))
    assert np.array_equal(field.times, [0.0])
    assert np.array_equal(field.at_time(0.0), rho0)
    assert field.dt == 0.1



def test_factor_cache_tells_tiny_steps_apart():
    # a cache keyed on dt to 15 decimal places gave every step below 5e-16
    # the key 0.0, so the second step reused the factors of the first
    mg = MacroGrid(half_width=2.0, shape=(64,), bc="periodic")
    rho = _gaussian(mg.axes()[0], 0.3)
    solver = DriftDiffusionSolver(mg, D=np.array([[0.5]]))
    solver.step(rho, 1e-16)
    fresh = DriftDiffusionSolver(mg, D=np.array([[0.5]])).step(rho, 4e-16)
    assert np.array_equal(solver.step(rho, 4e-16), fresh)
    # steps that differ only by roundoff still share one factorization
    solver.step(rho, 0.01)
    assert len(solver._factor_cache) == 3
    solver.step(rho, 0.01 * (1.0 + 1e-15))
    assert len(solver._factor_cache) == 3


@pytest.mark.parametrize("shape", [(128,), (48, 40)])
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_fft_step_matches_the_lu_step(shape, theta):
    # constant D on a periodic grid takes the Fourier path; the same theta
    # scheme solved by LU on the assembled operator is the reference
    mg = MacroGrid(half_width=2.0, shape=shape, bc="periodic")
    if len(shape) == 1:
        D = np.array([[0.3]])
    else:
        D = np.array([[0.4, 0.12], [0.09, 0.25]])
    solver = DriftDiffusionSolver(mg, D=D, theta=theta)
    assert solver.symbol is not None
    dt = 0.5 * solver._stability_limit() if theta == 0.0 else 0.01

    eye = sparse.identity(mg.n_points, format="csc")
    lu = splu((eye - theta * dt * solver.L).tocsc())
    rhs = (eye + (1.0 - theta) * dt * solver.L).tocsr()
    rng = np.random.default_rng(3)
    rho_fft = rng.random(shape)
    rho_lu = rho_fft.ravel()
    rho0 = rho_fft
    for _ in range(50):
        rho_fft = solver.step(rho_fft, dt)
        rho_lu = lu.solve(rhs @ rho_lu)
    assert np.max(np.abs(rho_fft.ravel() - rho_lu)) <= 1e-13 * np.max(np.abs(rho_lu))
    # the same 50 steps as one multiplier power
    rho_pow = solver.step(rho0, dt, 50)
    assert np.max(np.abs(rho_pow.ravel() - rho_lu)) <= 1e-13 * np.max(np.abs(rho_lu))


def test_per_cell_or_no_flux_input_keeps_the_lu_step():
    # a 1-D grid is factored as an SPD tridiagonal (cyclic when periodic),
    # a 2-D one by splu
    from kinhom.macro_solver import _SPDTridiagonal

    rho = _gaussian(MacroGrid(half_width=2.0, shape=(32,)).axes()[0], 0.3)
    varying = np.linspace(0.2, 0.4, 32).reshape(-1, 1, 1)
    grid_2d = MacroGrid(half_width=2.0, shape=(16, 16), bc="periodic")
    X, Y = np.meshgrid(*grid_2d.axes(), indexing="ij")
    D_2d = np.zeros((grid_2d.n_points, 2, 2))
    D_2d[:, 0, 0] = 0.3 + 0.1 * np.sin(X).ravel()
    D_2d[:, 1, 1] = 0.2 + 0.05 * np.cos(Y).ravel()
    cases = [
        (MacroGrid(half_width=2.0, shape=(32,), bc="periodic"), varying, rho,
         _SPDTridiagonal),
        (MacroGrid(half_width=2.0, shape=(32,), bc="no-flux"), np.array([[0.3]]), rho,
         _SPDTridiagonal),
        (grid_2d, D_2d, np.exp(-(X**2 + Y**2) / 0.5), SuperLU),
    ]
    for mg, D, rho0, factors_type in cases:
        solver = DriftDiffusionSolver(mg, D=D)
        assert solver.symbol is None
        single = rho0
        for _ in range(5):
            single = solver.step(single, 0.01)
        (solve,) = solver._factor_cache.values()
        assert isinstance(solve.__self__, factors_type)
        assert np.array_equal(solver.step(rho0, 0.01, 5), single)


@pytest.mark.parametrize("bc", ["periodic", "no-flux"])
def test_a_one_dim_per_cell_run_factors_no_sparse_matrix(monkeypatch, bc):
    # the tanh scenario's macro stage: 512 cells, D = 0.3 (1 + 0.5 tanh x),
    # ten checkpoint intervals, 1030 steps, with splu refused
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("a 1-D macro step called splu")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    mg = MacroGrid(half_width=4.0, shape=(512,), bc=bc)
    x = mg.axes()[0]
    solver = DriftDiffusionSolver(mg, D=(0.3 * (1.0 + 0.5 * np.tanh(x))).reshape(-1, 1, 1))
    field = solver.run(_gaussian(x, 0.5), 1.03, dt=1e-3,
                       checkpoints=np.linspace(0.0, 1.03, 11))
    assert field.steps == 1030
    mass = field.mass()
    assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]


@pytest.mark.parametrize("bc, cells, value", [
    ("periodic", [10, 11], -5.0),
    ("no-flux", [10, 11], -5.0),
    # the tridiagonal part stays definite; the cyclic correction is not
    ("periodic", [0, 31], -2.0),
], ids=["periodic", "no-flux", "periodic-corner"])
def test_a_non_positive_definite_implicit_matrix_is_refused(bc, cells, value):
    # a negative D, passed directly (the ellipticity gate runs upstream),
    # makes I - theta dt L indefinite: no partial factors are kept
    mg = MacroGrid(half_width=2.0, shape=(32,), bc=bc)
    D = np.full((32, 1, 1), 0.3)
    D[cells] = value
    solver = DriftDiffusionSolver(mg, D=D)
    with pytest.raises(ValueError, match="positive definite"):
        solver.step(np.ones(32), 0.01)
    assert not solver._factor_cache


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_step_refuses_a_count_that_is_not_a_positive_integer(n):
    mg = MacroGrid(half_width=2.0, shape=(32,), bc="periodic")
    rho = _gaussian(mg.axes()[0], 0.3)
    for D in (np.array([[0.3]]), np.linspace(0.2, 0.4, 32).reshape(-1, 1, 1)):
        with pytest.raises(ValueError):
            DriftDiffusionSolver(mg, D=D).step(rho, 0.01, n)


def test_explicit_gate_checks_the_step_size_whatever_the_count():
    mg = MacroGrid(half_width=4.0, shape=(64,), bc="periodic")
    solver = DriftDiffusionSolver(mg, D=np.array([[0.5]]), theta=0.0)
    limit = mg.spacing[0] ** 2 / (2.0 * 0.5)
    rho = _gaussian(mg.axes()[0], 0.5)
    for n in (1, 3):
        with pytest.raises(ValueError):
            solver.step(rho, 1.25 * limit, n)
    assert solver.step(rho, 0.8 * limit, 3).shape == rho.shape


def test_fourier_run_keeps_the_mass_over_a_thousand_steps():
    # rfftn returned the symbol's zero mode (the first column sum of L, 0
    # in flux form) as -1.1e-13 here; its multiplier drifted the mass by
    # 1.3e-12 over these 1030 steps
    mg = MacroGrid(half_width=2.0, shape=(96, 128), bc="periodic")
    D = np.array([[0.3, 0.1], [0.1, 0.7]])
    solver = DriftDiffusionSolver(mg, D=D)
    assert solver.symbol is not None
    rho0 = np.random.default_rng(3).random(mg.shape)
    field = solver.run(rho0, 10.3, dt=0.01, checkpoints=np.linspace(0.0, 10.3, 11))
    assert field.steps == 1030
    mass = field.mass()
    assert np.max(np.abs(mass - mass[0])) <= 1e-14 * mass[0]


def test_max_dnorm_batched_equals_the_per_cell_loop():
    mg = MacroGrid(half_width=2.0, shape=(24, 20), bc="periodic")
    A = np.random.default_rng(5).normal(size=(mg.n_points, 2, 2))
    D = A + A.transpose(0, 2, 1)
    solver = DriftDiffusionSolver(mg, D=D)
    assert solver._max_dnorm == max(np.linalg.norm(Dc, 2) for Dc in D)


def test_initial_density_integrates_velocity_nodes():
    # the kinetic datum, prepared or not, integrates over the velocity nodes
    # to the density the macro run starts from
    for text in ("[velocity]\nweights = 1.0, 2.0\n[initial]\ncenter = 0.3\n",
                 "[velocity]\nweights = 1.0, 2.0\n[initial]\nprepared = no\n",
                 "[scenario]\ndimension = 2\n[velocity]\nfamily = uniform_circle\nn = 4\n"):
        cfg = parse_config(text)
        mg, vm = cfg.build_macro_grid(), cfg.build_velocity()
        rho = (cfg.initial_f(mg, vm) @ vm.weights).reshape(mg.shape)
        assert np.max(np.abs(rho - cfg.initial_rho(mg))) < 1e-14


# ---------------------------------------------------------------------------
# the Fourier symbol from the 3-cell stencil, L only on demand
# ---------------------------------------------------------------------------

FOURIER_CASES = [
    ((128,), np.array([[0.3]])),
    ((2048,), np.array([[0.7]])),
    ((48, 40), np.array([[0.4, 0.12], [0.09, 0.25]])),
    ((32, 32), np.array([[0.5, 0.0], [0.0, 0.2]])),
]


@pytest.mark.parametrize("shape, D", FOURIER_CASES)
def test_fourier_solver_never_assembles_the_full_operator(monkeypatch, shape, D):
    from kinhom import macro_solver

    flux_form = macro_solver._flux_form

    def stencil_only(cells, *args, **kwargs):
        assert max(cells) <= 3, f"assembled the full {cells} operator"
        return flux_form(cells, *args, **kwargs)

    monkeypatch.setattr(macro_solver, "_flux_form", stencil_only)
    mg = MacroGrid(half_width=2.0, shape=shape, bc="periodic")
    solver = DriftDiffusionSolver(mg, D=D)
    assert solver.symbol is not None
    field = solver.run(np.random.default_rng(1).random(shape), 0.1, dt=0.01,
                       checkpoints=np.array([0.0, 0.05, 0.1]))
    assert field.steps == 10
    assert "L" not in vars(solver)


@pytest.mark.parametrize("shape, D", FOURIER_CASES)
def test_fourier_symbol_is_the_dft_of_the_assembled_first_column(shape, D):
    mg = MacroGrid(half_width=2.0, shape=shape, bc="periodic")
    solver = DriftDiffusionSolver(mg, D=D)
    e0 = np.zeros(mg.n_points)
    e0[0] = 1.0
    want = np.fft.rfftn((solver.L @ e0).reshape(shape))
    want.flat[0] = 0.0
    if len(shape) == 1:
        assert np.array_equal(solver.symbol, want)
    else:
        # summing the duplicate entries of a 2-D row may take another order
        # on the 3-cell grid than on the full one
        assert np.max(np.abs(solver.symbol - want)) <= 1e-15 * np.max(np.abs(want))


def test_the_operator_is_built_on_demand_and_kept():
    mg = MacroGrid(half_width=2.0, shape=(24, 20), bc="periodic")
    solver = DriftDiffusionSolver(mg, D=np.array([[0.4, 0.12], [0.09, 0.25]]))
    assert "L" not in vars(solver)
    L = solver.L
    assert L.shape == (mg.n_points, mg.n_points)
    assert solver.L is L
    # flux form: every column sums to zero
    assert np.max(np.abs(np.asarray(L.sum(axis=0)))) <= 1e-12 * abs(L).max()
    # the LU path builds it at its first step size, not at construction
    lu = DriftDiffusionSolver(MacroGrid(half_width=2.0, shape=(32,), bc="no-flux"),
                              D=np.array([[0.3]]))
    assert lu.symbol is None and "L" not in vars(lu)
    lu.step(np.ones(32), 0.01)
    assert "L" in vars(lu)


@pytest.mark.parametrize("grid, D", [
    (MacroGrid(half_width=2.0, shape=(64,), bc="periodic"), np.array([[0.3]])),
    (MacroGrid(half_width=2.0, shape=(16, 16), bc="periodic"),
     np.array([[0.4, 0.12], [0.09, 0.25]])),
    (MacroGrid(half_width=2.0, shape=(32,), bc="no-flux"), np.array([[0.3]])),
], ids=["fourier-1d", "fourier-2d", "lu"])
def test_a_non_conservative_column_is_refused(monkeypatch, grid, D):
    from kinhom import macro_solver

    flux_form = macro_solver._flux_form

    def leaky(cells, *args, **kwargs):
        L = flux_form(cells, *args, **kwargs)
        n = L.shape[0]
        return L + sparse.csr_matrix(([1e-6], ([n - 1], [0])), shape=(n, n))

    monkeypatch.setattr(macro_solver, "_flux_form", leaky)
    if grid.bc == "periodic":
        # the Fourier path gates the stencil's column at construction
        with pytest.raises(AssertionError, match="conservation"):
            DriftDiffusionSolver(grid, D=D)
    else:
        # the LU path gates L when its first step size assembles it
        solver = DriftDiffusionSolver(grid, D=D)
        with pytest.raises(AssertionError, match="conservation"):
            solver.step(np.ones(grid.shape), 0.01)


def _per_cell_D(mg):
    x = mg.axes()[0]
    return (0.3 + 0.1 * np.sin(np.pi * x / mg.half_width)).reshape(-1, 1, 1)


@pytest.mark.parametrize("bc", ["periodic", "no-flux"])
@pytest.mark.parametrize("theta", [0.0, 1e-12, 0.25, 0.5, 1.0])
def test_lu_step_matches_the_product_then_solve_reference(bc, theta):
    # from theta = 1/2 on a step is one solve, (1/theta) lu.solve(rho) -
    # ((1-theta)/theta) rho; below it, where that difference would amplify
    # roundoff by (1-theta)/theta (1e12 at theta = 1e-12), it keeps the product
    mg = MacroGrid(half_width=2.0, shape=(64,), bc=bc)
    solver = DriftDiffusionSolver(mg, D=_per_cell_D(mg), theta=theta)
    assert solver.symbol is None
    dt = 0.5 * solver._stability_limit() if theta < 0.5 else 0.01
    eye = sparse.identity(mg.n_points, format="csc")
    lu = splu((eye - theta * dt * solver.L).tocsc())
    rhs = (eye + (1.0 - theta) * dt * solver.L).tocsr()
    rho = _gaussian(mg.axes()[0], 0.3) + 0.05
    ref = rho
    for _ in range(50):
        ref = lu.solve(rhs @ ref)
    got = solver.step(rho, dt, 50)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("bc", ["periodic", "no-flux"])
def test_one_solve_lu_step_keeps_the_mass_over_a_thousand_steps(bc):
    mg = MacroGrid(half_width=4.0, shape=(512,), bc=bc)
    solver = DriftDiffusionSolver(mg, D=_per_cell_D(mg))
    rho = _gaussian(mg.axes()[0], 0.5) + 0.05
    m0 = rho.sum() * mg.cell_volume
    m1 = solver.step(rho, 1e-3, 1000).sum() * mg.cell_volume
    assert abs(m1 - m0) <= 1e-13 * m0
