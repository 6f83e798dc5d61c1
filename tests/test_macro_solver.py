"""Macro diffusion integrator: exact solutions, conservation, orders."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import kinhom
from kinhom.harness import parse_config
from kinhom.macro_solver import DriftDiffusionSolver
from kinhom.phase_space import MacroGrid


def _gaussian(x, width):
    return np.exp(-(x**2) / (2.0 * width**2))


def _reference_L(grid, D):
    """The dense flux-form ``div(D^T grad)`` on ``grid``, one face at a time.

    Face ``(C, R)`` along axis ``a`` carries the flux ``D_aa d_a rho`` plus,
    on a periodic grid, ``D_ja d_j rho`` for ``j != a``, from the tensor
    averaged over ``C`` and ``R``; ``d_j`` is the centred difference along
    ``j`` averaged over the two cells.  The flux leaves ``C`` and enters
    ``R``, over ``h_a``.
    """
    shape, h = grid.shape, grid.spacing
    d, n = len(shape), grid.n_points
    D = np.broadcast_to(np.asarray(D, dtype=float).reshape(-1, d, d), (n, d, d))
    periodic = grid.bc == "periodic"

    def index(cell):
        return np.ravel_multi_index(tuple(c % m for c, m in zip(cell, shape)), shape)

    L = np.zeros((n, n))
    for cell in np.ndindex(*shape):
        for a in range(d):
            if not periodic and cell[a] == shape[a] - 1:
                continue
            right = list(cell)
            right[a] += 1
            C, R = index(cell), index(right)
            D_face = 0.5 * (D[C] + D[R])
            flux = np.zeros(n)
            flux[R] += D_face[a, a] / h[a]
            flux[C] -= D_face[a, a] / h[a]
            for j in range(d):
                if j == a or not periodic:
                    continue
                for base in (cell, right):
                    for sign in (1, -1):
                        nb = list(base)
                        nb[j] += sign
                        flux[index(nb)] += sign * D_face[j, a] / (4.0 * h[j])
            L[C] += flux / h[a]
            L[R] -= flux / h[a]
    return L


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


def test_a_two_dim_grid_that_is_not_circulant_is_refused():
    # every 2-D scenario is periodic with one D; anything else is refused at
    # construction, per-cell D and no-flux walls with or without mixed terms
    periodic = MacroGrid(half_width=2.0, shape=(16, 16), bc="periodic")
    no_flux = MacroGrid(half_width=2.0, shape=(16, 16), bc="no-flux")
    per_cell = np.tile(np.diag([0.3, 0.2]), (periodic.n_points, 1, 1))
    per_cell[7, 0, 0] = 0.4
    for mg, D in ((periodic, per_cell),
                  (no_flux, np.diag([0.5, 0.3])),
                  (no_flux, np.array([[0.5, 0.1], [0.1, 0.5]]))):
        with pytest.raises(ValueError, match="periodic with one D"):
            DriftDiffusionSolver(mg, D=D)


def test_a_non_finite_D_is_refused():
    # an infinite D on a periodic grid and a NaN on a no-flux one ran to
    # NaN densities; a per-cell NaN on a periodic grid was refused only by
    # the cyclic correction, at the first step
    periodic = MacroGrid(half_width=2.0, shape=(32,), bc="periodic")
    no_flux = MacroGrid(half_width=2.0, shape=(32,), bc="no-flux")
    per_cell = np.full((32, 1, 1), 0.3)
    per_cell[5] = np.nan
    for mg, D in ((periodic, np.array([[np.inf]])),
                  (no_flux, np.array([[np.nan]])),
                  (periodic, per_cell)):
        with pytest.raises(ValueError, match="finite"):
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
    # scheme solved by a dense LU of the reference operator is the reference
    mg = MacroGrid(half_width=2.0, shape=shape, bc="periodic")
    if len(shape) == 1:
        D = np.array([[0.3]])
    else:
        D = np.array([[0.4, 0.12], [0.09, 0.25]])
    solver = DriftDiffusionSolver(mg, D=D, theta=theta)
    assert solver.symbol is not None
    dt = 0.5 * solver._stability_limit() if theta == 0.0 else 0.01

    L, eye = _reference_L(mg, D), np.eye(mg.n_points)
    lu = lu_factor(eye - theta * dt * L)
    rhs = eye + (1.0 - theta) * dt * L
    rng = np.random.default_rng(3)
    rho_fft = rng.random(shape)
    rho_lu = rho_fft.ravel()
    rho0 = rho_fft
    for _ in range(50):
        rho_fft = solver.step(rho_fft, dt)
        rho_lu = lu_solve(lu, rhs @ rho_lu)
    assert np.max(np.abs(rho_fft.ravel() - rho_lu)) <= 1e-13 * np.max(np.abs(rho_lu))
    # the same 50 steps as one multiplier power
    rho_pow = solver.step(rho0, dt, 50)
    assert np.max(np.abs(rho_pow.ravel() - rho_lu)) <= 1e-13 * np.max(np.abs(rho_lu))


def test_per_cell_or_no_flux_input_keeps_the_lu_step():
    # a 1-D grid is factored as an SPD tridiagonal, cyclic when periodic
    from kinhom.macro_solver import _SPDTridiagonal

    rho = _gaussian(MacroGrid(half_width=2.0, shape=(32,)).axes()[0], 0.3)
    varying = np.linspace(0.2, 0.4, 32).reshape(-1, 1, 1)
    cases = [
        (MacroGrid(half_width=2.0, shape=(32,), bc="periodic"), varying),
        (MacroGrid(half_width=2.0, shape=(32,), bc="no-flux"), np.array([[0.3]])),
    ]
    for mg, D in cases:
        solver = DriftDiffusionSolver(mg, D=D)
        assert solver.symbol is None
        single = rho
        for _ in range(5):
            single = solver.step(single, 0.01)
        (solve,) = solver._factor_cache.values()
        assert isinstance(solve.__self__, _SPDTridiagonal)
        assert np.array_equal(solver.step(rho, 0.01, 5), single)


# the tanh scenario's macro stage: 512 cells, D = 0.3 (1 + 0.5 tanh x), ten
# checkpoint intervals, 1030 steps, run in a fresh interpreter
_PER_CELL_RUN = """
import json, sys
import numpy as np
from kinhom.macro_solver import DriftDiffusionSolver
from kinhom.phase_space import MacroGrid
mg = MacroGrid(half_width=4.0, shape=(512,), bc=sys.argv[1])
x = mg.axes()[0]
solver = DriftDiffusionSolver(mg, D=(0.3 * (1.0 + 0.5 * np.tanh(x))).reshape(-1, 1, 1))
field = solver.run(np.exp(-x**2 / 0.5), 1.03, dt=1e-3, checkpoints=np.linspace(0.0, 1.03, 11))
mass = field.mass()
(solve,) = solver._factor_cache.values()
print(json.dumps({"steps": field.steps, "drift": float(np.max(np.abs(mass - mass[0]) / mass[0])),
                  "solve": solve.__func__.__qualname__,
                  "sparse": [m for m in sys.modules if m.startswith("scipy.sparse")]}))
"""


@pytest.mark.parametrize("bc", ["periodic", "no-flux"])
def test_a_one_dim_per_cell_run_factors_no_sparse_matrix(bc):
    # the run loads no scipy.sparse module: each step is one SPD tridiagonal solve
    src = os.path.dirname(os.path.dirname(kinhom.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src] + sys.path)}
    proc = subprocess.run([sys.executable, "-c", _PER_CELL_RUN, bc], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["steps"] == 1030
    assert run["drift"] <= 1e-12
    assert run["solve"] == "_SPDTridiagonal.solve"
    assert run["sparse"] == []


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("bc", ["periodic", "no-flux"])
def test_a_tridiagonal_step_writes_into_no_caller_array(bc, theta):
    # at theta = 0.75 a step is (4/3) A^{-1} rho - (1/3) rho: a step that
    # scaled or subtracted in the caller's rho would change it here
    mg = MacroGrid(half_width=2.0, shape=(32,), bc=bc)
    x = mg.axes()[0]
    solver = DriftDiffusionSolver(mg, D=(0.3 * (1.0 + 0.5 * np.tanh(x))).reshape(-1, 1, 1),
                                  theta=theta)
    assert solver.symbol is None
    rho = _gaussian(x, 0.3)
    kept = rho.copy()
    out = solver.step(rho, 0.01, 3)
    assert np.array_equal(rho, kept) and not np.shares_memory(out, rho)
    # a run's checkpoints stay as returned while later steps run from them
    field = solver.run(rho, 0.1, dt=0.01, checkpoints=np.linspace(0.0, 0.1, 3))
    values = field.values.copy()
    for checkpoint in field.values:
        solver.step(checkpoint, 0.01, 2)
    solver.step(field.values[-1].reshape(-1), 0.01)
    assert np.array_equal(field.values, values) and np.array_equal(rho, kept)


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
    # the DFT of L's first column returned the symbol's zero mode (the
    # column sum, 0 in flux form) as -1.1e-13 here, and its multiplier
    # drifted the mass by 1.3e-12 over these 1030 steps; the closed form
    # is exactly 0 there
    mg = MacroGrid(half_width=2.0, shape=(96, 128), bc="periodic")
    D = np.array([[0.3, 0.1], [0.1, 0.7]])
    solver = DriftDiffusionSolver(mg, D=D)
    assert solver.symbol.flat[0] == 0.0
    rho0 = np.random.default_rng(3).random(mg.shape)
    field = solver.run(rho0, 10.3, dt=0.01, checkpoints=np.linspace(0.0, 10.3, 11))
    assert field.steps == 1030
    mass = field.mass()
    assert np.max(np.abs(mass - mass[0])) <= 1e-14 * mass[0]


def test_max_dnorm_batched_equals_the_per_cell_loop():
    mg = MacroGrid(half_width=2.0, shape=(64,), bc="periodic")
    D = np.random.default_rng(5).normal(size=(mg.n_points, 1, 1))
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
# the closed-form Fourier symbol, the 1-D face coefficients
# ---------------------------------------------------------------------------

FOURIER_CASES = [
    ((128,), np.array([[0.3]])),
    ((2048,), np.array([[0.7]])),
    ((48, 40), np.array([[0.4, 0.12], [0.09, 0.25]])),
    ((32, 32), np.array([[0.5, 0.0], [0.0, 0.2]])),
]


@pytest.mark.parametrize("shape, D", FOURIER_CASES)
def test_fourier_solver_never_assembles_the_full_operator(monkeypatch, shape, D):
    # the Fourier path takes neither face coefficients nor a factorization
    from kinhom import macro_solver

    def refuse(*args, **kwargs):
        raise AssertionError("the Fourier path built a tridiagonal operator")

    monkeypatch.setattr(macro_solver, "_faces", refuse)
    monkeypatch.setattr(macro_solver, "_SPDTridiagonal", refuse)
    mg = MacroGrid(half_width=2.0, shape=shape, bc="periodic")
    solver = DriftDiffusionSolver(mg, D=D)
    assert solver.symbol is not None
    field = solver.run(np.random.default_rng(1).random(shape), 0.1, dt=0.01,
                       checkpoints=np.array([0.0, 0.05, 0.1]))
    assert field.steps == 10


@pytest.mark.parametrize("shape, D", FOURIER_CASES)
def test_fourier_symbol_is_the_dft_of_the_assembled_first_column(shape, D):
    mg = MacroGrid(half_width=2.0, shape=shape, bc="periodic")
    solver = DriftDiffusionSolver(mg, D=D)
    want = np.fft.rfftn(_reference_L(mg, D)[:, 0].reshape(shape))
    assert solver.symbol.shape == want.shape
    assert solver.symbol.flat[0] == 0.0
    assert np.max(np.abs(solver.symbol - want)) <= 1e-15 * np.max(np.abs(want))


def test_fourier_symbol_is_accurate_on_the_low_modes():
    # -2a + 2a cos(kh) cancels on the low modes (4.2e-12 relative here);
    # -4a sin^2(kh/2) does not.  The series of -D k^2 (sin(x/2) / (x/2))^2,
    # x = kh, to x^6 is exact to double precision for these modes
    mg = MacroGrid(half_width=4.0, shape=(2048,), bc="periodic")
    solver = DriftDiffusionSolver(mg, D=np.array([[0.5]]))
    k = 2.0 * np.pi * np.arange(1, 9) / (2.0 * mg.half_width)
    x = k * mg.spacing[0]
    want = -0.5 * k**2 * (1.0 - x**2 / 12.0 + x**4 / 360.0 - x**6 / 20160.0)
    assert np.max(np.abs(solver.symbol[1:9] / want - 1.0)) <= 1e-15


@pytest.mark.parametrize("grid, D", [
    (MacroGrid(half_width=2.0, shape=(32,), bc="no-flux"), np.array([[0.3]])),
    (MacroGrid(half_width=2.0, shape=(32,), bc="periodic"),
     np.linspace(0.2, 0.4, 32).reshape(-1, 1, 1)),
], ids=["lu", "periodic-per-cell"])
def test_a_non_conservative_column_is_refused(monkeypatch, grid, D):
    # the column sums of the 1-D diagonals are gated at construction
    from kinhom import macro_solver

    faces = macro_solver._faces

    def leaky(*args, **kwargs):
        coefficients, right, diag = faces(*args, **kwargs)
        diag[-1] += 1e-6
        return coefficients, right, diag

    monkeypatch.setattr(macro_solver, "_faces", leaky)
    with pytest.raises(AssertionError, match="conservation"):
        DriftDiffusionSolver(grid, D=D)


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
    D = _per_cell_D(mg)
    solver = DriftDiffusionSolver(mg, D=D, theta=theta)
    assert solver.symbol is None
    dt = 0.5 * solver._stability_limit() if theta < 0.5 else 0.01
    L, eye = _reference_L(mg, D), np.eye(mg.n_points)
    rho = _gaussian(mg.axes()[0], 0.3) + 0.05
    ref = rho
    for _ in range(50):
        ref = np.linalg.solve(eye - theta * dt * L, (eye + (1.0 - theta) * dt * L) @ ref)
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
