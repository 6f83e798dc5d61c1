"""Acceptance gate: one test per guaranteed property, tolerances pinned.

Each criterion freezes a contract of the package — principal-eigenvalue
normalization, closed forms, dense oracles, randomized structure
invariants, macro-solver accuracy, quasi-periodic algebra consistency,
and the kinetic-to-macroscopic limit itself.  ``pytest -v`` prints one
pass/fail line per criterion.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from kinhom.cell_solver import (
    assemble,
    assemble_spectral_ap,
    equilibrium_F,
    solve_adjoint_corrector,
    solve_chi_star,
    solve_corrector,
)
from kinhom.collision import check_sdb, make_kernel
from kinhom.effective import assemble_effective, diffusion_matrix, solve_cell
from kinhom.harness import parse_config, run_pipeline
from kinhom.kinetic_ref import periodic_shift, shift_wavenumbers
from kinhom.macro_solver import DriftDiffusionSolver
from kinhom.phase_space import (
    CellGrid,
    MacroGrid,
    two_velocity_1d,
    velocity_from_tables,
)

VM = two_velocity_1d()

CROSSVAL_CONFIG = """\
[scenario]
name = crossval

[cell]
n = 64
scheme = spectral

[sigma]
family = sinusoidal
base = 1.0
alpha = 0.5

[initial]
kind = gaussian
center = 0.0
width = 0.1
prepared = yes

[macro]
half_width = 4.0
n = 512
t = 0.5
checkpoints = 10

[kinetic]
epsilons = 0.4, 0.2, 0.1
scheme = shift
collision = exact
"""

DRIFT_CONFIG = """\
[scenario]
name = drifting

[velocity]
family = two_velocity
weights = 1.0, 2.0

[cell]
n = 32

[sigma]
family = constant
s0 = 1.0

[initial]
kind = gaussian
width = 0.1
prepared = yes

[macro]
half_width = 4.0
n = 512
t = 0.5
checkpoints = 10

[kinetic]
epsilons = 0.2
scheme = shift
collision = exact
"""

# weights (1, 4) give the flux b = 0.6, and with it a D that the averaged rate
# does not give: every other kinetic check runs where the two coincide
HOMOGENIZATION_CONFIG = """\
[scenario]
name = homogenization

[velocity]
family = two_velocity
weights = 1.0, 4.0

[cell]
n = 64
scheme = spectral

[sigma]
family = sinusoidal
base = 1.0
alpha = 0.9

[initial]
kind = gaussian
center = 0.0
width = 0.1
prepared = yes

[macro]
half_width = 4.0
n = 1024
t = 0.5
checkpoints = 10

[kinetic]
epsilons = 0.2, 0.1, 0.05
scheme = shift
collision = exact
"""


@pytest.fixture(scope="module")
def crossval_report():
    return run_pipeline(parse_config(CROSSVAL_CONFIG))


def test_criterion_1_principal_eigenvalue_gate():
    grid = CellGrid((64,))
    rng = np.random.default_rng(11)
    g = rng.uniform(0.2, 2.0, (3, 3))
    vm3 = velocity_from_tables(
        nodes=np.array([[-1.3], [0.4], [1.0]]), weights=np.array([0.7, 1.1, 2.0])
    )
    grid_cases = [
        (make_kernel("constant", s0=1.0), VM),
        (make_kernel("sinusoidal", base=1.0, alpha=0.25), VM),
        (make_kernel("sinusoidal", base=1.0, alpha=0.5), VM),
        (make_kernel("table", table=(g + g.T) / 2), vm3),
    ]
    for kernel, vm in grid_cases:
        op = assemble(kernel, 0.0, vm, grid, scheme="upwind")
        lam, F = equilibrium_F(op)
        assert abs(lam - 1.0) <= 1e-8
        assert F.min() > 0.0
    quasi = make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2)
    op = assemble_spectral_ap(quasi, 0.0, VM)
    lam, F = equilibrium_F(op)
    assert abs(lam - 1.0) <= 1e-8
    # F between the torus points: Fourier interpolation on the lattice
    y = np.linspace(0.0, 5.0, 64)
    samples = (np.exp(1j * y[:, None] * op.lattice[None, :]) @ op.coeffs(F)).real
    assert samples.min() > 0.0
    print("criterion 1: PASS — |lambda - 1| <= 1e-8 and F > 0 on every family")


def test_criterion_2_constant_kernel_closed_forms():
    grid = CellGrid((64,))
    kernel = make_kernel("constant", s0=1.0)
    op = assemble(kernel, 0.0, VM, grid, scheme="upwind")
    lam, F = equilibrium_F(op)
    assert np.max(np.abs(F - 0.5)) <= 1e-10
    star = solve_chi_star(op)
    chi, b = star.chi, star.b
    assert abs(b[0]) <= 1e-10
    v = VM.field[:, 0]
    assert np.max(np.abs(chi[0].reshape(-1, VM.n_nodes) - (-v / 2.0)[None, :])) <= 1e-10
    pairing = -diffusion_matrix(op, chi)
    assert abs(pairing[0, 0] + 0.5) <= 1e-10
    eff = assemble_effective(solve_cell(kernel, 0.0, VM, grid=grid))
    assert abs(eff.D[0, 0] - 0.5) <= 1e-10
    assert abs(eff.U[0]) <= 1e-12
    assert abs(eff.flux[0]) <= 1e-10
    print("criterion 2: PASS — F = 1/2, chi = -v/2, D = -1/2|+1/2, U = 0, b = 0")


def test_criterion_3_dense_oracle_equivalence():
    op = assemble(make_kernel("sinusoidal", base=1.0, alpha=0.5), 0.0, VM,
                  CellGrid((32,)), scheme="upwind")
    P = op.dense_P()
    s = scipy.linalg.svdvals(P)
    assert np.sum(s < 1e-10 * s[0]) == 1
    _, _, Vh = scipy.linalg.svd(P)
    null = Vh[-1] / np.sum(op.weights * Vh[-1])
    _, F = equilibrium_F(op)
    assert np.max(np.abs(F - null)) <= 1e-8

    g = op.velocity_profile(0)
    aug = np.vstack([P, op.weights[None, :]])
    dense_fwd, *_ = np.linalg.lstsq(aug, np.concatenate([g, [0.0]]), rcond=None)
    fwd = solve_corrector(op, g)
    assert np.max(np.abs(fwd.field - dense_fwd)) <= 1e-8

    W = np.diag(op.weights)
    P_star = np.linalg.solve(W, P.T @ W)
    aug_adj = np.vstack([P_star, op.weights[None, :]])
    dense_adj, *_ = np.linalg.lstsq(aug_adj, np.concatenate([-g, [0.0]]), rcond=None)
    adj = solve_adjoint_corrector(op, -g)
    assert np.max(np.abs(adj.field - dense_adj)) <= 1e-8
    print("criterion 3: PASS — 1-D null space; F and both correctors match dense solves")


def test_criterion_4_randomized_structure_invariants():
    rng = np.random.default_rng(2024)
    cell = CellGrid((16,))
    for _ in range(100):
        K = int(rng.integers(2, 5))
        weights = rng.uniform(0.3, 2.0, K)
        nodes = np.sort(rng.uniform(-2.0, 2.0, K))
        vm = velocity_from_tables(nodes=nodes[:, None], weights=weights)
        g = rng.uniform(0.2, 2.0, (K, K))
        kernel = make_kernel("table", table=(g + g.T) / 2)
        op = assemble(kernel, 0.0, vm, cell, scheme="upwind")

        # the collision of the cell the pipeline solves: Q = K - Sigma, and
        # Q* = K* - Sigma with K* the weighted transpose
        f, h = rng.standard_normal(op.size), rng.standard_normal(op.size)
        Qf = op.apply_K(f) - op.losses[0] * f
        Qh = op.apply_K_adjoint(h) - op.losses[0] * h
        scale = max(np.abs(Qf).max(), 1.0)
        assert np.max(np.abs(Qf.reshape(-1, K) @ vm.weights)) <= 1e-12 * scale
        w = np.tile(vm.weights, op.n_points)
        lhs = float(np.sum(Qf * h * w))
        rhs = float(np.sum(f * Qh * w))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

        assert check_sdb(kernel, vm).passed
        broken = (g + g.T) / 2
        broken[0, 1] += rng.uniform(0.1, 0.5)
        assert not check_sdb(make_kernel("table", table=broken), vm).passed

        vec = rng.standard_normal(op.size)
        bound = op.norms(vec)[0] / op.sigma_min
        # no cell forms A: read the bound off a direct solve of A = P + K,
        # K from its action on the identity columns
        K_dense = np.column_stack([op.apply_K(e) for e in np.eye(op.size)])
        resolvent = np.linalg.solve(op.dense_P() + K_dense, vec)
        assert op.norms(resolvent)[0] <= bound * (1.0 + 1e-12)

        # the collocation transport T u = M u - Sigma_bar u has zero grid mean
        spectral = assemble(kernel, 0.0, vm, CellGrid((32,)), scheme="spectral")
        u = rng.standard_normal(spectral.size)
        du = (spectral.M.apply(u) - spectral.M.one * u).reshape(32, K)
        seminorm = np.sqrt(np.mean(du ** 2))
        assert np.max(np.abs(du.mean(axis=0))) <= 1e-12 * max(seminorm, 1.0)
    print("criterion 4: PASS — conservation, duality, balance controls, "
          "resolvent bound, zero-mean derivative (100 trials @ 1e-12)")


def test_criterion_5_diffusion_limit_cross_validation(crossval_report):
    sweep = crossval_report.sweep
    errs = [row.err for row in sweep.rows]  # ordered eps = 0.4, 0.2, 0.1
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:])]
    assert min(ratios) >= 1.5
    assert errs[-1] <= 0.05
    print(f"criterion 5: PASS — err(eps) = {errs} strictly decreasing, "
          f"ratios {ratios}, err(0.1) = {errs[-1]:.4f} <= 0.05")


def test_criterion_6_oscillation_functional_residuals(crossval_report):
    rows = crossval_report.sigma_rows
    epsilons = [0.4, 0.2, 0.1]
    by_key = {}
    for row in rows:
        by_key.setdefault((row.phi, row.m, row.c), {})[row.epsilon] = row.residual
    # oscillating component psi = phi(t, x) cos(2 pi y) c(v): monotone in eps
    # down to a floor, the psi = 1 bound below; under it a residual is the
    # roundoff of a vanishing pairing, which must stay there but need not fall
    floor = 1e-10
    checked = 0
    for (phi, m, c), res in by_key.items():
        if m != "cos2pi":
            continue
        series = [res[e] for e in epsilons]
        assert series[0] > floor, (phi, m, c, series)
        for prev, cur in zip(series, series[1:]):
            if prev > floor:
                assert prev > cur, (phi, m, c, series)
            else:
                assert cur <= floor, (phi, m, c, series)
        checked += 1
    assert checked == 4  # {1, gauss} x {1, a1}
    # psi = 1 pairs the conserved masses: machine-level at every eps
    for eps in epsilons:
        assert by_key[("1", "1", "1")][eps] <= floor
    print("criterion 6: PASS — cos(2 pi y) residuals decrease with eps to 1e-10; "
          "psi = 1 residual <= 1e-10")


def test_criterion_7_macro_heat_kernel_accuracy():
    mg = MacroGrid(half_width=4.0, shape=(512,), bc="periodic")
    x = mg.axes()[0]
    rho0 = np.exp(-(x**2) / 0.02)
    solver = DriftDiffusionSolver(mg, D=np.array([[0.5]]))
    T = 0.5
    field = solver.run(rho0, T, dt=T / 1024.0)
    var = 0.01 + 2.0 * 0.5 * T
    exact = np.zeros_like(x)
    for k in range(-3, 4):
        exact += 0.1 / np.sqrt(var) * np.exp(-((x + 8.0 * k) ** 2) / (2.0 * var))
    rel = np.linalg.norm(field.values[-1] - exact) / np.linalg.norm(exact)
    assert rel <= 1e-3
    mass = field.mass()
    assert abs(mass[-1] - mass[0]) <= 1e-12 * mass[0]
    print(f"criterion 7: PASS — heat-kernel relative L2 error {rel:.2e} <= 1e-3, "
          "mass drift <= 1e-12")


def test_criterion_8_quasi_periodic_consistency():
    t0 = time.perf_counter()
    quasi = make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2)
    eff_q = assemble_effective(solve_cell(quasi, 0.0, VM, backend="spectral_ap", n_modes=8))
    approx = make_kernel("quasi_approx", base=1.0, alpha1=0.2, alpha2=0.2,
                         p=239, q=169)
    eff_g = assemble_effective(solve_cell(
        approx, 0.0, VM, grid=CellGrid((1024,), period=(169.0,)), scheme="spectral"
    ))
    rel = abs(eff_q.D[0, 0] - eff_g.D[0, 0]) / abs(eff_g.D[0, 0])
    elapsed = time.perf_counter() - t0
    assert rel <= 1e-3
    assert elapsed < 60.0
    print(f"criterion 8: PASS — |D_lattice - D_grid| / D = {rel:.2e} <= 1e-3 "
          f"in {elapsed:.1f} s")


def test_criterion_9_drifting_equilibrium_path():
    report = run_pipeline(parse_config(DRIFT_CONFIG))
    b = float(report.flux[0])
    assert abs(b - 1.0 / 3.0) <= 1e-10
    # the flux-shifted corrector datum is exactly compatible
    vm = two_velocity_1d(weights=(1.0, 2.0))
    op = assemble(make_kernel("constant", s0=1.0), 0.0, vm, CellGrid((32,)),
                  scheme="upwind")
    _, F = equilibrium_F(op)
    rhs = -(op.velocity_profile(0) - b * op.const)
    compat = abs(op.inner(F, rhs)) / (op.norms(F)[0] * op.norms(rhs)[0])
    assert compat <= 1e-10
    row = report.sweep.rows[0]
    assert row.epsilon == 0.2
    assert row.err <= 0.10
    assert report.sweep.drift_shift == pytest.approx(b * 0.5 / 0.2)
    print(f"criterion 9: PASS — b = 1/3, compat {compat:.2e} <= 1e-10, "
          f"err(0.2) = {row.err:.4f} <= 0.10 against the drift-shifted limit")


def test_criterion_10_homogenized_not_averaged_diffusion():
    t0 = time.perf_counter()
    report = run_pipeline(parse_config(HOMOGENIZATION_CONFIG))
    errs = [row.err for row in report.sweep.rows]  # ordered eps = 0.2, 0.1, 0.05
    assert report.sweep.monotone
    assert report.sweep.min_ratio >= 1.5
    D = float(report.coefficients.D[0, 0])
    D_avg = 0.128  # D of the constant unit rate at weights (1, 4)
    assert D > 1.05 * D_avg
    # negative control: the macro solve alone with the averaged D, against
    # the same kinetic states in the same co-moving frame, misses the bound
    # the averaged rate <1 + 0.9 sin> = 1 as a constant kernel
    text = HOMOGENIZATION_CONFIG.replace("family = sinusoidal\nbase = 1.0\nalpha = 0.9\n",
                                         "family = constant\ns0 = 1.0\n")
    averaged = run_pipeline(parse_config(text), stop_after="macro")
    assert abs(averaged.coefficients.D[0, 0] - D_avg) <= 1e-12
    b = float(report.flux[0])
    assert abs(b - 0.6) <= 1e-10 and abs(averaged.flux[0] - b) <= 1e-10
    mg = report.config.build_macro_grid()
    kappa = shift_wavenumbers(mg)
    avg_errs = []
    for row in report.sweep.rows:
        final = report.kinetic_states[row.epsilon][-1]
        ref = periodic_shift(averaged.macro.at_time(final.t), b * final.t / row.epsilon, kappa)
        avg_errs.append(float(np.linalg.norm(final.density() - ref) / np.linalg.norm(ref)))
    avg_ratios = [e1 / e2 for e1, e2 in zip(avg_errs, avg_errs[1:])]
    assert min(avg_ratios) < 1.5
    elapsed = time.perf_counter() - t0
    print(f"criterion 10: PASS — D = {D:.6f} vs averaged {D_avg}; "
          f"err(eps) = {errs}, min ratio {report.sweep.min_ratio:.3f} >= 1.5; averaged D "
          f"gives {avg_errs}, min ratio {min(avg_ratios):.3f} < 1.5, in {elapsed:.2f} s")


def test_criterion_11_quasi_periodic_consistency_with_flux():
    # at weights (1, 4) the lattice and the rational approximant 239/169 give
    # a D that is not the averaged one, so their agreement is a real check
    t0 = time.perf_counter()
    vm = two_velocity_1d(weights=(1.0, 4.0))
    quasi = make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2)
    D_lattice = assemble_effective(
        solve_cell(quasi, 0.0, vm, backend="spectral_ap", n_modes=8)).D[0, 0]
    approx = make_kernel("quasi_approx", base=1.0, alpha1=0.2, alpha2=0.2, p=239, q=169)
    D_grid = assemble_effective(solve_cell(
        approx, 0.0, vm, grid=CellGrid((1024,), period=(169.0,)), scheme="spectral"
    )).D[0, 0]
    rel = abs(D_lattice - D_grid) / abs(D_grid)
    D_avg = 0.128  # D of the constant unit rate at weights (1, 4)
    gap = (D_lattice - D_avg) / D_avg
    elapsed = time.perf_counter() - t0
    assert rel <= 1e-6
    assert gap > 1e-3
    print(f"criterion 11: PASS — |D_lattice - D_grid| / D = {rel:.2e} "
          f"<= 1e-6, D = {D_lattice:.6f} is {gap:.2%} above the averaged {D_avg} "
          f"in {elapsed:.2f} s")
