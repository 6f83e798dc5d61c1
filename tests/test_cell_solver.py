from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres

from kinhom import cell_solver
from kinhom.cell_solver import (
    CompatibilityError,
    ConvergenceError,
    assemble,
    assemble_spectral_ap,
    equilibrium_F,
    solve_adjoint_corrector,
    solve_chi_star,
    solve_corrector,
    verify_variational,
)
from kinhom.collision import BalanceError, gain_loss, make_kernel
from kinhom.effective import solve_cell
from kinhom.phase_space import CellGrid, two_velocity_1d, uniform_circle, velocity_from_tables

VM = two_velocity_1d()
GRID32 = CellGrid((32,))
SINUSOIDAL = make_kernel("sinusoidal", base=1.0, alpha=0.5)
CONSTANT = make_kernel("constant", s0=1.0)


def _lattice_samples(op, flat, y):
    """Fourier interpolation of a torus cell's flat field at ``y``, ``(len(y), K)``."""
    phases = np.exp(1j * np.asarray(y, dtype=float)[:, None] * op.lattice[None, :])
    return (phases @ op.coeffs(flat)).real


# ---------------------------------------------------------------------------
# closed forms: constant kernel, symmetric two-velocity set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["upwind", "spectral"])
def test_constant_kernel_closed_forms(scheme):
    # F = 1/mu(V) = 1/2 and chi(v) = -v / (sigma0 mu(V)) = -v/2, b = 0
    op = assemble(CONSTANT, 0.0, VM, GRID32, scheme=scheme)
    lam, F = equilibrium_F(op)
    assert abs(lam - 1.0) < 1e-12
    assert np.max(np.abs(F - 0.5)) < 1e-10
    star = solve_chi_star(op)
    chi, b = star.chi, star.b
    assert abs(b[0]) < 1e-12
    expect = -VM.field[:, 0] / 2.0
    assert np.max(np.abs(chi[0].reshape(-1, VM.n_nodes) - expect[None, :])) < 1e-10


def test_constant_kernel_closed_forms_spectral_ap():
    op = assemble_spectral_ap(CONSTANT, 0.0, VM)
    lam, F = equilibrium_F(op)
    assert abs(lam - 1.0) < 1e-12
    y = np.linspace(0.0, 3.0, 7)
    assert np.max(np.abs(_lattice_samples(op, F, y) - 0.5)) < 1e-10
    star = solve_chi_star(op)
    chi, b = star.chi, star.b
    assert abs(b[0]) < 1e-12
    assert np.max(np.abs(_lattice_samples(op, chi[0], y) - (-VM.field[:, 0] / 2.0)[None, :])) < 1e-10


@pytest.mark.parametrize("build", [
    lambda vm: assemble(SINUSOIDAL, 0.0, vm, GRID32, scheme="upwind"),
    lambda vm: assemble(SINUSOIDAL, 0.0, vm, GRID32, scheme="spectral"),
    lambda vm: assemble_spectral_ap(
        make_kernel("quasi_periodic", base=1.0, alpha1=0.3, alpha2=0.2), 0.0, vm),
], ids=["upwind", "spectral", "spectral_ap"])
def test_equilibrium_is_the_constant_from_one_application_of_O(build):
    # P 1 = 0, so A 1 is the eigenvector of O = K A^-1: one application
    # measures the eigenvalue, and F = 1/mu(V) with no iteration
    vm = two_velocity_1d(weights=(1.0, 2.0))
    op = build(vm)
    calls = []
    apply_O = op.apply_O
    op.apply_O = lambda f: calls.append(1) or apply_O(f)
    lam, F = equilibrium_F(op)
    assert len(calls) == 1
    assert abs(lam - 1.0) < 1e-12
    mu = op.inner(op.const, op.const)
    assert np.array_equal(F, op.const / mu)
    # the operator carries the same equilibrium the solves read
    assert F is op.F
    assert np.max(np.abs(F - op.const / 3.0)) <= 1e-15
    assert op.inner(op.const, F) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="upwind"),
    lambda: assemble_spectral_ap(
        make_kernel("quasi_periodic", base=1.0, alpha1=0.3, alpha2=0.2), 0.0, VM),
], ids=["grid", "spectral_ap"])
def test_eigenvalue_gate_refuses_an_inconsistent_gain(build):
    # a gain 1 % above the loss breaks P 1 = 0; the Rayleigh quotient then
    # reads 1.01 and the gate refuses the operator
    # the loss was formed at construction: scaling the gain table leaves it
    op = build()
    op.G = 1.01 * op.G
    with pytest.raises(ConvergenceError, match="deviates from 1 beyond 1.0e-08"):
        equilibrium_F(op)


def test_unknown_transport_scheme_is_refused():
    with pytest.raises(ValueError, match="unknown transport scheme 'central'"):
        assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="central")
    # a stack is built from rates alone, and refuses a misspelt scheme too
    op = assemble(SINUSOIDAL, 0.0, VM, GRID32)
    with pytest.raises(ValueError, match="unknown transport scheme 'upwnd'"):
        cell_solver.CellStack(GRID32, VM, op.samples, op.G, "upwnd")


def test_non_finite_sampled_rates_are_refused():
    # refused before the balance gate, which would read the gap as NaN and
    # blame semi-detailed balance
    for bad in (np.nan, np.inf):
        kernel = make_kernel("constant", s0=1.0)
        samples = np.ones(32)
        samples[5] = bad
        kernel.sample_cell = lambda x, grid: samples
        with pytest.raises(ValueError, match="positive and finite on the grid"):
            assemble(kernel, 0.0, VM, GRID32)


# ---------------------------------------------------------------------------
# dense oracles on the 32 x 2 discretization
# ---------------------------------------------------------------------------

def test_null_space_dimension_and_equilibrium_direction():
    op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="upwind")
    P = op.dense_P()
    s = scipy.linalg.svdvals(P)
    assert np.sum(s < 1e-10 * s[0]) == 1
    # the kernel direction from the dense SVD matches equilibrium_F
    _, _, Vh = scipy.linalg.svd(P)
    null = Vh[-1]
    null = null / np.sum(op.weights * null)  # normalize int M(null) dmu to 1
    _, F = equilibrium_F(op)
    assert np.max(np.abs(F - null)) < 1e-8


def test_spectral_scheme_even_grid_carries_alternating_mode():
    # The spectral derivative on an even grid zeroes the unpaired top
    # frequency, so the alternating sample pattern (velocity-independent)
    # is transport-invisible and collision-invisible: one extra, physically
    # inert null direction.  An odd grid has none.
    op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="spectral")
    s = scipy.linalg.svdvals(op.dense_P())
    assert np.sum(s < 1e-10 * s[0]) == 2
    alt = np.repeat(np.cos(np.pi * np.arange(32)), VM.n_nodes)
    assert np.max(np.abs(op.apply_P(alt))) < 1e-10
    # equilibrium is untouched by the artifact: it still solves exactly
    lam, F = equilibrium_F(op)
    assert abs(lam - 1.0) < 1e-12
    assert np.min(F) > 0.0

    odd = assemble(SINUSOIDAL, 0.0, VM, CellGrid((33,)), scheme="spectral")
    s_odd = scipy.linalg.svdvals(odd.dense_P())
    assert np.sum(s_odd < 1e-10 * s_odd[0]) == 1


def test_corrector_matches_dense_least_squares():
    op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="spectral")
    P = op.dense_P()
    g = op.velocity_profile(0)  # int M(a) dmu = 0: compatible forward datum
    # gauge-constrained dense solve: stack the weighted-mean row
    aug = np.vstack([P, op.weights[None, :]])
    rhs = np.concatenate([g, [0.0]])
    dense, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    sol = solve_corrector(op, g)
    assert np.max(np.abs(sol.field - dense)) < 1e-8
    assert sol.residual < 1e-9


def test_adjoint_corrector_matches_dense_least_squares():
    op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="spectral")
    P = op.dense_P()
    W = np.diag(op.weights)
    P_star = np.linalg.solve(W, P.T @ W)
    rhs = -op.velocity_profile(0)  # b = 0 here, so no shift needed
    aug = np.vstack([P_star, op.weights[None, :]])
    dense, *_ = np.linalg.lstsq(aug, np.concatenate([rhs, [0.0]]), rcond=None)
    sol = solve_adjoint_corrector(op, rhs)
    assert np.max(np.abs(sol.field - dense)) < 1e-8


def test_incompatible_data_is_refused():
    op = assemble(CONSTANT, 0.0, VM, GRID32, scheme="upwind")
    with pytest.raises(CompatibilityError):
        solve_corrector(op, op.const)  # int M(1) dmu = mu(V) != 0
    with pytest.raises(CompatibilityError):
        solve_adjoint_corrector(op, op.const)


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.0, VM, GRID32),
    lambda: _stack_of(make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                                  x_amplitude=0.5), (-1.0, 0.0, 1.0)),
    lambda: assemble_spectral_ap(
        make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), 0.0, VM),
], ids=["grid", "stack", "spectral_ap"])
@pytest.mark.parametrize("solve", [solve_corrector, solve_adjoint_corrector])
def test_a_right_hand_side_of_another_size_is_refused(build, solve):
    # the solves take flat (point, node) fields of the operator's size, and
    # name the size they expected before any gate reads the datum
    op = build()
    for rhs in (np.zeros(op.size + 1), np.zeros((op.size // 2, 2))):
        with pytest.raises(ValueError, match=f"expected flat size {op.size}, got"):
            solve(op, rhs)


def test_unbalanced_kernel_is_refused():
    kernel = make_kernel("table", table=np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(BalanceError):
        assemble(kernel, 0.0, VM, GRID32)
    with pytest.raises(BalanceError):
        assemble_spectral_ap(kernel, 0.0, VM)


# ---------------------------------------------------------------------------
# structure invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["upwind", "spectral"])
def test_discrete_duality(scheme):
    rng = np.random.default_rng(1)
    op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme=scheme)
    K = _dense(op.apply_K, op.size)
    for _ in range(25):
        f = rng.standard_normal(op.size)
        g = rng.standard_normal(op.size)
        lhs = op.inner(op.apply_P(f), g)
        rhs = op.inner(f, op.apply_P_adjoint(g))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)
        # K from its action on the identity columns, against K*'s action
        lhs = op.inner(K @ f, g)
        assert abs(lhs - op.inner(f, op.apply_K_adjoint(g))) < 1e-12 * max(abs(lhs), 1.0)


def _solve_A(op, h):
    """``A^{-1} h`` by a direct solve: no cell forms ``A``, so ``A = P + K`` from the actions."""
    return np.linalg.solve(op.dense_P() + _dense(op.apply_K, op.size), h)


def test_absorption_inverse_bound_and_positivity():
    # <Af, f> >= sigma_min ||f||^2 for both schemes, so ||A^-1|| <= 1/sigma_min;
    # upwind A is an M-matrix, so A^-1 preserves positivity
    rng = np.random.default_rng(2)
    for scheme in ("upwind", "spectral"):
        op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme=scheme)
        for _ in range(25):
            h = rng.standard_normal(op.size)
            f = _solve_A(op, h)
            assert op.norms(f)[0] <= op.norms(h)[0] / op.sigma_min * (1 + 1e-12)
    op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="upwind")
    for _ in range(25):
        h = rng.uniform(0.1, 1.0, op.size)
        assert np.all(_solve_A(op, h) > 0)


def test_transport_has_zero_cell_mean():
    # M(a . grad_y u) = 0: the transport part of A has vanishing grid average
    rng = np.random.default_rng(3)
    for scheme in ("upwind", "spectral"):
        op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme=scheme)
        for _ in range(25):
            u = rng.standard_normal(op.size)
            Au = op.apply_P(u) + op.apply_K(u)
            transport = Au - op.losses[0] * u
            means = transport.reshape(op.n_points, VM.n_nodes).mean(axis=0)
            assert np.max(np.abs(means)) < 1e-12 * max(np.abs(u).max(), 1.0)


def _transport(op, u):
    """The collocation transport ``T u = M u - Sigma_bar u`` (``M 1 = Sigma_bar``)."""
    return op.M.apply(u) - op.M.one * u


def test_collocation_transport_differentiates_exactly_below_nyquist():
    # T is a_k d/dy per node: exact on a resolved mode
    vm = two_velocity_1d(weights=(1.0, 2.0))
    op = assemble(SINUSOIDAL, 0.0, vm, CellGrid((64,)), scheme="spectral")
    y = op.grid.axes()[0]
    Tu = _transport(op, np.repeat(np.sin(2 * np.pi * y), vm.n_nodes)).reshape(64, vm.n_nodes)
    expect = np.outer(2 * np.pi * np.cos(2 * np.pi * y), vm.field[:, 0])
    assert np.max(np.abs(Tu - expect)) < 1e-12


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="spectral"),
    lambda: assemble(make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), 0.0,
                     uniform_circle(8), CellGrid((8, 8)), scheme="spectral"),
], ids=["1d", "circle-8x8"])
def test_collocation_transport_has_zero_mean_per_node(build):
    # the derivative drops the unpaired Nyquist mode of an even axis and has
    # no constant mode, so every real field's transport has zero grid mean
    # at each node
    op = build()
    rng = np.random.default_rng(5)
    for _ in range(10):
        Tu = _transport(op, rng.standard_normal(op.size))
        means = Tu.reshape(op.n_points, op.vm.n_nodes).mean(axis=0)
        assert np.max(np.abs(means)) < 1e-13


def test_circle_axis_nodes_couple_along_their_own_axis_only():
    # an axis node of the circle moves along one axis: its upwind symbol
    # along the other axis is exactly 0, so the node's block splits into
    # independent cyclic lines along its own axis
    vm, grid = uniform_circle(8), CellGrid((8, 8))
    terms = cell_solver._upwind_terms(grid, vm.field)
    for k, axis in zip((0, 2, 4, 6), (0, 1, 0, 1)):
        assert np.all(terms[1 - axis][k] == 0.0)
        assert np.all(terms[axis][k][1:] != 0.0)


def test_variational_residual_is_roundoff():
    for build in (
        lambda: assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="upwind"),
        lambda: assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="spectral"),
        lambda: assemble_spectral_ap(
            make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), 0.0, VM
        ),
    ):
        op = build()
        assert verify_variational(op) < 1e-12


def test_variational_residual_sees_an_unbalanced_gain():
    # ||P F|| / ||F|| is roundoff on every backend; a gain 1 % above the
    # loss leaves P F = -0.01 K F, which reads at least 1e-3
    for build in (
        lambda: assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="upwind"),
        lambda: assemble(make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2),
                         0.0, uniform_circle(8), CellGrid((8, 8))),
        lambda: assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="spectral"),
        lambda: assemble_spectral_ap(
            make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), 0.0, VM
        ),
    ):
        op = build()
        assert verify_variational(op) < 1e-12
        op = build()
        op.G = 1.01 * op.G  # the loss stays as formed at construction
        assert verify_variational(op) >= 1e-3


# ---------------------------------------------------------------------------
# the upwind splitting M = T + Sigma_bar, inverted by FFT
# ---------------------------------------------------------------------------

def _upwind_family(vm, grid, xs=(-1.3, 0.4, 2.0)):
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5, dim=grid.dim)
    return _stack_of(kernel, xs, vm=vm, grid=grid)


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((33,))),
    # both signs, a speed at roundoff and a resting node
    lambda: assemble(SINUSOIDAL, 0.0, velocity_from_tables([[1.5], [-0.7], [6e-17], [0.0]],
                                                           [1.0, 1.0, 1.0, 1.0]), CellGrid((16,))),
    lambda: assemble(make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), 0.0,
                     uniform_circle(12), CellGrid((6, 8))),
    lambda: assemble(make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), 0.0,
                     uniform_circle(8), CellGrid((9, 8))),
    lambda: _upwind_family(two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    lambda: _upwind_family(uniform_circle(8), CellGrid((8, 6))),
], ids=["1d-16", "1d-33", "1d-speeds-16", "2d-circle12-6x8", "2d-9x8", "stack-1d",
        "stack-2d-8x6"])
def test_upwind_M_inverse_inverts_transport_plus_the_mean_loss(build):
    # M = T + Sigma_bar: the reference transport of each block with its
    # per-node loss averaged over the grid points
    op = build()
    n, K = op.grid.n_points, op.vm.n_nodes
    loss = op.losses.reshape(op.n_blocks, n, K)
    mean = np.broadcast_to(loss.mean(axis=1)[:, None], loss.shape).ravel()
    np.testing.assert_allclose(op.M.excess, op.losses.ravel() - mean, rtol=0, atol=1e-15)
    T = _reference_transport(op.vm, op.grid)
    M = (sparse.block_diag([T] * op.n_blocks) + sparse.diags(mean)).toarray()
    assert np.max(np.abs(_dense(op.M.apply, op.size) - M)) <= 1e-14 * np.max(np.abs(M))
    np.testing.assert_allclose(op.M.one, M @ op.const, rtol=0, atol=1e-13)
    W = op.weights
    M_star = (M.T * W) / W[:, None]
    rng = np.random.default_rng(4)
    for _ in range(3):
        f = rng.standard_normal(op.size)
        for mat, inverse in ((M, op.M.solve), (M_star, op.M.solve_adjoint)):
            g = inverse(f)
            assert g.dtype == float and g.shape == f.shape
            assert np.max(np.abs(mat @ g - f)) <= 1e-13 * np.max(np.abs(f))
    # O = N M^-1 with N = M - P, so O M f = M f - P f
    f = rng.standard_normal(op.size)
    np.testing.assert_allclose(op.apply_O(M @ f), M @ f - op.apply_P(f), rtol=0, atol=1e-13)
    np.testing.assert_allclose(op.apply_O_adjoint(M_star @ f), M_star @ f - op.apply_P_adjoint(f),
                               rtol=0, atol=1e-13)


def _dense_D(op):
    """``D`` from a dense bordered solve of ``P* chi_j = -(a_j - b_j)``, gauged to mean zero."""
    P = op.dense_P()
    W = op.weights
    P_star = (P.T * W) / W[:, None]
    bordered = np.block([[P_star, op.const[:, None]], [W[None, :], np.zeros((1, 1))]])
    F = op.F
    D = np.empty((op.vm.dim, op.vm.dim))
    chi = []
    for j in range(op.vm.dim):
        a_j = op.velocity_profile(j)
        rhs = -(a_j - op.inner(F, a_j) * op.const)
        chi.append(np.linalg.solve(bordered, np.append(rhs, 0.0))[:-1])
    for i in range(op.vm.dim):
        for j in range(op.vm.dim):
            D[i, j] = -op.inner(op.velocity_profile(j) * F, chi[i])
    return D


@pytest.mark.parametrize("kernel, vm, grid", [
    (SINUSOIDAL, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    (make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), uniform_circle(8), CellGrid((8, 8))),
], ids=["1d-16", "2d-circle8-8x8"])
def test_upwind_D_matches_a_dense_direct_solve_of_P_star(kernel, vm, grid):
    cell = solve_cell(kernel, 0.0, vm, grid=grid)
    want = _dense_D(cell.op)
    assert np.max(np.abs(cell.D - want)) <= 1e-11 * np.max(np.abs(want))


def _corrector_iterations(n):
    op = assemble(make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), 0.0,
                  uniform_circle(8), CellGrid((n, n)))
    iterations = []
    for j in range(2):
        a_j = op.velocity_profile(j)
        rhs = -(a_j - op.inner(op.F, a_j) * op.const)
        iterations.append(solve_adjoint_corrector(op, rhs).iterations)
    return iterations


def test_gmres_iterations_do_not_grow_with_the_cell_grid():
    # the circle2d rates: 21 iterations a corrector at 32^2 and 22 at 64^2
    # and 128^2, while the unknowns grow 16-fold; the splitting takes all
    # the transport into M, so the count does not follow the grid
    coarse, fine = _corrector_iterations(32), _corrector_iterations(128)
    assert max(coarse) <= 22 and max(fine) <= max(coarse) + 1


# ---------------------------------------------------------------------------
# scheme agreement and convergence
# ---------------------------------------------------------------------------

def test_upwind_converges_to_spectral_corrector():
    # v-independent sinusoidal rate: the spectral solve is exact below
    # Nyquist, upwind carries an O(h) bias that must shrink ~ first order
    ref_op = assemble(SINUSOIDAL, 0.0, VM, CellGrid((256,)), scheme="spectral")
    chi_ref = solve_chi_star(ref_op).chi
    y = ref_op.grid.axes()[0]

    errs = []
    for n in (32, 64, 128):
        op = assemble(SINUSOIDAL, 0.0, VM, CellGrid((n,)), scheme="upwind")
        chi = solve_chi_star(op).chi
        stride = 256 // n
        ref = chi_ref[0].reshape(256, VM.n_nodes)[::stride]
        errs.append(np.max(np.abs(chi[0].reshape(n, VM.n_nodes) - ref)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 1.7 and errs[1] / errs[2] > 1.7


def test_lattice_backend_matches_grid_backend():
    op_g = assemble(SINUSOIDAL, 0.0, VM, CellGrid((64,)), scheme="spectral")
    op_s = assemble_spectral_ap(SINUSOIDAL, 0.0, VM, n_modes=24)
    _, F_g = equilibrium_F(op_g)
    _, F_s = equilibrium_F(op_s)
    y = op_g.grid.axes()[0]
    on_grid = (64, VM.n_nodes)
    assert np.max(np.abs(_lattice_samples(op_s, F_s, y) - F_g.reshape(on_grid))) < 1e-10
    star_g = solve_chi_star(op_g)
    star_s = solve_chi_star(op_s)
    chi_g, b_g = star_g.chi, star_g.b
    chi_s, b_s = star_s.chi, star_s.b
    assert np.max(np.abs(b_g - b_s)) < 1e-10
    assert np.max(np.abs(_lattice_samples(op_s, chi_s[0], y) - chi_g[0].reshape(on_grid))) < 1e-8


def test_equilibrium_positive_for_asymmetric_weights():
    vm = velocity_from_tables(nodes=[[-1.0], [1.0]], weights=[1.0, 2.0])
    op = assemble(CONSTANT, 0.0, vm, GRID32, scheme="upwind")
    lam, F = equilibrium_F(op)
    assert abs(lam - 1.0) < 1e-12
    # F = 1/mu(V) = 1/3 for every admissible kernel
    assert np.max(np.abs(F - 1.0 / 3.0)) < 1e-10
    assert F.min() > 0


def test_spectral_field_sampling_consistency():
    op = assemble_spectral_ap(SINUSOIDAL, 0.0, VM, n_modes=8)
    _, F = equilibrium_F(op)
    # mean over the fast variable equals the zero-frequency coefficient
    zero = np.flatnonzero(np.abs(op.lattice) < 1e-12)[0]
    coeffs = op.coeffs(F)
    dense_mean = _lattice_samples(op, F, np.linspace(0, 1, 2048, endpoint=False)).mean(axis=0)
    assert np.max(np.abs(dense_mean - coeffs[zero].real)) < 1e-12
    torus_mean = F.reshape(op.n_points, VM.n_nodes).mean(axis=0)
    assert np.max(np.abs(torus_mean - coeffs[zero].real)) < 1e-14


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), GRID32),
    lambda: assemble_spectral_ap(
        make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), 0.0, VM
    ),
], ids=["grid", "spectral_ap"])
def test_chi_star_diagnostics_come_from_the_solves(build):
    # reference: recompute each corrector's residual and bound from its field
    op = build()
    star = solve_chi_star(op)
    worst_res = worst_const = 0.0
    for j, c in enumerate(star.chi):
        rhs = -(op.velocity_profile(j) - star.b[j] * op.const)
        res = op.norms(op.apply_P_adjoint(c) - rhs)[0]
        nrm = op.norms(rhs)[0]
        worst_res = max(worst_res, res / nrm if nrm > 0 else res)
        worst_const = max(worst_const, op.norms(c)[0] / nrm if nrm > 0 else 0.0)
    assert star.residual == worst_res
    assert star.bound_constant == worst_const
    assert 0.0 < star.residual < 1e-9 and star.bound_constant > 0.0


# ---------------------------------------------------------------------------
# actions pinned to the sparse construction they replaced
# ---------------------------------------------------------------------------

def _reference_upwind(n, h, speed):
    # lil construction: diagonals, then the periodic corner
    if speed == 0.0:
        return sparse.csr_matrix((n, n))
    e = np.ones(n)
    if speed > 0:
        mat = sparse.diags([e, -e], [0, -1], shape=(n, n), format="lil")
        mat[0, n - 1] = -1.0
    else:
        mat = sparse.diags([-e, e], [0, 1], shape=(n, n), format="lil")
        mat[n - 1, 0] = 1.0
    return (speed / h) * mat.tocsr()


def _reference_transport(vm, grid):
    """The upwind transport ``T`` of one cell, built with kron and sum(blocks)."""
    K = vm.n_nodes
    blocks = []
    for k in range(K):
        mats = [_reference_upwind(grid.shape[ax], grid.spacing[ax], float(vm.field[k, ax]))
                for ax in range(grid.dim)]
        if grid.dim == 1:
            Tk = mats[0]
        else:
            eye0 = sparse.identity(grid.shape[0], format="csr")
            eye1 = sparse.identity(grid.shape[1], format="csr")
            Tk = sparse.kron(mats[0], eye1, format="csr") + sparse.kron(eye0, mats[1], format="csr")
        Ek = sparse.csr_matrix(([1.0], ([k], [k])), shape=(K, K))
        blocks.append(sparse.kron(Tk, Ek, format="csr"))
    return sum(blocks)


def _reference_matrices(rates, vm, grid):
    """``(P, A, K)`` of ``rates`` ``(*grid.shape, K, K)`` built with kron, sum(blocks) and COO."""
    K, n = vm.n_nodes, grid.n_points
    size = n * K
    gain, sigma = gain_loss(rates.reshape(n, K, K), vm.weights)
    T = _reference_transport(vm, grid)
    jj, kk, ll = np.meshgrid(np.arange(n), np.arange(K), np.arange(K), indexing="ij")
    Km = sparse.csr_matrix((gain.ravel(), ((jj * K + kk).ravel(), (jj * K + ll).ravel())),
                           shape=(size, size))
    A = (T + sparse.diags(sigma.reshape(-1))).tocsr()
    return (A - Km).tocsr(), A, Km


def _dense(apply, size):
    """The dense matrix of the linear map ``apply`` on flat fields of ``size``."""
    return np.column_stack([apply(e) for e in np.eye(size)])


def _assert_gain_matches(op, Km):
    """``apply_K`` and ``apply_K_adjoint`` of ``op`` against the dense gain ``Km``.

    ``Km`` holds the sampled ``c s g w`` of each point's ``K x K`` block;
    the actions take ``c s`` and ``G = g w`` apart, so they match to
    roundoff, 1e-14 of the largest entry.  The adjoint is the weighted
    transpose.
    """
    W = op.weights
    for got, want in ((op.apply_K, Km), (op.apply_K_adjoint, (Km.T * W) / W[:, None])):
        assert np.max(np.abs(_dense(got, op.size) - want)) <= 1e-14 * np.max(np.abs(want))


def _assert_matches_reference(op, P, A, Km):
    """``op`` against the reference ``(P, A, K)`` of the same cells.

    ``K`` and its adjoint (:func:`_assert_gain_matches`), ``P``
    (:meth:`dense_P`) and ``A = M + diag(M.excess)`` come from actions, so
    they match to roundoff: 1e-14 of the largest entry of ``K`` and of
    ``A``, as on a one-node set ``P`` is the transport alone, 0 or at 1e-15.
    """
    _assert_gain_matches(op, Km.toarray())
    A = A.toarray()
    tol = 1e-14 * np.max(np.abs(A))
    assert np.max(np.abs(op.dense_P() - P.toarray())) <= tol
    assert np.max(np.abs(_dense(op.M.apply, op.size) + np.diag(op.M.excess) - A)) <= tol


@pytest.mark.parametrize("speed", [1.5, -0.7, 6e-17, 0.0])
def test_upwind_matrix_is_bitwise_the_lil_reference(speed):
    # one velocity node: A is the lil stencil of that speed plus the loss
    vm, grid = velocity_from_tables([[speed]], [1.0]), CellGrid((16,))
    op = assemble(SINUSOIDAL, 0.0, vm, grid, scheme="upwind")
    rates = np.multiply.outer(SINUSOIDAL.sample_cell(0.0, grid), SINUSOIDAL.node_matrix(vm))
    _assert_matches_reference(op, *_reference_matrices(rates, vm, grid))


@pytest.mark.parametrize("kernel, vm, grid", [
    (SINUSOIDAL, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    (SINUSOIDAL, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((33,))),
    # both signs, a speed at roundoff (entries of 9.6e-16) and a resting node
    # (no transport entries)
    (SINUSOIDAL, velocity_from_tables([[1.5], [-0.7], [6e-17], [0.0]], [1.0, 1.0, 1.0, 1.0]),
     CellGrid((16,))),
    (make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), uniform_circle(8), CellGrid((8, 8))),
    # a non-square grid: the two axes' neighbours sit at different strides
    (make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), uniform_circle(8), CellGrid((8, 6))),
    # nodes with two non-zero components of mixed sign, upwind on both axes
    (make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), uniform_circle(6), CellGrid((8, 8))),
    (make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), uniform_circle(12), CellGrid((6, 8))),
], ids=["1d-16", "1d-33", "1d-speeds-16", "2d-8x8", "2d-8x6", "2d-circle6-8x8",
        "2d-circle12-6x8"])
def test_upwind_assembly_is_bitwise_the_sparse_reference(kernel, vm, grid):
    op = assemble(kernel, 0.0, vm, grid, scheme="upwind")
    rates = np.multiply.outer(kernel.sample_cell(0.0, grid), kernel.node_matrix(vm))
    _assert_matches_reference(op, *_reference_matrices(rates, vm, grid))


def _fresh_rates(kernel, x, grid, vm):
    """The rates on ``grid`` from ``evaluate``, which keeps no profile samples."""
    pts = grid.points()
    rates = kernel.evaluate(x, pts[:, 0] if grid.dim == 1 else pts, vm)
    return rates.reshape(*grid.shape, vm.n_nodes, vm.n_nodes)


@pytest.mark.parametrize("dim, vm, grid", [
    (1, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    (1, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((33,))),
    (2, uniform_circle(8), CellGrid((8, 8))),
    (2, uniform_circle(8), CellGrid((8, 6))),
    (2, uniform_circle(12), CellGrid((6, 8))),
], ids=["1d-16", "1d-33", "2d-8x8", "2d-8x6", "2d-circle12-6x8"])
def test_sampled_operators_from_one_plan_are_bitwise_the_sparse_reference(dim, vm, grid):
    # positions of a tanh-modulated kernel in a row, one operator each: each
    # operator is the reference built at its own rates
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5, dim=dim)
    for x in (-1.3, 0.4, 2.0, 0.4):
        op = assemble(kernel, x, vm, grid)
        _assert_matches_reference(op, *_reference_matrices(_fresh_rates(kernel, x, grid, vm),
                                                           vm, grid))


@pytest.mark.parametrize("dim, vm, grid", [
    (1, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    (1, velocity_from_tables([[-1.0], [0.0], [1.0]], [1.0, 1.0, 1.0]), CellGrid((9,))),
    (2, uniform_circle(8), CellGrid((8, 6))),
], ids=["1d-16", "1d-resting-9", "2d-8x6"])
def test_a_stack_holds_each_position_operator_on_its_diagonal(dim, vm, grid):
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5, dim=dim)
    xs = (-1.3, 0.4, 2.0)
    ops = [assemble(kernel, x, vm, grid) for x in xs]
    stack = cell_solver.CellStack(grid, vm, np.stack([op.samples[0] for op in ops]), ops[0].G)
    n = ops[0].size
    _assert_gain_matches(stack, scipy.linalg.block_diag(
        *(_reference_matrices(_fresh_rates(kernel, x, grid, vm), vm, grid)[2].toarray()
          for x in xs)))
    for got, parts in ((stack.dense_P(), [op.dense_P() for op in ops]),
                       (_dense(stack.M.apply, stack.size), [_dense(op.M.apply, n) for op in ops])):
        want = scipy.linalg.block_diag(*parts)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(stack.M.excess, np.concatenate([op.M.excess for op in ops]))
    rng = np.random.default_rng(2)
    f, g = rng.standard_normal((2, stack.size))
    for i, op in enumerate(ops):
        block = slice(i * n, (i + 1) * n)
        assert stack.inner(f, g)[i] == op.inner(f[block], g[block])
        assert stack.norms(f)[i] == op.norms(f[block])[0]
        assert np.array_equal(stack.F[block], op.F)
        assert np.array_equal(stack.velocity_profile(0)[block], op.velocity_profile(0))


def _stack_of(kernel, xs, vm=VM, grid=CellGrid((16,))):
    ops = [assemble(kernel, x, vm, grid) for x in xs]
    return cell_solver.CellStack(grid, vm, np.stack([op.samples[0] for op in ops]), ops[0].G)


@pytest.mark.parametrize("samples_shape, gain_shape, refused", [
    ((2, 17), (2, 2), "samples of shape \\(2, 17\\)"),   # one point too many
    ((2, 16), (3, 2, 2), "gain of shape \\(3, 2, 2\\)"),  # a table a block
    ((16,), (2, 2), "samples of shape \\(16,\\)"),       # flat samples, no block axis
    ((2, 16), (2, 3), "gain of shape \\(2, 3\\)"),
], ids=["wide-loss", "extra-gain-block", "flat-loss", "gain-blocks"])
def test_a_stack_refuses_rates_of_another_shape(samples_shape, gain_shape, refused):
    # 16 points and 2 velocities: samples (m, 16) and one gain table (2, 2)
    with pytest.raises(ValueError, match=refused + ".* expected"):
        cell_solver.CellStack(CellGrid((16,)), VM, np.ones(samples_shape), np.ones(gain_shape))


def test_a_stack_gates_each_block():
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5)
    stack = _stack_of(kernel, (-1.0, 0.0, 1.0))
    lam, _ = equilibrium_F(stack)
    assert lam.shape == (3,) and np.max(np.abs(lam - 1.0)) < 1e-12
    # one block's gain 1 % above its loss, which was formed at construction:
    # only its eigenvalue is off
    stack = _stack_of(kernel, (-1.0, 0.0, 1.0))
    stack.samples = stack.samples * np.array([1.0, 1.01, 1.0])[:, None]
    with pytest.raises(ConvergenceError, match=r"eigenvalue 1\.0\d+ deviates"):
        equilibrium_F(stack)
    # a right-hand side compatible in two blocks but not in the third
    stack = _stack_of(kernel, (-1.0, 0.0, 1.0))
    rhs = stack.velocity_profile(0)
    rhs[2 * stack.block_size:] += 0.5
    with pytest.raises(CompatibilityError, match="int M\\(rhs F\\) dmu = 5.000e-01"):
        solve_adjoint_corrector(stack, rhs)


def test_a_stack_solves_each_block_as_its_own_cell():
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5)
    vm = two_velocity_1d(weights=(1.0, 2.0))
    xs = (-2.0, 0.3, 0.3, 1.1)
    stack = _stack_of(kernel, xs, vm=vm)
    star = solve_chi_star(stack)
    n = stack.block_size
    assert star.b.shape == (4, 1) and star.residual.shape == star.bound_constant.shape == (4,)
    residuals = []
    for i, x in enumerate(xs):
        one = solve_chi_star(assemble(kernel, x, vm, CellGrid((16,))))
        assert star.b[i, 0] == one.b[0] != 0.0
        np.testing.assert_allclose(star.chi[0][i * n:(i + 1) * n], one.chi[0],
                                   rtol=1e-10, atol=1e-13)
        assert star.bound_constant[i] == pytest.approx(one.bound_constant, rel=1e-11, abs=0.0)
        residuals.append(one.residual)
    # the residuals are roundoff: held to the scale of the per-cell solves'
    assert np.all(star.residual > 0.0) and star.residual.max() <= 10 * max(residuals)


def test_operators_and_stacks_of_other_grids_and_velocity_sets_are_bitwise_the_reference():
    # grids and velocity sets of equal sizes, taken in turn: one operator per
    # position and a 3-block stack of the positions, each block the reference
    # built at its own rates
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5)
    cases = [
        (1.0, two_velocity_1d()),
        (2.0, two_velocity_1d()),                    # another spacing
        (1.0, two_velocity_1d(speed=1.5)),           # other speeds
        (1.0, two_velocity_1d(weights=(1.0, 2.0))),  # other weights
        (1.0, velocity_from_tables([[-1.0], [0.0], [1.0]], [1.0, 1.0, 1.0])),  # a resting node
        (1.0, velocity_from_tables([[-1.0], [0.5], [1.0]], [1.0, 1.0, 1.0])),
        (1.0, velocity_from_tables([[0.0]], [1.0])),  # P = A - K cancels to no entries
        (1.0, velocity_from_tables([[0.0]], [2.0])),
    ]
    xs = (0.3, -0.8, 1.7)
    for period, vm in cases:
        grid = CellGrid((16,), period=period)
        ops, refs = [], []
        for x in xs:
            op = assemble(kernel, x, vm, grid)
            ref = _reference_matrices(_fresh_rates(kernel, x, grid, vm), vm, grid)
            _assert_matches_reference(op, *ref)
            assert np.array_equal(op.weights, np.tile(vm.weights, 16) / 16)
            assert np.array_equal(op.velocity_profile(0), np.tile(vm.field[:, 0], 16))
            ops.append(op)
            refs.append(ref)
        stack = cell_solver.CellStack(grid, vm, np.stack([op.samples[0] for op in ops]),
                                      ops[0].G)
        _assert_matches_reference(stack, *(sparse.block_diag(parts, format="csr")
                                           for parts in zip(*refs)))


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,)),
                     scheme="spectral"),
    lambda: assemble_spectral_ap(
        make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), 0.0, VM
    ),
], ids=["upwind", "spectral", "spectral_ap"])
def test_inner_and_norm_are_bitwise_the_conjugated_pairing(build):
    op = build()
    rng = np.random.default_rng(5)
    w = op.weights
    for _ in range(4):
        f, g = rng.standard_normal((2, op.size))
        got, want = op.inner(f, g), np.sum(w * np.conj(f) * g)
        assert got == want and type(got) is type(want)
        assert op.norms(f)[0] == float(np.sqrt(np.real(np.sum(w * np.abs(f) ** 2))))


def _reference_lattice(kernel, x, vm, n_modes):
    """``(A, K, lattice, mirror, zero_row, coords)`` built with a coordinate dict.

    The generators are the profile's exact frequencies; rounded to 9
    decimals they only key the lookup of a mode's generator.
    """
    freqs, coeffs = kernel.profile_frequencies()
    keys = sorted({round(float(abs(f)), 9) for f in freqs if abs(f) > 1e-12})
    gens = [next(float(abs(f)) for f in freqs if round(float(abs(f)), 9) == key) for key in keys]
    m = int(n_modes)
    if len(gens) == 0:
        coords = np.zeros((1, 1), dtype=int)
        lattice = np.zeros(1)
    elif len(gens) == 1:
        coords = np.arange(-m, m + 1, dtype=int)[:, None]
        lattice = coords[:, 0] * gens[0]
    else:
        aa, bb = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
        coords = np.stack([aa.ravel(), bb.ravel()], axis=1)
        lattice = coords[:, 0] * gens[0] + coords[:, 1] * gens[1]
    lattice = lattice.astype(float)
    n_lat = coords.shape[0]
    index = {tuple(t): i for i, t in enumerate(coords)}
    mirror = np.array([index[tuple(-t)] for t in coords])
    mult = np.zeros((n_lat, n_lat), dtype=complex)
    for f, cf in zip(freqs, coeffs):
        if abs(f) < 1e-12:
            shift = tuple([0] * coords.shape[1])
        else:
            g_idx = keys.index(round(float(abs(f)), 9))
            shift = tuple(int(np.sign(f)) if i == g_idx else 0 for i in range(coords.shape[1]))
        for i, t in enumerate(coords):
            j = index.get(tuple(np.asarray(t) + np.asarray(shift)))
            if j is not None:
                mult[j, i] += cf
    K = vm.n_nodes
    c = float(np.asarray(kernel.x_factor(x)))
    gain_v, sig_v = gain_loss(c * kernel.node_matrix(vm), vm.weights)
    transport = np.diag(np.kron(1j * lattice, np.ones(K)) * np.tile(vm.field[:, 0], n_lat))
    A = transport + np.kron(mult, np.diag(sig_v))
    return A, np.kron(mult, gain_v), lattice, mirror, index[tuple([0] * coords.shape[1])], coords


@pytest.mark.parametrize("n_modes", [1, 3, 8])
@pytest.mark.parametrize("kernel, x", [
    (CONSTANT, 0.0),
    (SINUSOIDAL, 0.0),
    (make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=-0.3), 0.0),
    (make_kernel("quasi_approx", base=1.0, alpha1=0.2, alpha2=0.3, p=239, q=169), 0.0),
    (make_kernel("sinusoidal_defect", base=1.0, alpha=0.25, defect_amplitude=-0.5,
                 defect_width=0.25), 0.0),
    (make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2, x_dependence="tanh",
                 x_amplitude=0.5), 0.7),
], ids=["constant", "sinusoidal", "quasi_periodic", "quasi_approx", "defect", "tanh"])
def test_lattice_assembly_is_bitwise_the_dict_reference(kernel, x, n_modes):
    # the torus cell's lattice frequencies are the dict reference's, to the
    # bit, and in lattice coordinates its operator is the reference's
    # Galerkin P on every mode whose neighbours stay in the box, where the
    # collocation product does not alias (to roundoff: it forms no matrix)
    vm = two_velocity_1d(weights=(1.0, 2.0))
    op = assemble_spectral_ap(kernel, x, vm, n_modes=n_modes)
    A, Km, lattice, mirror, zero_row, coords = _reference_lattice(kernel, x, vm, n_modes)
    assert op.lattice.dtype == lattice.dtype and np.array_equal(op.lattice, lattice)
    # the constant field is the zero row's coefficient alone, and a real
    # field's coefficients are conjugate-symmetric through the mirror
    const = op.coeffs(op.const)
    assert np.max(np.abs(const[zero_row] - 1.0)) <= 1e-15
    assert np.max(np.abs(np.delete(const, zero_row, axis=0)), initial=0.0) <= 1e-15
    chi = op.coeffs(np.random.default_rng(6).standard_normal(op.size))
    assert np.max(np.abs(chi[mirror] - chi.conj())) <= 1e-15
    # P in lattice coordinates: Phi^H P Phi / n, Phi the torus samples of the modes
    K, shape = vm.n_nodes, op.grid.shape
    points = np.indices(shape).reshape(len(shape), -1).T
    Phi = np.kron(np.exp(2j * np.pi * (points / np.array(shape)) @ coords.T), np.eye(K))
    P_lat = Phi.conj().T @ op.dense_P() @ Phi / op.n_points
    inside = np.repeat(np.all(np.abs(coords) < n_modes, axis=1), K)
    want = (A - Km)[:, inside]
    assert np.max(np.abs(P_lat[:, inside] - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kernel", [
    SINUSOIDAL,
    make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=-0.3),
    make_kernel("quasi_approx", base=1.0, alpha1=0.2, alpha2=0.3, p=239, q=169),
], ids=["sinusoidal", "quasi_periodic", "quasi_approx"])
def test_lattice_is_built_from_the_exact_profile_frequencies(kernel):
    # the generators are the profile's frequencies, not their 9-decimal
    # lookup keys: a unit step along generator j is g_j, and the torus
    # period along axis j is 2 pi / g_j (1 for the sinusoidal profile)
    op = assemble_spectral_ap(kernel, 0.0, VM, n_modes=2)
    freqs, _ = kernel.profile_frequencies()
    gens = np.unique(np.abs(freqs[freqs != 0.0]))
    for j, g in enumerate(gens):
        step = np.all(op._coords == np.eye(len(gens), dtype=int)[j], axis=1)
        assert op.lattice[step].tolist() == [g]
        assert op.grid.period[j] == 2.0 * np.pi / g
    assert op.grid.period[0] == 1.0


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,)),
                     scheme="spectral"),
    lambda: assemble_spectral_ap(
        make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), 0.0, VM
    ),
], ids=["upwind", "spectral", "spectral_ap"])
def test_adjoint_actions_are_bitwise_the_conjugate_transpose(build):
    # K* and O* are the weighted transpose of the dense gain of the sampled
    # c s g w, to roundoff; no cell forms P, so its adjoint action is held
    # to the weighted transpose of its dense action
    op = build()
    rng = np.random.default_rng(3)
    f = rng.standard_normal(op.size)
    w = op.weights

    def weighted_adjoint(M, g):
        return (M.T @ (w * g)) / w

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    want = weighted_adjoint(op.dense_P(), f)
    assert np.max(np.abs(op.apply_P_adjoint(f) - want)) <= 1e-13 * np.max(np.abs(want))
    Km = _dense_gain(op)
    _assert_gain_matches(op, Km)
    assert close(op.apply_K_adjoint(f), weighted_adjoint(Km, f))
    # O* = N* M*^-1 with N = K - diag(excess)
    m_inv = op.M.solve_adjoint(f)
    assert close(op.apply_O_adjoint(f), weighted_adjoint(Km, m_inv) - op.M.excess * m_inv)


def _dense_gain(op):
    """The dense ``K`` of one cell: ``c(x) s(y_j) g(v_k, v_l) w_l`` on each point's block.

    A grid cell's rates come from ``evaluate`` (:func:`_fresh_rates`), the
    torus cell's from the profile's lift ``S`` at the torus points.
    """
    kernel, vm = op.kernel, op.vm
    if isinstance(op, cell_solver.SpectralCellOperator):
        gens = cell_solver._lattice_generators(kernel)
        S = cell_solver._torus_profile(kernel, gens, op.grid.shape)
        rates = kernel.x_factor(op.x) * np.multiply.outer(S, kernel.node_matrix(vm))
    else:
        rates = _fresh_rates(kernel, op.x, op.grid, vm)
    return scipy.linalg.block_diag(*(rates.reshape(-1, vm.n_nodes, vm.n_nodes) * vm.weights))


# ---------------------------------------------------------------------------
# GMRES pinned to scipy.sparse.linalg.gmres
# ---------------------------------------------------------------------------

def _counted(matrix):
    calls = []

    def matvec(v):
        calls.append(None)
        return matrix @ v

    return matvec, calls


def _both_gmres(matrix, b, rtol, restart, maxiter):
    """``(x, info, matvecs)`` of scipy's gmres and of the module's loop."""
    ref_mv, ref_calls = _counted(matrix)
    lin = LinearOperator(matrix.shape, matvec=ref_mv, dtype=np.result_type(matrix, b))
    x_ref, info_ref = gmres(lin, b, rtol=rtol, atol=0.0, restart=restart, maxiter=maxiter)
    mv, calls = _counted(matrix)
    x, info = cell_solver._gmres(mv, b, rtol, restart, maxiter)
    return (x, info, len(calls)), (x_ref, info_ref, len(ref_calls))


def _random_system(n, dtype, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    matrix = 2.0 * np.eye(n) + spread * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    if dtype is complex:
        matrix = matrix + 0.5j * spread * rng.standard_normal((n, n)) / np.sqrt(n)
        b = b + 1j * rng.standard_normal(n)
    return matrix, b


def _assert_same(got, want):
    (x, info, calls), (x_ref, info_ref, calls_ref) = got, want
    assert x.dtype == x_ref.dtype
    assert np.array_equal(x, x_ref)
    assert (info, calls) == (info_ref, calls_ref)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("restart", [3, 5, None], ids=["restart3", "restart5", "restart_n"])
def test_gmres_is_bitwise_scipy_gmres(dtype, restart):
    n = 48
    matrix, b = _random_system(n, dtype, seed=11)
    got, want = _both_gmres(matrix, b, 1e-12, restart or n, 50)
    _assert_same(got, want)
    assert got[1] == 0
    if restart is not None:
        assert got[2] > restart + 1  # more than one cycle


@pytest.mark.parametrize("dtype", [float, complex])
def test_gmres_solves_a_diagonal_system_in_n_steps(dtype):
    # n distinct eigenvalues: the Krylov space is exhausted after n steps
    n = 6
    matrix = np.diag(np.arange(1.0, n + 1)).astype(dtype)
    b = np.linspace(1.0, 2.0, n).astype(dtype) * (1 + 0.5j if dtype is complex else 1)
    got, want = _both_gmres(matrix, b, 1e-12, n, 50)
    _assert_same(got, want)
    assert got[1:] == (0, n + 1)  # n inner steps and one true-residual check


@pytest.mark.parametrize("dtype", [float, complex])
def test_gmres_breakdown_is_the_exact_solution(dtype):
    # the cyclic shift maps e_0 -> e_1 -> ... -> e_0: the basis is exact, the
    # residual stalls at |b| for n - 1 steps, and step n breaks down (h1 = 0)
    # on the exact solution, even with rtol = 0
    n = 6
    matrix = np.roll(np.eye(n), 1, axis=0).astype(dtype)
    b = np.eye(n, dtype=dtype)[0]
    got, want = _both_gmres(matrix, b, 0.0, n, 50)
    _assert_same(got, want)
    assert got[1:] == (0, n + 1)
    assert np.array_equal(got[0], np.eye(n, dtype=dtype)[n - 1])


@pytest.mark.parametrize("dtype", [float, complex])
def test_gmres_zero_rhs_returns_zero_without_matvecs(dtype):
    matrix, _ = _random_system(10, dtype, seed=2)
    got, want = _both_gmres(matrix, np.zeros(10, dtype=dtype), 1e-12, 10, 50)
    _assert_same(got, want)
    assert not got[0].any() and got[1:] == (0, 0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_gmres_not_converging_reports_maxiter(dtype):
    matrix, b = _random_system(40, dtype, seed=5, spread=3.0)
    got, want = _both_gmres(matrix, b, 1e-12, 2, 3)
    _assert_same(got, want)
    assert got[1] == 3 and got[2] == 3 * (2 + 1)


@pytest.mark.parametrize("dtype, seed", [(float, 1), (complex, 2)])
def test_gmres_restarts_when_the_true_residual_lags_the_inner_one(dtype, seed):
    # at rtol = 1e-14 these systems meet the inner tolerance before the true
    # residual meets atol, so the next cycle runs with a tightened ptol
    matrix, b = _random_system(48, dtype, seed=seed, spread=3.0)
    got, want = _both_gmres(matrix, b, 1e-14, 48, 50)
    _assert_same(got, want)
    assert got[1] == 0


@pytest.mark.parametrize("dtype", [float, complex])
def test_gmres_on_a_singular_operator_skips_the_zero_pivot(dtype):
    # A = 0: the first step breaks down with a zero rotated pivot, which the
    # back substitution skips; the residual stays |b| and the solve gives up
    b = np.linspace(1.0, 2.0, 5).astype(dtype)
    got, want = _both_gmres(np.zeros((5, 5), dtype=dtype), b, 1e-12, 5, 50)
    _assert_same(got, want)
    assert not got[0].any() and got[1:] == (50, 2)


def test_deflated_gmres_names_info_when_it_fails():
    rng = np.random.default_rng(7)
    matrix = np.eye(8) + rng.standard_normal((8, 8))
    op = SimpleNamespace(dtype=float, inner=lambda f, g: np.sum(np.conj(f) * g))
    deflate = np.ones(8)
    rhs = rng.standard_normal(8)
    with pytest.raises(ConvergenceError, match=r"deflated GMRES failed to converge \(info=50\)"):
        cell_solver._deflated_gmres(op, lambda v: matrix @ v, rhs, deflate, tol=0.0)


def _scipy_deflated_gmres(op, action, rhs, deflate, tol):
    """The ``scipy.sparse.linalg.gmres`` body the module's loop replaced."""
    count = {"n": 0}

    def project_out(f):
        return f - (op.inner(deflate, f) / op.inner(deflate, deflate)) * deflate

    def projected(v):
        count["n"] += 1
        return project_out(action(v))

    lin = LinearOperator((rhs.size, rhs.size), matvec=projected, dtype=float)
    b = project_out(rhs.astype(float))
    x, info = gmres(lin, b, rtol=tol, atol=0.0, restart=min(rhs.size, 300), maxiter=50)
    if info != 0:
        raise ConvergenceError(f"deflated GMRES failed to converge (info={info})")
    return x, count["n"]


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.3, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((64,))),
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((33,)),
                     scheme="spectral"),
    lambda: assemble_spectral_ap(
        make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), 0.0, VM
    ),
], ids=["upwind", "spectral", "spectral_ap"])
def test_cell_solves_are_bitwise_the_scipy_gmres_solves(build, monkeypatch):
    op = build()
    g = op.velocity_profile(0)
    g = g - (op.inner(op.const, g) / op.inner(op.const, op.const)) * op.const

    def solves():
        star = solve_chi_star(op)
        adj = solve_adjoint_corrector(op, -op.velocity_profile(0) + star.b[0] * op.const)
        return star, adj, solve_corrector(op, g)

    loops = []
    real_gmres = cell_solver._gmres
    monkeypatch.setattr(cell_solver, "_gmres", lambda *a, **k: loops.append(1) or real_gmres(*a, **k))
    star, adj, fwd = solves()
    assert len(loops) == 3  # every solve ran the module's loop
    monkeypatch.setattr(cell_solver, "_deflated_gmres", _scipy_deflated_gmres)
    star_ref, adj_ref, fwd_ref = solves()
    assert len(loops) == 3

    for got, want in zip(star.chi, star_ref.chi):
        assert np.array_equal(got, want)
    assert (star.residual, star.bound_constant) == (star_ref.residual, star_ref.bound_constant)
    for got, want in ((adj, adj_ref), (fwd, fwd_ref)):
        assert np.array_equal(got.field, want.field)
        assert (got.residual, got.bound_constant, got.iterations) == (
            want.residual, want.bound_constant, want.iterations)
        assert got.iterations > 0


# ---------------------------------------------------------------------------
# large collocation cells
# ---------------------------------------------------------------------------

def test_a_64x64_spectral_circle_cell_solves():
    # 32768 unknowns: a dense spectral operator would have taken 51.5 GB and
    # was refused; the collocation cell forms no matrix, and its D is the
    # 16^2 cell's, converged
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2)
    coarse, fine = (solve_cell(kernel, 0.0, uniform_circle(8), grid=CellGrid((n, n)),
                               scheme="spectral") for n in (16, 64))
    assert fine.op.size == 64 * 64 * 8
    assert np.max(np.abs(fine.D - coarse.D)) <= 1e-12 * np.max(np.abs(coarse.D))


# ---------------------------------------------------------------------------
# the closed-form oracle of 1-D cells with b = 0
# ---------------------------------------------------------------------------

VM3 = velocity_from_tables([[-1.0], [0.0], [1.0]], [1.0, 2.0, 1.0])
TABLE3 = np.array([[1.0, 0.5, 2.0], [0.5, 3.0, 0.7], [2.0, 0.7, 1.2]])


def _D_exact(kernel, vm, x):
    """``D_g / (c <s>)``, the exact D of a 1-D cell with zero flux ``b``.

    ``D_g`` is the D of the node factor ``g`` alone, from one bordered ``K x
    K`` solve of ``L* psi = -a``.  Then ``chi = psi / (c <s>) + w(y)``, with
    ``w' = 1 - s / <s>``, solves the adjoint cell problem whatever the
    profile ``s``, and ``w`` pairs against the zero flux.
    """
    w, a, K = vm.weights, vm.field[:, 0], vm.n_nodes
    gain, loss = gain_loss(kernel.node_matrix(vm), w)
    L_star = np.diag(loss) - gain.T * w[None, :] / w[:, None]
    bordered = np.block([[L_star, np.ones((K, 1))], [w[None, :], np.zeros((1, 1))]])
    psi = np.linalg.solve(bordered, np.append(-a, 0.0))[:K]
    D_g = -np.sum(w * a * psi) / w.sum()
    return D_g / (float(kernel.x_factor(x)) * kernel.profile.mean())


ORACLE_CASES = {
    "sinusoidal": (make_kernel("sinusoidal", base=1.0, alpha=0.5), VM, 0.0),
    "3-node-table": (make_kernel("sinusoidal", base=1.5, alpha=0.6, table=TABLE3), VM3, 0.0),
    "tanh": (make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5), VM, 0.7),
    "quasi_periodic": (make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), VM, 0.0),
    "quasi_periodic-3-node": (make_kernel("quasi_periodic", base=1.3, alpha1=0.3, alpha2=0.45,
                                          table=TABLE3), VM3, 0.0),
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_fourier_cells_give_the_closed_form_D(name):
    # the spectral grid and the lattice's torus solve the oracle's ansatz
    # exactly, at any truncation: D to roundoff
    kernel, vm, x = ORACLE_CASES[name]
    want = _D_exact(kernel, vm, x)
    assert want > 0 and abs(np.sum(vm.weights * vm.field[:, 0])) == 0.0  # b = 0
    cells = [solve_cell(kernel, x, vm, backend="spectral_ap", n_modes=n) for n in (2, 8)]
    if kernel.natural_period is not None:
        cells.append(solve_cell(kernel, x, vm, grid=CellGrid((64,)), scheme="spectral"))
    for cell in cells:
        assert abs(cell.D[0, 0] - want) <= 1e-13 * want


@pytest.mark.parametrize("name", ["sinusoidal", "3-node-table", "tanh"])
def test_upwind_D_converges_to_the_closed_form_at_first_order(name):
    # relative error n |D_n - D| / D: 0.119-0.125 (sinusoidal), 0.254-0.306
    # (3-node table) and 0.152-0.162 (tanh) at n = 16..256
    kernel, vm, x = ORACLE_CASES[name]
    want = _D_exact(kernel, vm, x)
    errs = [abs(solve_cell(kernel, x, vm, grid=CellGrid((n,))).D[0, 0] - want) / want
            for n in (16, 32, 64, 128)]
    for n, err in zip((16, 32, 64, 128), errs):
        assert 0.05 / n < err <= 0.35 / n
    assert all(1.8 < coarse / fine < 2.2 for coarse, fine in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# the lattice truncation
# ---------------------------------------------------------------------------

def test_ring_weight_decays_with_n_modes_and_bounds_the_D_error():
    # weights (1, 4), alpha = 0.45: squared ring weights 1.9e-4, 1.9e-7 and
    # 1.6e-10 against D errors of 1.6e-5, 1.6e-8 and 1.2e-11 (n_modes 2, 3, 4)
    vm = two_velocity_1d(weights=(1.0, 4.0))
    kernel = make_kernel("quasi_periodic", base=1.0, alpha1=0.45, alpha2=0.45)
    ref = solve_cell(kernel, 0.0, vm, backend="spectral_ap", n_modes=16).D[0, 0]
    weights = []
    for n_modes in (2, 3, 4):
        cell = solve_cell(kernel, 0.0, vm, backend="spectral_ap", n_modes=n_modes)
        weights.append(cell.op.ring_weight(cell.chi[0]))
        assert abs(cell.D[0, 0] - ref) / ref < weights[-1] ** 2
    assert weights[0] > cell_solver.RING_LEVEL > weights[2]
    assert all(coarse > 10 * fine for coarse, fine in zip(weights, weights[1:]))
    # a profile with no oscillating mode has no ring
    constant = solve_cell(CONSTANT, 0.0, vm, backend="spectral_ap", n_modes=2)
    assert constant.op.ring_weight(constant.chi[0]) == 0.0
