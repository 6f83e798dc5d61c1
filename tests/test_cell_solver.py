from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres

from kinhom import cell_solver
from kinhom.cell_solver import (
    DENSE_CELL_BYTES,
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
from kinhom.collision import BalanceError, _sampled, gain_loss, make_kernel
from kinhom.effective import solve_cell
from kinhom.phase_space import CellGrid, two_velocity_1d, uniform_circle, velocity_from_tables

VM = two_velocity_1d()
GRID32 = CellGrid((32,))
SINUSOIDAL = make_kernel("sinusoidal", base=1.0, alpha=0.5)
CONSTANT = make_kernel("constant", s0=1.0)


# ---------------------------------------------------------------------------
# closed forms: constant kernel, symmetric two-velocity set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["upwind", "spectral"])
def test_constant_kernel_closed_forms(scheme):
    # F = 1/mu(V) = 1/2 and chi(v) = -v / (sigma0 mu(V)) = -v/2, b = 0
    op = assemble(CONSTANT, 0.0, VM, GRID32, scheme=scheme)
    lam, F = equilibrium_F(op)
    assert abs(lam - 1.0) < 1e-12
    assert np.max(np.abs(F.values - 0.5)) < 1e-10
    star = solve_chi_star(op)
    chi, b = star.chi, star.b
    assert abs(b[0]) < 1e-12
    expect = -VM.field[:, 0] / 2.0
    assert np.max(np.abs(chi[0].values - expect[None, :])) < 1e-10


def test_constant_kernel_closed_forms_spectral_ap():
    op = assemble_spectral_ap(CONSTANT, 0.0, VM)
    lam, F = equilibrium_F(op)
    assert abs(lam - 1.0) < 1e-12
    y = np.linspace(0.0, 3.0, 7)
    assert np.max(np.abs(F.sample(y) - 0.5)) < 1e-10
    star = solve_chi_star(op)
    chi, b = star.chi, star.b
    assert abs(b[0]) < 1e-12
    assert np.max(np.abs(chi[0].sample(y) - (-VM.field[:, 0] / 2.0)[None, :])) < 1e-10


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
    flat = op.unwrap(F)
    assert np.array_equal(flat, op.const / op.mean_v(op.const))
    # the operator carries the same equilibrium the solves read
    assert np.array_equal(op.F, op.const / op.mean_v(op.const)) and np.array_equal(op.F, flat)
    assert np.max(np.abs(flat - op.const / 3.0)) <= 1e-15
    assert op.mean_v(flat) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="upwind"),
    lambda: assemble_spectral_ap(
        make_kernel("quasi_periodic", base=1.0, alpha1=0.3, alpha2=0.2), 0.0, VM),
], ids=["grid", "spectral_ap"])
def test_eigenvalue_gate_refuses_an_inconsistent_gain(build):
    # a gain 1 % above the loss breaks P 1 = 0; the Rayleigh quotient then
    # reads 1.01 and the gate refuses the operator
    op = build()
    A, K_mat = op._build()
    op._build = lambda: (A, 1.01 * K_mat)
    with pytest.raises(ConvergenceError, match="deviates from 1 beyond 1.0e-08"):
        equilibrium_F(op)


def test_unknown_transport_scheme_is_refused():
    with pytest.raises(ValueError, match="unknown transport scheme 'central'"):
        assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="central")


def test_non_finite_sampled_rates_are_refused():
    # refused before the balance gate, which would read the gap as NaN and
    # blame semi-detailed balance
    for bad in (np.nan, np.inf):
        rates = np.ones((32, 2, 2))
        rates[5, 1, 0] = bad
        with pytest.raises(ValueError, match="positive and finite on the grid"):
            assemble(rates, 0.0, VM, GRID32)


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
    null = null / np.sum(op.weights * null)  # normalize mean_v to 1
    _, F = equilibrium_F(op)
    assert np.max(np.abs(op.unwrap(F) - null)) < 1e-8


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
    assert np.min(op.unwrap(F).real) > 0.0

    odd = assemble(SINUSOIDAL, 0.0, VM, CellGrid((33,)), scheme="spectral")
    s_odd = scipy.linalg.svdvals(odd.dense_P())
    assert np.sum(s_odd < 1e-10 * s_odd[0]) == 1


def test_corrector_matches_dense_least_squares():
    op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme="spectral")
    P = op.dense_P()
    g = op.velocity_profile(0)  # mean_v(a) = 0: compatible forward datum
    # gauge-constrained dense solve: stack the weighted-mean row
    aug = np.vstack([P, op.weights[None, :]])
    rhs = np.concatenate([g, [0.0]])
    dense, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    sol = solve_corrector(op, g)
    assert np.max(np.abs(op.unwrap(sol.field) - dense)) < 1e-8
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
    assert np.max(np.abs(op.unwrap(sol.field) - dense)) < 1e-8


def test_incompatible_data_is_refused():
    op = assemble(CONSTANT, 0.0, VM, GRID32, scheme="upwind")
    with pytest.raises(CompatibilityError):
        solve_corrector(op, op.const)  # mean_v(1) = mu(V) != 0
    with pytest.raises(CompatibilityError):
        solve_adjoint_corrector(op, op.const)


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
    for _ in range(25):
        f = rng.standard_normal(op.size)
        g = rng.standard_normal(op.size)
        lhs = op.inner(op.apply_P(f), g)
        rhs = op.inner(f, op.apply_P_adjoint(g))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def _solve_A(op, h):
    """``A^{-1} h`` by a direct solve: no solve of the package inverts ``A``."""
    A = op.A_mat
    if sparse.issparse(A):
        return scipy.sparse.linalg.spsolve(A.tocsc(), h)
    return np.linalg.solve(A, h)


def test_absorption_inverse_bound_and_positivity():
    # <Af, f> >= sigma_min ||f||^2 for both schemes, so ||A^-1|| <= 1/sigma_min;
    # upwind A is an M-matrix, so A^-1 preserves positivity
    rng = np.random.default_rng(2)
    for scheme in ("upwind", "spectral"):
        op = assemble(SINUSOIDAL, 0.0, VM, GRID32, scheme=scheme)
        for _ in range(25):
            h = rng.standard_normal(op.size)
            f = _solve_A(op, h)
            assert op.norm(f) <= op.norm(h) / op.sigma_min * (1 + 1e-12)
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
            transport = Au - op.sigma_flat * u
            means = transport.reshape(op.n_points, VM.n_nodes).mean(axis=0)
            assert np.max(np.abs(means)) < 1e-12 * max(np.abs(u).max(), 1.0)


def test_circle_axis_nodes_couple_along_their_own_axis_only():
    # an axis node of the circle moves along one axis: each of its rows of A
    # holds the diagonal and the one upwind neighbour along that axis, so the
    # node's block splits into independent cyclic bidiagonal lines
    vm, grid = uniform_circle(8), CellGrid((8, 8))
    op = assemble(make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), 0.0, vm, grid,
                  scheme="upwind")
    A, K = op.A_mat.tocsr(), vm.n_nodes
    n0, n1 = grid.shape
    i, j = np.divmod(np.arange(grid.n_points), n1)
    for k, (di, dj) in zip((0, 2, 4, 6), ((-1, 0), (0, -1), (1, 0), (0, 1))):
        rows = np.arange(grid.n_points) * K + k
        upwind = (((i + di) % n0) * n1 + (j + dj) % n1) * K + k
        for r, u in zip(rows, upwind):
            cols = A.indices[A.indptr[r]:A.indptr[r + 1]]
            assert sorted(cols) == sorted([r, u])


def test_variational_residual_is_roundoff():
    for build in (
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
        A, K_mat = op._build()
        op._build = lambda: (A, 1.01 * K_mat)
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
    # M = A - diag(Sigma - Sigma_bar): the transport of A with each block's
    # and node's loss averaged over the grid points
    op = build()
    n, K = op.grid.n_points, op.vm.n_nodes
    loss = op.losses.reshape(op.n_blocks, n, K)
    mean = np.broadcast_to(loss.mean(axis=1)[:, None], loss.shape).ravel()
    np.testing.assert_allclose(op.M.excess, op.losses.ravel() - mean, rtol=0, atol=1e-15)
    M = (op.A_mat - sparse.diags(op.M.excess)).toarray()
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
        errs.append(np.max(np.abs(chi[0].values - chi_ref[0].values[::stride])))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 1.7 and errs[1] / errs[2] > 1.7


def test_lattice_backend_matches_grid_backend():
    op_g = assemble(SINUSOIDAL, 0.0, VM, CellGrid((64,)), scheme="spectral")
    op_s = assemble_spectral_ap(SINUSOIDAL, 0.0, VM, n_modes=24)
    _, F_g = equilibrium_F(op_g)
    _, F_s = equilibrium_F(op_s)
    y = op_g.grid.axes()[0]
    assert np.max(np.abs(F_s.sample(y) - F_g.values)) < 1e-10
    star_g = solve_chi_star(op_g)
    star_s = solve_chi_star(op_s)
    chi_g, b_g = star_g.chi, star_g.b
    chi_s, b_s = star_s.chi, star_s.b
    assert np.max(np.abs(b_g - b_s)) < 1e-10
    assert np.max(np.abs(chi_s[0].sample(y) - chi_g[0].values)) < 1e-8


def test_equilibrium_positive_for_asymmetric_weights():
    vm = velocity_from_tables(nodes=[[-1.0], [1.0]], weights=[1.0, 2.0])
    op = assemble(CONSTANT, 0.0, vm, GRID32, scheme="upwind")
    lam, F = equilibrium_F(op)
    assert abs(lam - 1.0) < 1e-12
    # F = 1/mu(V) = 1/3 for every admissible kernel
    assert np.max(np.abs(F.values - 1.0 / 3.0)) < 1e-10
    assert F.values.min() > 0


def test_spectral_field_sampling_consistency():
    op = assemble_spectral_ap(SINUSOIDAL, 0.0, VM, n_modes=8)
    _, F = equilibrium_F(op)
    # mean over the fast variable equals the zero-frequency coefficient
    zero = np.flatnonzero(np.abs(F.freqs) < 1e-12)[0]
    dense_mean = F.sample(np.linspace(0, 1, 2048, endpoint=False)).mean(axis=0)
    assert np.max(np.abs(dense_mean - F.coeffs[zero].real)) < 1e-12
    assert np.max(np.abs(np.asarray(F.mean_y()) - F.coeffs[zero].real)) < 1e-14


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
        chi_flat = op.unwrap(c)
        res = op.norm(op.apply_P_adjoint(chi_flat) - rhs)
        nrm = op.norm(rhs)
        worst_res = max(worst_res, res / nrm if nrm > 0 else res)
        worst_const = max(worst_const, op.norm(chi_flat) / nrm if nrm > 0 else 0.0)
    assert star.residual == worst_res
    assert star.bound_constant == worst_const
    assert 0.0 < star.residual < 1e-9 and star.bound_constant > 0.0


# ---------------------------------------------------------------------------
# assembly pinned to the sparse construction it replaced
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


def _reference_matrices(kernel, vm, grid):
    """``(P, A, K)`` built with kron, sum(blocks) and COO, as before."""
    K, n = vm.n_nodes, grid.n_points
    size = n * K
    gain, sigma = gain_loss(_sampled(kernel, 0.0, grid, vm).reshape(n, K, K), vm.weights)
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
    T = sum(blocks)
    jj, kk, ll = np.meshgrid(np.arange(n), np.arange(K), np.arange(K), indexing="ij")
    Km = sparse.csr_matrix((gain.ravel(), ((jj * K + kk).ravel(), (jj * K + ll).ravel())),
                           shape=(size, size))
    A = (T + sparse.diags(sigma.reshape(-1))).tocsr()
    return (A - Km).tocsr(), A, Km


@pytest.mark.parametrize("speed", [1.5, -0.7, 6e-17, 0.0])
def test_upwind_matrix_is_bitwise_the_lil_reference(speed):
    # one velocity node: A is the lil stencil of that speed plus the loss
    vm, grid = velocity_from_tables([[speed]], [1.0]), CellGrid((16,))
    op = assemble(SINUSOIDAL, 0.0, vm, grid, scheme="upwind")
    for got, want in zip((op.P, op.A_mat, op.K_mat), _reference_matrices(SINUSOIDAL, vm, grid)):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


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
    for got, want in zip((op.P, op.A_mat, op.K_mat), _reference_matrices(kernel, vm, grid)):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


def _assert_bitwise(got, want):
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


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
        P, A, Km = _reference_matrices(_fresh_rates(kernel, x, grid, vm), vm, grid)
        for got, want in zip((op.P, op.A_mat, op.K_mat), (P, A, Km)):
            _assert_bitwise(got, want)


@pytest.mark.parametrize("dim, vm, grid", [
    (1, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    (1, velocity_from_tables([[-1.0], [0.0], [1.0]], [1.0, 1.0, 1.0]), CellGrid((9,))),
    (2, uniform_circle(8), CellGrid((8, 6))),
], ids=["1d-16", "1d-resting-9", "2d-8x6"])
def test_a_stack_holds_each_position_operator_on_its_diagonal(dim, vm, grid):
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5, dim=dim)
    ops = [assemble(kernel, x, vm, grid) for x in (-1.3, 0.4, 2.0)]
    stack = cell_solver.CellStack(grid, vm, np.stack([op.sigma_flat for op in ops]),
                                  np.stack([op.gain for op in ops]))
    n = ops[0].size
    for got, parts in ((stack.A_mat, [op.A_mat for op in ops]),
                       (stack.K_mat, [op.K_mat for op in ops]),
                       (stack.P, [op.P for op in ops])):
        assert got.nnz == sum(p.nnz for p in parts)
        for i, part in enumerate(parts):
            _assert_bitwise(got[i * n:(i + 1) * n, i * n:(i + 1) * n], part)
    rng = np.random.default_rng(2)
    f, g = rng.standard_normal((2, stack.size))
    for i, op in enumerate(ops):
        block = slice(i * n, (i + 1) * n)
        assert stack.inner(f, g)[i] == op.inner(f[block], g[block])
        assert stack.norm(f)[i] == op.norm(f[block])
        assert np.array_equal(stack.F[block], op.F)
        assert np.array_equal(stack.velocity_profile(0)[block], op.velocity_profile(0))


def test_assembly_takes_gated_rates_only_where_they_were_gated():
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5)
    grid = CellGrid((16,))
    samples = kernel.sample_cell(0.4, grid, VM)
    rates = cell_solver.gate_rates(samples, 0.4, grid, VM)
    op, fresh = assemble(kernel, 0.4, VM, grid, rates=rates), assemble(kernel, 0.4, VM, grid)
    for got, want in ((op.P, fresh.P), (op.A_mat, fresh.A_mat), (op.K_mat, fresh.K_mat)):
        _assert_bitwise(got, want)
    for x, other_grid, vm in ((0.7, grid, VM),
                              (0.4, CellGrid((16,), period=2.0), VM),
                              (0.4, grid, two_velocity_1d(weights=(1.0, 2.0)))):
        with pytest.raises(ValueError, match="rates gated at x = 0.4 on"):
            assemble(kernel, x, vm, other_grid, rates=rates)


def _stack_of(kernel, xs, vm=VM, grid=CellGrid((16,))):
    ops = [assemble(kernel, x, vm, grid) for x in xs]
    return cell_solver.CellStack(grid, vm, np.stack([op.sigma_flat for op in ops]),
                                 np.stack([op.gain for op in ops]))


@pytest.mark.parametrize("loss_shape, gain_shape, refused", [
    ((2, 33), (2, 16, 2, 2), "loss of shape \\(2, 33\\)"),   # one column too wide
    ((2, 32), (3, 16, 2, 2), "gain of shape \\(3, 16, 2, 2\\)"),  # a block too many
    ((32,), (1, 16, 2, 2), "loss of shape \\(32,\\)"),      # a flat loss, no block axis
    ((2, 32), (2, 16, 2, 3), "gain of shape \\(2, 16, 2, 3\\)"),
], ids=["wide-loss", "extra-gain-block", "flat-loss", "gain-blocks"])
def test_a_stack_refuses_rates_of_another_shape(loss_shape, gain_shape, refused):
    # 16 points and 2 velocities: a loss (m, 32) and a gain (m, 16, 2, 2)
    with pytest.raises(ValueError, match=refused + ".* expected"):
        cell_solver.CellStack(CellGrid((16,)), VM, np.ones(loss_shape), np.ones(gain_shape))


def test_a_stack_gates_each_block():
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=0.5)
    stack = _stack_of(kernel, (-1.0, 0.0, 1.0))
    lam, _ = equilibrium_F(stack)
    assert lam.shape == (3,) and np.max(np.abs(lam - 1.0)) < 1e-12
    # one block's gain 1 % above its loss: only its eigenvalue is off
    stack = _stack_of(kernel, (-1.0, 0.0, 1.0))
    A, K_mat = stack._build()
    stack._build = lambda: (A, K_mat.multiply(
        np.repeat([1.0, 1.01, 1.0], stack.block_size)[:, None]).tocsr())
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
        np.testing.assert_allclose(star.chi[0][i * n:(i + 1) * n], one.chi[0].values.ravel(),
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
            for got, want in zip((op.P, op.A_mat, op.K_mat), ref):
                _assert_bitwise(got, want)
            assert np.array_equal(op.weights, np.tile(vm.weights, 16) / 16)
            assert np.array_equal(op.velocity_profile(0), np.tile(vm.field[:, 0], 16))
            ops.append(op)
            refs.append(ref)
        stack = cell_solver.CellStack(grid, vm, np.stack([op.sigma_flat for op in ops]),
                                      np.stack([op.gain for op in ops]))
        n = ops[0].size
        for got, parts in zip((stack.P, stack.A_mat, stack.K_mat), zip(*refs)):
            assert got.nnz == sum(p.nnz for p in parts)
            for i, part in enumerate(parts):
                _assert_bitwise(got[i * n:(i + 1) * n, i * n:(i + 1) * n], part)
        if vm.n_nodes == 1 and vm.field[0, 0] == 0.0:
            assert stack.P.nnz == 0


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
        f, g = (rng.standard_normal(op.size).astype(op.dtype) for _ in range(2))
        if op.dtype is complex:
            f, g = f + 1j * rng.standard_normal(op.size), g - 1j * rng.standard_normal(op.size)
        got, want = op.inner(f, g), np.sum(w * np.conj(f) * g)
        assert got == want and type(got) is type(want)
        assert op.norm(f) == float(np.sqrt(np.real(np.sum(w * np.abs(f) ** 2))))


def _reference_lattice(kernel, x, vm, n_modes):
    """``(A, K, lattice, mirror, zero_row)`` built with a coordinate dict, as before."""
    freqs, coeffs = kernel.profile_frequencies()
    gens = sorted({round(float(abs(f)), 9) for f in freqs if abs(f) > 1e-12})
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
            g_idx = gens.index(round(float(abs(f)), 9))
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
    return A, np.kron(mult, gain_v), lattice, mirror, index[tuple([0] * coords.shape[1])]


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
    vm = two_velocity_1d(weights=(1.0, 2.0))
    op = assemble_spectral_ap(kernel, x, vm, n_modes=n_modes)
    A, Km, lattice, mirror, zero_row = _reference_lattice(kernel, x, vm, n_modes)
    for got, want in ((op.A_mat, A), (op.K_mat, Km), (op.P, A - Km),
                      (op.lattice, lattice), (op.mirror, mirror)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert op.zero_row == zero_row
    const = np.zeros(op.size, dtype=complex)
    const[zero_row * vm.n_nodes:(zero_row + 1) * vm.n_nodes] = 1.0
    assert np.array_equal(op.const, const)


@pytest.mark.parametrize("build", [
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,))),
    lambda: assemble(SINUSOIDAL, 0.0, two_velocity_1d(weights=(1.0, 2.0)), CellGrid((16,)),
                     scheme="spectral"),
    lambda: assemble_spectral_ap(
        make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), 0.0, VM
    ),
], ids=["upwind", "spectral", "spectral_ap"])
def test_adjoint_actions_are_bitwise_the_conjugate_transpose(build):
    op = build()
    rng = np.random.default_rng(3)
    f = rng.standard_normal(op.size).astype(op.dtype)
    if op.dtype is complex:
        f = f + 1j * rng.standard_normal(op.size)
    w = op.weights

    def weighted_adjoint(M, g):
        return (M.conj().T @ (w * g)) / w

    assert np.array_equal(op.apply_P_adjoint(f), weighted_adjoint(op.P, f))
    assert np.array_equal(op.apply_K_adjoint(f), weighted_adjoint(op.K_mat, f))
    # O* = N* M*^-1, N = K where M = A and K - diag(excess) otherwise
    m_inv = op.M.solve_adjoint(f)
    n_star = weighted_adjoint(op.K_mat, m_inv)
    if op.M.excess is not None:
        n_star = n_star - op.M.excess * m_inv
    assert np.array_equal(op.apply_O_adjoint(f), n_star)


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

    lin = LinearOperator((rhs.size, rhs.size), matvec=projected, dtype=op.dtype)
    b = project_out(rhs.astype(op.dtype))
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
    g = g - (op.mean_v(g) / op.mean_v(op.const)) * op.const

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
        assert np.array_equal(op.unwrap(got), op.unwrap(want))
    assert (star.residual, star.bound_constant) == (star_ref.residual, star_ref.bound_constant)
    for got, want in ((adj, adj_ref), (fwd, fwd_ref)):
        assert np.array_equal(op.unwrap(got.field), op.unwrap(want.field))
        assert (got.residual, got.bound_constant, got.iterations) == (
            want.residual, want.bound_constant, want.iterations)
        assert got.iterations > 0


# ---------------------------------------------------------------------------
# dense memory guard
# ---------------------------------------------------------------------------

def test_dense_size_estimate_without_building():
    # 64^2 points x 8 velocities is refused, without building anything
    assert cell_solver._dense_cell_bytes(64 * 64 * 8) > DENSE_CELL_BYTES
    # the largest dense cell of the acceptance suite, 1024 points x 2 nodes, fits
    assert cell_solver._dense_cell_bytes(1024 * 2) <= DENSE_CELL_BYTES


def test_dense_cell_over_budget_is_refused(monkeypatch):
    grid = CellGrid((16,))
    needed = cell_solver._dense_cell_bytes(grid.n_points * VM.n_nodes)
    monkeypatch.setattr(cell_solver, "DENSE_CELL_BYTES", needed)
    assemble(SINUSOIDAL, 0.0, VM, grid, scheme="spectral")
    monkeypatch.setattr(cell_solver, "DENSE_CELL_BYTES", needed - 1)
    with pytest.raises(ValueError, match=f"32 unknowns needs {needed} bytes"):
        assemble(SINUSOIDAL, 0.0, VM, grid, scheme="spectral")
    # the sparse scheme has no dense matrices to refuse
    assemble(SINUSOIDAL, 0.0, VM, grid, scheme="upwind")


def test_lattice_size_estimate_without_building():
    # 61^2 modes x 2 velocities (n_modes = 30) is refused, without building anything
    assert cell_solver._lattice_cell_bytes(61 * 61 * 2) > DENSE_CELL_BYTES
    # 33^2 modes x 2 velocities (n_modes = 16, about 0.5 GiB at its peak) fits
    assert cell_solver._lattice_cell_bytes(33 * 33 * 2) <= DENSE_CELL_BYTES


@pytest.mark.parametrize("kernel, size", [
    (SINUSOIDAL, 5 * 2),                                                       # one generator
    (make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2), 25 * 2),  # two
], ids=["sinusoidal", "quasi_periodic"])
def test_lattice_cell_over_budget_is_refused(monkeypatch, kernel, size):
    # the gate and the operator count the same lattice
    needed = cell_solver._lattice_cell_bytes(size)
    monkeypatch.setattr(cell_solver, "DENSE_CELL_BYTES", needed)
    assert assemble_spectral_ap(kernel, 0.0, VM, n_modes=2).size == size
    monkeypatch.setattr(cell_solver, "DENSE_CELL_BYTES", needed - 1)
    with pytest.raises(ValueError, match=f"{size} unknowns needs {needed} bytes"):
        assemble_spectral_ap(kernel, 0.0, VM, n_modes=2)
    with pytest.raises(ValueError, match=f"{size} unknowns needs {needed} bytes"):
        cell_solver.lattice_cell_gate(kernel, VM, 2)
