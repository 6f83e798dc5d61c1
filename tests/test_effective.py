"""Homogenized coefficients: closed forms, gates, covariance, sampling."""

import gc
import re
import weakref

import numpy as np
import pytest

from kinhom import cell_solver, effective
from kinhom.cell_solver import assemble, assemble_spectral_ap, equilibrium_F, solve_chi_star
from kinhom.collision import BalanceError, make_kernel
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
    eff = assemble_effective(solve_cell(CONSTANT, 0.0, VM, grid=GRID))
    assert eff.constant
    assert abs(eff.D[0, 0] - 0.5) < 1e-10
    assert abs(eff.U[0]) < 1e-12
    assert abs(eff.flux[0]) < 1e-12
    assert eff.residual < 1e-9


def test_pairing_and_divergence_form_conventions():
    op = assemble(CONSTANT, 0.0, VM, GRID, scheme="upwind")
    chi = solve_chi_star(op).chi
    # the raw pairing int M(chi_1 a_1 F) dmu; the divergence form is its negative
    raw = op.inner(op.velocity_profile(0) * op.F, chi[0])
    eff = diffusion_matrix(op, chi)
    assert abs(raw + 0.5) < 1e-10
    assert np.max(np.abs(eff + raw)) < 1e-15


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
    base = assemble_effective(solve_cell(CONSTANT, 0.0, VM, grid=GRID))
    scaled = assemble_effective(solve_cell(make_kernel("constant", s0=c), 0.0, VM, grid=GRID))
    assert abs(scaled.D[0, 0] - base.D[0, 0] / c) < 1e-10
    assert abs(scaled.flux[0]) < 1e-12


def test_diffusion_is_gauge_invariant_when_flux_vanishes():
    op = assemble(SINUSOIDAL, 0.0, VM, GRID, scheme="upwind")
    star = solve_chi_star(op)
    chi, b = star.chi, star.b
    assert abs(b[0]) < 1e-12
    D = diffusion_matrix(op, chi)
    shifted = [chi[0] + 0.3 * op.const]
    D_shift = diffusion_matrix(op, shifted)
    assert np.max(np.abs(D_shift - D)) < 1e-12


def test_asymmetric_weights_closed_forms():
    # weights (1, 2) on nodes (-1, +1), sigma = 1: mu(V) = 3, F = 1/3,
    # flux b = 1/3, and D = -(1/3) sum w a (-(a - b)/3) = 8/27.
    vm = two_velocity_1d(weights=(1.0, 2.0))
    eff = assemble_effective(solve_cell(CONSTANT, 0.0, vm, grid=GRID))
    assert abs(eff.flux[0] - 1.0 / 3.0) < 1e-10
    assert abs(eff.D[0, 0] - 8.0 / 27.0) < 1e-10
    assert abs(eff.U[0]) < 1e-12


def test_circle_velocity_set_gives_isotropic_tensor():
    vm = uniform_circle(8, speed=1.3)
    kernel = make_kernel("constant", s0=1.0, dim=2)
    eff = assemble_effective(solve_cell(kernel, 0.0, vm, grid=CellGrid((8, 8))))
    expected = 1.3**2 / (4.0 * np.pi)
    assert np.max(np.abs(eff.D - expected * np.eye(2))) < 1e-10
    assert np.max(np.abs(eff.U)) < 1e-12
    assert ellipticity_gate(eff.D) > 0.0


def test_slow_modulation_sampled_coefficients():
    # sigma(x, y) = (1 + 0.4 tanh x): D(x) = 1 / (2 (1 + 0.4 tanh x)), U = 0
    kernel = make_kernel("constant", s0=1.0, x_dependence="tanh", x_amplitude=0.4)
    x = np.linspace(-2.0, 2.0, 21)
    eff = assemble_effective(solve_cell(kernel, 0.0, VM, grid=CellGrid((16,))), x=x)
    assert not eff.constant
    expected = 1.0 / (2.0 * (1.0 + 0.4 * np.tanh(x)))
    assert np.max(np.abs(eff.D[:, 0, 0] - expected)) < 1e-8
    # the equilibrium never depends on x, so the sampled drift is exactly zero
    assert np.max(np.abs(eff.U)) < 1e-12
    assert np.max(np.abs(eff.flux)) < 1e-12


def test_grid_backend_requires_a_grid():
    with pytest.raises(ValueError):
        assemble_effective(solve_cell(CONSTANT, 0.0, VM))


TANH = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh", x_amplitude=0.5)


@pytest.mark.parametrize("kernel, x", [
    (SINUSOIDAL, np.linspace(-1.0, 1.0, 5)),  # x-independent: the cell stands for all
    (TANH, None),
], ids=["unmodulated", "no-positions"])
@pytest.mark.parametrize("backend", ["grid", "spectral_ap"])
def test_an_unsampled_assembly_returns_the_solved_cell(monkeypatch, kernel, x, backend):
    vm = two_velocity_1d(weights=(1.0, 2.0))
    cell = solve_cell(kernel, 0.0, vm, backend=backend, grid=GRID)
    monkeypatch.setattr(effective, "solve_cell", lambda *a, **k: pytest.fail("cell solved again"))
    eff = assemble_effective(cell, x=x)
    assert eff.x is None
    assert np.array_equal(eff.D, cell.D) and np.array_equal(eff.flux, cell.b)
    assert np.array_equal(eff.U, np.zeros(1)) and not np.signbit(eff.U).any()
    assert (eff.residual, eff.bound_constant) == (cell.residual, cell.bound_constant)


@pytest.mark.parametrize("backend", ["grid", "spectral_ap"])
def test_sampled_assembly_matches_a_per_cell_reference(backend):
    vm = two_velocity_1d(weights=(1.0, 2.0))
    grid = CellGrid((16,))
    x = np.linspace(-1.5, 1.5, 7)
    eff = assemble_effective(solve_cell(TANH, 0.0, vm, backend=backend, grid=grid), x=x)
    solved = [solve_cell(TANH, xi, vm, backend=backend, grid=grid) for xi in x]
    assert np.array_equal(eff.x, x)
    assert np.array_equal(eff.U, np.zeros((x.size, 1)))
    assert not np.signbit(eff.U).any()
    # the flux pairs the equilibrium with a(v): no solve enters it
    assert np.array_equal(eff.flux, np.stack([s.b for s in solved]))
    D = np.stack([s.D for s in solved])
    # every backend's cells are solved as one stacked system: the
    # per-position solves up to roundoff
    np.testing.assert_allclose(eff.D, D, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(eff.bound_constant, max(s.bound_constant for s in solved),
                               rtol=1e-11, atol=0.0)
    # the residual is roundoff itself: held to the per-position scale
    assert 0.0 < eff.residual <= 10 * max(s.residual for s in solved)


def test_sampled_assembly_keeps_no_operator(monkeypatch):
    built, alive = [], []

    def recording_assemble(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in built))
        op = assemble(*args, **kwargs)
        built.append(weakref.ref(op))
        return op

    cell = solve_cell(TANH, 0.0, VM, grid=CellGrid((16,)))
    monkeypatch.setattr(effective, "assemble", recording_assemble)
    eff = assemble_effective(cell, x=np.linspace(-1.0, 1.0, 5))
    gc.collect()
    assert len(built) == 5 and eff.D.shape == (5, 1, 1)
    # at most the previous position's operator lives while the next is built
    assert max(alive) <= 1
    assert [ref for ref in built if ref() is not None] == []


@pytest.mark.parametrize("x", [
    np.array([-0.5, 0.0, 0.0, 0.5]),
    np.array([0.5, 0.0, -0.5]),
    np.array([0.0, 1.0, 0.5]),
    np.array([0.25]),
    np.array([0.0, 1.0]),
], ids=["repeated", "decreasing", "unsorted", "one", "two"])
def test_sampled_positions_need_not_increase(x):
    # with no slow gradient to take, each position is its own cell solve
    eff = assemble_effective(solve_cell(TANH, 0.0, VM, grid=CellGrid((16,))), x=x)
    solved = [solve_cell(TANH, xi, VM, grid=CellGrid((16,))) for xi in x]
    # one stacked solve against one solve per position: equal up to roundoff
    np.testing.assert_allclose(eff.D, np.stack([s.D for s in solved]), rtol=1e-11, atol=0.0)
    assert np.array_equal(eff.U, np.zeros((x.size, 1)))


@pytest.mark.parametrize("x, cause", [
    (np.array([]), r"\[\]"),
    (np.array([0.0, np.nan, 1.0]), "nan"),
    (np.array([0.0, np.inf]), "inf"),
], ids=["empty", "nan", "inf"])
def test_sampled_positions_must_be_finite(x, cause):
    with pytest.raises(ValueError, match="non-empty and finite") as err:
        assemble_effective(solve_cell(TANH, 0.0, VM, grid=CellGrid((16,))), x=x)
    assert re.search(cause, str(err.value))


@pytest.mark.parametrize("backend, scheme", [
    ("grid", "upwind"), ("grid", "spectral"), ("spectral_ap", "upwind"),
])
def test_equilibrium_is_the_constant_at_every_position(backend, scheme):
    # P 1 = 0 for every rate table, so F = const / mu(V) wherever the slow
    # modulation puts the cell: the assembly's U = 0 rests on this
    vm = two_velocity_1d(weights=(1.0, 2.0))
    for xi in (-2.0, -0.3, 0.0, 0.7, 2.5):
        op = (assemble_spectral_ap(TANH, xi, vm) if backend == "spectral_ap"
              else assemble(TANH, xi, vm, CellGrid((16,)), scheme=scheme))
        _, F = equilibrium_F(op)
        expected = op.const / np.sum(vm.weights)
        assert np.max(np.abs(F - expected)) <= 1e-12


def _recorded_stacks(monkeypatch) -> list:
    """The cell stacks the effective stage builds, in order."""
    stacks = []
    monkeypatch.setattr(effective, "CellStack",
                        lambda *a: stacks.append(cell_solver.CellStack(*a)) or stacks[-1])
    return stacks


def test_stacked_family_in_chunks_matches_per_position_solves(monkeypatch):
    # weights (1, 2) give a non-zero flux b; 8 positions of 32 unknowns in
    # stacks of at most 3 positions: chunks of 3, 3 and 2
    vm = two_velocity_1d(weights=(1.0, 2.0))
    grid = CellGrid((16,))
    x = np.linspace(-2.0, 2.0, 8)
    cell = solve_cell(TANH, 0.0, vm, grid=grid)
    monkeypatch.setattr(effective, "STACK_UNKNOWNS", 3 * 32 + 31)
    stacks = _recorded_stacks(monkeypatch)
    eff = assemble_effective(cell, x=x)
    # one stack a chunk, none a position
    assert [stack.size for stack in stacks] == [96, 96, 64]
    monkeypatch.undo()
    solved = [solve_cell(TANH, xi, vm, grid=grid) for xi in x]
    np.testing.assert_allclose(eff.D, np.stack([s.D for s in solved]), rtol=1e-11, atol=0.0)
    flux = np.stack([s.b for s in solved])
    assert np.all(flux != 0.0) and np.array_equal(eff.flux, flux)
    np.testing.assert_allclose(eff.bound_constant, max(s.bound_constant for s in solved),
                               rtol=1e-11, atol=0.0)
    assert 0.0 < eff.residual <= 10 * max(s.residual for s in solved)
    assert eff.ellipticity_min == ellipticity_gate(eff.D) > 0.0


def test_a_family_factors_only_stacks_within_the_bound(monkeypatch):
    # the tanh benchmark's cell (64 points, 2 velocities) at a full stack's
    # worth of positions plus 8: the family is solved at the 33 Chebyshev
    # nodes in c predicted for c in [0.50, 1.50], one stack within the bound
    grid = CellGrid((64,))
    cell = solve_cell(TANH, 0.0, VM, grid=grid)
    stacks = _recorded_stacks(monkeypatch)
    n_x = effective.STACK_UNKNOWNS // 128 + 8
    x = np.linspace(-3.0, 3.0, n_x)
    eff = assemble_effective(cell, x=x)
    assert eff.D.shape == (n_x, 1, 1)
    sizes = [stack.size for stack in stacks]
    assert sizes == [33 * 128] and eff.family_cell_solves == 33
    assert max(sizes) <= effective.STACK_UNKNOWNS
    # a first level too coarse for the tail: 17 nodes, then the 16 between
    # them, each level one stack, and the same D
    monkeypatch.setattr(effective, "_first_level", lambda lo, hi: 17)
    stacks.clear()
    nested = assemble_effective(cell, x=x)
    assert [stack.size for stack in stacks] == [17 * 128, 16 * 128]
    assert nested.family_cell_solves == 33
    np.testing.assert_allclose(nested.D, eff.D, rtol=1e-11, atol=0.0)
    # a bound below a level chunks its nodes as it chunks positions
    monkeypatch.setattr(effective, "STACK_UNKNOWNS", 10 * 128)
    stacks.clear()
    chunked = assemble_effective(cell, x=x)
    assert [stack.size for stack in stacks] == [10 * 128, 7 * 128, 10 * 128, 6 * 128]
    np.testing.assert_allclose(chunked.D, eff.D, rtol=1e-11, atol=0.0)


def _per_position_stacks(cell, x):
    """``(D, flux, bound constant)`` of the positions' own operators, stacked.

    The reference the Chebyshev family is held to: every position's cell
    assembled from its own sampled rates and solved in stacks of at most
    ``STACK_UNKNOWNS`` unknowns, with no interpolation.
    """
    like, grid = cell.op, cell.settings["grid"]
    per_chunk = effective.STACK_UNKNOWNS // like.block_size
    D, b, bound = [], [], 0.0
    for start in range(0, x.size, per_chunk):
        ops = [assemble(like.kernel, float(xi), like.vm, grid) for xi in x[start:start + per_chunk]]
        stack = cell_solver.CellStack(grid, like.vm, np.stack([op.samples[0] for op in ops]),
                                      ops[0].G, like.scheme)
        equilibrium_F(stack)
        star = solve_chi_star(stack)
        D.append(diffusion_matrix(stack, star.chi))
        b.append(star.b)
        bound = max(bound, float(star.bound_constant.max()))
    return np.concatenate(D), np.concatenate(b), bound


@pytest.mark.parametrize("beta, weights, solves", [
    (0.5, (1.0, 1.0), 33),
    (0.9, (1.0, 2.0), 65),
    (0.99, (1.0, 1.0), 512),
], ids=["benchmark", "beta0.9-flux", "beta0.99-direct"])
def test_a_family_in_c_holds_the_per_position_stacked_solves(beta, weights, solves):
    # the tanh benchmark's 512 macro cell centres on [-4, 4] and 64-point
    # upwind cell.  D is analytic in c on [1 - beta, 1 + beta], with a
    # singularity at c = 0: at beta = 0.5 the predicted 33 nodes take the
    # tail below CHEB_TAIL, at beta = 0.9 65; at beta = 0.99 the predicted
    # 257 nodes pass half the positions, so every position is solved at
    # once, 512 cells
    vm = two_velocity_1d(weights=weights)
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh",
                         x_amplitude=beta)
    x = -4.0 + 8.0 * (np.arange(512) + 0.5) / 512
    cell = solve_cell(kernel, 0.0, vm, grid=CellGrid((64,)))
    eff = assemble_effective(cell, x=x)
    D, flux, bound = _per_position_stacks(cell, x)
    assert eff.family_cell_solves == solves <= x.size
    if solves == x.size:
        assert eff.family_cheb_tail == 0.0
    else:
        assert 0.0 < eff.family_cheb_tail <= effective.CHEB_TAIL
    np.testing.assert_allclose(eff.D, D, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(eff.bound_constant, bound, rtol=1e-11, atol=0.0)
    # the flux pairs the equilibrium with a(v), the same at every c
    assert np.array_equal(eff.flux, flux) and np.all((flux != 0.0) == (weights[0] != weights[1]))


def test_each_distinct_c_of_repeated_positions_is_solved_once(monkeypatch):
    # 20 distinct positions, each three times: the predicted 33 nodes pass
    # half the 20 distinct c (not half the 60 positions), so the 20 are
    # solved, once each
    x = np.repeat(np.linspace(-2.0, 2.0, 20), 3)
    cell = solve_cell(TANH, 0.0, VM, grid=CellGrid((16,)))
    stacks = _recorded_stacks(monkeypatch)
    eff = assemble_effective(cell, x=x)
    assert [stack.size for stack in stacks] == [20 * 32]
    assert (eff.family_cell_solves, eff.family_cheb_tail) == (20, 0.0)
    assert np.array_equal(eff.D[0::3], eff.D[1::3]) and np.array_equal(eff.D[0::3], eff.D[2::3])
    monkeypatch.undo()
    solved = [solve_cell(TANH, xi, VM, grid=CellGrid((16,))) for xi in x[::3]]
    np.testing.assert_allclose(eff.D[::3], np.stack([s.D for s in solved]), rtol=1e-11, atol=0.0)


def test_upwind_cells_and_families_solve_without_a_factorization(monkeypatch):
    # no path factors a matrix: with scipy's sparse and dense LU refused, a
    # 1-D and a 2-D cell, a stacked family and the collocation cells still
    # solve
    import scipy.linalg
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("an upwind cell solve factored a matrix")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
    vm = two_velocity_1d(weights=(1.0, 2.0))
    cell = solve_cell(TANH, 0.0, vm, grid=CellGrid((16,)))
    circle = solve_cell(make_kernel("sinusoidal", base=1.0, alpha=0.5, dim=2), 0.0,
                        uniform_circle(8), grid=CellGrid((8, 8)))
    stacks = _recorded_stacks(monkeypatch)
    eff = assemble_effective(cell, x=np.linspace(-2.0, 2.0, 8))
    assert len(stacks) == 1 and eff.D.shape == (8, 1, 1)
    assert cell.D[0, 0] > 0 and circle.ellipticity_min > 0 and eff.ellipticity_min > 0
    # Fourier collocation on the grid and on the lattice's torus as well
    for spectral in (solve_cell(TANH, 0.0, vm, grid=CellGrid((16,)), scheme="spectral"),
                     solve_cell(TANH, 0.0, vm, backend="spectral_ap")):
        assert spectral.D[0, 0] > 0
        assert assemble_effective(spectral, x=np.linspace(-2.0, 2.0, 4)).D.shape == (4, 1, 1)


@pytest.mark.parametrize("settings, block_size", [
    (dict(grid=CellGrid((16,)), scheme="spectral"), 32),
    (dict(backend="spectral_ap", n_modes=3), 14),
], ids=["spectral", "spectral_ap"])
def test_spectral_families_are_solved_in_stacks(monkeypatch, settings, block_size):
    # the collocation cells take the upwind family path: one stack of the
    # positions, no solve_cell a position
    cell = solve_cell(TANH, 0.0, VM, **settings)
    monkeypatch.setattr(effective, "solve_cell",
                        lambda *a, **k: pytest.fail("one solve a position"))
    stacks = _recorded_stacks(monkeypatch)
    eff = assemble_effective(cell, x=np.linspace(-1.0, 1.0, 3))
    assert eff.D.shape == (3, 1, 1)
    assert [(stack.scheme, stack.size) for stack in stacks] == [("spectral", 3 * block_size)]


def test_ellipticity_gate_takes_a_stack_of_tensors():
    D = np.stack([np.eye(2), np.diag([2.0, 0.5]), np.array([[1.0, 0.3], [0.1, 1.0]])])
    assert ellipticity_gate(D) == min(ellipticity_gate(Dm) for Dm in D) == 0.5
    D[1] = np.diag([1.0, -0.5])
    with pytest.raises(EllipticityError, match="eigenvalue -5.000e-01"):
        ellipticity_gate(D)


def _family_with_one_position_altered(monkeypatch, alter, bad_x=0.5):
    """``x = 0`` cell of a fresh tanh kernel whose samples at ``bad_x`` pass through ``alter``.

    Also counts the balance gates the sampled positions run.
    """
    kernel = make_kernel("sinusoidal", base=1.0, alpha=0.5, x_dependence="tanh", x_amplitude=0.5)
    cell = solve_cell(kernel, 0.0, VM, grid=CellGrid((16,)))
    sample = kernel.sample_cell

    def altered(x, grid):
        vals = sample(x, grid)
        return alter(vals.copy()) if x == bad_x else vals

    monkeypatch.setattr(kernel, "sample_cell", altered)
    gates = []
    gap = cell_solver.sdb_gap
    monkeypatch.setattr(cell_solver, "sdb_gap", lambda *a: gates.append(1) or gap(*a))
    return cell, gates


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.25],
                         ids=["nan", "+inf", "-inf", "zero", "negative"])
def test_a_sampled_position_with_one_bad_rate_is_refused_before_the_balance_gate(
        monkeypatch, bad):
    def one_bad_sample(vals):
        vals[5] = bad
        return vals

    cell, gates = _family_with_one_position_altered(monkeypatch, one_bad_sample)
    with pytest.raises(ValueError, match="positive and finite on the grid") as err:
        assemble_effective(cell, x=np.array([-1.0, 0.5, 1.0]))
    assert not isinstance(err.value, BalanceError)
    # the position before it was gated for balance; the bad one never reached that gate
    assert len(gates) == 1


def test_an_unbalanced_node_table_at_a_sampled_position_is_refused(monkeypatch):
    # the samples at x = 0.5 pass; the node table read right after them is
    # positive and finite, out of semi-detailed balance
    sampled = []
    cell, gates = _family_with_one_position_altered(
        monkeypatch, lambda vals: sampled.append(0.5) or vals)
    kernel, table = cell.op.kernel, cell.op.kernel.node_matrix

    def node_matrix(vm):
        g = table(vm)
        return g * np.array([[1.0, 1.5], [1.0, 1.0]]) if sampled else g

    monkeypatch.setattr(kernel, "node_matrix", node_matrix)
    with pytest.raises(BalanceError, match="semi-detailed balance"):
        assemble_effective(cell, x=np.array([-1.0, 0.5, 1.0]))
    assert len(gates) == 2


def _one_point_scaled(factor):
    def alter(vals):
        vals[5] *= factor  # every rate at one grid point: positive, finite, balanced
        return vals
    return alter


def test_a_sampled_position_off_the_ray_is_refused_after_its_gates(monkeypatch):
    cell, gates = _family_with_one_position_altered(monkeypatch, _one_point_scaled(1.5))
    with pytest.raises(ValueError, match=r"rates at x = 0\.5 are off the ray") as err:
        assemble_effective(cell, x=np.array([-1.0, 0.5, 1.0]))
    assert not isinstance(err.value, BalanceError)
    # it passed the balance gate, as the position before it did; the one after is never built
    assert len(gates) == 2


def test_samples_passed_through_unscaled_stay_on_the_ray(monkeypatch):
    # negative control of the refusal above: the same altered path, factor 1
    cell, gates = _family_with_one_position_altered(monkeypatch, _one_point_scaled(1.0))
    eff = assemble_effective(cell, x=np.array([-1.0, 0.5, 1.0]))
    assert len(gates) == 3 and eff.D.shape == (3, 1, 1) and eff.family_cell_solves == 3
