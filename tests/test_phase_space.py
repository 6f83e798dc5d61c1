import numpy as np
import pytest

from kinhom.phase_space import (
    CellGrid,
    MacroGrid,
    checkpoint_substeps,
    two_velocity_1d,
    uniform_circle,
    validate_h1,
    velocity_from_tables,
)


def test_two_velocity_totals():
    vm = two_velocity_1d(speed=1.0, weights=(1.0, 2.0))
    assert vm.n_nodes == 2 and vm.dim == 1
    assert vm.total_mass == 3.0
    assert np.array_equal(vm.nodes[:, 0], [-1.0, 1.0])
    # int a dmu = -1*1 + 1*2 = 1
    assert vm.integrate(vm.field[:, 0]) == 1.0


def test_uniform_circle_quadrature():
    vm = uniform_circle(8, speed=2.0)
    assert vm.dim == 2
    assert abs(vm.total_mass - 2 * np.pi) < 1e-14
    assert np.allclose(np.linalg.norm(vm.nodes, axis=1), 2.0)
    # odd moments vanish, diagonal second moments are pi * s^2
    assert np.max(np.abs(vm.integrate(vm.field.T))) < 1e-13
    second = np.einsum("k,ki,kj->ij", vm.weights, vm.field, vm.field)
    assert np.allclose(second, np.pi * 4.0 * np.eye(2), atol=1e-12)


def test_h1_circle_no_blind_directions():
    # enumeration oracle: 8 equispaced directions leave no probe direction
    # orthogonal to every node; the best-aligned node is within pi/8 of any
    # probe, so max_k |a_k . xi| >= cos(pi/8) for every unit probe
    vm = uniform_circle(8)
    report = validate_h1(vm)
    assert report.ok
    proj = np.abs(report.probes @ vm.field.T)
    assert proj.max(axis=1).min() >= np.cos(np.pi / 8) - 1e-12


def test_h1_flags_degenerate_direction():
    # both nodes move along x: the y direction is transport-blind
    vm = velocity_from_tables(
        nodes=[[1.0, 0.0], [-1.0, 0.0]], weights=[1.0, 1.0]
    )
    report = validate_h1(vm, probes=np.array([[0.0, 1.0]]))
    assert not report.ok


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        velocity_from_tables(nodes=[[1.0], [-1.0]], weights=[1.0, 0.0])


def test_cell_grid_geometry():
    g = CellGrid((8,), period=(2.0,))
    assert g.dim == 1 and g.n_points == 8
    assert g.spacing == (0.25,)
    assert np.allclose(g.axes()[0], np.arange(8) * 0.25)

    g2 = CellGrid((4, 8))
    assert g2.dim == 2 and g2.n_points == 32
    with pytest.raises(ValueError):
        CellGrid((3,))


def test_macro_grid_cell_centers():
    mg = MacroGrid(half_width=4.0, shape=(8,))
    x = mg.axes()[0]
    assert abs(mg.cell_volume - 1.0) < 1e-15
    assert abs(x[0] + 3.5) < 1e-15 and abs(x[-1] - 3.5) < 1e-15
    # cell centers are symmetric about the origin
    assert np.max(np.abs(x + x[::-1])) < 1e-15


def test_macro_grid_validation():
    with pytest.raises(ValueError):
        MacroGrid(half_width=1.0, shape=(4,))  # too coarse
    with pytest.raises(ValueError):
        MacroGrid(half_width=-1.0, shape=(16,))
    with pytest.raises(ValueError):
        MacroGrid(half_width=1.0, shape=(16,), bc="reflecting")


@pytest.mark.parametrize("dt", [0.0, -0.01, np.inf, np.nan])
def test_checkpoint_plan_refuses_a_step_that_is_not_positive_and_finite(dt):
    # max(1, ceil(interval / dt)) made a negative step one step per interval
    with pytest.raises(ValueError, match="positive and finite"):
        checkpoint_substeps([0.0, 0.5, 1.0], 1.0, dt)
    assert checkpoint_substeps([0.0, 0.5, 1.0], 1.0, 0.2) == [(0.5, 3, 0.5 / 3), (1.0, 3, 0.5 / 3)]
    # a zero horizon takes no step, so its step size is never used
    assert checkpoint_substeps([0.0], 0.0, dt) == []
