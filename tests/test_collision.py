import numpy as np
import pytest

from kinhom.collision import (
    BalanceError,
    RepresentationError,
    check_sdb,
    make_kernel,
    sdb_gap,
)
from kinhom.cell_solver import assemble, assemble_spectral_ap
from kinhom.effective import solve_cell
from kinhom.harness import StageError, parse_config, run_pipeline
from kinhom.kinetic_ref import KineticSolver
from kinhom.phase_space import CellGrid, MacroGrid, two_velocity_1d, velocity_from_tables


def _random_sdb_kernel(rng, K):
    """Symmetric node table: semi-detailed balance for any weights."""
    g = rng.uniform(0.2, 2.0, (K, K))
    return make_kernel("table", table=(g + g.T) / 2)


def test_sdb_detection_negative_control():
    vm = two_velocity_1d()
    kernel = make_kernel("table", table=np.array([[1.0, 2.0], [3.0, 4.0]]))
    report = check_sdb(kernel, vm)
    # outgoing row sums (3, 7) vs incoming column sums (4, 6): gap 1
    assert not report.passed
    assert abs(report.max_abs_gap - 1.0) < 1e-15


def test_sdb_detection_positive_control():
    rng = np.random.default_rng(11)
    vm = velocity_from_tables(nodes=[[-1.0], [0.5], [2.0]], weights=[1.0, 0.7, 2.0])
    for _ in range(20):
        report = check_sdb(_random_sdb_kernel(rng, 3), vm)
        assert report.passed


def _accepts(build) -> bool:
    try:
        build()
    except BalanceError:
        return False
    except StageError as exc:
        if isinstance(exc.__cause__, BalanceError):
            return False
        raise
    return True


@pytest.mark.parametrize("delta, balanced", [(1e-12, True), (3e-12, False)])
def test_every_backend_gates_on_one_balance_gap(delta, balanced):
    # relative gap delta / (2 + delta): 5e-13 passes, 1.5e-12 fails the 1e-12 gate
    vm = two_velocity_1d()
    kernel = make_kernel("table", table=np.array([[1.0, 1.0 + delta], [1.0, 1.0]]))
    scenario = (
        "[cell]\nbackend = spectral_ap\n\n"
        f"[sigma]\nfamily = table\ntable = 1.0, {1.0 + delta!r}; 1.0, 1.0\n"
    )
    verdicts = {
        "check_sdb": check_sdb(kernel, vm).passed,
        "assemble": _accepts(lambda: assemble(kernel, 0.0, vm, CellGrid((8,)))),
        "assemble_spectral_ap": _accepts(lambda: assemble_spectral_ap(kernel, 0.0, vm)),
        "KineticSolver": _accepts(lambda: KineticSolver(
            kernel, vm, MacroGrid(half_width=1.0, shape=(8,), bc="periodic"), epsilon=0.5)),
        "run_pipeline": _accepts(
            lambda: run_pipeline(parse_config(scenario), stop_after="cell")),
    }
    assert verdicts == dict.fromkeys(verdicts, balanced)


def test_conservation_and_duality_randomized():
    # 100 trials: int Qf dmu = 0 and <Qf, g> = <f, Q*g> to 1e-12 relative, on
    # the collision of an assembled cell: Q = K - Sigma, Q* = K* - Sigma
    rng = np.random.default_rng(0)
    grid = CellGrid((8,))
    for _ in range(100):
        K = int(rng.integers(2, 5))
        weights = rng.uniform(0.3, 2.0, K)
        nodes = np.sort(rng.uniform(-2, 2, K))
        vm = velocity_from_tables(nodes=nodes[:, None], weights=weights)
        op = assemble(_random_sdb_kernel(rng, K), 0.0, vm, grid)
        f, g = rng.standard_normal(op.size), rng.standard_normal(op.size)
        Qf = op.apply_K(f) - op.losses[0] * f
        Qg = op.apply_K_adjoint(g) - op.losses[0] * g
        scale = np.abs(Qf).max()
        assert np.max(np.abs(Qf.reshape(8, K) @ vm.weights)) < 1e-12 * max(scale, 1.0)
        w = np.tile(vm.weights, 8)
        lhs = float(np.sum(Qf * g * w))
        rhs = float(np.sum(f * Qg * w))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


TWO_PI = 2 * np.pi

# kind -> (make_kernel arguments, closed form of s, old _profile_min,
# old sup of s, natural period)
PROFILE_TABLE = {
    "constant": (
        dict(kind="constant"),
        lambda y: np.full(y.shape, 1.0), 1.0, 1.0, 1.0,
    ),
    "constant_2d": (
        dict(kind="constant", dim=2),
        lambda y: np.full(y.shape[:-1], 1.0), 1.0, 1.0, 1.0,
    ),
    "sinusoidal": (
        dict(kind="sinusoidal", base=1.0, alpha=0.5),
        lambda y: 1.0 + 0.5 * np.sin(TWO_PI * y), 1.0 - 0.5, 1.0 + 0.5, 1.0,
    ),
    "sinusoidal_2d": (
        dict(kind="sinusoidal", base=1.2, alpha=-0.5, dim=2),
        lambda y: 1.2 - 0.5 * np.sin(TWO_PI * y[..., 0]) * np.sin(TWO_PI * y[..., 1]),
        1.2 - 0.5, 1.2 + 0.5, 1.0,
    ),
    "quasi_periodic": (
        dict(kind="quasi_periodic", base=1.0, alpha1=0.2, alpha2=-0.3),
        lambda y: 1.0 + 0.2 * np.cos(TWO_PI * y) - 0.3 * np.cos(2 * np.sqrt(2) * np.pi * y),
        1.0 - 0.2 - 0.3, 1.0 + 0.2 + 0.3, None,
    ),
    "quasi_approx": (
        dict(kind="quasi_approx", base=1.0, alpha1=0.2, alpha2=0.3, p=239, q=169),
        lambda y: 1.0 + 0.2 * np.cos(TWO_PI * y) + 0.3 * np.cos(TWO_PI * (239 / 169) * y),
        1.0 - 0.2 - 0.3, 1.0 + 0.2 + 0.3, 169.0,
    ),
    "sinusoidal_defect": (
        dict(kind="sinusoidal_defect", base=1.0, alpha=0.25,
             defect_amplitude=-0.5, defect_width=0.25),
        lambda y: 1.0 + 0.25 * np.sin(TWO_PI * y) - 0.5 * np.exp(-((y / 0.25) ** 2)),
        1.0 - 0.25 - 0.5, 1.0 + 0.25 + 0.5, 1.0,
    ),
}


@pytest.mark.parametrize("name", PROFILE_TABLE)
def test_sinusoidal_profile_and_frequencies(name):
    params, closed_form, s_min, s_max, period = PROFILE_TABLE[name]
    params = dict(params, s0=2.0, x_dependence="tanh", x_amplitude=0.25)
    kernel = make_kernel(**params)
    base = params.get("base", 1.0)
    rng = np.random.default_rng(7)
    if kernel.dim == 1:
        y = np.concatenate([np.linspace(-3.0, 3.0, 601), rng.uniform(-1e3, 1e3, 2000)])
    else:
        y = np.concatenate([rng.uniform(-3.0, 3.0, (600, 2)), rng.uniform(-1e3, 1e3, (2000, 2))])
    assert np.abs(kernel.profile_values(y) - closed_form(y)).max() <= 1e-12
    assert kernel.profile.mean() == base
    assert abs(kernel._profile_min() - s_min) <= 1e-15
    assert abs(kernel.profile.mean() + kernel._profile_spread() - s_max) <= 1e-15
    assert kernel.natural_period == period
    if kernel.dim == 1:
        # the frequency content is the profile without the defect
        freqs, coeffs = kernel.profile_frequencies()
        recon = np.real(np.exp(1j * np.outer(y, freqs)) @ coeffs)
        assert np.allclose(recon, kernel.profile.evaluate(y), rtol=0, atol=1e-12)
    else:
        with pytest.raises(RepresentationError):
            kernel.profile_frequencies()


def test_quasi_periodic_has_no_period_and_refuses_cell_sampling():
    kernel = make_kernel("quasi_periodic", base=1.0, alpha1=0.2, alpha2=0.2)
    assert kernel.natural_period is None
    with pytest.raises(RepresentationError):
        kernel.sample_cell(0.0, CellGrid((16,)))


def test_cell_sampling_refuses_dimension_mismatch():
    kernel = make_kernel("constant", s0=1.0)  # oscillates in one dimension
    with pytest.raises(RepresentationError):
        kernel.sample_cell(0.0, CellGrid((8, 8)))


def test_quasi_approx_period_is_denominator():
    kernel = make_kernel("quasi_approx", base=1.0, alpha1=0.2, alpha2=0.2, p=239, q=169)
    assert kernel.natural_period == 169.0
    y = np.linspace(0, 169, 257)
    expect = 1.0 + 0.2 * np.cos(2 * np.pi * y) + 0.2 * np.cos(2 * np.pi * (239 / 169) * y)
    assert np.allclose(kernel.profile_values(y), expect, atol=1e-12)


def test_positivity_guard():
    with pytest.raises(ValueError):
        make_kernel("sinusoidal", base=1.0, alpha=1.5)  # profile dips negative
    with pytest.raises(ValueError):
        make_kernel("table", table=np.array([[1.0, -0.1], [0.5, 1.0]]))
    # checked before the profile is built, which would divide by q
    with pytest.raises(ValueError, match="positive integers p, q"):
        make_kernel("quasi_approx", base=1.0, alpha1=0.2, alpha2=0.2, p=1, q=0)
    # a zero width made the Gaussian 0/0 at y = 0: the profile read NaN
    # there and the bare sinusoid elsewhere, so the defect silently vanished
    for width in (0.0, -0.25, np.nan, np.inf):
        with pytest.raises(ValueError, match="defect width must be positive and finite"):
            make_kernel("sinusoidal_defect", base=1.0, alpha=0.25,
                        defect_amplitude=0.5, defect_width=width)


@pytest.mark.parametrize("name, value", [
    ("p", 2.7), ("p", np.inf), ("p", np.nan), ("q", 1.5), ("q", -np.inf),
])
def test_non_integral_approximant_orders_are_refused(name, value):
    # p = 2.7 was cast to 2, a silently different approximant, and p = inf
    # raised OverflowError from the cast
    params = dict(alpha1=0.2, alpha2=0.2, p=2, q=1)
    params[name] = value
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        make_kernel("quasi_approx", **params)
    # integral values of any type build the same approximant
    params[name] = 3.0
    assert getattr(make_kernel("quasi_approx", **params), name) == 3


@pytest.mark.parametrize("kind, params", [
    ("constant", dict(s0=np.nan)),
    ("table", dict(table=[[1.0, np.nan], [1.0, 1.0]])),
    ("table", dict(table=[[1.0, np.inf], [1.0, 1.0]])),
    ("sinusoidal", dict(base=np.nan, alpha=0.5)),
    ("sinusoidal", dict(base=np.inf, alpha=0.5)),
    ("sinusoidal", dict(base=-np.inf, alpha=0.5)),
    ("sinusoidal", dict(base=1.0, alpha=np.nan)),
    ("quasi_periodic", dict(base=1.0, alpha1=0.2, alpha2=np.nan)),
    ("constant", dict(x_dependence="tanh", x_amplitude=np.nan)),
])
def test_non_finite_kernel_parameters_are_refused(kind, params):
    # NaN fails the "<= 0" and ">= 1" checks, so each of these once built a
    # kernel whose cell samples were not finite
    with pytest.raises(ValueError, match="kernel parameters must be finite"):
        make_kernel(kind, **params)


def test_tanh_macro_modulation():
    kernel = make_kernel("constant", s0=2.0, x_dependence="tanh", x_amplitude=0.3)
    vm = two_velocity_1d()
    vals_left = kernel.evaluate(-50.0, np.zeros(1), vm)
    vals_right = kernel.evaluate(+50.0, np.zeros(1), vm)
    assert np.allclose(vals_left, 2.0 * 0.7, atol=1e-10)
    assert np.allclose(vals_right, 2.0 * 1.3, atol=1e-10)
    with pytest.raises(ValueError):
        make_kernel("constant", s0=1.0, x_dependence="tanh", x_amplitude=1.2)


def test_defect_kernel_profile():
    kernel = make_kernel(
        "sinusoidal_defect", base=1.0, alpha=0.25,
        defect_amplitude=0.5, defect_width=0.25,
    )
    # near the origin the bump is present, far away only the periodic part
    near = kernel.profile_values(np.array([0.0]))[0]
    far = kernel.profile_values(np.array([500.0]))[0]
    assert abs(near - (1.0 + 0.5)) < 1e-12
    assert abs(far - (1.0 + 0.25 * np.sin(2 * np.pi * 500.0))) < 1e-9


def test_defect_is_invisible_to_the_grid_cell():
    # a localized defect on a periodic background homogenizes to the
    # background (Blanc, Le Bris & Lions 2012): the cell samples only the
    # background, while the kinetic reference keeps the bump
    vm = two_velocity_1d()
    grid = CellGrid((128,))
    defect = make_kernel("sinusoidal_defect", base=1.0, alpha=0.25,
                         defect_amplitude=0.5, defect_width=0.25)
    background = make_kernel("sinusoidal", base=1.0, alpha=0.25)
    assert np.array_equal(defect.sample_cell(0.0, grid), background.sample_cell(0.0, grid))
    D = [solve_cell(k, 0.0, vm, grid=grid, scheme="upwind").D for k in (defect, background)]
    assert np.array_equal(D[0], D[1])
    assert abs(defect.evaluate(0.0, np.zeros(1), vm)[0, 0, 0] - 1.5) < 1e-15


def test_fast_period_is_the_shortest_oscillating_wave():
    assert make_kernel("sinusoidal", alpha=0.5).fast_period() == 1.0
    assert make_kernel("sinusoidal_defect", alpha=0.5, defect_amplitude=0.2).fast_period() == 1.0
    # no oscillation: the unit cell
    assert make_kernel("constant", s0=1.0).fast_period() == 1.0
    assert make_kernel("quasi_periodic", alpha1=0.0, alpha2=0.0).fast_period() == 1.0
    # the quasi-periodic profile's shortest wave is cos(2 sqrt2 pi y), and the
    # approximant's is cos(2 pi p y / q), not its period q
    quasi = make_kernel("quasi_periodic", alpha1=0.3, alpha2=0.2)
    assert quasi.fast_period() == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    assert make_kernel("quasi_periodic", alpha1=0.3, alpha2=0.0).fast_period() == 1.0
    approx = make_kernel("quasi_approx", alpha1=0.3, alpha2=0.2, p=3, q=2)
    assert approx.natural_period == 2.0
    assert approx.fast_period() == pytest.approx(2.0 / 3.0, rel=1e-15)


def _tensordot_gap(rates, weights):
    """The balance gap from the two ``np.tensordot`` sums ``sdb_gap`` once made."""
    outgoing = np.tensordot(rates, weights, axes=([-1], [0]))
    incoming = np.tensordot(rates, weights, axes=([-2], [0]))
    gap = np.abs(outgoing - incoming)
    scale = np.maximum(np.maximum(np.abs(outgoing), np.abs(incoming)), 1e-300)
    return gap.max(), (gap / scale).max()


@pytest.mark.parametrize("shape", [(16,), (4, 5)], ids=["1d", "2d"])
@pytest.mark.parametrize("K", [2, 3, 8])
def test_sdb_gap_matches_the_tensordot_sums(K, shape):
    rng = np.random.default_rng(K)
    weights = rng.uniform(0.5, 2.0, K)
    rates = rng.uniform(0.2, 2.0, (*shape, K, K))
    report = sdb_gap(rates, weights)
    max_abs, max_rel = _tensordot_gap(rates, weights)
    assert max_abs > 0.1 and abs(report.max_abs_gap - max_abs) <= 1e-15 * max_abs
    assert abs(report.max_rel_gap - max_rel) <= 1e-15 * max_rel
    # symmetric rates balance under any weights, and both sums take the same
    # arithmetic, so the gap is exactly 0 as with the tensordot sums
    symmetric = rates + np.swapaxes(rates, -1, -2)
    assert sdb_gap(symmetric, weights).max_rel_gap == _tensordot_gap(symmetric, weights)[1] == 0.0
    table = symmetric[(0,) * len(shape)]
    assert sdb_gap(table, weights).max_rel_gap == 0.0
    assert sdb_gap(np.asfortranarray(table), weights).max_rel_gap == 0.0
