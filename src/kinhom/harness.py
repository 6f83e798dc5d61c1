"""Experiment driver: scenario configs, the full pipeline, sweeps, reports.

A scenario is a flat INI file with sections ``[scenario] [velocity] [cell]
[sigma] [initial] [macro] [kinetic] [output]``.  Unknown sections or keys
are hard errors that name the offending dotted key and the nearest valid
one; parsing fills defaults, and :func:`dump_config` renders a canonical
echo that round-trips byte-identically.

The pipeline runs the stages in dependency order — balance/quadrature
gates, cell solves, effective coefficients, macro integration, kinetic
reference runs per epsilon — and every stage failure is re-raised as a
:class:`StageError` naming the stage.  Sweep and sigma-functional tables
quantify how the kinetic density approaches the homogenized limit; all
emitted tables are comma-separated with one header line, decimal values
at 17 significant digits, written atomically.
"""

from __future__ import annotations

import configparser
import contextlib
import difflib
import io
import logging
import os
import tempfile
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from kinhom.cell_solver import (
    RING_LEVEL,
    CellRates,
    gate_rates,
    verify_variational,
)
from kinhom.cell_solver import (  # noqa: F401  (perfbench/tracing.py wraps these names here)
    assemble,
    assemble_spectral_ap,
    equilibrium_F,
    solve_chi_star,
)
from kinhom.collision import (
    ONE_DIMENSIONAL_KINDS,
    ScatteringKernel,
    SdbReport,
    check_sdb,
    make_kernel,
    sdb_gap,
)
from kinhom.effective import (
    EffectiveCoefficients,
    assemble_effective,
    default_backend,
    solve_cell,
)
from kinhom.effective import ellipticity_gate  # noqa: F401  (perfbench/tracing.py wraps it here)
from kinhom.kinetic_ref import (
    KineticSolver,
    KineticState,
    initial_tail,
    periodic_shift,
    shift_wavenumbers,
)
from kinhom.macro_solver import DriftDiffusionSolver, MacroField
from kinhom.phase_space import (
    CellGrid,
    MacroGrid,
    VelocityMeasure,
    two_velocity_1d,
    uniform_circle,
    validate_h1,
)

__all__ = [
    "ConfigError",
    "StageError",
    "ScenarioConfig",
    "PipelineReport",
    "SweepRow",
    "SweepResult",
    "SigmaRow",
    "parse_config",
    "dump_config",
    "run_pipeline",
    "sigma_test",
    "emit_tables",
]

log = logging.getLogger(__name__)

FMT = "%.17g"
_CSV_BLOCK = 4096  # rows per formatting pass of the table writer
# macro cells per fast period eps P below which the check stage warns: 1.6
# flattened the sweep (512 cells, eps = 0.025) and, with drift, made the
# error grow as eps fell; 3.2 (the reduced small_eps) still falls cleanly
_MIN_POINTS_PER_PERIOD = 3.0


class ConfigError(ValueError):
    """A scenario file is malformed or internally inconsistent."""


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

# (type, default, choices) ; type in {str, int, float, bool, floatlist, auto}
_SCHEMA: dict[str, dict[str, tuple]] = {
    "scenario": {
        "name": ("str", "scenario", None),
        "dimension": ("int", 1, None),
    },
    "velocity": {
        "family": ("str", "two_velocity", ("two_velocity", "uniform_circle")),
        "speed": ("float", 1.0, None),
        "weights": ("floatlist", (1.0, 1.0), None),
        "n": ("int", 8, None),
    },
    "cell": {
        "n": ("int", 64, None),
        "period": ("float", 1.0, None),
        "scheme": ("str", "upwind", ("upwind", "spectral")),
        "backend": ("str", "auto", ("auto", "grid", "spectral_ap")),
        "n_modes": ("int", 8, None),
        "tol": ("float", 1e-12, None),
    },
    "sigma": {
        "family": (
            "str",
            "constant",
            ("constant", "table", "sinusoidal", "quasi_periodic", "quasi_approx", "sinusoidal_defect"),
        ),
        "s0": ("float", 1.0, None),
        "base": ("float", 1.0, None),
        "alpha": ("float", 0.5, None),
        "alpha1": ("float", 0.2, None),
        "alpha2": ("float", 0.2, None),
        "p": ("int", 239, None),
        "q": ("int", 169, None),
        "defect_amplitude": ("float", 0.0, None),
        "defect_width": ("float", 0.25, None),
        "x_dependence": ("str", "none", ("none", "tanh")),
        "x_amplitude": ("float", 0.0, None),
        "table": ("str", "", None),
    },
    "initial": {
        "kind": ("str", "gaussian", ("gaussian", "uniform")),
        "center": ("float", 0.0, None),
        "width": ("float", 0.1, None),
        "prepared": ("bool", True, None),
    },
    "macro": {
        "half_width": ("float", 4.0, None),
        "n": ("int", 512, None),
        "bc": ("str", "periodic", ("periodic", "no-flux")),
        "theta": ("float", 0.5, None),
        "dt": ("auto", "auto", None),
        "t": ("float", 0.5, None),
        "checkpoints": ("int", 10, None),
    },
    "kinetic": {
        "epsilons": ("floatlist", (0.4, 0.2, 0.1), None),
        # one scheme each; the keys stay so scenarios that name it still parse
        "scheme": ("str", "shift", ("shift",)),
        "collision": ("str", "exact", ("exact",)),
        "c_split": ("auto", "auto", None),
    },
    "output": {
        "dir": ("str", "out", None),
    },
}

_SECTION_ORDER = ["scenario", "velocity", "cell", "sigma", "initial", "macro", "kinetic", "output"]


def _all_dotted_keys() -> list[str]:
    return [f"{sec}.{key}" for sec in _SECTION_ORDER for key in _SCHEMA[sec]]


def _coerce(section: str, key: str, raw: str):
    kind, default, choices = _SCHEMA[section][key]
    text = raw.strip()
    try:
        if kind == "int":
            value = int(text)
        elif kind == "float":
            value = float(text)
        elif kind == "bool":
            low = text.lower()
            if low in ("yes", "true", "1", "on"):
                value = True
            elif low in ("no", "false", "0", "off"):
                value = False
            else:
                raise ValueError(f"not a boolean: {text!r}")
        elif kind == "floatlist":
            value = tuple(float(tok) for tok in text.split(",") if tok.strip())
            if not value:
                raise ValueError("empty list")
        elif kind == "auto":
            value = "auto" if text.lower() == "auto" else float(text)
        else:
            value = text
    except ValueError as exc:
        raise ConfigError(f"key `{section}.{key}`: {exc}") from None
    if choices is not None and value not in choices:
        raise ConfigError(
            f"key `{section}.{key}`: value {value!r} not in {choices}"
        )
    return value


def _render(section: str, key: str, value) -> str:
    kind = _SCHEMA[section][key][0]
    if kind == "floatlist":
        return ", ".join(repr(float(v)) for v in value)
    if kind == "bool":
        return "yes" if value else "no"
    if kind == "float":
        return repr(float(value))
    if kind == "auto":
        return "auto" if value == "auto" else repr(float(value))
    return str(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved scenario: per-section value dicts plus builders."""

    scenario: dict
    velocity: dict
    cell: dict
    sigma: dict
    initial: dict
    macro: dict
    kinetic: dict | None
    output: dict

    # -- builders ------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.scenario["dimension"]

    def build_velocity(self) -> VelocityMeasure:
        fam = self.velocity["family"]
        if fam == "two_velocity":
            return two_velocity_1d(speed=self.velocity["speed"], weights=self.velocity["weights"])
        return uniform_circle(self.velocity["n"], speed=self.velocity["speed"])

    def build_kernel(self) -> ScatteringKernel:
        s = dict(self.sigma)
        fam = s.pop("family")
        params: dict = {"dim": self.dimension}
        if s["x_dependence"] != "none":
            params["x_dependence"] = s["x_dependence"]
            params["x_amplitude"] = s["x_amplitude"]
        if fam == "constant":
            params["s0"] = s["s0"]
        elif fam == "table":
            params["table"] = _node_table(s["table"])
        elif fam == "sinusoidal":
            params.update(base=s["base"], alpha=s["alpha"])
        elif fam in ("quasi_periodic", "quasi_approx"):
            params.update(base=s["base"], alpha1=s["alpha1"], alpha2=s["alpha2"])
            if fam == "quasi_approx":
                params.update(p=s["p"], q=s["q"])
        else:  # sinusoidal_defect
            params.update(
                base=s["base"],
                alpha=s["alpha"],
                defect_amplitude=s["defect_amplitude"],
                defect_width=s["defect_width"],
            )
        return make_kernel(fam, **params)

    def build_cell_grid(self) -> CellGrid:
        d = self.dimension
        return CellGrid((self.cell["n"],) * d, period=(self.cell["period"],) * d)

    def build_macro_grid(self) -> MacroGrid:
        d = self.dimension
        return MacroGrid(
            half_width=self.macro["half_width"],
            shape=(self.macro["n"],) * d,
            bc=self.macro["bc"],
        )

    def cell_backend(self, kernel: ScatteringKernel) -> str:
        backend = self.cell["backend"]
        return default_backend(kernel) if backend == "auto" else backend

    def checkpoint_times(self) -> np.ndarray:
        return np.linspace(0.0, self.macro["t"], self.macro["checkpoints"] + 1)

    def macro_dt(self) -> float | None:
        dt = self.macro["dt"]
        return None if dt == "auto" else float(dt)

    def initial_rho(self, mg: MacroGrid) -> np.ndarray:
        if self.initial["kind"] == "uniform":
            return np.ones(mg.shape)
        c = self.initial["center"]
        w = self.initial["width"]
        axes = mg.axes()
        if mg.dim == 1:
            return np.exp(-((axes[0] - c) ** 2) / (2.0 * w * w))
        mesh = np.meshgrid(*axes, indexing="ij")
        r2 = sum((m - c) ** 2 for m in mesh)
        return np.exp(-r2 / (2.0 * w * w))

    def initial_f(self, mg: MacroGrid, vm: VelocityMeasure) -> np.ndarray:
        """Initial kinetic datum: well-prepared (equilibrium profile) or not."""
        rho = self.initial_rho(mg).reshape(-1)
        f0 = np.zeros((rho.size, vm.n_nodes))
        if self.initial["prepared"]:
            f0[:] = rho[:, None] / vm.total_mass
        else:
            f0[:, 0] = rho / vm.weights[0]
        return f0


def _node_table(text: str) -> np.ndarray:
    """The ``sigma.table`` rows ``a, b; c, d`` as a square float array."""
    try:
        rows = [[float(tok) for tok in row.split(",")] for row in text.split(";") if row.strip()]
    except ValueError as exc:
        raise ConfigError(f"key `sigma.table`: {exc}") from None
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"key `sigma.table`: need a square table; got {len(rows)} rows "
                          f"of lengths {[len(row) for row in rows]}")
    return np.asarray(rows, dtype=float)


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario file, validating exhaustively and filling defaults."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from None

    valid_dotted = _all_dotted_keys()
    for sec in cp.sections():
        if sec not in _SCHEMA:
            keys = list(cp[sec].keys()) or [""]
            dotted = f"{sec}.{keys[0]}" if keys[0] else sec
            hint = difflib.get_close_matches(dotted, valid_dotted, n=1)
            extra = f"; nearest valid: `{hint[0]}`" if hint else ""
            raise ConfigError(f"unknown key `{dotted}`{extra}")
        for key in cp[sec]:
            if key not in _SCHEMA[sec]:
                dotted = f"{sec}.{key}"
                hint = difflib.get_close_matches(dotted, valid_dotted, n=1)
                extra = f"; nearest valid: `{hint[0]}`" if hint else ""
                raise ConfigError(f"unknown key `{dotted}`{extra}")

    sections: dict[str, dict | None] = {}
    for sec in _SECTION_ORDER:
        if sec == "kinetic" and not cp.has_section("kinetic"):
            sections[sec] = None
            continue
        values = {}
        for key, (kind, default, choices) in _SCHEMA[sec].items():
            if cp.has_section(sec) and key in cp[sec]:
                values[key] = _coerce(sec, key, cp[sec][key])
            else:
                values[key] = default
        sections[sec] = values

    cfg = ScenarioConfig(
        scenario=sections["scenario"],
        velocity=sections["velocity"],
        cell=sections["cell"],
        sigma=sections["sigma"],
        initial=sections["initial"],
        macro=sections["macro"],
        kinetic=sections["kinetic"],
        output=sections["output"],
    )
    _validate_consistency(cfg)
    return cfg


# the amplitude keys of each profile family: its rates are bounded below by
# `sigma.base` less the sum of their absolute values, as in the kernel's own
# positivity check
_PROFILE_AMPLITUDES = {
    "sinusoidal": ("alpha",),
    "sinusoidal_defect": ("alpha", "defect_amplitude"),
    "quasi_periodic": ("alpha1", "alpha2"),
    "quasi_approx": ("alpha1", "alpha2"),
}


def _validate_consistency(cfg: ScenarioConfig) -> None:
    d = cfg.dimension
    if d not in (1, 2):
        raise ConfigError("key `scenario.dimension`: must be 1 or 2")
    speed = cfg.velocity["speed"]
    if not (np.isfinite(speed) and speed > 0):
        raise ConfigError("key `velocity.speed`: must be positive and finite")
    fam = cfg.velocity["family"]
    fam_dim = 1 if fam == "two_velocity" else 2
    if fam_dim != d:
        raise ConfigError(
            f"key `velocity.family`: {fam} is {fam_dim}-dimensional "
            f"but `scenario.dimension` = {d}"
        )
    if cfg.kinetic is not None and d != 1:
        raise ConfigError(
            "key `kinetic.epsilons`: the kinetic reference is one-dimensional; "
            "drop the [kinetic] section for 2-D scenarios"
        )
    if fam == "two_velocity":
        n_nodes = 2
        weights = cfg.velocity["weights"]
        if len(weights) != 2 or not all(np.isfinite(w) and w > 0 for w in weights):
            raise ConfigError("key `velocity.weights`: two_velocity needs exactly two "
                              "positive finite weights")
    else:
        n_nodes = cfg.velocity["n"]
        if n_nodes < 3:
            raise ConfigError("key `velocity.n`: uniform_circle needs at least 3 nodes")
    sigma = cfg.sigma
    if sigma["family"] == "table":
        if not sigma["table"].strip():
            raise ConfigError("key `sigma.table`: required for the table family")
        table = _node_table(sigma["table"])
        if table.shape != (n_nodes, n_nodes):
            raise ConfigError(f"key `sigma.table`: is {table.shape[0]} x {table.shape[1]}, "
                              f"but the velocity set has {n_nodes} nodes")
        if not np.all(np.isfinite(table) & (table > 0)):
            raise ConfigError("key `sigma.table`: every entry must be positive and finite")
    if sigma["family"] == "constant" and not (np.isfinite(sigma["s0"]) and sigma["s0"] > 0):
        raise ConfigError("key `sigma.s0`: must be positive and finite")
    if sigma["family"] == "sinusoidal_defect" and not (np.isfinite(sigma["defect_width"])
                                                       and sigma["defect_width"] > 0):
        raise ConfigError("key `sigma.defect_width`: must be positive and finite")
    if sigma["family"] == "quasi_approx":
        for key in ("p", "q"):
            if sigma[key] < 1:
                raise ConfigError(f"key `sigma.{key}`: quasi_approx needs an integer >= 1")
    amplitudes = _PROFILE_AMPLITUDES.get(sigma["family"], ())
    if amplitudes:
        floor = sigma["base"] - sum(abs(sigma[key]) for key in amplitudes)
        if not (np.isfinite(floor) and floor > 0):
            terms = " - ".join(f"|`sigma.{key}`|" for key in amplitudes)
            raise ConfigError(f"key `sigma.{amplitudes[0]}`: the rate floor `sigma.base` - "
                              f"{terms} is {floor:g}; it must be positive and finite")
    if cfg.cell["n"] < 4:
        raise ConfigError("key `cell.n`: must be at least 4")
    if cfg.macro["n"] < 8:
        raise ConfigError("key `macro.n`: must be at least 8")
    if cfg.sigma["x_dependence"] == "tanh" and not abs(cfg.sigma["x_amplitude"]) < 1:
        raise ConfigError("key `sigma.x_amplitude`: tanh modulation needs |x_amplitude| < 1")
    if cfg.cell["n_modes"] < 1:
        raise ConfigError("key `cell.n_modes`: must be at least 1")
    if d != 1 and cfg.cell["backend"] == "spectral_ap":
        raise ConfigError("key `cell.backend`: the frequency-lattice backend is one-dimensional")
    if d != 1 and cfg.sigma["x_dependence"] != "none":
        raise ConfigError(
            "key `sigma.x_dependence`: the effective stage samples one macro axis; "
            "slow modulation needs `scenario.dimension` = 1"
        )
    for sec, key in (("cell", "period"), ("cell", "tol"), ("initial", "width"),
                     ("macro", "half_width"), ("macro", "dt"), ("kinetic", "c_split")):
        values = getattr(cfg, sec)
        if values is not None and values[key] != "auto" and not (np.isfinite(values[key])
                                                                 and values[key] > 0):
            raise ConfigError(f"key `{sec}.{key}`: must be positive and finite")
    _validate_cell_for_kernel(cfg)
    if cfg.macro["bc"] == "no-flux" and cfg.kinetic is not None:
        raise ConfigError("key `macro.bc`: the kinetic reference needs a periodic macro grid; "
                          "drop the [kinetic] section for no-flux scenarios")
    if cfg.macro["bc"] == "no-flux" and d != 1:
        # the macro solver refuses off-diagonal diffusion on no-flux walls, and
        # every assembled 2-D tensor carries off-diagonal roundoff
        raise ConfigError("key `macro.bc`: no-flux boundaries need `scenario.dimension` = 1")
    if not np.isfinite(cfg.initial["center"]):
        raise ConfigError("key `initial.center`: must be finite")
    # a datum that vanishes on the grid has no mass for the sweep and the
    # mass monitors to divide by
    rho0 = cfg.initial_rho(cfg.build_macro_grid())
    if cfg.initial["kind"] == "gaussian" and not np.any(rho0 > 0):
        raise ConfigError(
            f"key `initial.center`: the gaussian datum of width {cfg.initial['width']:g} "
            f"centred at {cfg.initial['center']:g} has no positive sample on the macro grid "
            f"[-{cfg.macro['half_width']:g}, {cfg.macro['half_width']:g}]"
        )
    if not 0.0 <= cfg.macro["theta"] <= 1.0:
        raise ConfigError("key `macro.theta`: must lie in [0, 1]")
    t, n_check = cfg.macro["t"], cfg.macro["checkpoints"]
    if not (np.isfinite(t) and t >= 0):
        raise ConfigError("key `macro.t`: must be finite and non-negative")
    if n_check < 0 or (t > 0) != (n_check > 0):
        # the checkpoints split [0, t] into `checkpoints` equal intervals
        raise ConfigError("key `macro.checkpoints`: must be positive when `macro.t` > 0 "
                          "and 0 when `macro.t` = 0")
    if cfg.kinetic is not None:
        if not all(np.isfinite(eps) and eps > 0 for eps in cfg.kinetic["epsilons"]):
            raise ConfigError("key `kinetic.epsilons`: every value must be positive and finite")
        # tables and summary keys are labelled by `%g` of eps
        labels = [f"{eps:g}" for eps in cfg.kinetic["epsilons"]]
        if len(set(labels)) < len(labels):
            raise ConfigError(
                f"key `kinetic.epsilons`: labels {', '.join(labels)} repeat under %g"
            )


def _validate_cell_for_kernel(cfg: ScenarioConfig) -> None:
    """Refuse a kernel the cell stage cannot represent, naming the key to change."""
    fam = cfg.sigma["family"]
    if fam in ONE_DIMENSIONAL_KINDS and cfg.dimension != 1:
        raise ConfigError(f"key `sigma.family`: {fam} profiles are one-dimensional; "
                          f"`scenario.dimension` = {cfg.dimension}")
    kernel = cfg.build_kernel()
    if cfg.cell_backend(kernel) != "grid":
        return
    period = kernel.natural_period
    if period is None:
        raise ConfigError(f"key `cell.backend`: the {fam} kernel is not periodic; "
                          "use spectral_ap or auto")
    cells = cfg.cell["period"] / period
    if round(cells) < 1 or abs(cells - round(cells)) > 1e-9:
        raise ConfigError(f"key `cell.period`: {cfg.cell['period']:g} is not a multiple "
                          f"of the {fam} kernel period {period:g}")


def dump_config(cfg: ScenarioConfig) -> str:
    """Canonical scenario text; fixed section/key order, round-trip stable."""
    out = io.StringIO()
    for sec in _SECTION_ORDER:
        values = getattr(cfg, sec)
        if values is None:
            continue
        out.write(f"[{sec}]\n")
        for key in _SCHEMA[sec]:
            out.write(f"{key} = {_render(sec, key, values[key])}\n")
        out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    err: float
    runtime: float
    l2_flag: bool


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    monotone: bool
    min_ratio: float
    drift_shift: float  # |b| T / eps at the smallest eps (0 when no shift)


@dataclass(frozen=True)
class SigmaRow:
    epsilon: float
    phi: str
    m: str
    c: str
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass
class PipelineReport:
    """Everything the pipeline produced, ready for table emission."""

    config: ScenarioConfig
    sdb_gap: float = 0.0
    h1_ok: bool = True
    initial_tail: float | None = None  # the kinetic datum's, from the check stage
    lam: float = 0.0
    flux: np.ndarray = field(default_factory=lambda: np.zeros(1))
    variational_residual: float = 0.0
    corrector_residual: float = 0.0
    bound_constant: float = 0.0
    lattice_ring_weight: float | None = None  # the frequency lattice's truncation, see _ring_check
    coefficients: EffectiveCoefficients | None = None
    ellipticity_min: float = 0.0
    macro: MacroField | None = None
    kinetic_states: dict[float, list[KineticState]] = field(default_factory=dict)
    sweep: SweepResult | None = None
    sigma_rows: list[SigmaRow] = field(default_factory=list)
    summary: dict[str, float | int | str] = field(default_factory=dict)


@contextlib.contextmanager
def _stage(name: str) -> Iterator[None]:
    """Re-raise a failure of stage ``name`` as :class:`StageError`.

    Only ``Exception`` is wrapped: an interrupt or an exit passes unchanged.
    """
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


# fast test profiles m(y) = wave(freq * y) of the sigma test, besides m = 1
_PROFILES = {
    "cos2pi": (2.0 * np.pi, np.cos),
    "sin2pi": (2.0 * np.pi, np.sin),
    "cos2r2pi": (2.0 * np.sqrt(2.0) * np.pi, np.cos),
}


def sigma_test(
    states: list[KineticState],
    rho_frame: list[np.ndarray],
    *,
    include_quasi: bool = False,
) -> list[SigmaRow]:
    """Oscillation-aware weak-convergence residuals on a test catalogue.

    For each test function ``psi = phi(x) m(y) c(v)`` this compares the
    kinetic pairing ``iint f_eps psi(x, x/eps, v) dmu dx dt`` against the
    factorized limit ``iint M(rho F psi) dmu dx dt``, integrating the
    checkpoints by the trapezoid rule.  ``rho_frame`` holds the macro
    density at each state's time, in the co-moving frame of the
    equilibrium flux (see :func:`_run_kinetic`).
    """
    vm = states[0].vm
    grid = states[0].grid
    eps = states[0].epsilon
    x = grid.axes()[0]
    h = grid.cell_volume
    times = np.array([s.t for s in states])

    phis = {"1": np.ones_like(x), "gauss": np.exp(-(x**2) / 2.0)}
    m_kinds = ["1", "cos2pi", "sin2pi"] + (["cos2r2pi"] if include_quasi else [])
    c_kinds = {"1": np.ones(vm.n_nodes), "a1": vm.field[:, 0]}

    rows: list[SigmaRow] = []
    for m_kind in m_kinds:
        if m_kind == "1":
            m_fast = np.ones_like(x)
        else:
            freq, wave = _PROFILES[m_kind]
            m_fast = wave(freq * x / eps)
        for phi_name, phi in phis.items():
            for c_name, c_vals in c_kinds.items():
                lhs_t = [
                    h * float(np.sum((s.f * (vm.weights * c_vals)[None, :]).sum(axis=1)
                                     * phi * m_fast))
                    for s in states
                ]
                # the equilibrium is the constant F = 1 / mu(V), so the limit
                # moment sum_k mu_k c_k M(F_k m) is sum_k mu_k c_k / mu(V) for
                # m = 1 and 0 for every oscillating profile, whose mean is 0
                rhs = 0.0
                if m_kind == "1":
                    moment = float(np.sum(vm.weights * c_vals)) / vm.total_mass
                    rhs = float(np.trapezoid([h * float(np.sum(r * phi)) * moment
                                              for r in rho_frame], times))
                rows.append(SigmaRow(epsilon=eps, phi=phi_name, m=m_kind, c=c_name,
                                     lhs=float(np.trapezoid(lhs_t, times)), rhs=rhs))
    return rows


def run_pipeline(
    cfg: ScenarioConfig, jobs: int = 1, seed: int = 0, stop_after: str | None = None
) -> PipelineReport:
    """Execute the full homogenization pipeline for one scenario.

    Stages: gate checks (balance of the ``x = 0`` rates, and on the grid
    their positivity; velocity-span, and the kinetic pre-flight when a
    ``[kinetic]`` section is present), cell solves (on the frequency
    lattice, with its ring weight), effective coefficients, macro
    integration, then — when a
    ``[kinetic]`` section is present — kinetic runs per epsilon with sweep
    and sigma tables.
    ``stop_after`` truncates the run after the named stage, leaving later
    report fields unset.  ``jobs`` and ``seed`` are ignored: the stages
    run serially and nothing is random (``perfbench/run.py`` passes both).
    """
    report = PipelineReport(config=cfg)

    def _finish() -> PipelineReport:
        report.summary = _summarize(report)
        return report

    with _stage("check"):
        vm = cfg.build_velocity()
        kernel = cfg.build_kernel()
        h1 = validate_h1(vm)
        report.h1_ok = bool(h1.ok)
        backend = cfg.cell_backend(kernel)
        if backend == "grid":
            grid = cfg.build_cell_grid()
            sdb, rates = _checked_cell_rates(kernel, grid, vm)
        else:
            grid = rates = None
            sdb = sdb_gap(kernel.node_matrix(vm), vm.weights)
        report.sdb_gap = sdb.max_rel_gap
        sdb.require()
        if cfg.kinetic is not None:
            report.initial_tail = _kinetic_preflight(cfg, kernel)
    if stop_after == "check":
        return _finish()

    with _stage("cell"):
        cell = solve_cell(kernel, 0.0, vm, backend=backend, grid=grid, scheme=cfg.cell["scheme"],
                          n_modes=cfg.cell["n_modes"], tol=cfg.cell["tol"], rates=rates)
        report.lam = cell.lam
        report.flux = cell.b
        report.variational_residual = verify_variational(cell.op)
        report.corrector_residual = cell.residual
        report.bound_constant = cell.bound_constant
        if backend == "spectral_ap":
            report.lattice_ring_weight = _ring_check(cell)
    if stop_after == "cell":
        return _finish()

    with _stage("effective"):
        mg = cfg.build_macro_grid()
        x_samples = mg.axes()[0] if kernel.x_dependence != "none" else None
        coeffs = assemble_effective(cell, x=x_samples)
        report.coefficients = coeffs
        # the worst diagnostics over every cell solve, the sampled ones included
        report.corrector_residual = max(report.corrector_residual, coeffs.residual)
        report.bound_constant = max(report.bound_constant, coeffs.bound_constant)
        report.ellipticity_min = coeffs.ellipticity_min
    if stop_after == "effective":
        return _finish()

    with _stage("macro"):
        rho0 = cfg.initial_rho(mg)
        # sampled coefficients come one per macro cell centre, as the solver takes them
        solver = DriftDiffusionSolver(mg, coeffs.D, theta=cfg.macro["theta"])
        macro = solver.run(
            rho0, cfg.macro["t"], dt=cfg.macro_dt(), checkpoints=cfg.checkpoint_times()
        )
        report.macro = macro
    if stop_after == "macro":
        return _finish()

    if cfg.kinetic is not None:
        with _stage("kinetic"):
            _run_kinetic(cfg, report, vm, kernel, mg, macro)

    return _finish()


def _checked_cell_rates(kernel, grid: CellGrid, vm: VelocityMeasure) -> tuple[SdbReport, CellRates]:
    """``(balance report, gated rates)`` of the ``x = 0`` cell, sampled once.

    The check stage measures the balance gap on these samples and refuses
    rates that are not positive or not balanced; the cell stage's ``x = 0``
    operator takes the gated rates instead of sampling and gating again.
    The samples are freed on return.
    """
    samples = kernel.sample_cell(0.0, grid, vm)
    sdb = check_sdb(samples, 0.0, grid, vm)
    return sdb, gate_rates(samples, 0.0, grid, vm, sdb=sdb)


def _ring_check(cell) -> float:
    """The frequency lattice's ring weight, with a warning above ``RING_LEVEL``.

    The largest :meth:`~kinhom.cell_solver.SpectralCellOperator.ring_weight`
    of the ``x = 0`` cell's adjoint correctors: above the level the lattice
    truncates the corrector enough to move D beyond about 1e-8, and a larger
    ``cell.n_modes`` resolves it.  It only warns.
    """
    weight = max(cell.op.ring_weight(chi) for chi in cell.chi)
    if weight > RING_LEVEL:
        log.warning(
            "frequency lattice at n_modes=%d leaves %.3g of the corrector on its "
            "outermost ring (above %g): D is truncated; raise cell.n_modes",
            cell.op.n_modes, weight, RING_LEVEL,
        )
    return weight


def _kinetic_preflight(cfg, kernel) -> float:
    """Warn, before any solve, where the kinetic reference will be unreliable.

    Below ``_MIN_POINTS_PER_PERIOD`` macro cells per fast period ``eps P``
    it is under-resolved in ``y``; above ``TAIL_LEVEL`` of relative spectral
    tail its datum rings.  Returns that tail
    (:func:`kinhom.kinetic_ref.initial_tail`).  Both only warn: the reduced
    benchmark scenario, its warm-up, has the ringing datum.
    """
    mg = cfg.build_macro_grid()
    period = kernel.fast_period()
    for eps in cfg.kinetic["epsilons"]:
        points = _points_per_period(mg, eps, period)
        if points < _MIN_POINTS_PER_PERIOD:
            log.warning(
                "kinetic reference at eps=%g has %.3g macro cells per fast period "
                "(below %g): it is under-resolved and its error may not fall with eps",
                eps, points, _MIN_POINTS_PER_PERIOD,
            )
    return initial_tail(cfg.initial_rho(mg))


def _run_kinetic(cfg, report, vm, kernel, mg, macro):
    T = cfg.macro["t"]
    times = cfg.checkpoint_times()
    b1 = float(report.flux[0])
    drift = b1 if abs(b1) > 1e-10 else 0.0
    quasi = kernel.natural_period is None
    kappa = shift_wavenumbers(mg)

    epsilons = list(cfg.kinetic["epsilons"])
    rows = []
    for eps in epsilons:
        t0 = time.perf_counter()
        solver = KineticSolver(
            kernel,
            vm,
            mg,
            epsilon=eps,
            c_split=cfg.kinetic["c_split"],
        )
        states = solver.run(cfg.initial_f(mg, vm), T, checkpoints=times)
        runtime = time.perf_counter() - t0
        # the macro density at each state's time, in the frame co-moving with
        # the equilibrium flux
        rho_frame = []
        for s in states:
            shift = drift * s.t / eps
            rho_t = macro.at_time(s.t)
            rho_frame.append(periodic_shift(rho_t, shift, kappa) if shift else rho_t)
        ref = rho_frame[-1]
        err = float(np.linalg.norm(states[-1].density() - ref) / np.linalg.norm(ref))
        l2 = [s.l2_norm() for s in states]
        flag = bool(max(l2) > l2[0] * (1.0 + 1e-8))
        report.kinetic_states[eps] = states
        rows.append(SweepRow(epsilon=eps, err=err, runtime=runtime, l2_flag=flag))
        report.sigma_rows.extend(sigma_test(states, rho_frame, include_quasi=quasi))

    ordered = sorted(rows, key=lambda r: -r.epsilon)
    errs = [r.err for r in ordered]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1) if errs[i + 1] > 0]
    monotone = all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    min_ratio = min(ratios) if ratios else float("nan")
    shift = abs(drift) * T / min(epsilons) if drift else 0.0
    report.sweep = SweepResult(rows=ordered, monotone=monotone, min_ratio=min_ratio, drift_shift=shift)


def _points_per_period(grid: MacroGrid, eps: float, period: float) -> float:
    """Macro cells per fast period ``eps P``: ``N eps P / L``."""
    return grid.shape[0] * eps * period / (2.0 * grid.half_width)


def _summarize(report: PipelineReport) -> dict[str, float | int | str]:
    cfg = report.config
    coeffs = report.coefficients
    out: dict[str, float | int | str] = {
        "scenario": cfg.scenario["name"],
        "sdb_relative_gap": report.sdb_gap,
        "h1_ok": "yes" if report.h1_ok else "no",
    }
    if report.initial_tail is not None:
        out["kinetic_initial_tail"] = report.initial_tail
    if report.lam != 0.0:  # cell stage ran
        out["lambda"] = report.lam
        out["variational_residual"] = report.variational_residual
        out["corrector_residual"] = report.corrector_residual
        out["bound_constant"] = report.bound_constant
        if report.lattice_ring_weight is not None:
            out["lattice_ring_weight"] = report.lattice_ring_weight
        for j in range(len(report.flux)):
            out[f"b_{j + 1}"] = float(report.flux[j])
    if report.coefficients is not None:
        out["ellipticity_min"] = report.ellipticity_min
    if coeffs is not None:
        D = coeffs.D if coeffs.constant else coeffs.D[0]
        U = coeffs.U if coeffs.constant else coeffs.U[0]
        for i in range(D.shape[0]):
            for j in range(D.shape[1]):
                out[f"D_eff_{i + 1}{j + 1}"] = float(D[i, j])
        for i in range(U.shape[0]):
            out[f"U_{i + 1}"] = float(U[i])
        if not coeffs.constant:
            out["family_cell_solves"] = coeffs.family_cell_solves
            out["family_cheb_tail"] = coeffs.family_cheb_tail
    if report.macro is not None:
        mass = report.macro.mass()
        out["macro_mass_drift"] = float(abs(mass[-1] - mass[0]) / mass[0])
        out["macro_steps"] = report.macro.steps
        out["macro_dt"] = float(report.macro.dt)
    if report.sweep is not None:
        for row in report.sweep.rows:
            out[f"err_eps_{row.epsilon:g}"] = row.err
        out["sweep_monotone"] = "yes" if report.sweep.monotone else "no"
        out["sweep_min_ratio"] = report.sweep.min_ratio
    if report.kinetic_states:
        period = cfg.build_kernel().fast_period()
    for eps, states in report.kinetic_states.items():
        first, last = states[0], states[-1]
        out[f"kinetic_points_per_period_eps_{eps:g}"] = _points_per_period(last.grid, eps, period)
        out[f"kinetic_steps_eps_{eps:g}"] = last.steps
        out[f"kinetic_dt_eps_{eps:g}"] = float(last.dt)
        out[f"kinetic_mass_drift_eps_{eps:g}"] = abs(last.mass() - first.mass()) / first.mass()
        out[f"kinetic_min_f_eps_{eps:g}"] = float(min(s.f.min() for s in states))
        if last.split_est is not None:
            out[f"split_est_eps_{eps:g}"] = last.split_est
    return out


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _atomic_write(path: str, blocks: Iterable[str]) -> None:
    """Write the text ``blocks`` to ``path`` through a temp file and a rename.

    The blocks are written as they come, so a generator of them never has
    the whole text in memory at once.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_blocks(header: list[str], columns: list) -> Iterator[str]:
    """Comma-separated table, block by block: the header line, then the rows.

    ``columns`` holds one equal-length sequence per header name.  Float
    columns are written with ``FMT``, integer columns with ``%d`` and any
    other column with ``%s``.  Each block of ``_CSV_BLOCK`` rows is one
    ``%`` pass over its row-major cells, yielded as one string; the blocks
    bound the cell objects and the text alive at once.
    """
    columns = [np.asarray(col) for col in columns]
    n_rows, n_cols = len(columns[0]), len(columns)
    specs = {"f": FMT, "i": "%d", "u": "%d"}
    line = ",".join(specs.get(col.dtype.kind, "%s") for col in columns) + "\n"
    yield ",".join(header) + "\n"
    for lo in range(0, n_rows, _CSV_BLOCK):
        hi = min(lo + _CSV_BLOCK, n_rows)
        cells: list = [None] * ((hi - lo) * n_cols)
        for c, col in enumerate(columns):
            cells[c::n_cols] = col[lo:hi].tolist()
        yield line * (hi - lo) % tuple(cells)


def emit_tables(report: PipelineReport, out_dir: str) -> dict[str, str]:
    """Write every table the report carries; returns ``{name: path}``.

    All files are comma-separated with one header line and decimal values
    at 17 significant digits, written atomically (temp file + rename).  The
    tables are streamed: each is written block by block as
    :func:`_csv_blocks` formats it, so no table's whole text is held at
    once.
    """
    cfg = report.config
    paths: dict[str, str] = {}

    def emit(name: str, blocks: Iterable[str]) -> None:
        path = os.path.join(out_dir, name)
        _atomic_write(path, blocks)
        paths[name] = path

    emit("config.ini", [dump_config(cfg)])

    coeffs = report.coefficients
    if coeffs is not None:
        d = coeffs.D.shape[-1]
        header = ["x"]
        header += [f"D_eff_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        header += [f"U_{i + 1}" for i in range(d)]
        header += [f"b_{i + 1}" for i in range(d)]
        header += ["lambda", "ellipticity_min"]
        if coeffs.constant:
            xs = np.zeros(1)
            Ds, Us = coeffs.D[None], coeffs.U[None]
        else:
            xs = np.asarray(coeffs.x, dtype=float)
            Ds, Us = coeffs.D, coeffs.U
        n = xs.size
        bs = np.broadcast_to(coeffs.flux, (n, d))
        columns = [xs]
        columns += [Ds[:, i, j] for i in range(d) for j in range(d)]
        columns += [Us[:, i] for i in range(d)]
        columns += [bs[:, i] for i in range(d)]
        columns += [[report.lam] * n, [report.ellipticity_min] * n]
        emit("effective.csv", _csv_blocks(header, columns))

    if report.macro is not None:
        mf = report.macro
        if mf.grid.dim == 1:
            n_x = mf.grid.shape[0]
            columns = [np.repeat(mf.times, n_x), np.tile(mf.grid.axes()[0], len(mf.times)),
                       mf.values.ravel()]
            emit("macro.csv", _csv_blocks(["t", "x", "rho"], columns))

    for eps, states in report.kinetic_states.items():
        x = states[0].grid.axes()[0]
        K = states[0].vm.n_nodes
        # t and x repeat across rows: format each value once and write the
        # strings (object arrays, so no fixed-width copies) with %s
        t_text = np.array([FMT % s.t for s in states], dtype=object)
        x_text = np.array([FMT % v for v in x.tolist()], dtype=object)
        columns = [
            np.repeat(t_text, x.size * K),
            np.tile(np.repeat(x_text, K), len(states)),
            np.tile(np.arange(K), len(states) * x.size),
            np.concatenate([s.f.ravel() for s in states]),
        ]
        emit(f"kinetic_eps_{eps:g}.csv", _csv_blocks(["t", "x", "v_index", "f"], columns))

    if report.sweep is not None:
        rows = report.sweep.rows
        columns = [
            [r.epsilon for r in rows],
            [r.err for r in rows],
            [r.runtime for r in rows],
            ["yes" if r.l2_flag else "no" for r in rows],
        ]
        emit("sweep.csv", _csv_blocks(["epsilon", "err", "runtime_s", "l2_flag"], columns))

    if report.sigma_rows:
        names = ["epsilon", "phi", "m", "c", "lhs", "rhs", "residual"]
        columns = [[getattr(r, name) for r in report.sigma_rows] for name in names]
        emit("sigma.csv", _csv_blocks(names, columns))

    if report.summary:
        lines = [
            f"{k} = " + (FMT % v if isinstance(v, float) else str(v))
            for k, v in report.summary.items()
        ]
        emit("summary.txt", ["\n".join(lines) + "\n"])

    return paths
