"""Scenario configs, pipeline stages, emitted tables, CLI exit codes."""

import configparser
import importlib.util
import io
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from kinhom import harness
from kinhom.cli import main as cli_main
from kinhom.harness import (
    ConfigError,
    StageError,
    _csv_blocks,
    dump_config,
    emit_tables,
    parse_config,
    run_pipeline,
)

MINIMAL = """\
[scenario]
name = unit

[cell]
n = 32

[sigma]
family = sinusoidal

[initial]
width = 0.3

[macro]
half_width = 2.0
n = 64
t = 0.1
checkpoints = 2
"""

KINETIC = MINIMAL + """
[kinetic]
epsilons = 0.4, 0.2
"""

UNBALANCED = """\
[scenario]
name = bad

[sigma]
family = table
table = 1.0, 2.0; 0.5, 1.0

[macro]
n = 64
"""


def test_defaults_and_canonical_roundtrip():
    cfg = parse_config(MINIMAL)
    assert cfg.scenario["name"] == "unit"
    assert cfg.velocity["family"] == "two_velocity"
    assert cfg.macro["theta"] == 0.5
    assert cfg.cell["scheme"] == "upwind"
    assert cfg.kinetic is None
    text = dump_config(cfg)
    assert parse_config(text) == cfg
    assert dump_config(parse_config(text)) == text
    with_kinetic = parse_config(KINETIC)
    assert with_kinetic.kinetic["epsilons"] == (0.4, 0.2)
    assert with_kinetic.kinetic["scheme"] == "shift"
    assert with_kinetic.kinetic["collision"] == "exact"
    assert dump_config(parse_config(dump_config(with_kinetic))) == dump_config(with_kinetic)


def test_unknown_keys_name_the_nearest_valid_one():
    with pytest.raises(ConfigError, match=re.escape(
            "unknown key `sigam.alpha`; nearest valid: `sigma.alpha`")):
        parse_config("[sigam]\nalpha = 0.5\n")
    with pytest.raises(ConfigError, match=re.escape(
            "unknown key `sigma.alpah`; nearest valid: `sigma.alpha`")):
        parse_config("[sigma]\nalpah = 0.5\n")


def test_value_errors_name_the_dotted_key():
    with pytest.raises(ConfigError, match=re.escape("key `cell.n`")):
        parse_config("[cell]\nn = pony\n")
    with pytest.raises(ConfigError, match="not in"):
        parse_config("[cell]\nscheme = lax\n")
    with pytest.raises(ConfigError, match="malformed scenario file"):
        parse_config("[unclosed\n")


def test_consistency_validation():
    with pytest.raises(ConfigError, match=re.escape("`velocity.family`")):
        parse_config("[scenario]\ndimension = 2\n")
    with pytest.raises(ConfigError, match="one-dimensional"):
        parse_config(
            "[scenario]\ndimension = 2\n[velocity]\nfamily = uniform_circle\n"
            "[kinetic]\nepsilons = 0.4\n"
        )
    with pytest.raises(ConfigError, match=re.escape("`sigma.table`")):
        parse_config("[sigma]\nfamily = table\n")


@pytest.mark.parametrize("width", ["0", "-0.1", "nan"])
def test_nonpositive_initial_width_is_refused(width):
    # a zero width gives a NaN density that no pipeline stage would catch
    with pytest.raises(ConfigError, match=re.escape("key `initial.width`")):
        parse_config(MINIMAL.replace("width = 0.3", f"width = {width}"))


@pytest.mark.parametrize("key, value", [
    ("macro.dt", "0"), ("macro.dt", "-0.01"), ("kinetic.c_split", "0"),
    ("kinetic.c_split", "-0.5"),
])
def test_nonpositive_step_sizes_are_refused(key, value):
    # a negative macro.dt ran one step per checkpoint interval, and 0 failed
    # in the macro stage converting an infinite step count
    section, name = key.split(".")
    kinetic = MINIMAL + "[kinetic]\nepsilons = 0.4\n"
    with pytest.raises(ConfigError, match=re.escape(f"key `{key}`: must be positive")):
        parse_config(kinetic.replace(f"[{section}]\n", f"[{section}]\n{name} = {value}\n"))
    parse_config(kinetic.replace(f"[{section}]\n", f"[{section}]\n{name} = 0.05\n"))
    parse_config(kinetic.replace(f"[{section}]\n", f"[{section}]\n{name} = auto\n"))


def test_two_dimensional_slow_modulation_is_refused(tmp_path, capsys):
    # the effective stage samples one macro axis, so the macro stage failed
    # on a (n, 2, 2) coefficient array it could not read per cell
    text = ("[scenario]\ndimension = 2\n[velocity]\nfamily = uniform_circle\n"
            "[sigma]\nx_dependence = tanh\nx_amplitude = 0.3\n")
    with pytest.raises(ConfigError, match=re.escape("key `sigma.x_dependence`")):
        parse_config(text)
    path = tmp_path / "tanh2d.ini"
    path.write_text(text)
    assert cli_main(["check", "--config", str(path)]) == 2
    assert "sigma.x_dependence" in capsys.readouterr().err
    parse_config(text.replace("tanh", "none"))


@pytest.mark.parametrize("epsilons", ["0.2, 0.2", "0.1, 0.1000001", "0.4, 0.2, 0.4"])
def test_epsilons_colliding_under_g_are_refused(epsilons):
    # colliding labels would overwrite each other's tables and summary keys
    with pytest.raises(ConfigError, match=re.escape("key `kinetic.epsilons`")):
        parse_config(MINIMAL + f"[kinetic]\nepsilons = {epsilons}\n")
    parse_config(MINIMAL + "[kinetic]\nepsilons = 0.1, 0.10001\n")


@pytest.mark.parametrize("n_modes", ["0", "-1"])
def test_empty_frequency_lattice_is_refused(n_modes):
    # the lattice keeps modes -n_modes..n_modes: below 1 it resolves no
    # oscillation, below 0 it is empty
    with pytest.raises(ConfigError, match=re.escape("key `cell.n_modes`")):
        parse_config(f"[cell]\nbackend = spectral_ap\nn_modes = {n_modes}\n")


def _with(settings: dict) -> str:
    """The kinetic MINIMAL scenario with each ``section.key`` set as given.

    A value of ``None`` drops the key's whole section.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(MINIMAL + "[kinetic]\nepsilons = 0.4\n")
    for dotted, value in settings.items():
        section, name = dotted.split(".")
        if value is None:
            cp.remove_section(section)
            continue
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][name] = value
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


@pytest.mark.parametrize("key, settings, message", [
    # each ran earlier stages, then failed with exit code 1 in a later one
    ("macro.t", {"macro.t": "-0.1"}, "must be finite and non-negative"),
    ("macro.t", {"macro.t": "inf"}, "must be finite and non-negative"),
    ("macro.t", {"macro.t": "nan"}, "must be finite and non-negative"),
    ("macro.checkpoints", {"macro.checkpoints": "-1"}, "must be positive when"),
    ("macro.checkpoints", {"macro.checkpoints": "0"}, "must be positive when"),
    ("macro.checkpoints", {"macro.t": "0", "macro.checkpoints": "3"}, "must be positive when"),
    ("kinetic.epsilons", {"kinetic.epsilons": "0.4, 0"}, "every value must be positive"),
    ("kinetic.epsilons", {"kinetic.epsilons": "-0.1"}, "every value must be positive"),
    ("kinetic.epsilons", {"kinetic.epsilons": "0.4, inf"}, "every value must be positive"),
    ("kinetic.epsilons", {"kinetic.epsilons": "nan"}, "every value must be positive"),
    ("macro.theta", {"macro.theta": "-0.5"}, "must lie in [0, 1]"),
    ("macro.theta", {"macro.theta": "1.5"}, "must lie in [0, 1]"),
    ("macro.theta", {"macro.theta": "nan"}, "must lie in [0, 1]"),
    ("macro.half_width", {"macro.half_width": "0"}, "must be positive"),
    ("macro.half_width", {"macro.half_width": "-2"}, "must be positive"),
    ("cell.tol", {"cell.tol": "0"}, "must be positive"),
    ("cell.tol", {"cell.tol": "-1e-12"}, "must be positive"),
    ("cell.period", {"cell.period": "0"}, "must be positive"),
    ("cell.period", {"cell.period": "-1"}, "must be positive"),
    # these failed with a message that named no key
    ("cell.n", {"cell.n": "3"}, "must be at least 4"),
    ("cell.n", {"cell.n": "0"}, "must be at least 4"),
    ("macro.n", {"macro.n": "7"}, "must be at least 8"),
    ("velocity.n", {"velocity.family": "uniform_circle", "velocity.n": "2",
                    "scenario.dimension": "2", "kinetic.epsilons": None},
     "uniform_circle needs at least 3 nodes"),
    ("velocity.weights", {"velocity.weights": "1.0"}, "two_velocity needs exactly two positive"),
    ("velocity.weights", {"velocity.weights": "1.0, 1.0, 1.0"}, "two_velocity needs exactly two positive"),
    ("velocity.weights", {"velocity.weights": "1.0, 0.0"}, "two_velocity needs exactly two positive"),
    ("velocity.weights", {"velocity.weights": "1.0, -2.0"}, "two_velocity needs exactly two positive"),
    ("sigma.x_amplitude", {"sigma.x_dependence": "tanh", "sigma.x_amplitude": "1.5"},
     "tanh modulation needs |x_amplitude| < 1"),
    ("sigma.x_amplitude", {"sigma.x_dependence": "tanh", "sigma.x_amplitude": "-1"},
     "tanh modulation needs |x_amplitude| < 1"),
    ("sigma.table", {"sigma.family": "table", "sigma.table": "1, 1; 1"},
     "need a square table; got 2 rows of lengths [2, 1]"),
    ("sigma.table", {"sigma.family": "table", "sigma.table": "1, 1, 1; 1, 1, 1"},
     "need a square table; got 2 rows of lengths [3, 3]"),
    ("sigma.table", {"sigma.family": "table", "sigma.table": "1, 1, 1; 1, 1, 1; 1, 1, 1"},
     "is 3 x 3, but the velocity set has 2 nodes"),
    # rate parameters that give non-positive rates
    ("sigma.s0", {"sigma.family": "constant", "sigma.s0": "-1"}, "must be positive and finite"),
    ("sigma.s0", {"sigma.family": "constant", "sigma.s0": "0"}, "must be positive and finite"),
    ("sigma.table", {"sigma.family": "table", "sigma.table": "1, 0; 0, 1"},
     "every entry must be positive and finite"),
    ("sigma.table", {"sigma.family": "table", "sigma.table": "1, -2; 0.5, 1"},
     "every entry must be positive and finite"),
    ("sigma.alpha", {"sigma.alpha": "1.5"},
     "the rate floor `sigma.base` - |`sigma.alpha`| is -0.5; it must be positive and finite"),
    ("sigma.alpha", {"sigma.base": "0.5", "sigma.alpha": "-0.5"},
     "the rate floor `sigma.base` - |`sigma.alpha`| is 0; it must be positive and finite"),
    ("sigma.alpha1", {"sigma.family": "quasi_periodic", "sigma.alpha1": "0.6",
                      "sigma.alpha2": "0.5", "kinetic.epsilons": None},
     "the rate floor `sigma.base` - |`sigma.alpha1`| - |`sigma.alpha2`| is -0.1; "
     "it must be positive and finite"),
    ("sigma.alpha", {"sigma.family": "sinusoidal_defect", "sigma.defect_amplitude": "-0.6"},
     "the rate floor `sigma.base` - |`sigma.alpha`| - |`sigma.defect_amplitude`| is -0.1; "
     "it must be positive and finite"),
    # a velocity set that does not move
    ("velocity.speed", {"velocity.speed": "0"}, "must be positive and finite"),
    ("velocity.speed", {"velocity.speed": "-1"}, "must be positive and finite"),
    ("velocity.speed", {"velocity.speed": "inf"}, "must be positive and finite"),
    ("velocity.speed", {"velocity.speed": "nan"}, "must be positive and finite"),
    # a zero width made the defect vanish with no warning (`kinhom sweep`
    # on 16 cells exited 0 with PASS); a quasi_approx p or q below 1 failed
    # in the check stage with a message that named no key
    ("sigma.defect_width", {"sigma.family": "sinusoidal_defect", "sigma.defect_width": "0"},
     "must be positive and finite"),
    ("sigma.defect_width", {"sigma.family": "sinusoidal_defect", "sigma.defect_width": "-0.25"},
     "must be positive and finite"),
    ("sigma.defect_width", {"sigma.family": "sinusoidal_defect", "sigma.defect_width": "nan"},
     "must be positive and finite"),
    ("sigma.defect_width", {"sigma.family": "sinusoidal_defect", "sigma.defect_width": "inf"},
     "must be positive and finite"),
    ("sigma.p", {"sigma.family": "quasi_approx", "sigma.p": "0"},
     "quasi_approx needs an integer >= 1"),
    ("sigma.q", {"sigma.family": "quasi_approx", "sigma.q": "-3"},
     "quasi_approx needs an integer >= 1"),
    # a kernel the cell stage cannot represent failed in the check stage
    # with a message that named no key
    ("cell.backend", {"cell.backend": "grid", "sigma.family": "quasi_periodic"},
     "the quasi_periodic kernel is not periodic; use spectral_ap or auto"),
    ("cell.period", {"sigma.family": "quasi_approx", "sigma.q": "2"},
     "1 is not a multiple of the quasi_approx kernel period 2"),
    ("cell.period", {"cell.period": "0.5"}, "0.5 is not a multiple of the sinusoidal kernel period 1"),
    # a period below 1e-9 rounded to zero cells and passed the grid's own test
    ("cell.period", {"cell.period": "1e-12"},
     "1e-12 is not a multiple of the sinusoidal kernel period 1"),
    *[("sigma.family", {"sigma.family": fam, "scenario.dimension": "2",
                        "velocity.family": "uniform_circle", "kinetic.epsilons": None},
       f"{fam} profiles are one-dimensional; `scenario.dimension` = 2")
      for fam in ("sinusoidal_defect", "quasi_periodic", "quasi_approx")],
    # no-flux walls failed in the kinetic stage, after every other stage, or
    # in the 2-D macro stage on the roundoff off-diagonal of every tensor
    ("macro.bc", {"macro.bc": "no-flux"}, "the kinetic reference needs a periodic macro grid"),
    ("macro.bc", {"macro.bc": "no-flux", "scenario.dimension": "2",
                  "velocity.family": "uniform_circle", "kinetic.epsilons": None},
     "no-flux boundaries need `scenario.dimension` = 1"),
])
def test_late_failing_scenario_values_are_refused(tmp_path, capsys, key, settings, message):
    text = _with(settings)
    with pytest.raises(ConfigError, match=re.escape(f"key `{key}`: {message}")):
        parse_config(text)
    path = tmp_path / "late.ini"
    path.write_text(text)
    assert cli_main(["check", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key", ["cell.period", "cell.tol", "initial.width", "macro.half_width",
                                 "macro.dt", "kinetic.c_split"])
def test_infinite_positive_values_are_refused(tmp_path, capsys, key):
    # +inf passed `> 0`: the run then failed in a later stage with a message
    # that named no key, or (initial.width) exited 0 with a flat datum
    text = _with({key: "inf"})
    with pytest.raises(ConfigError, match=re.escape(f"key `{key}`: must be positive and finite")):
        parse_config(text)
    path = tmp_path / "inf.ini"
    path.write_text(text)
    assert cli_main(["check", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("settings, message", [
    ({"initial.center": "nan"}, "must be finite"),
    ({"initial.center": "inf"}, "must be finite"),
    ({"initial.center": "-inf"}, "must be finite"),
    # the datum sits outside [-2, 2]; it underflows to 0 at every point
    ({"initial.center": "50"}, "has no positive sample on the macro grid"),
    # a width far below the spacing 1/16 falls between the points
    ({"initial.width": "1e-6"}, "has no positive sample on the macro grid"),
])
def test_initial_datum_without_mass_is_refused(tmp_path, capsys, settings, message):
    # each ran: the sweep gave err = nan, the pipeline macro_mass_drift = nan,
    # or the sweep's summary raised ZeroDivisionError outside every stage
    text = _with(settings)
    with pytest.raises(ConfigError, match=re.escape("key `initial.center`: ") + ".*" + message):
        parse_config(text)
    path = tmp_path / "datum.ini"
    path.write_text(text)
    assert cli_main(["sweep", "--config", str(path)]) == 2
    assert "initial.center" in capsys.readouterr().err


def test_initial_datum_with_mass_on_the_grid_is_accepted():
    parse_config(_with({"initial.center": "1.5"}))
    parse_config(_with({"initial.width": "0.02"}))
    # a uniform datum has mass wherever its (unused) centre lies
    parse_config(_with({"initial.kind": "uniform", "initial.center": "50"}))


def test_motionless_velocity_set_is_refused_before_the_sweep(tmp_path, capsys):
    # with speed 0 the diffusion tensor is zero, which the ellipticity gate let
    # through: the sweep exited 0 with D_eff_11 = -0 and errors at roundoff
    path = tmp_path / "still.ini"
    path.write_text("[velocity]\nspeed = 0\n\n[cell]\nn = 16\n\n"
                    "[macro]\nn = 16\nt = 0.05\ncheckpoints = 2\n\n"
                    "[kinetic]\nepsilons = 0.4, 0.2\n")
    assert cli_main(["sweep", "--config", str(path)]) == 2
    assert "key `velocity.speed`: must be positive and finite" in capsys.readouterr().err


def test_a_run_of_zero_length_stays_valid():
    cfg = parse_config(_with({"macro.t": "0", "macro.checkpoints": "0"}))
    assert list(cfg.checkpoint_times()) == [0.0]
    for theta in ("0", "1"):
        parse_config(_with({"macro.theta": theta}))
    report = run_pipeline(cfg, stop_after="macro")
    assert report.macro.times.tolist() == [0.0]


def test_pipeline_without_kinetic_section():
    report = run_pipeline(parse_config(MINIMAL))
    assert abs(report.lam - 1.0) < 1e-10
    assert report.macro is not None
    assert report.sweep is None
    assert report.kinetic_states == {}
    assert "macro_mass_drift" in report.summary
    assert not any(k.startswith("err_eps") for k in report.summary)


def test_stop_after_truncates_the_pipeline():
    report = run_pipeline(parse_config(MINIMAL), stop_after="cell")
    assert report.lam != 0.0
    assert report.coefficients is None
    assert report.macro is None
    checked = run_pipeline(parse_config(MINIMAL), stop_after="check")
    assert checked.lam == 0.0
    assert checked.sdb_gap < 1e-12


def test_stage_errors_name_the_stage():
    with pytest.raises(StageError, match="^stage check:") as info:
        run_pipeline(parse_config(UNBALANCED))
    assert info.value.stage == "check"


def test_check_stage_passes_a_64x64_spectral_circle_cell():
    # 64^2 points x 8 velocities: a dense spectral operator would have taken
    # 6 * 8 * 32768^2 bytes; the collocation cell forms no matrix, so the
    # check stage has no size to refuse (tests/test_cell_solver.py solves it)
    text = ("[scenario]\nname = large\ndimension = 2\n"
            "[velocity]\nfamily = uniform_circle\nn = 8\n"
            "[cell]\nn = 64\nscheme = spectral\n")
    checked = run_pipeline(parse_config(text), stop_after="check")
    assert checked.sdb_gap <= 1e-12 and checked.lam == 0.0


def test_two_dimensional_frequency_lattice_is_refused():
    # `kinhom check` passed it, and the cell stage failed with a message that
    # named no key
    text = ("[scenario]\ndimension = 2\n[velocity]\nfamily = uniform_circle\n"
            "[cell]\nbackend = spectral_ap\n")
    with pytest.raises(ConfigError, match=re.escape("key `cell.backend`: the frequency-lattice")):
        parse_config(text)
    parse_config(text.replace("spectral_ap", "grid"))


def test_an_n_modes_30_frequency_lattice_passes_check_and_cell():
    # 61^2 modes x 2 velocities: a dense lattice operator would have taken
    # 8 * 16 * 7442^2 bytes and was refused; on the torus it is 7442 samples
    # a field, and its D is the n_modes = 8 one
    text = ("[sigma]\nfamily = quasi_periodic\n"
            "[cell]\nbackend = spectral_ap\nn_modes = 30\n")
    report = run_pipeline(parse_config(text), stop_after="cell")
    assert abs(report.lam - 1.0) <= 1e-12 and report.corrector_residual < 1e-9
    assert report.summary["lattice_ring_weight"] < 1e-12
    D = [run_pipeline(parse_config(text.replace("30", n)), stop_after="effective")
         .coefficients.D[0, 0] for n in ("30", "8")]
    assert abs(D[0] - D[1]) <= 1e-13 * D[1]


CIRCLE2D_REDUCED = """\
[scenario]
name = circle2d
dimension = 2

[velocity]
family = uniform_circle
n = 8

[cell]
n = 8
scheme = upwind

[sigma]
family = sinusoidal
alpha = 0.5

[macro]
n = 16
"""

SMALL_EPS_REDUCED = """\
[scenario]
name = small_eps

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
scheme = shift
collision = exact
"""


@pytest.mark.parametrize("text", [CIRCLE2D_REDUCED, SMALL_EPS_REDUCED],
                         ids=["circle2d", "small_eps"])
def test_summary_counts_macro_steps_and_dt(monkeypatch, text):
    # ten checkpoint intervals of 103 steps each under the default
    # dt = t / 1024, each advanced by one Fourier step call
    from kinhom.macro_solver import DriftDiffusionSolver

    calls = []
    step = DriftDiffusionSolver.step

    def counted(self, rho, dt, n=1):
        calls.append((self.symbol is not None, n))
        return step(self, rho, dt, n)

    monkeypatch.setattr(DriftDiffusionSolver, "step", counted)
    cfg = parse_config(text)
    summary = run_pipeline(cfg, stop_after="macro").summary
    assert summary["macro_steps"] == sum(n for _, n in calls) == 1030
    assert [n for _, n in calls] == [103] * 10
    assert all(fourier for fourier, _ in calls)
    assert summary["macro_dt"] == pytest.approx(cfg.macro["t"] / 1030, rel=1e-12)



@pytest.mark.parametrize("key, value", [("scheme", "upwind"), ("collision", "implicit")])
def test_kinetic_scheme_keys_take_one_value(key, value):
    # the kinetic reference runs exact shift transport with exact collision only
    with pytest.raises(ConfigError, match=re.escape(f"key `kinetic.{key}`")):
        parse_config(KINETIC + f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=re.escape("unknown key `kinetic.c_cfl`")):
        parse_config(KINETIC + "c_cfl = 0.9\n")
    cfg = parse_config(KINETIC + "scheme = shift\ncollision = exact\n")
    assert cfg == parse_config(KINETIC)
    dumped = dump_config(cfg)
    assert {"scheme = shift", "collision = exact"} <= set(dumped.splitlines())
    assert dump_config(parse_config(dumped)) == dumped


def test_bare_kinetic_section_sweep_passes(tmp_path, capsys):
    # default constant kernel, eps = 0.4, 0.2, 0.1: the error falls by at
    # least 1.5 per halving of eps (upwind with implicit Euler gave 0.59)
    path = tmp_path / "bare.ini"
    path.write_text("[kinetic]\n")
    sweep = run_pipeline(parse_config(path.read_text())).sweep
    assert sweep.monotone and sweep.min_ratio >= 1.5
    assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict.startswith("verdict: monotone=yes") and verdict.endswith(": PASS")


@pytest.mark.parametrize("c_split, line", [
    (None, "c_split = auto"), ("auto", "c_split = auto"), ("0.25", "c_split = 0.25"),
])
def test_split_cap_roundtrips(c_split, line):
    text = KINETIC if c_split is None else KINETIC + f"c_split = {c_split}\n"
    cfg = parse_config(text)
    assert cfg.kinetic["c_split"] == (0.25 if c_split == "0.25" else "auto")
    dumped = dump_config(cfg)
    assert line in dumped.splitlines()
    assert parse_config(dumped) == cfg
    assert dump_config(parse_config(dumped)) == dumped


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("reduced, expect", [
    (False, {0.1: 25.6, 0.05: 12.8, 0.025: 6.4}),
    (True, {0.4: 6.4, 0.2: 3.2}),
], ids=["small_eps", "small_eps-reduced"])
def test_summary_reports_points_per_fast_period(reduced, expect):
    # N eps P / L with the sinusoidal period P = 1: the grid and eps alone
    # set it, so a short run reports the benchmark scenario's values
    text = _workloads().scenario("small_eps", 1, reduced=reduced)
    cfg = parse_config(re.sub(r"^t = .*$", "t = 0.001", text, flags=re.M))
    summary = run_pipeline(cfg).summary
    points = {float(k.rsplit("_", 1)[1]): v for k, v in summary.items()
              if k.startswith("kinetic_points_per_period_eps_")}
    assert points == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_kinetic_stage_warns_below_three_points_per_fast_period(caplog):
    # 512 cells at eps = 0.025 give 1.6 points per period, where the sweep
    # ratio flattened; the reduced small_eps, at 6.4 and 3.2, stays quiet
    text = re.sub(r"^t = .*$", "t = 0.001", _workloads().scenario("small_eps", 1), flags=re.M)
    coarse = re.sub(r"^epsilons = .*$", "epsilons = 0.025",
                    re.sub(r"^n = 2048$", "n = 512", text, flags=re.M), flags=re.M)
    reduced = re.sub(r"^t = .*$", "t = 0.001",
                     _workloads().scenario("small_eps", 1, reduced=True), flags=re.M)
    for scenario, expect in ((coarse, 1), (reduced, 0)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="kinhom.harness"):
            summary = run_pipeline(parse_config(scenario)).summary
        warned = [r.getMessage() for r in caplog.records if r.name == "kinhom.harness"]
        assert len(warned) == expect
        if expect:
            assert summary["kinetic_points_per_period_eps_0.025"] == pytest.approx(1.6)
            assert "eps=0.025 has 1.6 macro cells per fast period (below 3)" in warned[0]


def test_cell_stage_reports_the_lattice_ring_weight_and_warns_above_its_level(caplog):
    # weights (1, 4), alpha = 0.45: the corrector keeps 1.4e-2 of its norm on
    # the outermost ring at n_modes = 2 (D off by 1.6e-5), 1.2e-5 at 4
    text = ("[velocity]\nweights = 1.0, 4.0\n"
            "[sigma]\nfamily = quasi_periodic\nalpha1 = 0.45\nalpha2 = 0.45\n"
            "[cell]\nbackend = spectral_ap\nn_modes = {}\n")
    for n_modes, expect in ((2, 1), (4, 0)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="kinhom.harness"):
            summary = run_pipeline(parse_config(text.format(n_modes)), stop_after="cell").summary
        warned = [r.getMessage() for r in caplog.records if r.name == "kinhom.harness"]
        assert len(warned) == expect
        if expect:
            assert summary["lattice_ring_weight"] == pytest.approx(1.39e-2, rel=1e-2)
            assert "n_modes=2 leaves 0.0139 of the corrector on its outermost ring" in warned[0]
        else:
            assert summary["lattice_ring_weight"] == pytest.approx(1.25e-5, rel=1e-2)
    # the grid backend has no lattice to truncate
    grid = run_pipeline(parse_config(MINIMAL), stop_after="cell")
    assert "lattice_ring_weight" not in grid.summary


@pytest.mark.parametrize("reduced", [False, True], ids=["small_eps", "small_eps-reduced"])
def test_check_stage_reports_the_initial_tail_and_warns_above_its_level(caplog, reduced):
    # the reduced small_eps Gaussian (width 0.1 at h = 1/16) rings under the
    # exact shift (kinetic_min_f -1.5e-3); at h = 1/256 its tail is roundoff
    cfg = parse_config(_workloads().scenario("small_eps", 1, reduced=reduced))
    with caplog.at_level(logging.WARNING):
        summary = run_pipeline(cfg, stop_after="check").summary
    warned = [r.getMessage() for r in caplog.records if r.name.startswith("kinhom.")]
    if reduced:
        assert summary["kinetic_initial_tail"] == pytest.approx(2.15e-2, rel=1e-2)
        assert len(warned) == 1 and "relative spectral tail 0.0215" in warned[0]
    else:
        assert summary["kinetic_initial_tail"] < 1e-14
        assert warned == []
    assert "kinetic_initial_tail" not in run_pipeline(parse_config(MINIMAL),
                                                      stop_after="check").summary


def test_check_stage_warns_below_three_points_per_fast_period(caplog):
    # the resolution warning comes before any solve: 512 cells at eps = 0.025
    # give p = 1.6, and eps = 0.1 (p = 6.4) stays quiet
    text = re.sub(r"^n = 2048$", "n = 512", _workloads().scenario("small_eps", 1), flags=re.M)
    cfg = parse_config(re.sub(r"^epsilons = .*$", "epsilons = 0.1, 0.025", text, flags=re.M))
    with caplog.at_level(logging.WARNING, logger="kinhom.harness"):
        report = run_pipeline(cfg, stop_after="check")
    warned = [r.getMessage() for r in caplog.records if r.name == "kinhom.harness"]
    assert len(warned) == 1
    assert "eps=0.025 has 1.6 macro cells per fast period (below 3)" in warned[0]
    assert report.macro is None and not report.kinetic_states


# the scenario names the one scheme pair; each run takes a coarse run and a
# fine run of twice its steps
@pytest.mark.parametrize("scheme, collision, runs", [("shift", "exact", 3)])
def test_summary_counts_kinetic_steps_dt_mass_and_split_estimate(monkeypatch, scheme,
                                                                 collision, runs):
    from kinhom.kinetic_ref import KineticSolver
    from kinhom.phase_space import checkpoint_substeps

    calls, steps = [], []
    step = KineticSolver.step

    def counted(self, spectra, dt, out=None):
        # a stacked call advances one Strang step per entry, each at its own size
        calls.append(self.epsilon)
        steps.extend([self.epsilon] * (len(dt) if isinstance(dt, tuple) else 1))
        return step(self, spectra, dt, out=out)

    monkeypatch.setattr(KineticSolver, "step", counted)
    text = SMALL_EPS_REDUCED.replace("scheme = shift", f"scheme = {scheme}")
    cfg = parse_config(text.replace("collision = exact", f"collision = {collision}"))
    report = run_pipeline(cfg)
    summary = report.summary
    for eps, states in report.kinetic_states.items():
        solver = KineticSolver(cfg.build_kernel(), cfg.build_velocity(), cfg.build_macro_grid(),
                               epsilon=eps)
        plan = checkpoint_substeps(cfg.checkpoint_times(), cfg.macro["t"], solver.default_dt())
        n_sub = sum(n for _, n, _ in plan)
        assert summary[f"kinetic_steps_eps_{eps:g}"] == runs * n_sub == steps.count(eps)
        # per coarse step, one stacked coarse-and-fine call and one lone fine call
        assert calls.count(eps) == 2 * n_sub
        assert summary[f"kinetic_dt_eps_{eps:g}"] == plan[-1][2]
        assert 0.0 <= summary[f"kinetic_mass_drift_eps_{eps:g}"] <= 1e-13
        assert summary[f"kinetic_min_f_eps_{eps:g}"] == min(s.f.min() for s in states)
        assert 0.0 < summary[f"split_est_eps_{eps:g}"] == states[-1].split_est < 1e-2
    assert len(steps) == sum(summary[f"kinetic_steps_eps_{e:g}"] for e in cfg.kinetic["epsilons"])


def _count_assembles(monkeypatch):
    """Count cell-operator assemblies made through the pipeline's modules."""
    from kinhom import effective

    calls = {"assemble": 0, "assemble_spectral_ap": 0}
    for module in (harness, effective):
        for name in calls:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("sigma, backend", [
    ("family = sinusoidal", "grid"),
    ("family = quasi_periodic", "spectral_ap"),
])
def test_pipeline_solves_an_unmodulated_cell_once(monkeypatch, sigma, backend):
    calls = _count_assembles(monkeypatch)
    text = MINIMAL.replace("family = sinusoidal", sigma).replace(
        "n = 32\n", f"n = 32\nbackend = {backend}\n")
    report = run_pipeline(parse_config(text))
    assert report.coefficients.constant
    grid = backend == "grid"
    assert calls == {"assemble": int(grid), "assemble_spectral_ap": int(not grid)}


def test_pipeline_solves_a_modulated_cell_per_macro_point(monkeypatch):
    calls = _count_assembles(monkeypatch)
    text = MINIMAL.replace("family = sinusoidal",
                           "family = sinusoidal\nx_dependence = tanh\nx_amplitude = 0.3")
    cfg = parse_config(text)
    run_pipeline(cfg)
    assert calls == {"assemble": cfg.macro["n"] + 1, "assemble_spectral_ap": 0}


def _count_rate_samples(monkeypatch):
    """Count samples of the cell rates and balance gaps of node tables and of samples."""
    from kinhom import cell_solver, collision

    calls = {"sample_cell": 0, "table_gap": 0, "sample_gap": 0}
    sample_cell, sdb_gap = collision.ScatteringKernel.sample_cell, collision.sdb_gap

    def counted_sample(self, *args, **kwargs):
        calls["sample_cell"] += 1
        return sample_cell(self, *args, **kwargs)

    def counted_gap(rates, *args, **kwargs):
        calls["table_gap" if np.ndim(rates) == 2 else "sample_gap"] += 1
        return sdb_gap(rates, *args, **kwargs)

    monkeypatch.setattr(collision.ScatteringKernel, "sample_cell", counted_sample)
    for module in (collision, cell_solver):
        monkeypatch.setattr(module, "sdb_gap", counted_gap)
    return calls


def test_the_x0_rates_are_sampled_and_gated_once(monkeypatch):
    # the check stage measures the balance gap of the node table; the cell
    # stage's operator samples the x = 0 rates and gates them, with one gap
    # of the same table; no gap of samples is taken
    calls = _count_rate_samples(monkeypatch)
    report = run_pipeline(parse_config(MINIMAL), stop_after="cell")
    assert calls == {"sample_cell": 1, "table_gap": 2, "sample_gap": 0}
    assert report.sdb_gap <= 1e-12
    # the sampled positions of a modulated kernel sample and gate once each
    calls.update(sample_cell=0, table_gap=0, sample_gap=0)
    cfg = parse_config(TANH_REDUCED)
    run_pipeline(cfg, stop_after="effective")
    n = cfg.macro["n"] + 1
    assert calls == {"sample_cell": n, "table_gap": 1 + n, "sample_gap": 0}


def test_the_check_stage_refuses_bad_rates_before_any_solve(monkeypatch):
    from kinhom import collision, effective

    calls = _count_assembles(monkeypatch)
    with pytest.raises(StageError, match="stage check: kernel violates semi-detailed balance"):
        run_pipeline(parse_config(UNBALANCED), stop_after="check")
    assert calls == {"assemble": 0, "assemble_spectral_ap": 0}
    # negative samples pass the check stage, which samples nothing, and are
    # refused at the x = 0 cell's assembly, before its solve
    solves = []
    monkeypatch.setattr(effective, "equilibrium_F", lambda *a: solves.append(a))
    sample_cell = collision.ScatteringKernel.sample_cell
    monkeypatch.setattr(collision.ScatteringKernel, "sample_cell",
                        lambda self, *a, **k: -sample_cell(self, *a, **k))
    with pytest.raises(StageError, match="stage cell: scattering rates must be positive"):
        run_pipeline(parse_config(MINIMAL), stop_after="cell")
    assert calls == {"assemble": 1, "assemble_spectral_ap": 0} and solves == []


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt(), SystemExit(3)],
                         ids=["keyboard-interrupt", "system-exit"])
def test_an_interrupt_in_a_stage_is_not_a_stage_failure(interrupt, monkeypatch):
    # a stage wraps the failures of its work, Exception only: an interrupt or
    # an exit passes through unchanged
    with pytest.raises(type(interrupt)) as info:
        with harness._stage("cell"):
            raise interrupt
    assert info.value is interrupt

    def interrupted(*args, **kwargs):
        raise interrupt

    monkeypatch.setattr(harness, "solve_cell", interrupted)
    with pytest.raises(type(interrupt)) as info:
        run_pipeline(parse_config(MINIMAL), stop_after="cell")
    assert info.value is interrupt


TANH_REDUCED = """\
[scenario]
name = tanh

[cell]
n = 16

[sigma]
family = sinusoidal
alpha = 0.5
x_dependence = tanh
x_amplitude = 0.5

[macro]
n = 32
"""


def test_summary_reports_the_worst_corrector_diagnostics():
    # the x = 0 cell is not the worst one: its residual is about 7e-16
    # against 7e-13 elsewhere, and its bound constant 0.51 against 1.004
    from kinhom.effective import solve_cell

    cfg = parse_config(TANH_REDUCED)
    summary = run_pipeline(cfg, stop_after="effective").summary
    kernel, vm, grid = cfg.build_kernel(), cfg.build_velocity(), cfg.build_cell_grid()
    cells = [solve_cell(kernel, float(x), vm, backend="grid", grid=grid,
                        scheme=cfg.cell["scheme"], n_modes=cfg.cell["n_modes"],
                        tol=cfg.cell["tol"])
             for x in [0.0, *cfg.build_macro_grid().axes()[0]]]
    # the sampled positions are solved as stacked systems, so their
    # diagnostics are the per-position solves' up to roundoff; the residual
    # is roundoff itself, held to the scale of the per-position ones
    assert summary["bound_constant"] == pytest.approx(max(c.bound_constant for c in cells),
                                                      rel=1e-11, abs=0.0)
    assert cells[0].residual < summary["corrector_residual"] <= 10 * max(c.residual for c in cells)
    assert summary["bound_constant"] > cells[0].bound_constant


def test_summary_reports_the_family_solves_of_modulated_scenarios_only(tmp_path):
    # 32 positions, 32 distinct c: 17 Chebyshev nodes would pass half of
    # them, so each c is solved once and no Chebyshev tail is taken
    emit_tables(run_pipeline(parse_config(TANH_REDUCED), stop_after="effective"),
                str(tmp_path / "tanh"))
    lines = (tmp_path / "tanh" / "summary.txt").read_text().splitlines()
    assert "family_cell_solves = 32" in lines
    assert "family_cheb_tail = 0" in lines
    unmodulated = TANH_REDUCED.replace("x_dependence = tanh", "x_dependence = none")
    emit_tables(run_pipeline(parse_config(unmodulated), stop_after="effective"),
                str(tmp_path / "none"))
    assert "family_" not in (tmp_path / "none" / "summary.txt").read_text()


def test_pipeline_with_kinetic_produces_sweep_and_sigma_rows():
    report = run_pipeline(parse_config(KINETIC))
    assert set(report.kinetic_states) == {0.4, 0.2}
    rows = report.sweep.rows
    assert [r.epsilon for r in rows] == [0.4, 0.2]
    assert all(r.err > 0 for r in rows)
    assert not any(r.l2_flag for r in rows)
    # catalogue: {1, gauss} x {1, cos2pi, sin2pi} x {1, a1} per epsilon
    assert len(report.sigma_rows) == 2 * 12
    # psi = 1 pairs total masses, which both sides conserve identically
    for row in report.sigma_rows:
        if (row.phi, row.m, row.c) == ("1", "1", "1"):
            assert row.residual <= 1e-10
    assert "err_eps_0.4" in report.summary
    assert "sweep_min_ratio" in report.summary


SIGMA_KINETIC = """\
[scenario]
name = sigma

[cell]
n = 16
backend = {backend}

[sigma]
family = {family}

[initial]
width = 0.3

[macro]
half_width = 2.0
n = 64
t = 0.1
checkpoints = 2

[kinetic]
epsilons = 0.4, 0.2
"""


@pytest.mark.parametrize("family, backend, m_kinds", [
    # the catalogue adds m = cos(2 sqrt(2) pi y) for a kernel with no period
    ("quasi_periodic", "spectral_ap", {"1", "cos2pi", "sin2pi", "cos2r2pi"}),
    ("sinusoidal", "grid", {"1", "cos2pi", "sin2pi"}),
])
def test_sigma_limit_moments_on_both_backends(family, backend, m_kinds):
    report = run_pipeline(parse_config(SIGMA_KINETIC.format(family=family, backend=backend)))
    for eps in (0.4, 0.2):
        rows = [r for r in report.sigma_rows if r.epsilon == eps]
        assert len(rows) == 2 * len(m_kinds) * 2  # {1, gauss} x m x {1, a1}
        assert {r.m for r in rows} == m_kinds
    for row in report.sigma_rows:
        if (row.phi, row.m, row.c) == ("1", "1", "1"):
            assert row.residual <= 1e-10
        if row.m != "1":
            # the constant equilibrium's mean against an oscillating profile
            # is exactly 0 (the grid's sampled mean gave -2.6e-18 here)
            assert row.rhs == 0.0


DEFECT = """\
[scenario]
name = defect

[sigma]
family = sinusoidal_defect
alpha = 0.25
defect_amplitude = 0.5

[initial]
width = 0.3

[macro]
n = 256
t = 0.2

[kinetic]
epsilons = 0.2, 0.1, 0.05
scheme = shift
collision = exact
"""


def test_defect_sweep_error_falls_with_eps():
    # the macro model homogenizes the background and the kinetic reference
    # sees one defect at the origin: both target the same limit, so the
    # sweep error keeps falling instead of settling on a gap
    errs = [row.err for row in run_pipeline(parse_config(DEFECT)).sweep.rows]
    assert errs[0] > errs[1] > errs[2]


def test_emitted_tables_and_determinism(tmp_path):
    cfg = parse_config(KINETIC)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    # pre-existing junk must be replaced, not appended to
    dir_a.mkdir()
    (dir_a / "sweep.csv").write_text("junk\n")
    paths_a = emit_tables(run_pipeline(cfg), str(dir_a))
    paths_b = emit_tables(run_pipeline(cfg), str(dir_b))
    assert set(paths_a) == {
        "config.ini", "effective.csv", "macro.csv", "kinetic_eps_0.4.csv",
        "kinetic_eps_0.2.csv", "sweep.csv", "sigma.csv", "summary.txt",
    }
    assert (dir_a / "config.ini").read_text() == dump_config(cfg)
    # single header line, 17-significant-digit decimal cells
    eff = (dir_a / "effective.csv").read_text().splitlines()
    assert eff[0].startswith("x,D_eff_11,U_1,b_1,lambda,ellipticity_min"[:1])
    assert len(eff) == 2  # constant coefficients: one row at x = 0
    lam_cell = float(eff[1].split(",")[-2])
    assert lam_cell == run_pipeline(cfg, stop_after="cell").lam
    sweep = (dir_a / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "epsilon,err,runtime_s,l2_flag"
    # identical reruns agree byte-for-byte except the wall-clock column
    for name in paths_a:
        text_a = (dir_a / name).read_text()
        text_b = (dir_b / name).read_text()
        if name == "sweep.csv":
            strip = lambda t: [
                ln.split(",")[:2] + ln.split(",")[3:] for ln in t.splitlines()
            ]
            assert strip(text_a) == strip(text_b)
        else:
            assert text_a == text_b


def _csv(header, columns):
    """The whole table of :func:`_csv_blocks` as one string."""
    return "".join(_csv_blocks(header, columns))


def test_csv_writer_matches_a_per_row_formatter(monkeypatch):
    floats = np.array([-0.0, 1e-300, np.nan, 0.1, -2.5e17, np.inf, 3.0])
    ints = np.arange(-3, 4)
    flags = ["yes", "no", "yes", "yes", "no", "no", "yes"]
    header = ["a", "k", "flag", "b"]
    columns = [floats, ints, flags, list(floats[::-1])]
    rows = [[float(a), int(k), flag, float(b)]
            for a, k, flag, b in zip(floats, ints, flags, floats[::-1])]
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    assert _csv(header, columns) == "\n".join(lines) + "\n"
    assert _csv(header, [[], [], [], []]) == "a,k,flag,b\n"
    # rows split across formatting blocks, the last one short
    monkeypatch.setattr(harness, "_CSV_BLOCK", 3)
    assert _csv(header, columns) == "\n".join(lines) + "\n"
    # a column of preformatted FMT strings writes as its float column does
    special = np.array([-0.0, 1e-300, np.nan, np.inf])
    text = np.array([harness.FMT % v for v in special.tolist()], dtype=object)
    assert _csv(["a"], [text]) == _csv(["a"], [special]) == "a\n-0\n1e-300\nnan\ninf\n"


def test_kinetic_tables_match_the_float_column_writer(tmp_path):
    # emit_tables formats the repeated t and x values once; the bytes are
    # those of the table written from the float columns
    report = run_pipeline(parse_config(SMALL_EPS_REDUCED))
    paths = emit_tables(report, str(tmp_path))
    assert len(report.kinetic_states) == 2
    for eps, states in report.kinetic_states.items():
        x = states[0].grid.axes()[0]
        K = states[0].vm.n_nodes
        columns = [
            np.repeat([s.t for s in states], x.size * K),
            np.tile(np.repeat(x, K), len(states)),
            np.tile(np.arange(K), len(states) * x.size),
            np.concatenate([s.f.ravel() for s in states]),
        ]
        expect = _csv(["t", "x", "v_index", "f"], columns)
        with open(paths[f"kinetic_eps_{eps:g}.csv"], "rb") as fh:
            assert fh.read() == expect.encode()


def test_long_tables_are_written_block_by_block(tmp_path, monkeypatch):
    # emit_tables hands each table to the writer as a stream of blocks of at
    # most _CSV_BLOCK rows, never as the whole text
    report = run_pipeline(parse_config(SMALL_EPS_REDUCED))
    monkeypatch.setattr(harness, "_CSV_BLOCK", 64)
    largest = {}
    atomic_write = harness._atomic_write

    def recording(path, blocks):
        assert not isinstance(blocks, str)
        blocks = list(blocks)
        largest[Path(path).name] = (max((b.count("\n") for b in blocks[1:]), default=0),
                                    len(blocks))
        atomic_write(path, blocks)

    monkeypatch.setattr(harness, "_atomic_write", recording)
    paths = emit_tables(report, str(tmp_path))
    for eps in report.kinetic_states:
        assert largest[f"kinetic_eps_{eps:g}.csv"][0] == 64
    assert largest["macro.csv"][0] == 64
    for name in ("macro.csv", *(f"kinetic_eps_{eps:g}.csv" for eps in report.kinetic_states)):
        with open(paths[name]) as fh:
            rows = sum(1 for _ in fh) - 1
        assert largest[name][1] == 1 + -(-rows // 64)  # the header, then the row blocks


def test_a_table_that_fails_while_streaming_leaves_no_file(tmp_path):
    # the blocks are formatted while the temp file is open: a failure part way
    # leaves neither a partial table nor the temp file, and an older table as it was
    def blocks():
        yield "a\n"
        raise RuntimeError("formatting failed")

    path = tmp_path / "table.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        harness._atomic_write(str(path), blocks())
    assert list(tmp_path.iterdir()) == []
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="formatting failed"):
        harness._atomic_write(str(path), blocks())
    assert list(tmp_path.iterdir()) == [path] and path.read_text() == "old\n"


def test_rate_scaling_correspondence():
    # (sigma, eps, T, dt) and (c sigma, c eps, c T, c dt) generate identical
    # discrete evolutions for cell-constant rates, so the sweep errors and
    # the rescaled coefficients must agree.
    c = 3.0
    base = """\
[scenario]
name = scale

[sigma]
family = constant
s0 = {s0}

[initial]
width = 0.3

[macro]
half_width = 2.0
n = 64
t = {t}
checkpoints = 2

[kinetic]
epsilons = {eps}
"""
    cfg_a = parse_config(base.format(s0=1.0, t=0.1, eps="0.4, 0.2"))
    cfg_b = parse_config(base.format(s0=3.0, t=0.3, eps="1.2, 0.6"))
    rep_a = run_pipeline(cfg_a)
    rep_b = run_pipeline(cfg_b)
    assert abs(rep_b.coefficients.D[0, 0] - rep_a.coefficients.D[0, 0] / c) < 1e-12
    for row_a, row_b in zip(rep_a.sweep.rows, rep_b.sweep.rows):
        assert row_b.epsilon == pytest.approx(c * row_a.epsilon)
        assert abs(row_b.err - row_a.err) < 1e-6


def test_cli_exit_codes_and_output(tmp_path, capsys):
    good = tmp_path / "good.ini"
    good.write_text(KINETIC)
    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text("[sigam]\nalpha = 0.5\n")
    unbalanced = tmp_path / "unbalanced.ini"
    unbalanced.write_text(UNBALANCED)
    no_kinetic = tmp_path / "no_kinetic.ini"
    no_kinetic.write_text(MINIMAL)

    assert cli_main(["check", "--config", str(good)]) == 0
    out = capsys.readouterr().out
    assert "balance gate: PASS" in out
    assert "[scenario]" in out  # canonical echo

    assert cli_main(["check", "--config", str(bad_key)]) == 2
    assert "sigma.alpha" in capsys.readouterr().err

    assert cli_main(["pipeline", "--config", str(unbalanced)]) == 1
    assert "stage check" in capsys.readouterr().err

    assert cli_main(["sweep", "--config", str(no_kinetic)]) == 2
    capsys.readouterr()

    out_dir = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(good), "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "verdict:" in text
    assert (out_dir / "sweep.csv").exists()
