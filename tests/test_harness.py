"""Scenario configs, pipeline stages, emitted tables, CLI exit codes."""

import re

import numpy as np
import pytest

from kinhom import harness
from kinhom.cli import main as cli_main
from kinhom.harness import (
    ConfigError,
    StageError,
    _csv,
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
    assert with_kinetic.kinetic["collision"] == "implicit"
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
    ("macro.dt", "0"), ("macro.dt", "-0.01"), ("kinetic.c_cfl", "0"),
    ("kinetic.c_cfl", "-0.9"), ("kinetic.c_split", "0"), ("kinetic.c_split", "-0.5"),
])
def test_nonpositive_step_sizes_are_refused(key, value):
    # a negative macro.dt ran one step per checkpoint interval, and 0 failed
    # in the macro stage converting an infinite step count
    section, name = key.split(".")
    kinetic = MINIMAL + "[kinetic]\nepsilons = 0.4\n"
    with pytest.raises(ConfigError, match=re.escape(f"key `{key}`: must be positive")):
        parse_config(kinetic.replace(f"[{section}]\n", f"[{section}]\n{name} = {value}\n"))
    parse_config(kinetic.replace(f"[{section}]\n", f"[{section}]\n{name} = 0.05\n"))
    if name != "c_cfl":
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


def test_check_stage_refuses_an_oversized_dense_cell():
    # 64^2 points x 8 velocities: the dense spectral operator would take
    # 6 * 8 * 32768^2 bytes, so the check stage refuses it before any solve
    text = ("[scenario]\nname = dense\ndimension = 2\n"
            "[velocity]\nfamily = uniform_circle\nn = 8\n"
            "[cell]\nn = 64\nscheme = spectral\n")
    with pytest.raises(StageError, match="51539607552 bytes") as info:
        run_pipeline(parse_config(text), stop_after="check")
    assert info.value.stage == "check"


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


@pytest.mark.parametrize("scheme, collision, runs", [
    ("shift", "exact", 3), ("upwind", "implicit", 1),
])
def test_summary_counts_kinetic_steps_dt_mass_and_split_estimate(monkeypatch, scheme,
                                                                 collision, runs):
    # shift + exact takes a coarse run and a fine run of twice its steps
    from kinhom.kinetic_ref import KineticSolver
    from kinhom.phase_space import checkpoint_substeps

    calls = []
    step = KineticSolver.step

    def counted(self, *args):
        calls.append(self.epsilon)
        return step(self, *args)

    monkeypatch.setattr(KineticSolver, "step", counted)
    text = SMALL_EPS_REDUCED.replace("scheme = shift", f"scheme = {scheme}")
    cfg = parse_config(text.replace("collision = exact", f"collision = {collision}"))
    report = run_pipeline(cfg)
    summary = report.summary
    for eps, states in report.kinetic_states.items():
        solver = KineticSolver(cfg.build_kernel(), cfg.build_velocity(), cfg.build_macro_grid(),
                               epsilon=eps, scheme=scheme, collision=collision)
        plan = checkpoint_substeps(cfg.checkpoint_times(), cfg.macro["t"], solver.default_dt())
        n_sub = sum(n for _, n, _ in plan)
        assert summary[f"kinetic_steps_eps_{eps:g}"] == runs * n_sub == calls.count(eps)
        assert summary[f"kinetic_dt_eps_{eps:g}"] == plan[-1][2]
        assert 0.0 <= summary[f"kinetic_mass_drift_eps_{eps:g}"] <= 1e-13
        assert summary[f"kinetic_min_f_eps_{eps:g}"] == min(s.f.min() for s in states)
        if runs == 3:
            assert 0.0 < summary[f"split_est_eps_{eps:g}"] == states[-1].split_est < 1e-2
        else:
            assert f"split_est_eps_{eps:g}" not in summary
    assert len(calls) == sum(summary[f"kinetic_steps_eps_{e:g}"] for e in cfg.kinetic["epsilons"])


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
