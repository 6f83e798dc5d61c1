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
    epsilon_sweep,
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
    with pytest.raises(ConfigError):
        epsilon_sweep(parse_config(MINIMAL))


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
