"""``tools/cell_timing.py`` on the reduced workloads."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cell_timing.py"


@pytest.fixture
def timing(monkeypatch):
    # the tool pins the BLAS thread variables and extends sys.path on import;
    # keep both local to the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("cell_timing", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cell_timing_prints_ms_per_position_of_each_layer(timing, capsys):
    assert timing.main(["--reduced", "--sweeps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the reduced scenario: 32 macro positions on a 16-point upwind cell
    assert lines[0] == ("tanh seed 1: 32 positions, 16-point upwind cell, 2 velocities, "
                        "min of 2 sweeps")
    assert lines[1].split() == ["layer", "ms/position"]
    rows = [line.split()[:2] for line in lines[2:]]
    assert [name for name, _ in rows] == list(timing.LAYERS)
    assert all(math.isfinite(float(value)) and float(value) > 0.0 for _, value in rows)
    # 32 distinct c: fewer than twice the 33 predicted Chebyshev nodes, so each is solved
    assert lines[-2].split()[0] == "family" and lines[-2].endswith("  (32 cells)")
    # one macro run: ten checkpoint intervals of the scenario's horizon
    assert lines[-1].split()[0] == "macro" and lines[-1].endswith("  (1030 steps)")


def test_cell_timing_family_row_times_the_stacked_solve(timing, monkeypatch):
    # the family row runs the effective stage, once a sweep
    calls = []
    stage = timing.assemble_effective
    monkeypatch.setattr(timing, "assemble_effective",
                        lambda cell, x: calls.append(len(x)) or stage(cell, x))
    assert timing.main(["--reduced", "--sweeps", "2"]) == 0
    # and once more for the macro row's D
    assert calls == [32, 32, 32]


def test_cell_timing_macro_row_times_one_run_per_sweep_on_the_sampled_D(timing, monkeypatch):
    # a fresh solver a sweep, on the per-cell D of the 32 macro positions
    built = []
    solver = timing.DriftDiffusionSolver
    monkeypatch.setattr(timing, "DriftDiffusionSolver",
                        lambda mg, D, **kw: built.append(D.shape) or solver(mg, D, **kw))
    assert timing.main(["--reduced", "--sweeps", "2"]) == 0
    assert built == [(32, 1, 1), (32, 1, 1)]


def _assert_one_cell_rows(timing, lines):
    """Every layer timed; ``family``, the effective stage, solves no cell; one macro run."""
    rows = [line.split()[:2] for line in lines[2:]]
    assert [name for name, _ in rows] == list(timing.LAYERS)
    assert all(math.isfinite(float(value)) and float(value) > 0.0 for _, value in rows)
    # an unmodulated kernel's effective stage takes the x = 0 cell's D as it is
    assert lines[-2].split()[0] == "family" and lines[-2].endswith("  (0 cells)")
    assert lines[-1].split()[0] == "macro" and lines[-1].endswith("  (1030 steps)")


def test_cell_timing_refuses_zero_sweeps(timing):
    with pytest.raises(SystemExit):
        timing.main(["--reduced", "--sweeps", "0"])


def test_cell_timing_times_the_one_circle2d_cell(timing, capsys):
    assert timing.main(["--workload", "circle2d", "--reduced", "--sweeps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the reduced scenario: the x = 0 cell, 8 x 8 upwind with the 8-node circle
    assert lines[0] == ("circle2d seed 1: 1 position, 64-point upwind cell, 8 velocities, "
                        "min of 2 sweeps")
    _assert_one_cell_rows(timing, lines)


def test_cell_timing_gate_row_samples_and_gates_each_position_alone(timing, monkeypatch, capsys):
    # the gate row, just before family and macro, samples and gates the rates
    # of every position once a sweep, straight from the kernel
    gated = []
    gate = timing.gate_rates
    monkeypatch.setattr(timing, "gate_rates",
                        lambda kernel, x, *a: gated.append(x) or gate(kernel, x, *a))
    assert timing.main(["--reduced", "--sweeps", "2"]) == 0
    names, values = zip(*(line.split()[:2] for line in capsys.readouterr().out.splitlines()[2:]))
    assert names[-3:] == ("gate", "family", "macro")
    assert math.isfinite(float(values[-3])) and float(values[-3]) > 0.0
    assert len(gated) == 2 * 32 and len(set(gated)) == 32


def test_cell_timing_times_the_one_small_eps_cell(timing, capsys):
    assert timing.main(["--workload", "small_eps", "--reduced", "--sweeps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the reduced scenario: the x = 0 cell, 16-point Fourier collocation
    assert lines[0] == ("small_eps seed 1: 1 position, 16-point spectral cell, 2 velocities, "
                        "min of 2 sweeps")
    _assert_one_cell_rows(timing, lines)


def test_cell_timing_times_a_root_checkout_in_its_own_process(timing, monkeypatch, capsys):
    # --root is this checkout: its sweeps run in a second process, which
    # imports the kinhom of --root and takes turns with the sweeps here
    here = []
    timed = timing._timed
    monkeypatch.setattr(timing, "_timed", lambda *a: here.append(1) or timed(*a))
    assert timing.main(["--reduced", "--sweeps", "2", "--root", str(ROOT)]) == 0
    assert len(here) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("tanh seed 1: 32 positions, 16-point upwind cell, 2 velocities, "
                        "min of 2 sweeps")
    assert lines[1] == f"--root {ROOT}: kinhom from {ROOT / 'src' / 'kinhom'}"
    assert lines[2].split() == ["layer", "ms/position", "--root", "ratio"]
    rows = [line.split() for line in lines[3:]]
    assert [row[0] for row in rows] == list(timing.LAYERS)
    for name, mine, theirs, ratio, *_ in rows:
        mine, theirs, ratio = float(mine), float(theirs), float(ratio)
        assert min(mine, theirs) > 0.0 and math.isfinite(max(mine, theirs))
        # the ratio of the unrounded minima, this checkout over --root: each
        # figure is printed to within 5e-4
        assert (mine - 5e-4) / (theirs + 5e-4) - 5e-4 <= ratio
        assert ratio <= (mine + 5e-4) / (theirs - 5e-4) + 5e-4
    # the same checkout makes the same solves and steps, so no --root count is added
    assert lines[-2].endswith("  (32 cells)") and lines[-1].endswith("  (1030 steps)")
