"""``tools/step_timing.py`` on the reduced ``small_eps`` workload."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "step_timing.py"


@pytest.fixture
def timing(monkeypatch):
    # the tool pins the BLAS thread variables and extends sys.path on import;
    # keep both local to the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("step_timing", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_timing_prints_us_per_call_of_each_sub_step(timing, capsys):
    assert timing.main(["--reduced", "--repeats", "2", "--calls", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the reduced scenario: 128 macro cells, two velocities, smallest eps 0.2
    assert lines[0].startswith("small_eps seed 1: 128 cells, 2 velocities, eps 0.2, dt ")
    assert lines[0].endswith(", min of 2 repeats of 3 calls")
    assert lines[1].split() == ["sub-step", "us/call"]
    rows = [line.split() for line in lines[2:]]
    assert [name for name, _ in rows] == list(timing.SUB_STEPS + timing.TABLES)
    assert all(math.isfinite(float(value)) and float(value) > 0.0 for _, value in rows)


@pytest.mark.parametrize("flag", ["--repeats", "--calls"])
def test_step_timing_refuses_zero_counts(timing, flag):
    with pytest.raises(SystemExit):
        timing.main(["--reduced", flag, "0"])
