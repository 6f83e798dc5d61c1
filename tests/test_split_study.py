"""``tools/split_study.py`` on the reduced ``small_eps`` workload."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "split_study.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def study(monkeypatch):
    # the tool pins the BLAS thread variables and extends sys.path on import;
    # keep both local to the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    return _load("split_study", TOOL)


def test_split_study_prints_errors_steps_and_the_criterion_6_series(study, tmp_path, capsys):
    workloads = _load("workloads", ROOT / "perfbench" / "workloads.py")
    path = tmp_path / "small_eps.ini"
    path.write_text(workloads.scenario("small_eps", 1, reduced=True))
    caps, epsilons = (0.5, 0.25), (0.4, 0.2)  # the reduced scenario's eps
    assert study.main([str(path), "--caps", ",".join(map(str, caps)), "--ref-cap", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()

    header = lines.index(next(line for line in lines if line.split()[:2] == ["eps", "cap"]))
    series = lines.index(next(line for line in lines if line.startswith("criterion 6:")))
    rows = [line.split() for line in lines[header + 1:series]]
    assert sorted((float(r[0]), float(r[1])) for r in rows) == sorted(
        (eps, cap) for eps in epsilons for cap in caps)
    for eps, cap, strang_err, strang_steps, run_err, run_steps, split_est in rows:
        assert math.isfinite(float(strang_err)) and math.isfinite(float(run_err))
        # every run is a coarse run and a fine run of twice its steps
        assert int(run_steps) == 3 * int(strang_steps)
        assert float(split_est) > 0.0

    per_cap = [line.split() for line in lines[series + 1:]]
    assert [float(words[1].rstrip(":")) for words in per_cap] == list(caps)
    for words in per_cap:
        values = [float(v) for v in words[2:2 + len(epsilons)]]
        assert all(math.isfinite(v) for v in values)
        assert " ".join(words[2 + len(epsilons):]) in ("falls", "does not fall")
