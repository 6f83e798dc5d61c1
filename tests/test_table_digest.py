"""Column comparison of ``tools/table_digest.py``, on hand-written tables."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "table_digest.py"


@pytest.fixture
def digest(monkeypatch):
    # the tool pins the BLAS thread variables on import; keep that local
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("table_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_a_numeric_column_moved_at_roundoff(digest):
    old = "x,rho\n0.0,1.0\n0.5,4.0\n"
    new = "x,rho\n0.0,1.0000000000000002\n0.5,4.0\n"
    assert digest.compare("macro.csv", new, old) == [
        "x: max abs diff 0.000e+00, max rel diff 0.000e+00",
        "rho: max abs diff 2.220e-16, max rel diff 5.551e-17",
    ]


def test_compare_names_text_columns_same_or_different(digest):
    old = "scheme,tag\nshift,a\nupwind,b\n"
    new = "scheme,tag\nshift,a\nupwind,c\n"
    assert digest.compare("sweep.csv", new, old) == [
        "scheme: not numeric, same",
        "tag: not numeric, differs",
    ]


def test_compare_names_a_summary_key_present_on_one_side_only(digest):
    old = "macro_steps = 1030\nold_key = 1\n"
    new = "macro_steps = 1030\nnew_key = 2\n"
    assert digest.compare("summary.txt", new, old) == [
        "macro_steps: max abs diff 0.000e+00, max rel diff 0.000e+00",
        "old_key: only in --root",
        "new_key: only in this checkout",
    ]


def test_compare_prints_the_lines_of_a_text_table_on_one_side_only(digest):
    old = "[kinetic]\nepsilons = 0.1\nscheme = shift\nc_cfl = 0.9\nc_split = auto\n"
    new = old.replace("c_cfl = 0.9\n", "")
    assert digest.compare("config.ini", new, old) == ["- c_cfl = 0.9"]
    assert digest.compare("config.ini", old, new) == ["+ c_cfl = 0.9"]
    moved = new.replace("epsilons = 0.1", "epsilons = 0.2")
    assert digest.compare("config.ini", moved, old) == [
        "- epsilons = 0.1", "+ epsilons = 0.2", "- c_cfl = 0.9",
    ]


def test_without_column_drops_the_runtime(digest):
    text = "eps,err,runtime_s,ratio\n0.1,1e-3,0.52,2.0\n0.05,5e-4,1.04,2.0\n"
    assert digest._without_column(text, "runtime_s") == (
        "eps,err,ratio\n0.1,1e-3,2.0\n0.05,5e-4,2.0\n"
    )


def test_largest_difference_names_its_workload_table_and_column(digest):
    old = {
        ("a", "macro.csv"): "x,rho\n0.0,1.0\n0.5,4.0\n",
        ("a", "summary.txt"): "err = 1e-3\nscheme = shift\n",
        ("b", "sweep.csv"): "eps,err\n0.1,2e-3\n",
        ("b", "config.ini"): "[scenario]\nname = b\n",
    }
    new = dict(old)
    new[("a", "macro.csv")] = "x,rho\n0.0,1.0000000000000002\n0.5,4.0\n"
    new[("a", "summary.txt")] = "err = 1.5e-3\nscheme = upwind\n"
    new[("b", "config.ini")] = "[scenario]\nname = c\n"
    assert digest.largest_difference(new, old) == (
        "largest numeric difference: 5.000e-04 in a summary.txt column err"
    )
    assert digest.largest_difference(old, old) == (
        "largest numeric difference: 0.000e+00 in a macro.csv column x"
    )
    assert digest.largest_difference({}, old) == (
        "largest numeric difference: no numeric column on both sides"
    )
