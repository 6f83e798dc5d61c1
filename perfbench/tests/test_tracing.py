"""Tests of the benchmark's tracer, span arithmetic and workload generator.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from kinhom import cell_solver, effective, harness, kinetic_ref  # noqa: E402
from tracing import Span  # noqa: E402


def _spans(*rows):
    return [(i, Span(*row)) for i, row in enumerate(rows)]


# -- self-time arithmetic --------------------------------------------------------


def test_self_time_subtracts_children():
    spans = _spans(
        ("effective.assemble_effective", 0.0, 10.0, -1, 1),
        ("cell_solver.assemble", 1.0, 3.0, 0, 1),
        ("cell_solver.equilibrium_F", 4.0, 5.0, 0, 1),
        ("cell_solver.apply_O", 4.25, 4.5, 2, 1),
    )
    own = tracing.self_times(spans)
    assert own == {0: 7.0, 1: 2.0, 2: 0.75, 3: 0.25}
    layers = tracing.layer_self_times(spans)
    assert layers["effective"] == 7.0
    assert layers["cell_solver"] == 3.0
    assert layers["kinetic_ref"] == 0.0
    assert sum(layers.values()) == 10.0  # self times partition the root span


def test_self_time_counts_overlapping_children_once():
    spans = _spans(
        ("harness.run_pipeline", 0.0, 10.0, -1, 1),
        ("collision.check_sdb", 1.0, 4.0, 0, 1),
        ("collision.evaluate", 3.0, 6.0, 0, 1),
        ("collision.evaluate", 9.0, 12.0, 0, 1),  # clipped at the parent's end
    )
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_name_totals_and_ancestor_counts():
    spans = _spans(
        ("cell_solver.equilibrium_F", 0.0, 4.0, -1, 1),
        ("cell_solver.apply_O", 0.5, 1.0, 0, 1),
        ("cell_solver.solve_chi_star", 1.0, 3.0, 0, 1),
        ("cell_solver.apply_O", 1.5, 2.0, 2, 1),
        ("cell_solver.apply_O", 5.0, 6.0, -1, 1),
    )
    totals = tracing.name_totals(spans)
    assert totals["cell_solver.apply_O"] == (2.0, 3)
    assert tracing.count_within(spans, "cell_solver.apply_O", "cell_solver.equilibrium_F") == 2


# -- tracer ------------------------------------------------------------------------


def _originals():
    return (harness.run_pipeline, harness.assemble, effective.equilibrium_F,
            cell_solver.solve_adjoint_corrector, kinetic_ref.KineticSolver.__dict__["step"],
            cell_solver._CellOperatorBase.__dict__["apply_O"])


def test_tracer_restores_every_wrapped_name():
    before = _originals()
    with tracing.Tracer():
        assert harness.run_pipeline is not before[0]
        assert kinetic_ref.KineticSolver.__dict__["step"] is not before[4]
    assert _originals() == before


def test_tracer_restores_names_when_a_call_raises():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(harness.ConfigError), tracer:
        harness.parse_config("[nonsense]\nkey = 1\n")
    assert _originals() == before
    (_, span), = tracer.finished()
    assert span.name == "harness.parse_config" and span.end >= span.start


@pytest.mark.parametrize("name", workloads.NAMES)
def test_reduced_workload_through_the_wrappers(name, tmp_path):
    cfg = harness.parse_config(workloads.scenario(name, 3, reduced=True))
    tracer = tracing.Tracer()
    tracer.run = 7
    with tracer:
        report = harness.run_pipeline(cfg, jobs=1, seed=3)
        harness.emit_tables(report, str(tmp_path))
    spans = tracer.finished(7)
    names = {s.name for _, s in spans}
    assert {"harness.run_pipeline", "harness.emit_tables", "collision.check_sdb",
            "collision.sample_cell", "cell_solver.assemble", "cell_solver.equilibrium_F",
            "cell_solver.apply_O", "cell_solver.solve_adjoint_corrector",
            "effective.assemble_effective", "macro_solver.init", "macro_solver.step"} <= names
    kinetic = {n for n in names if n.startswith("kinetic_ref.")}
    if name == "small_eps":
        assert {"kinetic_ref.init", "kinetic_ref.run", "kinetic_ref.step",
                "kinetic_ref.transport_half", "kinetic_ref.collision_full",
                "harness.sigma_test"} <= names
        totals = tracing.name_totals(spans)
        assert totals["kinetic_ref.transport_half"][1] == 2 * totals["kinetic_ref.step"][1]
    else:
        assert not kinetic
    if name == "tanh":
        # one cell solve per macro cell on top of the x = 0 solve of the cell stage
        n_x = cfg.macro["n"]
        assert tracing.name_totals(spans)["cell_solver.assemble"][1] == n_x + 1
    assert tracer.counters[7]["cell_solver.gmres_iters"] > 0

    roots = [s for _, s in spans if s.parent < 0]
    assert [s.name for s in roots] == ["harness.run_pipeline", "harness.emit_tables"]
    layers = tracing.layer_self_times(spans)
    assert set(layers) == set(tracing.LAYERS)
    assert sum(layers.values()) == pytest.approx(sum(s.duration for s in roots), rel=1e-9)


def test_wrapper_cost_is_a_small_positive_time():
    assert 0.0 < tracing.wrapper_cost(calls=2000, repeats=3) < 1e-3


def test_span_file_schema(tmp_path):
    cfg = harness.parse_config(workloads.scenario("tanh", 0, reduced=True))
    tracer = tracing.Tracer()
    for run in (1, 2):
        tracer.run = run
        with tracer:
            harness.run_pipeline(cfg)
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows and all(set(r) == {"id", "name", "start", "end", "parent", "run"} for r in rows)
    by_id = {r["id"]: r for r in rows}
    assert [r["id"] for r in rows] == sorted(by_id)
    for r in rows:
        assert r["name"].split(".", 1)[0] in tracing.LAYERS
        assert r["start"] <= r["end"]
        if r["parent"] >= 0:
            parent = by_id[r["parent"]]
            assert parent["id"] < r["id"] and parent["run"] == r["run"]
            assert parent["start"] <= r["start"] and r["end"] <= parent["end"]
    assert {r["run"] for r in rows} == {1, 2}


# -- workloads and the entry point ----------------------------------------------------


def test_scenarios_depend_only_on_seed():
    for name in workloads.NAMES:
        a = workloads.scenario(name, 11)
        assert a == workloads.scenario(name, 11)
        assert a != workloads.scenario(name, 12)
        cfg_a = harness.parse_config(a)
        cfg_b = harness.parse_config(workloads.scenario(name, 12))
        assert -0.5 <= cfg_a.initial["center"] <= 0.5
        assert cfg_a.macro == cfg_b.macro and cfg_a.cell == cfg_b.cell
        assert cfg_a.kinetic == cfg_b.kinetic and cfg_a.sigma == cfg_b.sigma


def test_mass_tolerance_scales_only_below_the_acceptance_spacing():
    assert workloads.mass_tolerance(512) == 1e-12
    assert workloads.mass_tolerance(128) == 1e-12
    assert workloads.mass_tolerance(2048) == pytest.approx(16e-12)


def test_entry_point_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tanh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_scales_by_the_mean_of_the_kernel_times():
    import calibrate

    assert calibrate.scaled(2.0, calibrate.REFERENCE_S, calibrate.REFERENCE_S) == 2.0
    assert calibrate.scaled(2.0, 0.2, 0.4) == pytest.approx(2.0 * calibrate.REFERENCE_S / 0.3)
    assert 0.0 < calibrate.Calibration()() < 5.0
