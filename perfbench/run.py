"""End-to-end pipeline benchmark for kinhom.

    python3 perfbench/run.py --workload small_eps --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  One operation is what ``kinhom pipeline
--out DIR`` does after reading its scenario: ``run_pipeline`` (``jobs=1``)
then ``emit_tables`` into a fresh directory, then the benchmark checks the
emitted tables.  Operations run back to back (closed loop, one client)
until the next one would end after ``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``pipeline_s``: median wall time of one operation, scaled to the
  reference machine speed by the calibration kernel timed before and after
  it (:mod:`calibrate`); the sample count is ``attempted``.
* ``setup_s``: median over five fresh interpreters of the time to
  ``import kinhom`` and ``parse_config`` the scenario, scaled the same way.
* ``peak_rss_mb``: peak resident memory of this process.
* ``ref_err``: the workload's error against an independent reference
  (see :func:`workloads.check_outputs`).

``--trace 1`` alternates an untraced and a traced operation and reports the
per-layer metrics of the traced operation of median wall time, writing the
spans to ``.perfbench_out/<workload>.spans.jsonl``.

The unscaled wall times are printed too.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the run writes goes under ``.perfbench_out/`` in
the checkout.
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5

_SETUP_PROBE = """\
import sys, time
text = sys.stdin.read()
t0 = time.perf_counter()
import kinhom
kinhom.parse_config(text)
print(repr(time.perf_counter() - t0))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description="kinhom pipeline benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
    }


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def setup_seconds(text: str, calibration) -> tuple[float, float]:
    """Median time to import kinhom and parse the scenario in a fresh interpreter.

    Returns ``(scaled, wall)`` medians; see :mod:`calibrate`.
    """
    import calibrate

    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", _SETUP_PROBE]

    def probe() -> float:
        out = subprocess.run(cmd, input=text, capture_output=True, text=True, env=env,
                             cwd=ROOT, timeout=120, check=True)
        return float(out.stdout)

    probe()  # the first interpreter also compiles the byte code
    walls, scaled = [], []
    before = calibration()
    for _ in range(SETUP_SAMPLES):
        walls.append(probe())
        after = calibration()
        scaled.append(calibrate.scaled(walls[-1], before, after))
        before = after
    return statistics.median(scaled), statistics.median(walls)


class Operation:
    """One pipeline run plus emission and output checks."""

    def __init__(self, harness, workloads, name: str, seed: int, reference: dict):
        self.harness = harness
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.reference = reference

    def __call__(self, cfg, check: bool = True) -> dict:
        out = tempfile.mkdtemp(prefix="tables-", dir=OUT)
        result = {"problems": [], "ref_err": float("nan"), "emit_bytes": 0}
        try:
            t0 = time.perf_counter()
            try:
                report = self.harness.run_pipeline(cfg, jobs=1, seed=self.seed)
                paths = self.harness.emit_tables(report, out)
            finally:
                result["seconds"] = time.perf_counter() - t0
            result["emit_bytes"] = sum(os.path.getsize(p) for p in paths.values())
            if check:
                result["problems"], result["ref_err"] = self.workloads.check_outputs(
                    self.name, out, self.reference
                )
        except Exception:  # an operation that raises or breaks a check counts as failed
            result["problems"].append(traceback.format_exc())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result


def closed_loop(seconds: float, once) -> list:
    """Run ``once`` back to back until the next run would end after ``seconds``."""
    results = []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(once())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def _report_problems(results: list) -> None:
    for i, r in enumerate(results):
        for p in r["problems"]:
            print(f"operation {i} failed: {p}", file=sys.stderr)


def untraced_metrics(op: Operation, cfg, text: str, seconds: float):
    import calibrate

    calibration = calibrate.Calibration()
    setup, setup_wall = setup_seconds(text, calibration)
    kernel = [calibration()]

    def once():
        result = op(cfg)
        kernel.append(calibration(calibrate.SHARE * result["seconds"]))
        result["scaled"] = calibrate.scaled(result["seconds"], kernel[-2], kernel[-1])
        return result

    results = closed_loop(seconds, once)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    times = [r["seconds"] for r in results]
    scaled = [r["scaled"] for r in results]
    print(f"pipeline_s wall samples: {' '.join(f'{t:.4f}' for t in times)}")
    print(f"pipeline_s scaled samples: {' '.join(f'{t:.4f}' for t in scaled)}")
    print(f"calibration kernel samples: {' '.join(f'{t:.4f}' for t in kernel)}")
    print(f"wall medians: pipeline {statistics.median(times):.4f} s, setup {setup_wall:.4f} s")
    metrics = {
        "pipeline_s": statistics.median(scaled),
        "setup_s": setup,
        "peak_rss_mb": rss_mb,
        "ref_err": statistics.median(
            [r["ref_err"] for r in results if not r["problems"]] or [float("nan")]
        ),
    }
    return results, metrics


def _op_layer_metrics(tracing, tracer, run: int, result: dict) -> dict:
    spans = tracer.finished(run)
    totals = tracing.name_totals(spans)
    layers = tracing.layer_self_times(spans)

    def secs(*names):
        return sum(totals.get(n, (0.0, 0))[0] for n in names)

    def calls(*names):
        return sum(totals.get(n, (0.0, 0))[1] for n in names)

    m = {f"{layer}.self_s": value for layer, value in layers.items()}
    m.update({
        "kinetic_ref.run_s": secs("kinetic_ref.run"),
        "kinetic_ref.init_s": secs("kinetic_ref.init"),
        "kinetic_ref.steps": calls("kinetic_ref.step"),
        "kinetic_ref.transport_half_s": secs("kinetic_ref.transport_half"),
        "kinetic_ref.transport_half_calls": calls("kinetic_ref.transport_half"),
        "kinetic_ref.collision_full_s": secs("kinetic_ref.collision_full"),
        "harness.run_pipeline_s": secs("harness.run_pipeline"),
        "harness.sigma_test_s": secs("harness.sigma_test"),
        "harness.emit_tables_s": secs("harness.emit_tables"),
        "harness.emit_bytes": result["emit_bytes"],
        "effective.assemble_effective_s": secs("effective.assemble_effective"),
        "cell_solver.assemble_s": secs("cell_solver.assemble", "cell_solver.assemble_spectral_ap"),
        "cell_solver.assemble_calls": calls("cell_solver.assemble", "cell_solver.assemble_spectral_ap"),
        "cell_solver.equilibrium_F_s": secs("cell_solver.equilibrium_F"),
        "cell_solver.power_iters": tracing.count_within(
            spans, "cell_solver.apply_O", "cell_solver.equilibrium_F"),
        "cell_solver.solve_adjoint_corrector_s": secs("cell_solver.solve_adjoint_corrector"),
        "cell_solver.adjoint_solves": calls("cell_solver.solve_adjoint_corrector"),
        "cell_solver.gmres_iters": int(tracer.counters[run]["cell_solver.gmres_iters"]),
        "cell_solver.verify_variational_s": secs("cell_solver.verify_variational"),
        "collision.sample_cell_s": secs("collision.sample_cell"),
        "collision.sample_cell_calls": calls("collision.sample_cell"),
        "collision.check_sdb_s": secs("collision.check_sdb"),
        "collision.evaluate_s": secs("collision.evaluate"),
        "macro_solver.init_s": secs("macro_solver.init"),
        "macro_solver.run_s": secs("macro_solver.run"),
        "macro_solver.step_s": secs("macro_solver.step"),
        "macro_solver.steps": calls("macro_solver.step"),
        "trace.pipeline_s": result["seconds"],
        "trace.layer_sum_s": sum(layers.values()),
        "trace.spans": len(spans),
    })
    return m


def traced_metrics(op: Operation, cfg, text: str, seconds: float, name: str):
    import tracing

    tracer = tracing.Tracer()
    tracer.run = 0
    with tracer:
        op.harness.parse_config(text)
    parse_s = tracing.name_totals(tracer.finished(0))["harness.parse_config"][0]

    pairs = []

    def pair():
        untraced = op(cfg)
        tracer.run = len(pairs) + 1
        with tracer:
            traced = op(cfg)
        pairs.append((untraced, traced))

    closed_loop(seconds, pair)
    # the traced operation of median wall time, so its self times add up to its wall time
    per_op = sorted(
        (_op_layer_metrics(tracing, tracer, i + 1, t) for i, (_, t) in enumerate(pairs)),
        key=lambda m: m["trace.pipeline_s"],
    )
    metrics = per_op[(len(per_op) - 1) // 2]
    metrics["harness.parse_config_s"] = parse_s
    metrics["trace.overhead_s"] = (
        statistics.median(t["seconds"] for _, t in pairs)
        - statistics.median(u["seconds"] for u, _ in pairs)
    )
    metrics["trace.span_cost_s"] = metrics["trace.spans"] * tracing.wrapper_cost()
    tracer.write(os.path.join(OUT, f"{name}.spans.jsonl"))

    total = metrics["trace.layer_sum_s"]
    print(f"layer self time of the median of {len(pairs)} traced operation(s):")
    for layer in tracing.LAYERS:
        value = metrics[f"{layer}.self_s"]
        print(f"  {layer:<13} {value:10.4f} s  {100 * value / total:5.1f} %")
    print(f"  {'sum':<13} {total:10.4f} s  traced pipeline {metrics['trace.pipeline_s']:.4f} s"
          f"  overhead {metrics['trace.overhead_s']:.4f} s"
          f"  span cost {metrics['trace.span_cost_s']:.4f} s")
    results = [r for pr in pairs for r in pr]
    return results, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kinhom", "__init__.py")):
        print(f"error: no kinhom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import workloads
    from kinhom import harness

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.makedirs(OUT, exist_ok=True)
    env = environment(args.workload, args.seed)
    # one CPU for the operations, the calibration kernel and the set-up probes,
    # so the kernel measures the speed of the CPU the operations ran on
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("environment: " + json.dumps(env))

    text = workloads.scenario(args.workload, args.seed)
    op = Operation(harness, workloads, args.workload, args.seed, reference)
    # warm-up on a reduced scenario: lazy imports and first-call costs, same code paths
    warm = op(harness.parse_config(workloads.scenario(args.workload, args.seed, reduced=True)),
              check=False)
    if warm["problems"]:
        _report_problems([warm])
        return 1
    cfg = harness.parse_config(text)

    if args.trace:
        results, metrics = traced_metrics(op, cfg, text, args.seconds, args.workload)
    else:
        results, metrics = untraced_metrics(op, cfg, text, args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    _report_problems(results)
    failed = sum(1 for r in results if r["problems"])
    line = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"environment": env, "samples": [r["seconds"] for r in results],
                   "scaled_samples": [r["scaled"] for r in results if "scaled" in r], **line},
                  fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
