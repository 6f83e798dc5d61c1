"""Outside-in span tracing of the kinhom pipeline.

The tracer replaces public functions and methods of the package with thin
wrappers at the names their callers look up: module attributes of
``kinhom.harness``, ``kinhom.effective`` and ``kinhom.cell_solver`` for the
imported names, and class attributes for the solver methods.  Every call
records one span ``(name, start, end, parent, run)``; spans stay in memory
until :meth:`Tracer.write` and every wrapped name is restored on exit, so
the package itself carries no tracing code.

A span's name is ``<layer>.<function>``, the layer being the kinhom module
that defines the function.  ``phase_space`` (quadrature and grid builders,
microseconds per pipeline) and ``mv_algebra`` (reached only through
``ScatteringKernel.mv_function``, which no pipeline stage calls) are left
unwrapped; their time counts as self time of whichever layer calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("harness", "collision", "cell_solver", "effective", "macro_solver", "kinetic_ref")

# (module, attribute, span name): functions, wrapped in the namespace of the
# module that calls them
_FUNCTIONS = [
    ("kinhom.harness", "parse_config", "harness.parse_config"),
    ("kinhom.harness", "run_pipeline", "harness.run_pipeline"),
    ("kinhom.harness", "emit_tables", "harness.emit_tables"),
    ("kinhom.harness", "sigma_test", "harness.sigma_test"),
    ("kinhom.harness", "make_kernel", "collision.make_kernel"),
    ("kinhom.harness", "check_sdb", "collision.check_sdb"),
    ("kinhom.harness", "assemble", "cell_solver.assemble"),
    ("kinhom.harness", "assemble_spectral_ap", "cell_solver.assemble_spectral_ap"),
    ("kinhom.harness", "equilibrium_F", "cell_solver.equilibrium_F"),
    ("kinhom.harness", "solve_chi_star", "cell_solver.solve_chi_star"),
    ("kinhom.harness", "verify_variational", "cell_solver.verify_variational"),
    ("kinhom.harness", "assemble_effective", "effective.assemble_effective"),
    ("kinhom.harness", "ellipticity_gate", "effective.ellipticity_gate"),
    ("kinhom.effective", "assemble", "cell_solver.assemble"),
    ("kinhom.effective", "assemble_spectral_ap", "cell_solver.assemble_spectral_ap"),
    ("kinhom.effective", "equilibrium_F", "cell_solver.equilibrium_F"),
    ("kinhom.effective", "solve_chi_star", "cell_solver.solve_chi_star"),
    ("kinhom.cell_solver", "solve_adjoint_corrector", "cell_solver.solve_adjoint_corrector"),
]

# (module, class, method, span name)
_METHODS = [
    ("kinhom.collision", "ScatteringKernel", "sample_cell", "collision.sample_cell"),
    ("kinhom.collision", "ScatteringKernel", "evaluate", "collision.evaluate"),
    ("kinhom.cell_solver", "_CellOperatorBase", "apply_O", "cell_solver.apply_O"),
    ("kinhom.macro_solver", "DriftDiffusionSolver", "__init__", "macro_solver.init"),
    ("kinhom.macro_solver", "DriftDiffusionSolver", "run", "macro_solver.run"),
    ("kinhom.macro_solver", "DriftDiffusionSolver", "step", "macro_solver.step"),
    ("kinhom.kinetic_ref", "KineticSolver", "__init__", "kinetic_ref.init"),
    ("kinhom.kinetic_ref", "KineticSolver", "run", "kinetic_ref.run"),
    ("kinhom.kinetic_ref", "KineticSolver", "step", "kinetic_ref.step"),
    ("kinhom.kinetic_ref", "KineticSolver", "transport_half", "kinetic_ref.transport_half"),
    ("kinhom.kinetic_ref", "KineticSolver", "collision_full", "kinetic_ref.collision_full"),
]

# span name -> (counter name, value taken from the call's result)
_RESULT_COUNTERS = {
    "cell_solver.solve_adjoint_corrector": ("cell_solver.gmres_iters", lambda sol: sol.iterations),
}


@dataclass(frozen=True)
class Span:
    """One wrapped call.  ``parent`` is the index of the enclosing span, or -1."""

    name: str
    start: float
    end: float
    parent: int
    run: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped kinhom calls; use as a context manager.

    Spans are numbered in the order their calls begin.  ``run`` tags every
    span with the id of the operation it belongs to; set it before each
    operation.  Counters extracted from call results (GMRES iterations)
    are kept per run in :attr:`counters`.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        counter = _RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.run)
            if counter is not None:
                self.counters[self.run][counter[0]] += counter[1](result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name in _FUNCTIONS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            for module_name, cls_name, attr, name in _METHODS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def finished(self, run: int | None = None) -> list[tuple[int, Span]]:
        """``(index, span)`` pairs of completed spans, optionally of one run."""
        return [
            (i, s) for i, s in enumerate(self.spans)
            if s is not None and (run is None or s.run == run)
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in self.finished():
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run,
                }) + "\n")


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds, measured on a function that does nothing.

    Median over ``repeats`` batches of the extra time ``calls`` wrapped calls
    take over ``calls`` plain ones.
    """

    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "harness.noop")
    extra = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        extra.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(extra)[len(extra) // 2]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """Self time per span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {
        i: s.duration - _covered(children.get(i, []), s.start, s.end)
        for i, s in spans
    }


def layer_self_times(spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Sum of span self times per layer (every layer in :data:`LAYERS` present)."""
    out = {layer: 0.0 for layer in LAYERS}
    own = self_times(spans)
    for i, s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[i]
    return out


def name_totals(spans: list[tuple[int, Span]]) -> dict[str, tuple[float, int]]:
    """``{name: (summed duration, calls)}``."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for _, s in spans:
        out[s.name][0] += s.duration
        out[s.name][1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


def count_within(spans: list[tuple[int, Span]], name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    by_index = dict(spans)
    n = 0
    for _, s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0:
            up = by_index[p]
            if up.name == ancestor:
                n += 1
                break
            p = up.parent
    return n
