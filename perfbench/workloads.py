"""Benchmark workloads: seeded scenario text, output checks, reference error.

Each workload is one INI scenario.  The seed only places the Gaussian
initial datum (its centre is drawn from [-0.5, 0.5]); sizes, schemes and
rates are fixed, so every seed does the same amount of work.

* ``small_eps``: kinetic sweep over eps = 0.1, 0.05, 0.025 with exact-shift
  transport and exact collision on 2048 macro cells.  Almost all the time
  is in ``kinetic_ref`` and table emission.
* ``tanh``: slowly modulated rate ``c(x) = 1 + 0.5 tanh(x)`` on 512 macro
  cells, so ``effective`` runs 512 small cell solves.  No kinetic stage.
* ``circle2d``: 2-D uniform circle (8 velocities) on a 64^2 upwind cell
  (32768 unknowns) and a 128^2 macro grid.  One large cell solve, and the
  heaviest macro solve.  No kinetic stage.
"""

from __future__ import annotations

import csv
import math
import os
import random

NAMES = ("small_eps", "tanh", "circle2d")

_TEMPLATES = {
    "small_eps": """\
[scenario]
name = small_eps

[velocity]
family = two_velocity

[cell]
n = {cell_n}
scheme = spectral

[sigma]
family = sinusoidal
alpha = 0.5

[initial]
center = {center!r}

[macro]
n = {macro_n}
t = {t!r}
checkpoints = 10

[kinetic]
epsilons = {epsilons}
scheme = shift
collision = exact
""",
    "tanh": """\
[scenario]
name = tanh

[cell]
n = {cell_n}
scheme = upwind

[sigma]
family = sinusoidal
alpha = 0.5
x_dependence = tanh
x_amplitude = {beta!r}

[initial]
center = {center!r}

[macro]
n = {macro_n}
""",
    "circle2d": """\
[scenario]
name = circle2d
dimension = 2

[velocity]
family = uniform_circle
n = 8

[cell]
n = {cell_n}
scheme = upwind

[sigma]
family = sinusoidal
alpha = 0.5

[initial]
center = {center!r}

[macro]
n = {macro_n}
""",
}

_FULL = {
    "small_eps": dict(cell_n=64, macro_n=2048, t=0.5, epsilons="0.1, 0.05, 0.025"),
    "tanh": dict(cell_n=64, macro_n=512, beta=0.5),
    "circle2d": dict(cell_n=64, macro_n=128),
}

# same families, schemes and stages at a size that runs in well under a
# second: used to warm up before timing and by the smoke test
_REDUCED = {
    "small_eps": dict(cell_n=16, macro_n=128, t=0.05, epsilons="0.4, 0.2"),
    "tanh": dict(cell_n=16, macro_n=32, beta=0.5),
    "circle2d": dict(cell_n=8, macro_n=16),
}

BETA = _FULL["tanh"]["beta"]

_EXPECTED_FILES = {
    "small_eps": {
        "config.ini", "effective.csv", "macro.csv", "kinetic_eps_0.1.csv",
        "kinetic_eps_0.05.csv", "kinetic_eps_0.025.csv", "sweep.csv", "sigma.csv",
        "summary.txt",
    },
    "tanh": {"config.ini", "effective.csv", "macro.csv", "summary.txt"},
    "circle2d": {"config.ini", "effective.csv", "summary.txt"},
}

# Acceptance bounds of the repository's own tests that the checks reuse.
LAMBDA_TOL = 1e-8      # criterion 1: principal eigenvalue within 1e-8 of 1
D_TOL = 1e-8           # test_slow_modulation_sampled_coefficients
ZERO_TOL = 1e-10       # criterion 2: zero drift and flux at 1e-10
MASS_TOL = 1e-12       # criterion 7, stated at 512 cells on [-4, 4] (h = 1/64)
MASS_TOL_H = 8.0 / 512
SWEEP_RATIO = 1.5      # criterion 5
SWEEP_ERR_MAX = 0.05   # criterion 5: err at eps = 0.1


def scenario(name: str, seed: int, reduced: bool = False) -> str:
    """INI text of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    center = round(rng.uniform(-0.5, 0.5), 6)
    sizes = (_REDUCED if reduced else _FULL)[name]
    return _TEMPLATES[name].format(center=center, **sizes)


def read_summary(path: str) -> dict[str, float | str]:
    out: dict[str, float | str] = {}
    with open(path) as fh:
        for line in fh:
            key, _, text = line.rstrip("\n").partition(" = ")
            try:
                out[key] = float(text)
            except ValueError:
                out[key] = text
    return out


def read_columns(path: str) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {h: [float(r[i]) for r in body] for i, h in enumerate(header)}


def mass_tolerance(macro_n: int, half_width: float = 4.0) -> float:
    """Criterion 7's mass-drift bound, scaled for grids finer than its own.

    Round-off in the conservative flux form grows with the operator norm,
    which scales as 1/h^2; at commit 4a1c4e2 the drift is 1.5e-12 at h = 1/256.
    """
    h = 2.0 * half_width / macro_n
    return MASS_TOL * max(1.0, (MASS_TOL_H / h) ** 2)


def check_outputs(name: str, out_dir: str, reference: dict) -> tuple[list[str], float]:
    """Check the emitted tables of one full-size run.

    Returns ``(problems, ref_err)``; an empty list means the run passed.
    ``ref_err`` is the workload's error against an independent reference:
    the kinetic-vs-macro error at the smallest eps (``small_eps``), the
    largest relative deviation of D(x) from the closed form 1/(2 c(x))
    (``tanh``), and the relative deviation of D from a converged spectral
    cell solve (``circle2d``).
    """
    problems: list[str] = []
    files = set(os.listdir(out_dir))
    if files != _EXPECTED_FILES[name]:
        problems.append(f"emitted files {sorted(files)}")
        return problems, math.nan
    summary = read_summary(os.path.join(out_dir, "summary.txt"))
    ref = reference[name]

    def near(key: str, tol: float, relative: bool = False) -> None:
        got, want = summary.get(key), ref["summary"][key]
        if not isinstance(got, float):
            problems.append(f"{key} missing")
            return
        scale = max(abs(want), 1.0) if relative else 1.0
        if not abs(got - want) <= tol * scale:
            problems.append(f"{key} = {got!r}, reference {want!r}")

    if not abs(summary.get("lambda", math.nan) - 1.0) <= LAMBDA_TOL:
        problems.append(f"lambda = {summary.get('lambda')!r}")
    if not summary.get("ellipticity_min", math.nan) > 0:
        problems.append(f"ellipticity_min = {summary.get('ellipticity_min')!r}")
    macro_n = _FULL[name]["macro_n"]
    if not summary.get("macro_mass_drift", math.nan) <= mass_tolerance(macro_n):
        problems.append(f"macro_mass_drift = {summary.get('macro_mass_drift')!r}")
    for key in ref["summary"]:
        if key.startswith(("D_eff_", "ellipticity_min")):
            near(key, D_TOL, relative=True)
        else:
            near(key, ZERO_TOL)

    eff = read_columns(os.path.join(out_dir, "effective.csv"))
    if name == "small_eps":
        if summary.get("sweep_monotone") != "yes":
            problems.append("sweep not monotone")
        if not summary.get("sweep_min_ratio", 0.0) >= SWEEP_RATIO:
            problems.append(f"sweep_min_ratio = {summary.get('sweep_min_ratio')!r}")
        if not summary.get("err_eps_0.1", math.inf) <= SWEEP_ERR_MAX:
            problems.append(f"err_eps_0.1 = {summary.get('err_eps_0.1')!r}")
        ref_err = float(summary.get("err_eps_0.025", math.nan))
    elif name == "tanh":
        D = eff["D_eff_11"]
        D_ref = ref["D_of_x"]
        if len(D) != len(D_ref):
            problems.append(f"{len(D)} effective rows, reference has {len(D_ref)}")
            return problems, math.nan
        worst = max(abs(a - b) for a, b in zip(D, D_ref))
        if not worst <= D_TOL:
            problems.append(f"D(x) deviates from the reference by {worst:.3e}")
        if not max(abs(u) for u in eff["U_1"]) <= ZERO_TOL:
            problems.append("nonzero drift U(x)")
        ref_err = max(
            abs(2.0 * (1.0 + BETA * math.tanh(x)) * d - 1.0)
            for x, d in zip(eff["x"], D)
        )
    else:
        D_spec = ref["D_spectral"]
        ref_err = max(abs(eff[k][0] - D_spec) / D_spec for k in ("D_eff_11", "D_eff_22"))
    return problems, ref_err
