"""Every exported name of every kinhom module resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import kinhom

MODULES = ["kinhom"] + [f"kinhom.{m.name}" for m in pkgutil.iter_modules(kinhom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_kinetic_scenario_does_not_load_scipy_fft():
    # loading scipy.fft cost about 0.1 s of the benchmark's setup_s and
    # 4.7 MB of its peak_rss_mb on every workload; the kinetic reference
    # uses numpy.fft
    code = (
        "import sys, kinhom, kinhom.kinetic_ref\n"
        "from kinhom.harness import parse_config\n"
        "parse_config('[kinetic]\\nepsilons = 0.1, 0.05\\n')\n"
        "print('scipy.fft' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(kinhom.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src] + sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# a kinetic scenario (its check stage runs the kinetic pre-flight), a
# slowly modulated one and a 2-D one
CHECK_SCENARIOS = {
    "kinetic": "[cell]\nscheme = spectral\n[sigma]\nfamily = sinusoidal\n"
               "[macro]\nn = 128\n[kinetic]\nepsilons = 0.4, 0.2\n",
    "tanh": "[sigma]\nfamily = sinusoidal\nx_dependence = tanh\nx_amplitude = 0.5\n",
    "circle2d": "[scenario]\ndimension = 2\n[velocity]\nfamily = uniform_circle\nn = 8\n"
                "[cell]\nn = 16\n[sigma]\nfamily = sinusoidal\n[macro]\nn = 16\n",
}


def test_import_parse_and_check_stage_do_not_load_scipy(tmp_path):
    # loading scipy.linalg and scipy.sparse took about 0.2 s of the
    # benchmark's setup_s; scipy loads at the first operator assembly
    paths = []
    for name, text in CHECK_SCENARIOS.items():
        paths.append(tmp_path / f"{name}.ini")
        paths[-1].write_text(text)
    code = (
        "import contextlib, io, sys\n"
        "import kinhom\n"
        "from kinhom.cli import main\n"
        "from kinhom.harness import parse_config, run_pipeline\n"
        "for path in sys.argv[1:]:\n"
        "    run_pipeline(parse_config(open(path).read()), stop_after='check')\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['check', '--config', path]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "cfg = parse_config(open(sys.argv[1]).read())\n"
        "kinhom.assemble(cfg.build_kernel(), 0.0, cfg.build_velocity(), cfg.build_cell_grid())\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(kinhom.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src] + sys.path)}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, paths)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nTrue\n"
