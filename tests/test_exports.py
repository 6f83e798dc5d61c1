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
