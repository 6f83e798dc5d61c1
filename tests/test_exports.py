"""Every exported name of every kinhom module resolves."""

import importlib
import pkgutil

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
