import importlib
import pkgutil

import pytest

import sceneparse

MODULES = sorted(m.name for m in pkgutil.iter_modules(sceneparse.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"sceneparse.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"sceneparse.{name}.__all__ names {missing}, which the module does not define"
