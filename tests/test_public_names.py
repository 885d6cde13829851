import importlib
import pkgutil

import pytest

import parobs

MODULES = sorted(f"parobs.{info.name}" for info in pkgutil.iter_modules(parobs.__path__))


@pytest.mark.parametrize("name", ["parobs", *MODULES])
def test_every_exported_name_resolves(name):
    # a stale __all__ entry makes ``from <module> import *`` raise
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"
