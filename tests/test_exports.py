"""Every name a module exports resolves, so no move leaves a stale export."""

import importlib
import pkgutil

import pytest

import toepreg

MODULES = ["toepreg"] + [f"toepreg.{info.name}"
                         for info in pkgutil.iter_modules(toepreg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing
