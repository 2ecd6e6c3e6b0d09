"""Public names: every ``__all__`` entry of the package and its modules
resolves, so a star import cannot break on a stale entry."""

import importlib
import pkgutil

import pytest

import softds

MODULES = ["softds"] + [f"softds.{info.name}"
                        for info in pkgutil.iter_modules(softds.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
