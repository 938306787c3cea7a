"""Every name in an `__all__` of the package resolves.

A name deleted from a module but left in an `__all__` breaks
`from foliadex import *` and nothing else, so it is checked here.
"""

import importlib
import pkgutil

import pytest

import foliadex

MODULES = ["foliadex"] + [
    f"foliadex.{info.name}" for info in pkgutil.iter_modules(foliadex.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [entry for entry in exported if not hasattr(module, entry)] == []
