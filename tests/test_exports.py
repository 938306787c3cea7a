"""The package's public names: each resolves, from the module that
defines it, and only that module is loaded for it.

A name deleted from a module but left in `__all__` breaks
`from foliadex import *` and nothing else, so it is checked here.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_only_the_package_declares_all():
    declaring = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
    assert declaring == ["foliadex"]


def _loaded_by(statement: str) -> list:
    # -S keeps site .pth files, which may import anything, out of the result
    code = (
        f"{statement}; import sys; "
        "print(sorted(m for m in sys.modules if m.startswith('foliadex')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(foliadex.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_package_import_loads_only_what_is_asked_for():
    assert _loaded_by("import foliadex") == ["foliadex"]
    assert _loaded_by("import foliadex.lattice") == [
        "foliadex", "foliadex.errors", "foliadex.lattice", "foliadex.value",
    ]


def test_every_exported_name_comes_from_the_module_that_defines_it():
    for name in foliadex.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"foliadex.{foliadex._MODULE_OF[name]}")
        value = getattr(foliadex, name)
        assert value is getattr(module, name), name
        if callable(value):
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from foliadex import *", namespace)
    assert [name for name in foliadex.__all__ if name not in namespace] == []
