"""The benchmark tracer's contract with the package.

perfbench/tracing.py imports foliadex.cli, then wraps each (module,
function) in its LAYERS table by name, read from sys.modules.  So a
renamed or deleted function, or a layer module that importing the CLI
no longer loads, makes a traced run fail.  The table is read from the
file's source; the tracer itself runs only as a child process.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import foliadex

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
ENV = {**os.environ, "PYTHONPATH": str(Path(foliadex.__file__).parents[1])}


def _layers() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


def test_every_traced_function_resolves():
    layers = _layers()
    assert layers
    for layer, (module_name, functions) in layers.items():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}: {module_name}.{name}"


def test_cli_import_loads_every_layer_module():
    modules = sorted(module for module, _ in _layers().values())
    code = f"import foliadex.cli, sys; print([m for m in {modules!r} if m not in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=ENV, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_traced_synth_completes(tmp_path):
    spans = tmp_path / "spans"
    argv = ["synth", "--kind", "generalized-index", "--n", "3", "--r", "2", "--c", "3/2"]
    proc = subprocess.run(
        [sys.executable, str(TRACING), str(spans), *argv],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert spans.stat().st_size > 0
