"""The benchmark tracer's layer map names functions that exist.

perfbench/tracing.py wraps each (module, function) in its LAYERS table
by name, so a renamed or deleted function makes a traced run fail.  The
table is read from the file's source; the tracer itself is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
