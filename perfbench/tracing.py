"""Per-layer spans for one foliadex CLI invocation, taken from outside.

Run as a program, this file is the traced child:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS_FILE CLI_ARG...

It imports foliadex.cli with an import hook that times each layer module's
body, wraps the public functions of every layer listed in LAYERS, calls
foliadex.cli.main(CLI_ARG...) and exits with its return code.  The package
itself is not changed: every wrapper is patched into the defining module
and into every module that bound the function with `from .x import y`.

A span is (id, parent id, function, start ns, end ns, outcome) and is
recorded only where a call crosses from one layer into another; a call
within the layer it is already in runs straight through.
Spans stay in memory and are written to SPANS_FILE when the child ends.
The benchmark then reads them with load() and folds the spans of one pass
into per-layer metrics with pass_metrics(): a layer's self time is the
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import itertools
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# layer -> (module, public functions wrapped as the layer's entry points).
# Helpers a layer borrows from another module (passfail, the construction
# checks in synthesis) count toward the layer that calls them.
LAYERS = {
    "bundle": ("foliadex.bundle", (
        "classify_divisor", "generalized_index", "fano_index", "seshadri_polarization",
        "relative_anticanonical", "nef_cone", "pseff_cone",
    )),
    "invariants": ("foliadex.invariants", ("compute_invariants", "ambient_is_smooth")),
    "oracle": ("foliadex.oracle", ("oracle_generalized_index", "kernel_backend")),
    "kernels": ("foliadex._kernels", ("best_index_bound",)),
    "synthesis": ("foliadex.synthesis", (
        "synthesize", "synth_generalized_index", "synth_fano_index", "synth_seshadri",
        "case1_parameters",
    )),
    "families": ("foliadex.families", (
        "wps1_record", "wps2_record", "wps3_record", "wps4_record", "cone_table_record",
        "mixed_record", "rc_genus_record", "rc_flat_record",
    )),
    "catalog": ("foliadex.catalog", (
        "standard_catalog", "export_catalog", "import_catalog", "record_to_json",
    )),
    "verification": ("foliadex.verification", (
        "run_sweep", "verify_catalog", "verify_record", "check_record",
    )),
    "tables": ("foliadex.tables", ("table_rows", "parse_range")),
    "cli": ("foliadex.cli", ("main",)),
}

# Modules whose import is timed as part of a layer.  The package __init__
# and the value-type modules have no functions wrapped; their import time
# is the "package" layer.
MODULE_LAYER = {module: layer for layer, (module, _) in LAYERS.items()}
MODULE_LAYER["foliadex._kernels.oracle_py"] = "kernels"
for _module in ("", ".errors", ".lattice", ".rankone", ".foliation", ".report"):
    MODULE_LAYER["foliadex" + _module] = "package"

IMPORT = "<import>"
OK, UNSUPPORTED, RAISED = 0, 1, 2
FIELDS = 6  # id, parent, function, start, end, outcome


class Tracer:
    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self.spans: list[int] = []
        self.open_layers: list = [None]
        self.open_ids: list[int] = [-1]
        self.ids = itertools.count()
        self.counters: dict[str, int] = defaultdict(int)
        self.oracle_args: list[tuple] = []
        self.kernel_args: list[tuple] = []

    def wrap(self, fn, layer: str, name: str, hook=None):
        fid = len(self.names)
        self.names.append((layer, name))
        open_layers, open_ids, spans = self.open_layers, self.open_ids, self.spans
        ids, clock = self.ids, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_layers[-1] == layer:
                return fn(*args, **kwargs)
            parent = open_ids[-1]
            sid = next(ids)
            open_layers.append(layer)
            open_ids.append(sid)
            outcome = OK
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome = UNSUPPORTED if type(exc).__name__ == "UnsupportedRequest" else RAISED
                raise
            finally:
                end = clock()
                open_layers.pop()
                open_ids.pop()
                spans.extend((sid, parent, fid, start, end, outcome))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # -- import spans -------------------------------------------------------

    def find_spec(self, name, path=None, target=None):
        """Meta path finder: time the body of each layer module."""
        layer = MODULE_LAYER.get(name)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self.wrap(spec.loader.exec_module, layer, IMPORT))
        return spec

    # -- function spans -----------------------------------------------------

    def wrap_layers(self) -> None:
        """Wrap each layer's functions everywhere the package bound them."""
        replacements = {}
        for layer, (module_name, functions) in LAYERS.items():
            module = sys.modules[module_name]
            for name in functions:
                original = getattr(module, name)
                replacements[id(original)] = (original, self.wrap(original, layer, name, HOOKS.get(name)))
        for module_name, module in list(sys.modules.items()):
            if module_name != "foliadex" and not module_name.startswith("foliadex."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def dump(self, path: str) -> None:
        candidates = 0
        for _, _, _, _, b1, d_max, c_max in self.kernel_args:
            # Sum over d <= d_max of the c range b1*d < c <= c_max.
            top = d_max if b1 == 0 else min(d_max, (c_max - 1) // b1)
            candidates += top * c_max - b1 * top * (top + 1) // 2
        oracle_keys = sorted({
            f"{v.m},{v.b1},{cls.beta},{cls.gamma},{d_max},{c_max}"
            for v, cls, d_max, c_max in self.oracle_args
        })
        body = array("q", self.spans).tobytes()
        header = {
            "names": self.names,
            "counters": {**self.counters, "kernels.candidates": candidates},
            "oracle_keys": oracle_keys,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + body)


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, loader, exec_module) -> None:
        self._loader = loader
        self.exec_module = exec_module

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def __getattr__(self, name):
        return getattr(self._loader, name)


# -- counters taken at the layer boundary ----------------------------------


def _positional(args, kwargs, names):
    if not kwargs:
        return args
    return args + tuple(kwargs[n] for n in names[len(args):])


def _oracle_hook(tracer, args, kwargs, result):
    tracer.oracle_args.append(_positional(args, kwargs, ("variety", "cls", "d_max", "c_max")))


def _kernel_hook(tracer, args, kwargs, result):
    tracer.kernel_args.append(_positional(
        args, kwargs, ("beta_num", "gamma_num", "scale", "m", "b1", "d_max", "c_max")
    ))


def _rows_hook(tracer, args, kwargs, result):
    tracer.counters["tables.rows"] += len(result)


def _encode_hook(tracer, args, kwargs, result):
    tracer.counters["catalog.encoded_bytes"] += len(result.encode("utf-8"))


def _checks_hook(tracer, args, kwargs, result):
    if hasattr(result, "outcomes"):  # CheckReport of one record
        for outcome in result.outcomes:
            tracer.counters[f"verification.checks_{outcome.status.value}"] += 1
    else:  # SweepReport
        tracer.counters["verification.checks_pass"] += result.passed
        tracer.counters["verification.checks_fail"] += result.failed
        tracer.counters["verification.checks_skip"] += result.skipped


HOOKS = {
    "oracle_generalized_index": _oracle_hook,
    "best_index_bound": _kernel_hook,
    "table_rows": _rows_hook,
    "export_catalog": _encode_hook,
    "run_sweep": _checks_hook,
    "verify_catalog": _checks_hook,
    "verify_record": _checks_hook,
    "check_record": _checks_hook,
}


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    sys.meta_path.insert(0, tracer)
    try:
        import foliadex.cli
    finally:
        sys.meta_path.remove(tracer)
    tracer.wrap_layers()
    try:
        return foliadex.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


# ---------------------------------------------------------------------------
# Reading spans back, in the benchmark process.


@dataclass(frozen=True)
class Trace:
    names: list
    spans: array
    counters: dict
    oracle_keys: list


def load(path: Path) -> Trace:
    data = path.read_bytes()
    cut = data.index(b"\n")
    header = json.loads(data[:cut])
    spans = array("q")
    spans.frombytes(data[cut + 1:])
    return Trace(
        names=[tuple(n) for n in header["names"]],
        spans=spans,
        counters=header["counters"],
        oracle_keys=header["oracle_keys"],
    )


PER_LAYER_UNITS = {
    "bundle.calls": "count", "bundle.self_s": "s",
    "invariants.calls": "count", "invariants.self_s": "s",
    "oracle.calls": "count", "oracle.self_s": "s",
    "oracle.distinct_inputs": "count", "oracle.distinct_ratio": "ratio",
    "kernels.calls": "count", "kernels.self_s": "s", "kernels.candidates": "count",
    "synthesis.calls": "count", "synthesis.self_s": "s",
    "synthesis.unsupported": "count", "synthesis.supported_ratio": "ratio",
    "families.self_s": "s",
    "catalog.build_s": "s", "catalog.encode_s": "s", "catalog.decode_s": "s",
    "catalog.encoded_bytes": "bytes", "catalog.self_s": "s",
    "verification.self_s": "s", "verification.checks_pass": "count",
    "verification.checks_fail": "count", "verification.checks_skip": "count",
    "tables.rows": "count", "tables.self_s": "s",
    "cli.self_s": "s", "cli.stdout_bytes": "bytes", "package.self_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s",
}

INCLUSIVE = {
    "catalog.build_s": {("catalog", "standard_catalog")},
    "catalog.encode_s": {("catalog", "export_catalog"), ("catalog", "record_to_json")},
    "catalog.decode_s": {("catalog", "import_catalog")},
}


def pass_metrics(traces: list[Trace], walls: list[float], untraced_walls: list[float],
                 stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans of its invocations.

    walls are the traced invocations' wall times and untraced_walls those of
    the same requests run without tracing just before them.
    """
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    inclusive_ns = defaultdict(int)
    unsupported = 0
    counters = defaultdict(int)
    oracle_keys = set()
    unattributed = 0.0
    for trace, wall in zip(traces, walls):
        spans = trace.spans
        ids, parents, fids = spans[0::FIELDS], spans[1::FIELDS], spans[2::FIELDS]
        starts, ends, outcomes = spans[3::FIELDS], spans[4::FIELDS], spans[5::FIELDS]
        covered = defaultdict(int)
        for parent, start, end in zip(parents, starts, ends):
            covered[parent] += end - start
        for sid, fid, start, end, outcome in zip(ids, fids, starts, ends, outcomes):
            layer, name = trace.names[fid]
            self_ns[layer] += end - start - covered[sid]
            if name != IMPORT:
                calls[layer] += 1
                inclusive_ns[(layer, name)] += end - start
                if layer == "synthesis" and outcome == UNSUPPORTED:
                    unsupported += 1
        for key, value in trace.counters.items():
            counters[key] += value
        oracle_keys.update(trace.oracle_keys)
        unattributed += wall - covered[-1] / 1e9

    metrics = {}
    for layer in (*LAYERS, "package"):
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
    for metric, functions in INCLUSIVE.items():
        metrics[metric] = sum(inclusive_ns[f] for f in functions) / 1e9
    metrics["oracle.distinct_inputs"] = len(oracle_keys)
    metrics["oracle.distinct_ratio"] = len(oracle_keys) / calls["oracle"] if calls["oracle"] else 0.0
    metrics["synthesis.unsupported"] = unsupported
    metrics["synthesis.supported_ratio"] = (
        (calls["synthesis"] - unsupported) / calls["synthesis"] if calls["synthesis"] else 0.0
    )
    for name in ("kernels.candidates", "catalog.encoded_bytes", "tables.rows",
                 "verification.checks_pass", "verification.checks_fail",
                 "verification.checks_skip"):
        metrics[name] = counters[name]
    metrics["cli.stdout_bytes"] = stdout_bytes
    metrics["trace.wall_s"] = sum(walls)
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.overhead_s"] = sum(walls) - sum(untraced_walls)
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in PER_LAYER_UNITS}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
