"""Command-line interface.

Exit codes: 0 on success (and on a verify run with no failures), 1 for
input errors and verify runs with failures, 2 for requests outside the
supported constructions.  Output format is chosen by --out (json, csv
or table, the default).  All output is byte-deterministic for fixed
inputs.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import os
import sys
from typing import Optional, Sequence

from . import __version__, jsontext
from .catalog import (
    SCHEMA_VERSION,
    Catalog,
    import_catalog,
    record_to_json,
    standard_catalog,
    write_catalog,
)
from .errors import DomainError, ParseError, UnsupportedRequest
from .lattice import parse_rational, render_optional
from .oracle import kernel_backend
from .report import CheckStatus, SweepReport
from .synthesis import ExampleRecord, SynthesisRequest, SynthKind, synthesize
from .tables import FAMILY_PARAMS, parse_range, table_rows
from .verification import OracleGrid, SynthGrid, run_sweep, verify_catalog

FORMATS = ("json", "csv", "table")


class _Given(argparse.Action):
    """Store a flag's value and note the flag in the namespace's given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given += (self.dest,)


class _Parser(argparse.ArgumentParser):
    """argparse prints its usage block and exits with 2 on bad usage; the
    contract here is one line and exit 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _aligned(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    table = [list(header)] + [list(row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines)


def _render_pairs(pairs: Sequence[tuple[str, str]], fmt: str) -> str:
    """Key/value pairs as a one-row csv, or one aligned line per pair."""
    if fmt == "csv":
        return _csv_text([k for k, _ in pairs], [[v for _, v in pairs]]).rstrip("\n")
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs)


# ---------------------------------------------------------------------------
# synth


def _record_summary_pairs(record: ExampleRecord) -> list[tuple[str, str]]:
    fol = record.foliation
    inv = record.invariants
    flags = inv.positivity
    shown = [name for name in ("pseff", "big", "nef", "ample") if getattr(flags, name)]
    counts = {status: 0 for status in CheckStatus}
    for check in record.checks:
        counts[check.status] += 1
    return [
        ("id", record.id),
        ("branch", record.branch),
        ("variety", record.variety.label()),
        ("rank", f"{fol.rank} (algebraic {fol.algebraic_rank})"),
        ("canonical", str(fol.canonical)),
        ("gen_index", render_optional(inv.gen_index, "-")),
        ("fano_index", render_optional(inv.fano_index, "-")),
        ("seshadri_antican", render_optional(inv.seshadri_antican, "-")),
        ("positivity", " ".join(shown) if shown else "none"),
        ("leaf_rc", fol.leaf_rc.value),
        (
            "checks",
            f"{counts[CheckStatus.PASS]} pass, {counts[CheckStatus.FAIL]} fail, "
            f"{counts[CheckStatus.SKIP]} skip",
        ),
    ]


def _render_record(record: ExampleRecord, fmt: str) -> str:
    if fmt == "json":
        return record_to_json(record, "\n")
    return _render_pairs(_record_summary_pairs(record), fmt)


def cmd_synth(args) -> int:
    kind = SynthKind.from_text(args.kind)
    request = SynthesisRequest(kind, args.n, args.r, parse_rational(args.c))
    record = synthesize(request)
    print(_render_record(record, args.out))
    return 0


# ---------------------------------------------------------------------------
# verify


def _render_report(report: SweepReport, fmt: str, source: str) -> str:
    if fmt == "json":
        return jsontext.render({"source": source, **report.to_dict()})
    if fmt == "csv":
        rows = [[f["record"], f["check"], f["detail"]] for f in report.failures]
        return _csv_text(["record", "check", "detail"], rows).rstrip("\n")
    names = ("total", "passed", "failed", "skipped")
    pairs = [("source", source), *((name, str(getattr(report, name))) for name in names)]
    lines = [_render_pairs(pairs, fmt)]
    for failure in report.failures:
        lines.append(
            f"FAIL {failure['record']} [{failure['check']}]: {failure['detail']}"
        )
    return "\n".join(lines)


# the flags each grid of verify reads, besides --grid and --out; a catalog reads none
_GRID_FLAGS = {"standard": (), "oracle": OracleGrid.__slots__, "synth": SynthGrid.__slots__}


def cmd_verify(args) -> int:
    source = f"catalog {args.catalog}" if args.catalog is not None else f"grid {args.grid}"
    reads = () if args.catalog is not None else ("grid", *_GRID_FLAGS[args.grid])
    for name in args.given:
        if name not in reads:
            raise DomainError(f"{_flag(name)} is not read by verify --{source}")
    if args.catalog is not None:
        report = verify_catalog(_read_catalog(args.catalog).records)
    elif args.grid == "standard":
        report = verify_catalog(standard_catalog().records)
    elif args.grid == "oracle":
        grid = {name: getattr(args, name) for name in OracleGrid.__slots__}
        report = run_sweep(OracleGrid(**grid))
    elif args.kind is None:
        raise DomainError("--grid synth needs --kind")
    else:
        report = run_sweep(SynthGrid(SynthKind.from_text(args.kind), args.n_max, args.q_max))
    print(_render_report(report, args.out, source))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# table


def _table_params() -> tuple[str, ...]:
    """Every family parameter once, in order of first declaration."""
    names = (name for params in FAMILY_PARAMS.values() for name in params)
    return tuple(dict.fromkeys(names))


_INVARIANT_COLUMNS = (
    "anticanonical",
    "gen_index",
    "fano_index",
    "seshadri",
    "algebraic_rank",
)


def _row_cells(row, columns: Sequence[str]) -> list:
    """One table row as JSON values; an absent invariant is None."""
    inv = row.record.invariants
    fol = row.record.foliation
    values = {
        **row.params,
        "anticanonical": str(-fol.canonical),
        "gen_index": render_optional(inv.gen_index, None),
        "fano_index": render_optional(inv.fano_index, None),
        "seshadri": render_optional(inv.seshadri_antican, None),
        "algebraic_rank": fol.algebraic_rank,
    }
    return [values[col] for col in columns]


def cmd_table(args) -> int:
    if args.family == "cone" and args.base_dim is None:
        args.base_dim = "2"
    ranges = {
        name: parse_range(getattr(args, name))
        for name in _table_params()
        if getattr(args, name) is not None
    }
    rows = table_rows(args.family, ranges)
    columns = list(FAMILY_PARAMS[args.family]) + list(_INVARIANT_COLUMNS)
    cells = [_row_cells(row, columns) for row in rows]
    if args.out == "json":
        payload = [
            {**dict(zip(columns, row_cells)), "id": row.record.id}
            for row, row_cells in zip(rows, cells)
        ]
        print(jsontext.render({"family": args.family, "columns": columns, "rows": payload}))
        return 0
    text_rows = [["" if cell is None else str(cell) for cell in row_cells] for row_cells in cells]
    if args.out == "csv":
        print(_csv_text(columns, text_rows).rstrip("\n"))
    else:
        print(_aligned(columns, text_rows))
    return 0


# ---------------------------------------------------------------------------
# info and catalog


def cmd_info(args) -> int:
    info = {
        "name": "foliadex",
        "version": __version__,
        "kernel_backend": kernel_backend(),
        "schema_version": SCHEMA_VERSION,
        "table_families": sorted(FAMILY_PARAMS),
        "synth_kinds": [kind.value for kind in SynthKind],
    }
    if args.out == "json":
        print(jsontext.render(info))
        return 0
    pairs = [
        (key, ", ".join(value) if isinstance(value, list) else value)
        for key, value in info.items()
    ]
    print(_render_pairs(pairs, args.out))
    return 0


def _write_export(catalog: Catalog, path: Optional[str]) -> None:
    """Stream the export of catalog to the file at path, or to stdout."""
    if path is None:
        write_catalog(catalog, sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            write_catalog(catalog, handle)


def cmd_catalog_export(args) -> int:
    _write_export(standard_catalog(), args.out_file)
    return 0


def _read_catalog(path: str) -> Catalog:
    """Import the catalog file at path; text that is not UTF-8 is a ParseError.

    The text goes straight to import_catalog, which frees it once parsed.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return import_catalog(handle.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"catalog {path} is not UTF-8 text: {exc}") from exc


def cmd_catalog_import(args) -> int:
    catalog = _read_catalog(args.in_file)
    if args.out_file is None:
        print(f"imported {len(catalog.records)} records (schema {catalog.schema_version})")
    else:
        _write_export(catalog, args.out_file)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_out(parser) -> None:
    parser.add_argument(
        "--out",
        choices=FORMATS,
        default="table",
        help="output format (default: table)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="foliadex",
        description="exact invariants of foliated projective bundles, cones "
        "and weighted projective spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="build a record hitting a target invariant")
    synth.add_argument("--kind", required=True, help="generalized-index, fano-index or seshadri")
    synth.add_argument("--n", type=int, required=True, help="ambient dimension")
    synth.add_argument("--r", type=int, required=True, help="algebraic rank")
    synth.add_argument("--c", required=True, help="target value, e.g. 3/2")
    _add_out(synth)
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify", help="run a verification sweep")
    verify.add_argument(
        "--grid", action=_Given, choices=("standard", "oracle", "synth"), default="standard"
    )
    verify.add_argument("--catalog", default=None, help="verify an exported catalog file")
    defaults = OracleGrid()
    for name in OracleGrid.__slots__:
        verify.add_argument(_flag(name), action=_Given, type=int, default=getattr(defaults, name))
    verify.add_argument("--kind", action=_Given, help="synthesis kind for --grid synth")
    for name, default in zip(("n_max", "q_max"), SynthGrid.__init__.__defaults__):
        verify.add_argument(_flag(name), action=_Given, type=int, default=default)
    _add_out(verify)
    verify.set_defaults(func=cmd_verify, given=())

    table = sub.add_parser("table", help="tabulate a parametric family")
    table.add_argument("--family", required=True)
    for name in _table_params():
        table.add_argument(_flag(name))
    _add_out(table)
    table.set_defaults(func=cmd_table)

    info = sub.add_parser("info", help="package, backend and schema information")
    _add_out(info)
    info.set_defaults(func=cmd_info)

    cat = sub.add_parser("catalog", help="export or import the record catalog")
    cat_sub = cat.add_subparsers(dest="catalog_command", required=True)
    cat_export = cat_sub.add_parser("export", help="write the standard catalog as JSON")
    cat_export.add_argument("--out-file", default=None, help="path (default: stdout)")
    cat_export.set_defaults(func=cmd_catalog_export)
    cat_import = cat_sub.add_parser("import", help="read a catalog JSON file")
    cat_import.add_argument("--in", dest="in_file", required=True, help="path to read")
    cat_import.add_argument(
        "--out-file", default=None, help="re-export to this path after validation"
    )
    cat_import.set_defaults(func=cmd_catalog_import)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly on usage errors (and --help); keep the
        # function total so embedders get a return code either way
        return exc.code if isinstance(exc.code, int) else 1
    try:
        code = args.func(args)
        # stdout's last buffered write fails here, where it is reported,
        # not at interpreter exit; None is a closed stdout
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except UnsupportedRequest as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except (ParseError, DomainError, OSError, OverflowError) as exc:
        # OverflowError: an integer argument too large to be a tuple length
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # str(MemoryError()) is usually empty
        print("error: out of memory", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry: main() on sys.argv, then gc.freeze().

    Freezing moves the run's objects into the permanent generation, so the
    collections at interpreter exit skip them; main leaves the collector
    alone for in-process callers.  Output main could not flush, and has
    reported, goes to os.devnull, so the flush at exit cannot fail again.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
