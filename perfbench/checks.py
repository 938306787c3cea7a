"""Output checks for every CLI invocation the benchmark makes.

Each check takes the finished Invocation plus what the request implies and
returns a Verdict: an error string (None when the output is right) and the
work the invocation certifies, as verification checks and records.  A
check never trusts the program's own summary where the benchmark can
compute the expected value itself: the oracle total comes from the grid,
the synth target from the request, table rows from the feasibility rules.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from invoke import Invocation

# InvariantReport field that a synth request of each kind targets.
TARGET_FIELD = {
    "generalized-index": "gen_index",
    "fano-index": "fano_index",
    "seshadri": "seshadri_antican",
}


class Verdict(NamedTuple):
    error: Optional[str]
    checks: int = 0
    records: int = 0


def _fail(message: str) -> Verdict:
    return Verdict(error=message)


def exit_problem(inv: Invocation, expected: int = 0) -> Optional[str]:
    """Why the process outcome is wrong, before looking at its output."""
    if inv.timed_out:
        return f"timed out after {inv.timeout_s:.1f} s"
    if "Traceback (most recent call last)" in inv.stderr:
        return "traceback: " + inv.stderr.strip().splitlines()[-1][:200]
    if inv.returncode != expected:
        last = inv.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {inv.returncode}, expected {expected}: {last[0][:200]}"
    return None


def _rational(text) -> Optional[Fraction]:
    if text is None or text == "" or text == "-":
        return None
    return Fraction(str(text))


# ---------------------------------------------------------------------------
# verify --grid oracle


def oracle_grid_total(coeff_max: int, m_max: int = 4, b1_max: int = 3,
                      rprime_max: int = 3, k_max: int = 3) -> int:
    """Checks an oracle sweep must report: one per big, non-ample integral class.

    The sweep visits every bundle with fiber rank r' <= rprime_max, twists
    b_1 >= ... >= b_r' in [0, b1_max], m <= m_max and base dimension
    k <= k_max, and every class (beta, gamma) with 1 <= beta <= coeff_max,
    |gamma| <= coeff_max, -m*beta < gamma <= b1*beta.
    """
    from itertools import combinations_with_replacement

    total = 0
    for rprime in range(1, rprime_max + 1):
        for twists in combinations_with_replacement(range(b1_max + 1), rprime):
            b1 = max(twists)
            for m in range(1, m_max + 1):
                classes = 0
                for beta in range(1, coeff_max + 1):
                    low = max(-coeff_max, -m * beta + 1)
                    high = min(coeff_max, b1 * beta)
                    classes += max(0, high - low + 1)
                total += k_max * classes
    return total


def oracle_sweep(inv: Invocation, expected_total: int) -> Verdict:
    problem = exit_problem(inv)
    if problem:
        return _fail(problem)
    try:
        report = json.loads(inv.stdout)
        total, failed = report["total"], report["failed"]
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"unreadable sweep report: {exc!r}")
    if failed != 0:
        return _fail(f"{failed} oracle checks failed")
    if total != expected_total:
        return _fail(f"sweep reported {total} checks, the grid implies {expected_total}")
    # Each check of the sweep is keyed by its own (variety, class) record id.
    return Verdict(None, checks=total, records=total)


# ---------------------------------------------------------------------------
# catalog export -> catalog import -> verify --catalog


def catalog_export(inv: Invocation, path: Path, expected_records: int) -> Verdict:
    problem = exit_problem(inv)
    if problem:
        return _fail(problem)
    try:
        catalog = json.loads(path.read_text(encoding="utf-8"))
        count = catalog["metadata"]["record_count"]
        records = len(catalog["records"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"unreadable export: {exc!r}")
    if count != expected_records or records != expected_records:
        return _fail(
            f"export has record_count {count} and {records} records, "
            f"expected {expected_records}"
        )
    return Verdict(None, records=records)


def catalog_import(inv: Invocation, export_path: Path, reexport_path: Path,
                   records: int) -> Verdict:
    problem = exit_problem(inv)
    if problem:
        return _fail(problem)
    try:
        same = export_path.read_bytes() == reexport_path.read_bytes()
    except OSError as exc:
        return _fail(f"missing export: {exc!r}")
    if not same:
        return _fail("re-export differs from the export")
    return Verdict(None, records=records)


def verify_report(inv: Invocation, fmt: str) -> Verdict:
    """A verify run must exit 0 and report checks, none of them failed."""
    problem = exit_problem(inv)
    if problem:
        return _fail(problem)
    try:
        if fmt == "json":
            report = json.loads(inv.stdout)
            total, failed = report["total"], report["failed"]
        else:
            fields = dict(line.split(None, 1) for line in inv.stdout.splitlines() if line)
            total, failed = int(fields["total"]), int(fields["failed"])
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"unreadable verify report: {exc!r}")
    if failed != 0:
        return _fail(f"verify reported {failed} failed checks")
    if total <= 0:
        return _fail("verify reported no checks")
    return Verdict(None, checks=total)


# ---------------------------------------------------------------------------
# synth and table


def _summary_fields(text: str, fmt: str) -> dict:
    """Field -> value of one record as synth prints it."""
    if fmt == "json":
        record = json.loads(text)
        statuses = [check["status"] for check in record["checks"]]
        return {
            **record["invariants"],
            "checks": (statuses.count("pass"), statuses.count("fail"), statuses.count("skip")),
        }
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(text)))
        fields = dict(zip(header, row, strict=True))
    else:
        fields = dict(line.split(None, 1) for line in text.splitlines() if line)
    counts = re.fullmatch(r"(\d+) pass, (\d+) fail, (\d+) skip", fields["checks"])
    fields["checks"] = tuple(int(g) for g in counts.groups())
    return fields


def synth(inv: Invocation, kind: str, target: Fraction, fmt: str) -> Verdict:
    """Exit 0 and the record's target field equal to the requested value."""
    problem = exit_problem(inv)
    if problem:
        return _fail(problem)
    try:
        fields = _summary_fields(inv.stdout, fmt)
        value = _rational(fields[TARGET_FIELD[kind]])
        passed, failed, skipped = fields["checks"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return _fail(f"unreadable record: {exc!r}")
    if value != target:
        return _fail(f"{TARGET_FIELD[kind]} is {value}, requested {target}")
    if failed:
        return _fail(f"{failed} construction checks failed")
    return Verdict(None, checks=passed + failed + skipped, records=1)


def unsupported(inv: Invocation) -> Verdict:
    """Exit 2 is a valid answer only as one 'unsupported:' line on stderr."""
    problem = exit_problem(inv, expected=2)
    if problem:
        return _fail(problem)
    lines = inv.stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("unsupported: "):
        return _fail(f"exit 2 without a one-line unsupported message: {inv.stderr[:200]!r}")
    if inv.stdout:
        return _fail("unsupported request printed to stdout")
    return Verdict(None)


def _table_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    if fmt == "csv":
        header, *rows = list(csv.reader(io.StringIO(text)))
        return [dict(zip(header, row, strict=True)) for row in rows]
    header, *lines = text.splitlines()
    starts = [(m.group(), m.start()) for m in re.finditer(r"\S+", header)]
    rows = []
    for line in lines:
        row = {}
        for i, (name, start) in enumerate(starts):
            end = starts[i + 1][1] if i + 1 < len(starts) else None
            row[name] = line[start:end].strip()
        rows.append(row)
    return rows


def table(inv: Invocation, fmt: str, expected: list[tuple[dict, dict]]) -> Verdict:
    """Rows must be exactly the expected parameter tuples, in order, with
    each expected invariant column equal to its closed form."""
    problem = exit_problem(inv)
    if problem:
        return _fail(problem)
    try:
        rows = _table_rows(inv.stdout, fmt)
        if len(rows) != len(expected):
            return _fail(f"table has {len(rows)} rows, expected {len(expected)}")
        for row, (params, values) in zip(rows, expected):
            got = {name: int(row[name]) for name in params}
            if got != params:
                return _fail(f"row {got} where {params} was expected")
            for column, value in values.items():
                if _rational(row[column]) != value:
                    return _fail(f"row {params}: {column} = {row[column]}, expected {value}")
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"unreadable table: {exc!r}")
    return Verdict(None, records=len(rows))
