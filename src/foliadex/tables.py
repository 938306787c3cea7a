"""Row generators behind the table command, and the construction a record
id names: build(record_id) rebuilds the record, synth record or table row.

A family name plus integer ranges yields one ExampleRecord per feasible
parameter tuple, a record on the family's branch; infeasible tuples
(wrong coprimality, out-of-range degrees, targets outside a
construction's reach or synthesized on another family's branch) are
skipped rather than reported, so a sweep over a rectangle of parameters
prints exactly the rows that exist.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .errors import DomainError, ParseError, UnsupportedRequest
from .families import _BUILDERS, FAMILY_PARAMS
from .synthesis import (
    MAX_DIMENSION,
    ExampleRecord,
    SynthesisRequest,
    SynthKind,
    parse_record_id,
    synthesize,
)
from .value import Frozen


def parse_construction(text: str) -> tuple[Callable[..., ExampleRecord], tuple]:
    """The builder and arguments the record id text names: synthesize and
    its SynthesisRequest for a synth id, the family's builder and its
    integer parameters, named as FAMILY_PARAMS names them, for a table id;
    ParseError for any other text."""
    head, branch, params = parse_record_id(text)
    values = tuple(params.values())
    if head == "table":
        names = FAMILY_PARAMS.get(branch)
        if tuple(params) == names and all(v.denominator == 1 for v in values):
            return _BUILDERS[branch], tuple(map(int, values))
    elif tuple(params) == ("n", "r", "c") and all(v.denominator == 1 for v in values[:2]):
        n, r, c = values
        try:
            return synthesize, (SynthesisRequest(SynthKind(head), int(n), int(r), c),)
        except ValueError:  # an unknown kind, or a DomainError of the request
            pass
    raise ParseError(f"{text!r} is not a record id")


def build(record_id: str) -> ExampleRecord:
    """The record that record_id names, built as parse_construction reads it."""
    builder, args = parse_construction(record_id)
    return builder(*args)


# The parameters that are dimensions or ranks, in every family that has them.
_DIMENSIONS = ("n", "r", "rprime", "base_dim")


def parse_range(text: str) -> range:
    """Inclusive integer range syntax: either "A" or "A..B"."""
    body = text.strip()
    if ".." in body:
        left, _, right = body.partition("..")
        try:
            start, stop = int(left), int(right)
        except ValueError as exc:
            raise DomainError(f"bad range {text!r}; expected A..B") from exc
        if stop < start:
            raise DomainError(f"empty range {text!r}")
        return range(start, stop + 1)
    try:
        value = int(body)
    except ValueError as exc:
        raise DomainError(f"bad range {text!r}; expected an integer or A..B") from exc
    return range(value, value + 1)


# The most parameter tuples one table may try: the product of its range
# lengths, computed before any tuple is built.  A row costs about 0.2 ms,
# more in a high dimension; the README states run times at this ceiling.
TABLE_MAX_TUPLES = 100_000


def _length(values: Sequence[int]) -> int:
    """len(values), also for a range too long for len."""
    if isinstance(values, range):
        return max(0, -((values.start - values.stop) // values.step))
    return len(values)


class TableRow(Frozen):
    __slots__ = ("params", "record")
    params: dict[str, int]
    record: ExampleRecord


def table_rows(family: str, ranges: dict[str, Sequence[int]]) -> list[TableRow]:
    if family not in FAMILY_PARAMS:
        raise DomainError(
            f"unknown family {family!r}; known: " + ", ".join(sorted(FAMILY_PARAMS))
        )
    names = FAMILY_PARAMS[family]
    for name in ranges:
        if name not in names:
            raise DomainError(
                f"family {family!r} takes no {name}; its parameters are: " + ", ".join(names)
            )
    missing = [name for name in names if name not in ranges]
    if missing:
        raise DomainError(f"family {family!r} needs ranges for: " + ", ".join(missing))
    tuples = 1
    for name in names:
        values = ranges[name]
        tuples *= _length(values)
        if tuples > TABLE_MAX_TUPLES:
            raise DomainError(
                f"{name} = {values[0]}..{values[-1]} is too large: a table may try at most "
                f"{TABLE_MAX_TUPLES:,} parameter tuples, the product of its range lengths"
            )
    if not tuples:
        return []
    for name in names:
        if name in _DIMENSIONS and (top := max(ranges[name])) > MAX_DIMENSION:
            raise DomainError(
                f"{name} = {top} is too large: a dimension or rank may be at most "
                f"{MAX_DIMENSION:,}"
            )
    rows = []
    for combo in itertools.product(*(ranges[name] for name in names)):
        values = dict(zip(names, combo))
        try:
            record = _BUILDERS[family](**values)
        except (DomainError, UnsupportedRequest):
            continue
        rows.append(TableRow(values, record))
    return rows
