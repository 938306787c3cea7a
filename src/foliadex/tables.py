"""Row generators behind the table command.

A family name plus integer ranges yields one ExampleRecord per feasible
parameter tuple; infeasible tuples (wrong coprimality, out-of-range
degrees, targets outside a construction's reach) are skipped rather
than reported, so a sweep over a rectangle of parameters prints exactly
the rows that exist.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import DomainError, UnsupportedRequest
from .families import (
    case1_record,
    case2_record,
    cone_table_record,
    hirzebruch_record,
    mixed_record,
    rc_flat_record,
    rc_genus_record,
    wps1_record,
    wps2_record,
    wps3_record,
    wps4_record,
)
from .synthesis import ExampleRecord
from .value import Frozen

# Row builder per family; a builder's parameters are the family's
# parameter names, in order.
_BUILDERS = {
    "hirzebruch": hirzebruch_record,
    "wps1": wps1_record,
    "wps2": wps2_record,
    "wps3": wps3_record,
    "wps4": wps4_record,
    "cone": cone_table_record,
    "case1": case1_record,
    "case2": case2_record,
    "mixed": mixed_record,
    "rc-genus": rc_genus_record,
    "rc-flat": rc_flat_record,
}

# Parameter names per family, in declaration order; the table columns
# lead with these.  Every builder takes positional-or-keyword parameters
# only, which lead its code object's local names.
FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    family: builder.__code__.co_varnames[: builder.__code__.co_argcount]
    for family, builder in _BUILDERS.items()
}


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


class TableRow(Frozen):
    __slots__ = ("params", "record")
    params: dict[str, int]
    record: ExampleRecord

    def __init__(self, params: dict[str, int], record: ExampleRecord) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "record", record)


def table_rows(family: str, ranges: dict[str, Iterable[int]]) -> list[TableRow]:
    if family not in FAMILY_PARAMS:
        raise DomainError(
            f"unknown family {family!r}; known: " + ", ".join(sorted(FAMILY_PARAMS))
        )
    names = FAMILY_PARAMS[family]
    missing = [name for name in names if name not in ranges]
    if missing:
        raise DomainError(f"family {family!r} needs ranges for: " + ", ".join(missing))
    rows = []
    for combo in itertools.product(*(tuple(ranges[name]) for name in names)):
        values = dict(zip(names, combo))
        try:
            record = _BUILDERS[family](**values)
        except (DomainError, UnsupportedRequest):
            continue
        rows.append(TableRow(params=values, record=record))
    return rows
