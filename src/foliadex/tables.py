"""Row generators behind the table command.

A family name plus integer ranges yields one ExampleRecord per feasible
parameter tuple, a record on the family's branch; infeasible tuples
(wrong coprimality, out-of-range degrees, targets outside a
construction's reach or synthesized on another family's branch) are
skipped rather than reported, so a sweep over a rectangle of parameters
prints exactly the rows that exist.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from . import families
from .errors import DomainError, UnsupportedRequest
from .synthesis import MAX_DIMENSION, ExampleRecord
from .value import Frozen

# Row builder per family; a builder's parameters are the family's
# parameter names, in order.
_BUILDERS = {
    "hirzebruch": families.hirzebruch_record,
    "wps1": families.wps1_record,
    "wps2": families.wps2_record,
    "wps3": families.wps3_record,
    "wps4": families.wps4_record,
    "cone": families.cone_table_record,
    "case1": families.case1_record,
    "case2": families.case2_record,
    "mixed": families.mixed_record,
    "rc-genus": families.rc_genus_record,
    "rc-flat": families.rc_flat_record,
}

# Parameter names per family, in declaration order; the table columns
# lead with these.  Every builder takes positional-or-keyword parameters
# only, which lead its code object's local names.
FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    family: builder.__code__.co_varnames[: builder.__code__.co_argcount]
    for family, builder in _BUILDERS.items()
}


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
        if record.branch == family:
            rows.append(TableRow(values, record))
    return rows
