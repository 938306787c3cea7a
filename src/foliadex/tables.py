"""Row generators behind the table command.

A family name plus integer ranges yields one ExampleRecord per feasible
parameter tuple; infeasible tuples (wrong coprimality, out-of-range
degrees, targets outside a construction's reach) are skipped rather
than reported, so a sweep over a rectangle of parameters prints exactly
the rows that exist.
"""

from __future__ import annotations

import itertools
import sys
from typing import Iterable

from . import families
from .errors import DomainError, UnsupportedRequest
from .synthesis import ExampleRecord, require_length
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
_LENGTHS = ("n", "r", "rprime", "base_dim")


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


def _axis(name: str, values: Iterable[int]) -> tuple[int, ...]:
    """The values of one parameter as a tuple; a range of sys.maxsize
    values or more cannot become one and is refused by name."""
    if isinstance(values, range) and values:
        if (values[-1] - values[0]) // values.step + 1 >= sys.maxsize:
            raise DomainError(
                f"{name} = {values[0]}..{values[-1]} is too large: "
                f"a range must have fewer than {sys.maxsize} values"
            )
    return tuple(values)


class TableRow(Frozen):
    __slots__ = ("params", "record")
    params: dict[str, int]
    record: ExampleRecord


def table_rows(family: str, ranges: dict[str, Iterable[int]]) -> list[TableRow]:
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
    axes = [_axis(name, ranges[name]) for name in names]
    for name, axis in zip(names, axes):
        if name in _LENGTHS and axis:
            require_length(name, max(axis))
    rows = []
    for combo in itertools.product(*axes):
        values = dict(zip(names, combo))
        try:
            record = _BUILDERS[family](**values)
        except (DomainError, UnsupportedRequest):
            continue
        rows.append(TableRow(values, record))
    return rows
