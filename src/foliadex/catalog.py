"""Catalog container and its byte-deterministic JSON serialization.

The value types are the schema: a value's JSON object holds its fields
under their names, in __slots__ order, and one encoder (_text) and one
decoder (_from_json), which reads each field by the type its class
declares, serve every object that follows this rule.  Three keep code
of their own: a variety stores its family first; a foliation stores its
recipe's kind apart from the recipe's fields and leaves out the ambient
where the record holds it; and a record adds its foliation's ambient as
its variety.

An export (schema 2) lists each distinct variety, foliation, invariant
report and check once, in its objects array after the records, and a
record, a recipe's base foliation and its ambient refer to them by
index.  An entry is its object's text with the objects nested in it as
indices, so text decides equality, and every index inside objects[k] is
below k.  Import takes an index or an inline object at each of these
positions, so schema 1, all inline, has the same decoder; a re-export
writes schema 2.

Export has a fixed key order and no timestamps, so a catalog always
serializes to the same bytes.  Import rebuilds each object through its
validating constructor and derives again the canonical class and the
fields a recipe fixes: a stored value that differs is a DomainError, and
an object without exactly its export's keys a ParseError.  A record's
variety is a bundle, a weighted projective space or a cone.  Stored
invariants and checks are read verbatim, for the verification layer.
"""

from __future__ import annotations

import enum
import io
import itertools
import json
from collections import defaultdict
from fractions import Fraction
from functools import partial
from typing import Optional, get_args, get_type_hints

from . import jsontext
from .jsontext import string as _quoted
from .bundle import BundleVariety
from .errors import DomainError, FoliadexError, ParseError
from .foliation import FoliationDescriptor, LeafStatus, Recipe
from .lattice import (
    Class2,
    parse_rational,
    reduced_targets,
    render_rational,
)
from .rankone import (
    GeneralizedCone,
    PolarizedBase,
    RankOneClass,
    WeightedProjectiveSpace,
)
from .report import CheckOutcome, InvariantReport
from .synthesis import (
    ExampleRecord,
    SynthesisRequest,
    SynthKind,
    parse_record_id,
    request_id,
    synthesize,
)
from .tables import FAMILY_PARAMS, table_rows
from .value import Frozen, Value

SCHEMA_VERSION = "2"


class Catalog(Frozen):
    __slots__ = ("metadata", "records", "schema_version")
    metadata: dict
    records: tuple[ExampleRecord, ...]
    schema_version: str  # the one its file declares; write_catalog writes SCHEMA_VERSION

    def __init__(
        self, metadata: dict | None = None, records: tuple[ExampleRecord, ...] = (),
        schema_version: str = SCHEMA_VERSION,
    ) -> None:
        seen = set()
        for record in records:
            if record.id in seen:
                raise DomainError(f"duplicate record id {record.id!r}")
            seen.add(record.id)
        Value.__init__(self, {} if metadata is None else metadata, records, schema_version)


# ---------------------------------------------------------------------------
# Serialization.

# variety family -> ambient class
_VARIETIES = {
    "bundle": BundleVariety,
    "wps": WeightedProjectiveSpace,
    "cone": GeneralizedCone,
    "polarized-base": PolarizedBase,
}
_FAMILIES = {cls: family for family, cls in _VARIETIES.items()}

# recipe kind -> recipe class
_RECIPES = {recipe.kind: recipe for recipe in get_args(Recipe)}

# the JSON text of a scalar, by its type; a rational's literal needs no escape
_SCALARS = {
    str: _quoted, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null", Fraction: lambda value: f'"{render_rational(value)}"',
}

# the keys of a foliation's object after its ambient, in export order
_FOLIATION_FIELDS = (
    "recipe", "recipe_params", "rank", "algebraic_rank", "canonical", "leaf_rc", "provenance",
)


def _text(value, newline: str, table=None) -> str:
    """The JSON text of value, its lines started with newline: a value type
    as the object of its fields in __slots__ order, a rational as its
    literal, a tuple as an array and an enum member as its value; a
    foliation writes its ambient, as indices given an export's table."""
    cls = type(value)
    scalar = _SCALARS.get(cls)
    if scalar is not None:
        return scalar(value)
    if cls is tuple:
        return _joined("[]", [_text(item, newline + "  ", table) for item in value], newline)
    if cls is FoliationDescriptor:
        return _ref(table, _fol_text, value, newline, True)
    if isinstance(value, Value):
        return _object(value, newline, cls.__slots__, "", table)
    return _quoted(value.value)


def _joined(brackets: str, members: list, newline: str) -> str:
    """The JSON array or object of the texts members, one a line, at newline."""
    if not members:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + f",{inner}".join(members) + newline + brackets[1]


def _object(value, newline: str, names: tuple, head: str = "", table=None) -> str:
    """The JSON object of value's fields names, after head, the members
    written before them, each led by a comma and its line's start."""
    inner = newline + "  "
    text = head
    for name in names:
        field = getattr(value, name)
        scalar = _SCALARS.get(type(field))
        text += f',{inner}"{name}": {scalar(field) if scalar else _text(field, inner, table)}'
    return "{" + text[1:] + newline + "}" if text else "{}"


def _variety_text(variety, newline: str, table=None) -> str:
    cls = type(variety)
    return _object(variety, newline, cls.__slots__, f',{newline}  "family": "{_FAMILIES[cls]}"')


def _fol_text(fol: FoliationDescriptor, newline: str, table=None, ambient: bool = True) -> str:
    """A foliation's object: its recipe's kind apart from the recipe's
    fields, after its ambient unless the record holds it."""
    inner = newline + "  "
    head = f',{inner}"ambient": {_ref(table, _variety_text, fol.ambient, inner)}' if ambient else ""
    recipe = fol.recipe
    head += f',{inner}"recipe": "{recipe.kind}",{inner}"recipe_params": '
    return _object(fol, newline, _FOLIATION_FIELDS[2:], head + _text(recipe, inner, table), table)


# the start of an entry's lines, in the objects array
_ENTRY = "\n    "


def _ref(table, write, value, newline: str, *args) -> str:
    """write(value, newline, table, *args), or given an export's table
    (entries, memos), the index of value's entry: entries maps each entry's
    text to its index, in first-use order, and memos[write, *args] maps an
    object to its index, by id, as the export holds it, or a check by the
    fields it writes, as a built catalog holds equal checks apart."""
    if table is None:
        return write(value, newline, None, *args)
    entries, memos = table
    memo = memos[write, *args]
    key = (value.name, value.status, value.detail) if type(value) is CheckOutcome else id(value)
    index = memo.get(key)
    if index is None:
        text = write(value, _ENTRY, table, *args)
        index = memo[key] = entries.setdefault(text, str(len(entries)))
    return index


def record_to_json(record: ExampleRecord, newline: Optional[str] = None, table=None):
    """The JSON object of one record, read back from its inline text; given
    newline, that text, its lines started with newline, and given an
    export's table too, with its objects written as indices there."""
    inner = (newline or "\n") + "  "
    own = ("id", "request", "branch")
    members = [f'"{name}": {_text(getattr(record, name), inner)}' for name in own]
    members += (
        f'"variety": {_ref(table, _variety_text, record.variety, inner)}',
        f'"foliation": {_ref(table, _fol_text, record.foliation, inner, False)}',
        f'"invariants": {_ref(table, _text, record.invariants, inner)}',
    )
    checks = [_ref(table, _text, check, inner + "  ") for check in record.checks]
    members.append(f'"checks": {_joined("[]", checks, inner)}')
    text = _joined("{}", members, newline or "\n")
    return text if newline else json.loads(text)


_NOUNS = {int: "an integer", bool: "a boolean", str: "a string", list: "a JSON array"}


def _typed(kind: type, value, path: str, key: str):
    """The value of path.key, of exactly type kind: true and false are not
    integers, and 0 and 1 are not booleans."""
    if type(value) is not kind:
        raise ParseError(f"{path}.{key} must be {_NOUNS[kind]}, got {value!r}")
    return value


def _not_one_of(choices, value, path: str, key: str) -> ParseError:
    """The error for a path.key outside its valid choices, listed in order."""
    return ParseError(f"{path}.{key} must be one of {', '.join(choices)}, got {value!r}")


def _enum(cls, value, path: str, key: str):
    """The member of the enum cls whose value is path.key."""
    try:
        return cls(value)
    except ValueError:
        raise _not_one_of((member.value for member in cls), value, path, key) from None


def _refused(path: str, exc: DomainError) -> DomainError:
    """A constructor's refusal of the object at path, with path in front.

    Callers catch it around the constructor call alone, so a nested
    object's refusal, which names its own path, is not prefixed twice.
    """
    return type(exc)(f"{path}: {exc}")


def _rational(text, path: str, key: str) -> Fraction:
    """The rational literal at path.key."""
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise ParseError(f"{path}.{key}: {exc}") from None


def _optional_rational(text, path: str, key: str) -> Optional[Fraction]:
    return None if text is None else _rational(text, path, key)


def _integers(value, path: str, key: str) -> tuple[int, ...]:
    """The JSON array of integers at path.key, as a tuple."""
    return tuple(_typed(int, entry, path, key) for entry in _typed(list, value, path, key))


def _key_path(prefix: str, key: str) -> str:
    """prefix.key, or prefix['key'] for a key that is not an identifier."""
    return f"{prefix}.{key}" if key.isidentifier() else f"{prefix}[{key!r}]"


def _fields(obj, path: str, names: tuple[str, ...]) -> list:
    """The values of a JSON object that has exactly the keys names, in order.

    A key the schema does not know would be dropped by a re-export, so
    it is refused like a missing one; path names obj in the ParseError.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must be a JSON object")
    if len(obj) == len(names):
        try:
            return [obj[name] for name in names]
        except KeyError:
            pass  # a key is missing, so another one is unknown
    for key in obj:
        if key not in names:
            raise ParseError(f"{_key_path(path, key)} is unknown; expected " + ", ".join(names))
    missing = next(name for name in names if name not in obj)
    raise ParseError(f"{path}.{missing} is missing")


# declared type -> reader(value, path, name) of a field's JSON value; an
# enum, a foliation and any other value type are read as _Objects.reader says
_READ = {
    int: partial(_typed, int), bool: partial(_typed, bool), str: partial(_typed, str),
    Fraction: _rational, Fraction | None: _optional_rational, tuple[int, ...]: _integers,
}


def _from_json(cls, obj, path: str, table: _Objects, before: tuple = ()):
    """The cls object stored at path as the JSON object of its fields, in
    __slots__ order, each read by the reader table gives its declared type.

    before names keys that precede the fields, which the caller reads.
    """
    names = cls.__slots__
    values = _fields(obj, path, before + names)[len(before):]
    fields = [read(v, path, name) for read, name, v in zip(table.readers(cls), names, values)]
    try:
        return cls(*fields)
    except DomainError as exc:
        raise _refused(path, exc) from None


def _variety_from_json(obj, path: str, table: _Objects):
    """An ambient from its JSON object, which stores its family first."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must be a JSON object")
    family = _typed(str, obj.get("family"), path, "family")
    if family not in _VARIETIES:
        raise _not_one_of(_VARIETIES, family, path, "family")
    return _from_json(_VARIETIES[family], obj, path, table, ("family",))


class _Objects:
    """An import's objects array: decoded maps (k, *ids of args) to the
    decode of objects[k], and (decoder, JSON text, bound, *ids of args) to
    the decode of an inline object, roles maps k to its decoder, a
    reference falls below bound, which is k inside objects[k], and read
    maps each decoded class to the readers of its fields."""

    def __init__(self, entries: list) -> None:
        self.entries, self.decoded, self.roles, self.bound = entries, {}, {}, len(entries)
        self.read = {}

    def readers(self, cls) -> tuple:
        """The reader of each field of cls, in __slots__ order."""
        if cls not in self.read:
            hints = get_type_hints(cls)
            self.read[cls] = tuple(self.reader(hints[name]) for name in cls.__slots__)
        return self.read[cls]

    def reader(self, kind):
        """The reader(value, path, name) of a field of declared type kind."""
        if kind in _READ:
            return _READ[kind]
        if issubclass(kind, enum.Enum):
            return partial(_enum, kind)
        if kind is FoliationDescriptor:
            # a recipe's base foliation, the one value type an index may stand for
            return lambda value, path, key: self.at(_fol_from_json, value, f"{path}.{key}")
        return lambda value, path, key: _from_json(kind, value, f"{path}.{key}", self)

    def at(self, decode, value, path: str, *args):
        """decode(obj, path, self, *args) of value, inline, or of the entry
        value indexes, at path objects[k], once per args objects and in one
        role.  An inline object is decoded once per decoder, JSON text,
        bound and args objects, so a schema 1 import shares equal objects
        as the objects array does."""
        if not isinstance(value, int):
            # a reference inside the text is valid only below the bound
            key = (decode, json.dumps(value), self.bound, *map(id, args))
            found = self.decoded.get(key)
            if found is None:
                found = self.decoded[key] = decode(value, path, self, *args)
            return found
        if type(value) is bool or not 0 <= value < self.bound:
            raise ParseError(f"{path}: {value!r} is not an index of objects[0:{self.bound}]")
        role = self.roles.setdefault(value, decode)
        if role is not decode:
            raise ParseError(f"{path}: objects[{value}] is {_ROLES[role]}, not {_ROLES[decode]}")
        key = (value, *map(id, args))
        found = self.decoded.get(key)
        if found is None:
            outer, self.bound = self.bound, value
            entry = self.entries[value]
            found = self.decoded[key] = decode(entry, f"objects[{value}]", self, *args)
            self.bound = outer
        return found


def _fol_from_json(obj, path: str, table: _Objects, ambient=None) -> FoliationDescriptor:
    """A descriptor whose stored canonical class must equal the derived one,
    built from every stored field, so that its constructor compares those
    the recipe fixes.  A recipe's base foliation stores its own ambient; a
    record's foliation is given the record's variety.
    """
    if ambient is None:
        ambient_obj, *values = _fields(obj, path, ("ambient", *_FOLIATION_FIELDS))
        ambient = table.at(_variety_from_json, ambient_obj, f"{path}.ambient")
    else:
        values = _fields(obj, path, _FOLIATION_FIELDS)
    kind, params, rank, algebraic_rank, canonical, leaf_rc, provenance = values
    cls = RankOneClass if isinstance(canonical, dict) and "s" in canonical else Class2
    stored = _from_json(cls, canonical, f"{path}.canonical", table)
    if _typed(str, kind, path, "recipe") not in _RECIPES:
        raise _not_one_of(_RECIPES, kind, path, "recipe")
    recipe = _from_json(_RECIPES[kind], params, f"{path}.recipe_params", table)
    try:
        fol = FoliationDescriptor(
            ambient=ambient,
            rank=_typed(int, rank, path, "rank"),
            algebraic_rank=_typed(int, algebraic_rank, path, "algebraic_rank"),
            recipe=recipe,
            leaf_rc=_enum(LeafStatus, leaf_rc, path, "leaf_rc"),
            provenance=_typed(str, provenance, path, "provenance"),
        )
    except DomainError as exc:
        raise _refused(path, exc) from None
    if stored != fol.canonical:
        raise DomainError(
            f"{path}.canonical: stored canonical class {stored} differs from {fol.canonical}, "
            f"derived from the {fol.recipe.kind} recipe"
        )
    return fol


_invariants_from_json = partial(_from_json, InvariantReport)
_check_from_json = partial(_from_json, CheckOutcome)

# decoder -> the role of the objects it reads
_ROLES = {
    _variety_from_json: "a variety", _fol_from_json: "a foliation",
    _invariants_from_json: "an invariant report", _check_from_json: "a check",
}


def _is_table_row_id(text: str, branch: str) -> bool:
    """Whether text is the id of the table row of family branch at integer
    parameters, named as FAMILY_PARAMS names them."""
    try:
        head, id_branch, params = parse_record_id(text)
    except ParseError:
        return False
    return (
        (head, id_branch) == ("table", branch)
        and tuple(params) == FAMILY_PARAMS.get(branch)
        and all(value.denominator == 1 for value in params.values())
    )


def _record_from_json(obj, table: _Objects) -> ExampleRecord:
    """The record of obj, its objects read through table.  Last, a synth
    record's id and its variety's dimension must be its request's, and a
    table row's id the one record_id gives its family and parameters."""
    names = ("id", "request", "branch", "variety", "foliation", "invariants", "checks")
    record_id, request, branch, variety, foliation, invariants, checks = _fields(
        obj, "record", names
    )
    ambient = table.at(_variety_from_json, variety, "variety")
    if isinstance(ambient, PolarizedBase):
        raise _not_one_of(("bundle", "wps", "cone"), "polarized-base", "variety", "family")
    record_id = _typed(str, record_id, "record", "id")
    request = None if request is None else _from_json(SynthesisRequest, request, "request", table)
    branch = _typed(str, branch, "record", "branch")
    fol = table.at(_fol_from_json, foliation, "foliation", ambient)
    inv = table.at(_invariants_from_json, invariants, "invariants")
    checks = tuple(
        table.at(_check_from_json, c, f"checks[{i}]")
        for i, c in enumerate(_typed(list, checks, "record", "checks"))
    )
    if request is not None and record_id != (expected := request_id(request, branch)):
        raise DomainError(
            f"record.id {record_id!r} is not {expected!r}, the id of its request and branch"
        )
    if request is not None and ambient.dim != request.n:
        raise DomainError(f"variety has dimension {ambient.dim}, not request.n = {request.n}")
    if request is None and not _is_table_row_id(record_id, branch):
        raise DomainError(f"record.id {record_id!r} is not the id of a {branch!r} table row")
    return ExampleRecord(record_id, request, branch, fol, inv, checks)


def _metadata_from_json(obj) -> dict:
    """Catalog metadata: an object mapping strings to str, int, bool or null.

    Floats (NaN and Infinity among them) and nested containers are
    refused, so a re-export stays valid JSON of bounded depth.
    """
    if not isinstance(obj, dict):
        raise ParseError("catalog metadata must be a JSON object")
    for key, value in obj.items():
        if value is not None and not isinstance(value, (str, int)):
            raise ParseError(
                f"{_key_path('metadata', key)} must be a string, integer, boolean or null, "
                f"got {type(value).__name__}"
            )
    return obj


# the keys of the catalog object, in export order; import needs
# schema_version, takes the others as empty when absent, and schema 1 has no objects
_CATALOG_KEYS = ("schema_version", "metadata", "records", "objects")


def write_catalog(catalog: Catalog, out) -> None:
    """Write the export of catalog to the text stream out: one record's text
    at a time, then the entries of the objects table, each held till then."""
    entries: dict = {}
    table = (entries, defaultdict(dict))
    out.write(f'{{\n  "schema_version": "{SCHEMA_VERSION}",\n  "metadata": ')
    out.write(jsontext.render(catalog.metadata, "\n  ") + ',\n  "records": [')
    for i, record in enumerate(catalog.records):
        out.write(("," if i else "") + _ENTRY + record_to_json(record, _ENTRY, table))
    out.write(("\n  ]" if catalog.records else "]") + ',\n  "objects": [')
    for i, entry in enumerate(entries):
        out.write(("," if i else "") + _ENTRY + entry)
    out.write("\n  ]\n}\n" if entries else "]\n}\n")


def export_catalog(catalog: Catalog) -> str:
    """The text write_catalog writes."""
    out = io.StringIO()
    write_catalog(catalog, out)
    return out.getvalue()


def import_catalog(text: str) -> Catalog:
    """The catalog in text, of schema 2 or 1.  Parsed JSON is dropped as it
    is decoded: the text once parsed, each record's object once a record.
    Each entry is decoded once, on its first reference, and a record's
    foliation once per (variety, foliation) pair: 2,679 entries and 1,104
    descriptors on the standard export.  An index names an entry, inside
    objects[k] one before k, and every entry is read by a record, in one role."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal past Python's digit limit,
        # or nesting deeper than the decoder's recursion limit
        raise ParseError(f"catalog is not valid JSON: {exc}") from exc
    del text
    if not isinstance(obj, dict):
        raise ParseError("catalog must be a JSON object")
    version = obj.get("schema_version")
    if version not in ("1", SCHEMA_VERSION):
        raise DomainError(f"unsupported schema version {version!r}, expected '1' or '2'")
    keys = _CATALOG_KEYS if version == SCHEMA_VERSION else _CATALOG_KEYS[:3]
    for key in obj:
        # a re-export would drop it
        if key not in keys:
            raise ParseError(f"{_key_path('catalog', key)} is unknown; expected " + ", ".join(keys))
    metadata = _metadata_from_json(obj.get("metadata", {}))
    record_objs, entries = obj.get("records", []), obj.get("objects", [])
    for name, value in (("records", record_objs), ("objects", entries)):
        if not isinstance(value, list):
            raise ParseError(f"catalog {name} must be a JSON array")
    records = []
    table = _Objects(entries)
    for i, record_obj in enumerate(record_objs):
        record_objs[i] = None  # record_obj holds it until the next record
        try:
            records.append(_record_from_json(record_obj, table))
        except (FoliadexError, LookupError, TypeError, ValueError, RecursionError) as exc:
            # A package error (a typed field, a validating constructor)
            # keeps its class and message; anything else, such as recipe
            # bases nested past the recursion limit, becomes a ParseError
            # naming the exception.
            if isinstance(exc, FoliadexError):
                raise type(exc)(f"malformed record at position {i}: {exc}") from exc
            raise ParseError(f"malformed record at position {i}: {exc!r}") from exc
    unread = next((k for k in range(len(entries)) if k not in table.roles), None)
    if unread is not None:
        raise ParseError(f"objects[{unread}] is read by no record, and a re-export would drop it")
    return Catalog(metadata, tuple(records), version)


# ---------------------------------------------------------------------------
# The standard catalog.


def _cone_range(kind: SynthKind, n: int):
    """The non-integer targets c <= min(r, n-2), where cones realize a Fano
    index or Seshadri value, over every rank r on dimension n."""
    for r in range(1, n):
        for c in reduced_targets(Fraction(min(r, n - 2)), q_max=8):
            if c.denominator > 1:
                yield kind, n, r, c


def _standard_requests():
    """The synth requests of the standard catalog, in export order."""
    gen, fano, sesh = SynthKind.GENERALIZED_INDEX, SynthKind.FANO_INDEX, SynthKind.SESHADRI

    # Generalized-index targets over representative (rank, dimension) pairs.
    for r, n in ((1, 3), (2, 3), (2, 4), (3, 4), (3, 5)):
        for c in reduced_targets(Fraction(r), q_max=8):
            yield gen, n, r, c
    yield gen, 2, 1, 1
    for a in range(2, 11):
        yield gen, 2, 1, Fraction(a - 1, a)

    # Fano-index targets: the cone range, then the accumulation targets
    # n-2 + 1/a for rank n-1, then the surface family.
    for n in range(3, 7):
        yield from _cone_range(fano, n)
        for a in range(2, 9):
            yield fano, n, n - 1, n - 2 + Fraction(1, a)
    for a in range(2, 9):
        yield fano, 2, 1, Fraction(1, a)

    # Seshadri targets: same cone range, the band (n-2, n-1) for rank n-1,
    # and the surface family.
    for n in range(3, 7):
        yield from _cone_range(sesh, n)
        for c in reduced_targets(Fraction(n - 1), q_max=8):
            if n - 2 < c < n - 1:
                yield sesh, n, n - 1, c
    for c in reduced_targets(Fraction(1), q_max=8):
        if c < 1:
            yield sesh, 2, 1, c


def _standard_tables():
    """The (family, parameter ranges) of the standard table rows, in export
    order; each family's builder drops the tuples that do not exist."""
    yield "wps1", {"n": range(3, 7), "m": range(1, 8)}
    yield "wps2", {"n": range(3, 7), "mprime": range(1, 8), "m": range(1, 8)}
    for a1, a2 in itertools.product(range(1, 8), repeat=2):
        # the two surface pencils alternate, one weight pair at a time
        yield "wps3", {"a1": (a1,), "a2": (a2,)}
        yield "wps4", {"a1": (a1,), "a2": (a2,)}
    # cones over the plane; a row needs d < m*rprime <= 9
    yield "cone", {"base_dim": (2,), "rprime": range(1, 4), "m": range(1, 4), "d": range(9)}
    yield "mixed", {"r": (2, 3, 4)}
    for r, m in ((2, 3), (3, 2), (4, 2)):
        yield "rc-genus", {"r": (r,), "m": (m,)}
    for n, r, m in ((4, 2, 2), (5, 3, 2), (6, 4, 3)):
        yield "rc-flat", {"n": (n,), "r": (r,), "m": (m,)}


def standard_catalog() -> Catalog:
    records = [
        synthesize(SynthesisRequest(kind, n, r, Fraction(c)))
        for kind, n, r, c in _standard_requests()
    ]
    for family, ranges in _standard_tables():
        records.extend(row.record for row in table_rows(family, ranges))
    metadata = {
        "generator": "foliadex",
        "description": "standard example catalog",
        "record_count": len(records),
    }
    return Catalog(metadata=metadata, records=tuple(records))
