"""Catalog container and its byte-deterministic JSON serialization.

Export writes records with a fixed key order and no timestamps, so the
same catalog always serializes to the same bytes.  Import reconstructs
the geometric objects through their validating constructors, so a
structurally impossible object fails to reconstruct at all.  Some
stored facts are derived again and compared on import: the canonical
class, which each recipe derives from its ambient and parameters, and
the ranks and leaf status a pullback or cone inherits from its base
foliation.  A stored value that differs is a DomainError.  Every object
of a record must have exactly the keys its export writes, or the import
is a ParseError naming the key.  A record's variety must be a bundle,
a weighted projective space or a cone, the ambients compute_invariants
accepts; a polarized base is accepted only as a cone's base or as a
base foliation's ambient.  Stored invariants and check outcomes are
parsed verbatim rather than recomputed, so an edited invariant survives
the round trip and is caught by the verification layer.
"""

from __future__ import annotations

import itertools
import json
import marshal
from fractions import Fraction
from typing import Optional, get_args

from . import jsontext
from .bundle import BundleVariety, Positivity
from .errors import DomainError, FoliadexError, ParseError
from .foliation import FoliationDescriptor, LeafStatus, Recipe
from .lattice import (
    Class2,
    parse_rational,
    reduced_targets,
    render_optional,
    render_rational,
)
from .rankone import (
    GeneralizedCone,
    PolarizedBase,
    RankOneClass,
    SingularityClass,
    WeightedProjectiveSpace,
)
from .report import CheckOutcome, CheckStatus, InvariantReport
from .synthesis import (
    ExampleRecord,
    SynthesisRequest,
    SynthKind,
    synthesize,
)
from .tables import table_rows
from .value import Frozen

SCHEMA_VERSION = "1"


class Catalog(Frozen):
    __slots__ = ("metadata", "records")
    metadata: dict
    records: tuple[ExampleRecord, ...]

    def __init__(
        self, metadata: dict | None = None, records: tuple[ExampleRecord, ...] = ()
    ) -> None:
        seen = set()
        for record in records:
            if record.id in seen:
                raise DomainError(f"duplicate record id {record.id!r}")
            seen.add(record.id)
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)
        object.__setattr__(self, "records", records)


# ---------------------------------------------------------------------------
# Serialization.


_BASE_FIELDS = ("dim", "is_projective_space", "singularity_class", "label")

# variety family -> (ambient class, its fields after "family", in export order)
_VARIETIES = {
    "bundle": (BundleVariety, ("base_dim", "m", "b")),
    "wps": (WeightedProjectiveSpace, ("weights",)),
    "cone": (GeneralizedCone, ("base", "m", "vertex_rank")),
    "polarized-base": (PolarizedBase, _BASE_FIELDS),
}
_FAMILIES = {cls: family for family, (cls, _) in _VARIETIES.items()}


def _field_to_json(value):
    """A variety field as JSON: a tuple as an array, a base as an object."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, SingularityClass):
        return value.value
    if isinstance(value, PolarizedBase):
        return {name: _field_to_json(getattr(value, name)) for name in _BASE_FIELDS}
    return value


def _variety_to_json(variety) -> dict:
    family = _FAMILIES[type(variety)]
    fields_json = {name: _field_to_json(getattr(variety, name)) for name in _VARIETIES[family][1]}
    return {"family": family, **fields_json}


_NOUNS = {int: "an integer", bool: "a boolean", str: "a string", list: "a JSON array"}


def _typed(value, kind: type, path: str, key: str):
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
    The try blocks are inline because a wrapper taking the fields as
    keywords would cost about 10 ms per import of the standard catalog.
    """
    return type(exc)(f"{path}: {exc}")


def _rational(text, path: str, key: str) -> Fraction:
    """The rational literal at path.key."""
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise ParseError(f"{path}.{key}: {exc}") from None


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


# the variety fields that are not integers
_FIELD_TYPES = {"is_projective_space": bool, "label": str}


def _field_from_json(name: str, value, path: str):
    """A variety field read from JSON, the inverse of _field_to_json."""
    if name in ("b", "weights"):
        return tuple(_typed(entry, int, path, name) for entry in _typed(value, list, path, name))
    if name == "base":
        return _variety_from_json(value, f"{path}.base", "polarized-base")
    if name == "singularity_class":
        return _enum(SingularityClass, value, path, name)
    return _typed(value, _FIELD_TYPES.get(name, int), path, name)


def _variety_from_json(obj, path: str, family: Optional[str] = None):
    """An ambient from its JSON object; a cone's base is stored without
    its family, which is given."""
    stored = ("family",) if family is None else ()
    if family is None:
        if not isinstance(obj, dict):
            raise ParseError(f"{path} must be a JSON object")
        family = _typed(obj.get("family"), str, path, "family")
        if family not in _VARIETIES:
            raise _not_one_of(_VARIETIES, family, path, "family")
    cls, names = _VARIETIES[family]
    values = _fields(obj, path, stored + names)[len(stored):]
    fields = {name: _field_from_json(name, value, path) for name, value in zip(names, values)}
    try:
        return cls(**fields)
    except DomainError as exc:
        raise _refused(path, exc) from None


# class type -> its coefficient names, in export order
_CANONICAL = {RankOneClass: ("s",), Class2: ("beta", "gamma")}

# kind -> (recipe class, its parameter names in export order)
_RECIPES = {r.kind: (r, r.__slots__) for r in get_args(Recipe)}


def _fol_to_json(fol: FoliationDescriptor, include_ambient: bool) -> dict:
    obj: dict = {}
    if include_ambient:
        obj["ambient"] = _variety_to_json(fol.ambient)
    recipe = fol.recipe
    obj["recipe"] = recipe.kind
    params = {name: getattr(recipe, name) for name in _RECIPES[recipe.kind][1]}
    if "base" in params:
        params["base"] = _fol_to_json(params["base"], include_ambient=True)
    obj["recipe_params"] = params
    obj["rank"] = fol.rank
    obj["algebraic_rank"] = fol.algebraic_rank
    canonical = fol.canonical
    obj["canonical"] = {
        name: render_rational(getattr(canonical, name)) for name in _CANONICAL[type(canonical)]
    }
    obj["leaf_rc"] = fol.leaf_rc.value
    obj["provenance"] = fol.provenance
    return obj


_FOLIATION_FIELDS = (
    "recipe", "recipe_params", "rank", "algebraic_rank", "canonical", "leaf_rc", "provenance",
)


def _recipe_from_json(kind, params, path: str) -> Recipe:
    """A recipe from its kind and exactly its parameters; base recurses."""
    if _typed(kind, str, path, "recipe") not in _RECIPES:
        raise _not_one_of(_RECIPES, kind, path, "recipe")
    recipe, names = _RECIPES[kind]
    path = f"{path}.recipe_params"
    values = _fields(params, path, names)
    fields = {
        name: _fol_from_json(value, f"{path}.base")
        if name == "base" else _typed(value, int, path, name)
        for name, value in zip(names, values)
    }
    try:
        return recipe(**fields)
    except DomainError as exc:
        raise _refused(path, exc) from None


def _fol_from_json(obj, path: str, ambient=None) -> FoliationDescriptor:
    """A descriptor whose stored canonical class must equal the derived one.

    A recipe's base foliation stores its own ambient; a record's
    foliation is given the record's variety.
    """
    if ambient is None:
        ambient_obj, *values = _fields(obj, path, ("ambient", *_FOLIATION_FIELDS))
        ambient = _variety_from_json(ambient_obj, f"{path}.ambient")
    else:
        values = _fields(obj, path, _FOLIATION_FIELDS)
    kind, params, rank, algebraic_rank, canonical, leaf_rc, provenance = values
    cls = RankOneClass if isinstance(canonical, dict) and "s" in canonical else Class2
    names = _CANONICAL[cls]
    parts = _fields(canonical, f"{path}.canonical", names)
    stored = cls(*(_rational(part, f"{path}.canonical", name) for name, part in zip(names, parts)))
    recipe = _recipe_from_json(kind, params, path)
    try:
        fol = FoliationDescriptor(
            ambient=ambient,
            rank=_typed(rank, int, path, "rank"),
            algebraic_rank=_typed(algebraic_rank, int, path, "algebraic_rank"),
            recipe=recipe,
            leaf_rc=_enum(LeafStatus, leaf_rc, path, "leaf_rc"),
            provenance=_typed(provenance, str, path, "provenance"),
        )
    except DomainError as exc:
        raise _refused(path, exc) from None
    if stored != fol.canonical:
        raise DomainError(
            f"{path}.canonical: stored canonical class {stored} differs from {fol.canonical}, "
            f"derived from the {fol.recipe.kind} recipe"
        )
    return fol


def _optional_rational_from_json(text: Optional[str], key: str) -> Optional[Fraction]:
    return None if text is None else _rational(text, "invariants", key)


_FLAGS = Positivity.__slots__


def _invariants_to_json(inv: InvariantReport) -> dict:
    return {
        "gen_index": render_optional(inv.gen_index, None),
        "fano_index": render_optional(inv.fano_index, None),
        "seshadri_antican": render_optional(inv.seshadri_antican, None),
        "positivity": {name: getattr(inv.positivity, name) for name in _FLAGS},
    }


def _invariants_from_json(obj) -> InvariantReport:
    gen_index, fano_index, seshadri_antican, flags = _fields(
        obj, "invariants", ("gen_index", "fano_index", "seshadri_antican", "positivity")
    )
    path = "invariants.positivity"
    flags = _fields(flags, path, _FLAGS)
    flags = {name: _typed(flag, bool, path, name) for name, flag in zip(_FLAGS, flags)}
    try:
        positivity = Positivity(**flags)
    except DomainError as exc:
        raise _refused(path, exc) from None
    try:
        return InvariantReport(
            gen_index=_optional_rational_from_json(gen_index, "gen_index"),
            fano_index=_optional_rational_from_json(fano_index, "fano_index"),
            seshadri_antican=_optional_rational_from_json(seshadri_antican, "seshadri_antican"),
            positivity=positivity,
        )
    except DomainError as exc:
        raise _refused("invariants", exc) from None


def _request_to_json(request: Optional[SynthesisRequest]) -> Optional[dict]:
    if request is None:
        return None
    return {
        "kind": request.kind.value,
        "n": request.n,
        "r": request.r,
        "c": render_rational(request.c),
    }


def _request_from_json(obj) -> Optional[SynthesisRequest]:
    if obj is None:
        return None
    kind, n, r, c = _fields(obj, "request", ("kind", "n", "r", "c"))
    try:
        return SynthesisRequest(
            kind=_enum(SynthKind, kind, "request", "kind"),
            n=_typed(n, int, "request", "n"),
            r=_typed(r, int, "request", "r"),
            c=_rational(c, "request", "c"),
        )
    except DomainError as exc:
        raise _refused("request", exc) from None


def record_to_json(record: ExampleRecord) -> dict:
    """JSON object for one record, exactly as it appears in an export."""
    return {
        "id": record.id,
        "request": _request_to_json(record.request),
        "branch": record.branch,
        "variety": _variety_to_json(record.variety),
        "foliation": _fol_to_json(record.foliation, include_ambient=False),
        "invariants": _invariants_to_json(record.invariants),
        "checks": [
            {"name": c.name, "status": c.status.value, "detail": c.detail}
            for c in record.checks
        ],
    }


def _check_from_json(obj, path: str, decoded: dict) -> CheckOutcome:
    key = marshal.dumps(obj)
    check = decoded.get(key)
    if check is None:
        name, status, detail = _fields(obj, path, ("name", "status", "detail"))
        check = decoded[key] = CheckOutcome(
            _typed(name, str, path, "name"),
            _enum(CheckStatus, status, path, "status"),
            _typed(detail, str, path, "detail"),
        )
    return check


def _record_from_json(obj, decoded: dict) -> ExampleRecord:
    """The record of obj, sharing what an earlier record of the same import
    decoded from equal JSON.

    decoded maps the marshal bytes of a record's (variety, foliation,
    invariants) JSON to its (descriptor, invariants), and those of a check
    object to its outcome.  A decode depends on its JSON alone, and marshal
    tells true from 1 and 1 from 1.0, so equal bytes decode alike.  Only a
    decode that succeeded is stored, and the fields are read in the same
    order either way, so a malformed record fails with its own message.
    """
    names = ("id", "request", "branch", "variety", "foliation", "invariants", "checks")
    record_id, request, branch, variety, foliation, invariants, checks = _fields(
        obj, "record", names
    )
    key = marshal.dumps((variety, foliation, invariants))
    geometry = decoded.get(key)
    if geometry is None:
        ambient = _variety_from_json(variety, "variety")
        if isinstance(ambient, PolarizedBase):
            raise _not_one_of(("bundle", "wps", "cone"), "polarized-base", "variety", "family")
    record_id = _typed(record_id, str, "record", "id")
    request = _request_from_json(request)
    branch = _typed(branch, str, "record", "branch")
    if geometry is None:
        geometry = decoded[key] = (
            _fol_from_json(foliation, "foliation", ambient=ambient),
            _invariants_from_json(invariants),
        )
    fol, inv = geometry
    checks = tuple(
        _check_from_json(c, f"checks[{i}]", decoded)
        for i, c in enumerate(_typed(checks, list, "record", "checks"))
    )
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
# schema_version and takes metadata and records as empty when absent
_CATALOG_KEYS = ("schema_version", "metadata", "records")


def _catalog_pieces(catalog: Catalog):
    """The export's text in pieces, each record rendered when it is reached."""
    yield from jsontext.pieces({
        "schema_version": SCHEMA_VERSION,
        "metadata": catalog.metadata,
        "records": map(record_to_json, catalog.records),
    })
    yield "\n"


def write_catalog(catalog: Catalog, out) -> None:
    """Write the export of catalog to the text stream out, one record at a
    time, so only one record's JSON exists at once."""
    for piece in _catalog_pieces(catalog):
        out.write(piece)


def export_catalog(catalog: Catalog) -> str:
    """The text write_catalog writes."""
    return "".join(_catalog_pieces(catalog))


def import_catalog(text: str) -> Catalog:
    """The catalog in text.  Parsed JSON is dropped as it is decoded: the
    text once it is parsed, each record's object once it is a record.

    Each distinct (variety, foliation, invariants) of the records is
    decoded once, and so is each distinct check object; records equal in
    these share one object.  On the standard export that is 1,104
    geometries for 1,833 records and 941 checks for 5,829.  The table of
    decodes lives for this call only.
    """
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
    if version != SCHEMA_VERSION:
        raise DomainError(
            f"unsupported schema version {version!r}, expected {SCHEMA_VERSION!r}"
        )
    for key in obj:
        # a re-export would drop it
        if key not in _CATALOG_KEYS:
            raise ParseError(
                f"{_key_path('catalog', key)} is unknown; expected " + ", ".join(_CATALOG_KEYS)
            )
    metadata = _metadata_from_json(obj.get("metadata", {}))
    record_objs = obj.get("records", [])
    if not isinstance(record_objs, list):
        raise ParseError("catalog records must be a JSON array")
    records = []
    decoded: dict = {}
    for i, record_obj in enumerate(record_objs):
        record_objs[i] = None  # record_obj holds it until the next record
        try:
            records.append(_record_from_json(record_obj, decoded))
        except (FoliadexError, LookupError, TypeError, ValueError, RecursionError) as exc:
            # A package error (a typed field, a validating constructor)
            # keeps its class and message; anything else, such as recipe
            # bases nested past the recursion limit, becomes a ParseError
            # naming the exception.
            if isinstance(exc, FoliadexError):
                raise type(exc)(f"malformed record at position {i}: {exc}") from exc
            raise ParseError(f"malformed record at position {i}: {exc!r}") from exc
    return Catalog(metadata=metadata, records=tuple(records))


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
