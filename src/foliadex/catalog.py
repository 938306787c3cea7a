"""Catalog container and its byte-deterministic JSON serialization.

Export writes records with a fixed key order and no timestamps, so the
same catalog always serializes to the same bytes.  Import reconstructs
the geometric objects through their validating constructors, so a
structurally impossible object fails to reconstruct at all.  Two stored
facts are derived again and compared on import: the canonical class,
which each recipe derives from its ambient and parameters, and the leaf
status a pullback or cone inherits from its base foliation.  A stored
value that differs is a DomainError.  Stored invariants and check
outcomes are parsed verbatim rather than recomputed, so an edited
invariant survives the round trip and is caught by the verification
layer.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, get_args

from . import jsontext
from .bundle import BundleVariety, Positivity
from .errors import DomainError, FoliadexError, ParseError, UnsupportedRequest
from .families import (
    cone_table_record,
    mixed_record,
    rc_flat_record,
    rc_genus_record,
    wps1_record,
    wps2_record,
    wps3_record,
    wps4_record,
)
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

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Catalog:
    metadata: dict = field(default_factory=dict)
    records: tuple[ExampleRecord, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for record in self.records:
            if record.id in seen:
                raise DomainError(f"duplicate record id {record.id!r}")
            seen.add(record.id)


# ---------------------------------------------------------------------------
# Serialization.


def _base_fields(base: PolarizedBase) -> dict:
    return {
        "dim": base.dim,
        "is_projective_space": base.is_projective_space,
        "singularity_class": base.singularity_class.value,
        "label": base.label,
    }


def _variety_to_json(variety) -> dict:
    if isinstance(variety, BundleVariety):
        return {
            "family": "bundle",
            "base_dim": variety.base_dim,
            "m": variety.m,
            "b": list(variety.b),
        }
    if isinstance(variety, WeightedProjectiveSpace):
        return {"family": "wps", "weights": list(variety.weights)}
    if isinstance(variety, GeneralizedCone):
        return {
            "family": "cone",
            "base": _base_fields(variety.base),
            "m": variety.m,
            "vertex_rank": variety.vertex_rank,
        }
    if isinstance(variety, PolarizedBase):
        return {"family": "polarized-base", **_base_fields(variety)}
    raise TypeError(f"cannot serialize ambient {variety!r}")


def _int(value, name: str) -> int:
    """An integer field read from JSON; true and false are not integers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return value


def _bool(value, name: str) -> bool:
    """A boolean field read from JSON; 0 and 1 are not booleans."""
    if not isinstance(value, bool):
        raise ParseError(f"{name} must be a boolean, got {value!r}")
    return value


def _str(value, name: str) -> str:
    """A string field read from JSON."""
    if not isinstance(value, str):
        raise ParseError(f"{name} must be a string, got {value!r}")
    return value


def _base_from_json(obj: dict) -> PolarizedBase:
    return PolarizedBase(
        dim=_int(obj["dim"], "dim"),
        is_projective_space=_bool(obj["is_projective_space"], "is_projective_space"),
        singularity_class=SingularityClass(obj["singularity_class"]),
        label=_str(obj["label"], "label"),
    )


def _variety_from_json(obj: dict):
    family = obj["family"]
    if family == "bundle":
        return BundleVariety(
            base_dim=_int(obj["base_dim"], "base_dim"),
            m=_int(obj["m"], "m"),
            b=tuple(_int(bi, "b") for bi in obj["b"]),
        )
    if family == "wps":
        return WeightedProjectiveSpace(tuple(_int(a, "weights") for a in obj["weights"]))
    if family == "cone":
        return GeneralizedCone(
            base=_base_from_json(obj["base"]),
            m=_int(obj["m"], "m"),
            vertex_rank=_int(obj["vertex_rank"], "vertex_rank"),
        )
    if family == "polarized-base":
        return _base_from_json(obj)
    raise DomainError(f"unknown variety family {family!r}")


# kind -> (recipe class, its parameter names in export order)
_RECIPES = {r.kind: (r, tuple(f.name for f in fields(r))) for r in get_args(Recipe)}


def _key_path(prefix: str, key: str) -> str:
    """prefix.key, or prefix['key'] for a key that is not an identifier."""
    return f"{prefix}.{key}" if key.isidentifier() else f"{prefix}[{key!r}]"


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
    if isinstance(fol.canonical, Class2):
        obj["canonical"] = {
            "beta": render_rational(fol.canonical.beta),
            "gamma": render_rational(fol.canonical.gamma),
        }
    else:
        obj["canonical"] = {"s": render_rational(fol.canonical.s)}
    obj["leaf_rc"] = fol.leaf_rc.value
    obj["provenance"] = fol.provenance
    return obj


def _recipe_from_json(kind, params: dict) -> Recipe:
    """A recipe from its kind and exactly its parameters; base recurses."""
    if _str(kind, "recipe") not in _RECIPES:
        raise DomainError(f"unknown recipe {kind!r}")
    recipe, names = _RECIPES[kind]
    if not isinstance(params, dict):
        raise ParseError("recipe_params must be a JSON object")
    for key in params:
        if key not in names:
            raise ParseError(
                f"{_key_path('recipe_params', key)} is not a parameter of the {kind} recipe"
            )
    values = {}
    for name in names:
        path = f"recipe_params.{name}"
        if name not in params:
            raise ParseError(f"{path} is missing")
        value = params[name]
        values[name] = _fol_from_json(value) if name == "base" else _int(value, path)
    return recipe(**values)


def _fol_from_json(obj: dict, ambient=None) -> FoliationDescriptor:
    """A descriptor whose stored canonical class must equal the derived one."""
    if ambient is None:
        ambient = _variety_from_json(obj["ambient"])
    canonical_obj = obj["canonical"]
    if "s" in canonical_obj:
        stored = RankOneClass(parse_rational(canonical_obj["s"]))
    else:
        stored = Class2(
            parse_rational(canonical_obj["beta"]),
            parse_rational(canonical_obj["gamma"]),
        )
    fol = FoliationDescriptor(
        ambient=ambient,
        rank=_int(obj["rank"], "rank"),
        algebraic_rank=_int(obj["algebraic_rank"], "algebraic_rank"),
        recipe=_recipe_from_json(obj["recipe"], obj["recipe_params"]),
        leaf_rc=LeafStatus(obj["leaf_rc"]),
        provenance=_str(obj["provenance"], "provenance"),
    )
    if stored != fol.canonical:
        raise DomainError(
            f"stored canonical class {stored} differs from {fol.canonical}, "
            f"derived from the {fol.recipe.kind} recipe"
        )
    return fol


def _optional_rational_from_json(text: Optional[str]) -> Optional[Fraction]:
    return None if text is None else parse_rational(text)


def _invariants_to_json(inv: InvariantReport) -> dict:
    return {
        "gen_index": render_optional(inv.gen_index, None),
        "fano_index": render_optional(inv.fano_index, None),
        "seshadri_antican": render_optional(inv.seshadri_antican, None),
        "positivity": {
            "pseff": inv.positivity.pseff,
            "big": inv.positivity.big,
            "nef": inv.positivity.nef,
            "ample": inv.positivity.ample,
        },
    }


def _invariants_from_json(obj: dict) -> InvariantReport:
    flags = obj["positivity"]
    return InvariantReport(
        gen_index=_optional_rational_from_json(obj["gen_index"]),
        fano_index=_optional_rational_from_json(obj["fano_index"]),
        seshadri_antican=_optional_rational_from_json(obj["seshadri_antican"]),
        positivity=Positivity(
            pseff=_bool(flags["pseff"], "pseff"),
            big=_bool(flags["big"], "big"),
            nef=_bool(flags["nef"], "nef"),
            ample=_bool(flags["ample"], "ample"),
        ),
    )


def _request_to_json(request: Optional[SynthesisRequest]) -> Optional[dict]:
    if request is None:
        return None
    return {
        "kind": request.kind.value,
        "n": request.n,
        "r": request.r,
        "c": render_rational(request.c),
    }


def _request_from_json(obj: Optional[dict]) -> Optional[SynthesisRequest]:
    if obj is None:
        return None
    return SynthesisRequest(
        kind=SynthKind(obj["kind"]),
        n=_int(obj["n"], "n"),
        r=_int(obj["r"], "r"),
        c=parse_rational(obj["c"]),
    )


def _record_to_json(record: ExampleRecord) -> dict:
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


def _record_from_json(obj: dict) -> ExampleRecord:
    return ExampleRecord(
        id=_str(obj["id"], "id"),
        request=_request_from_json(obj["request"]),
        branch=_str(obj["branch"], "branch"),
        foliation=_fol_from_json(
            obj["foliation"], ambient=_variety_from_json(obj["variety"])
        ),
        invariants=_invariants_from_json(obj["invariants"]),
        checks=tuple(
            CheckOutcome(
                name=_str(c["name"], "check name"),
                status=CheckStatus(c["status"]),
                detail=_str(c["detail"], "check detail"),
            )
            for c in obj["checks"]
        ),
    )


def record_to_json(record: ExampleRecord) -> dict:
    """JSON object for one record, exactly as it appears in an export."""
    return _record_to_json(record)


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


def export_catalog(catalog: Catalog) -> str:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "metadata": catalog.metadata,
        "records": [_record_to_json(r) for r in catalog.records],
    }
    return jsontext.render(obj) + "\n"


def import_catalog(text: str) -> Catalog:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal past Python's digit limit,
        # or nesting deeper than the decoder's recursion limit
        raise ParseError(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("catalog must be a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DomainError(
            f"unsupported schema version {version!r}, expected {SCHEMA_VERSION!r}"
        )
    metadata = _metadata_from_json(obj.get("metadata", {}))
    record_objs = obj.get("records", [])
    if not isinstance(record_objs, list):
        raise ParseError("catalog records must be a JSON array")
    records = []
    for i, record_obj in enumerate(record_objs):
        try:
            records.append(_record_from_json(record_obj))
        except (FoliadexError, LookupError, TypeError, ValueError, RecursionError) as exc:
            # A package error (a typed field, a validating constructor)
            # keeps its class and message; anything else (a missing key,
            # an unknown enum value, an inconsistent invariant report,
            # recipe bases nested past the recursion limit) becomes a
            # ParseError naming the exception.
            if isinstance(exc, FoliadexError):
                raise type(exc)(f"malformed record at position {i}: {exc}") from exc
            raise ParseError(f"malformed record at position {i}: {exc!r}") from exc
    return Catalog(metadata=metadata, records=tuple(records))


# ---------------------------------------------------------------------------
# The standard catalog.


def _try_synth(records: list[ExampleRecord], kind: SynthKind, n: int, r: int, c) -> None:
    try:
        records.append(synthesize(SynthesisRequest(kind, n, r, Fraction(c))))
    except UnsupportedRequest:
        pass


def standard_catalog() -> Catalog:
    records: list[ExampleRecord] = []

    # Generalized-index targets over representative (rank, dimension) pairs.
    for r, n in ((1, 3), (2, 3), (2, 4), (3, 4), (3, 5)):
        for c in reduced_targets(Fraction(r), q_max=8):
            _try_synth(records, SynthKind.GENERALIZED_INDEX, n, r, c)
    _try_synth(records, SynthKind.GENERALIZED_INDEX, 2, 1, 1)
    for a in range(2, 11):
        _try_synth(records, SynthKind.GENERALIZED_INDEX, 2, 1, Fraction(a - 1, a))

    # Fano-index targets: the cone range, then the accumulation targets
    # n-2 + 1/a for rank n-1, then the surface family.
    for n in range(3, 7):
        for r in range(1, n):
            bound = Fraction(min(r, n - 2))
            for c in reduced_targets(bound, q_max=8):
                if c.denominator > 1:
                    _try_synth(records, SynthKind.FANO_INDEX, n, r, c)
        for a in range(2, 9):
            _try_synth(
                records, SynthKind.FANO_INDEX, n, n - 1, n - 2 + Fraction(1, a)
            )
    for a in range(2, 9):
        _try_synth(records, SynthKind.FANO_INDEX, 2, 1, Fraction(1, a))

    # Seshadri targets: same cone range, the band (n-2, n-1) for rank n-1,
    # and the surface family.
    for n in range(3, 7):
        for r in range(1, n):
            bound = Fraction(min(r, n - 2))
            for c in reduced_targets(bound, q_max=8):
                if c.denominator > 1:
                    _try_synth(records, SynthKind.SESHADRI, n, r, c)
        for c in reduced_targets(Fraction(n - 1), q_max=8):
            if n - 2 < c < n - 1:
                _try_synth(records, SynthKind.SESHADRI, n, n - 1, c)
    for c in reduced_targets(Fraction(1), q_max=8):
        if c < 1:
            _try_synth(records, SynthKind.SESHADRI, 2, 1, c)

    # Weighted family sweeps.
    for n in range(3, 7):
        for m in range(1, 8):
            records.append(wps1_record(n, m))
    coprime_pairs = [
        (a, b)
        for a in range(1, 8)
        for b in range(a, 8)
        if math.gcd(a, b) == 1
    ]
    for n in range(3, 7):
        for mprime, m in coprime_pairs:
            records.append(wps2_record(n, mprime, m))
    for a1, a2 in coprime_pairs:
        records.append(wps3_record(a1, a2))
        records.append(wps4_record(a1, a2))

    # Cone rows over the plane.
    for rprime, m in itertools.product(range(1, 4), range(1, 4)):
        for d in range(0, m * rprime):
            records.append(cone_table_record(2, rprime, m, d))

    # Index-gap and boundary families.
    for r in (2, 3, 4):
        records.append(mixed_record(r))
    for r, m in ((2, 3), (3, 2), (4, 2)):
        records.append(rc_genus_record(r, m))
    for n, r, m in ((4, 2, 2), (5, 3, 2), (6, 4, 3)):
        records.append(rc_flat_record(n, r, m))

    unique: dict[str, ExampleRecord] = {}
    for record in records:
        unique.setdefault(record.id, record)
    final = tuple(unique.values())
    metadata = {
        "generator": "foliadex",
        "description": "standard example catalog",
        "record_count": len(final),
    }
    return Catalog(metadata=metadata, records=final)
