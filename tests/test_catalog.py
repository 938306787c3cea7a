"""Catalog serialization and the standard example catalog."""

import contextlib
import hashlib
import io
import json
import re
import sys
import time
import tracemalloc
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_foliation import arbitrary_foliations

from foliadex import (
    BundleVariety,
    Catalog,
    SCHEMA_VERSION,
    CheckOutcome,
    CheckStatus,
    Class2,
    DomainError,
    ExampleRecord,
    FoliadexError,
    FoliationDescriptor,
    GeneralizedCone,
    InvariantReport,
    ParseError,
    Positivity,
    RankOneClass,
    SynthesisRequest,
    SynthKind,
    WeightedProjectiveSpace,
    compute_invariants,
    cone_foliation,
    export_catalog,
    import_catalog,
    projective_space_base,
    pullback_over_bundle,
    record_to_json,
    verify_record,
    write_catalog,
)
from foliadex import catalog
from foliadex.catalog import _RECIPES, _VARIETIES
from foliadex.cli import main
from foliadex.synthesis import assemble_record, record_id, request_id
from foliadex.tables import FAMILY_PARAMS, build
from foliadex.value import Value


def test_round_trip_preserves_objects(std_catalog):
    text = export_catalog(std_catalog)
    back = import_catalog(text)
    assert back.metadata == std_catalog.metadata
    assert back.records == std_catalog.records


def test_round_trip_is_byte_identical(std_catalog):
    text = export_catalog(std_catalog)
    assert export_catalog(import_catalog(text)) == text
    assert text.endswith("\n")


# the size and sha256 of the standard export
EXPORT_PIN = (1_166_381, "1bdd42e7c34be789982c553f5542d5424749469a0dec1f0efe64356cf0689cd3")


def _pin(text: str) -> tuple:
    data = text.encode("utf-8")
    return len(data), hashlib.sha256(data).hexdigest()


def test_export_bytes_are_pinned(std_catalog):
    # The standard export is a published artifact: any change to how a
    # record renders must show up here, not slip through a round trip.
    assert _pin(export_catalog(std_catalog)) == EXPORT_PIN


def _inline(catalog_: Catalog, version: str = SCHEMA_VERSION) -> dict:
    """The JSON of catalog_ with every object written where it is used, as
    schema 1 stores it, and no objects array."""
    records = [record_to_json(record) for record in catalog_.records]
    return {"schema_version": version, "metadata": catalog_.metadata, "records": records}


def _tabled(inline: dict) -> dict:
    """The schema 2 JSON of an inline catalog, built from its JSON alone:
    each variety, foliation, base foliation and its ambient, invariant
    report and check replaced by the index of its entry, an entry per
    distinct json.dumps text, in first-use order, with the objects nested
    in it replaced first."""
    entries = {}

    def ref(obj):
        obj = dict(obj)
        if "ambient" in obj:
            obj["ambient"] = ref(obj["ambient"])
        params = obj.get("recipe_params", {})
        if "base" in params:
            obj["recipe_params"] = {**params, "base": ref(params["base"])}
        return entries.setdefault(json.dumps(obj), len(entries))

    records = [
        {
            **record,
            "variety": ref(record["variety"]),
            "foliation": ref(record["foliation"]),
            "invariants": ref(record["invariants"]),
            "checks": [ref(check) for check in record["checks"]],
        }
        for record in inline["records"]
    ]
    objects = [json.loads(text) for text in entries]
    return {**inline, "schema_version": "2", "records": records, "objects": objects}


def test_schema_1_export_imports_and_re_exports_to_the_pinned_bytes(std_catalog):
    # The inline layout json.dumps writes is byte for byte the schema 1
    # export; its import re-exports as schema 2.
    old = json.dumps(_inline(std_catalog, "1"), indent=2) + "\n"
    assert _pin(old) == (
        3_665_965, "cb67558f760ddbd3d4b575b4eab262818f9bb3c35d7a6885e1d31891aa307dbc"
    )
    again = export_catalog(import_catalog(old))
    assert _pin(again) == EXPORT_PIN


def test_catalog_import_names_the_schema_its_file_declares(std_catalog, tmp_path, capsys):
    path = tmp_path / "schema1.json"
    path.write_text(json.dumps(_inline(std_catalog, "1"), indent=2) + "\n")
    assert main(["catalog", "import", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "imported 1833 records (schema 1)\n"


# the metadata import_catalog admits: a flat object of scalars
FLAT_METADATA = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none()),
    max_size=4,
)


@given(FLAT_METADATA, st.sampled_from([0, 1, 2, 37]), st.integers(0, 1795))
def test_streamed_export_equals_json_dumps(std_catalog, metadata, count, start):
    catalog = Catalog(metadata=metadata, records=std_catalog.records[start:start + count])
    expected = json.dumps(_tabled(_inline(catalog)), indent=2) + "\n"
    out = io.StringIO()
    write_catalog(catalog, out)
    assert out.getvalue() == expected
    assert export_catalog(catalog) == expected


class _Discard:
    """A text stream that keeps nothing."""

    def write(self, text):
        return len(text)


def test_streamed_export_holds_one_record_at_a_time(std_catalog):
    # export_catalog, which holds the whole text, peaks at about 7 MB
    tracemalloc.start()
    try:
        write_catalog(std_catalog, _Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


WINDOW = "enumeration (d <= 3, 1 <= c - b1*d <= 6)"


def _with_rectangle_details(std_catalog):
    """The standard export with each audit detail naming the former rectangle.

    Audits once enumerated d <= 3, c <= 3*b1 + 6 in the (L, F) basis;
    the export is otherwise unchanged by the move to the fixed window.
    """
    obj = _inline(std_catalog, "1")
    for record_obj, record in zip(obj["records"], std_catalog.records):
        for check in record_obj["checks"]:
            if WINDOW in check["detail"]:
                rectangle = f"enumeration (d <= 3, c <= {3 * record.variety.b1 + 6})"
                check["detail"] = check["detail"].replace(WINDOW, rectangle)
    return json.dumps(obj, indent=2) + "\n"


def test_export_differs_from_the_rectangle_export_only_in_audit_details(std_catalog):
    data = _with_rectangle_details(std_catalog).encode("utf-8")
    assert len(data) == 3_663_290
    assert (
        hashlib.sha256(data).hexdigest()
        == "c406488a4cab4ad1683f787a6dc7f381e03eb4f4a8fb91b9fe9fa32b0e9af1d4"
    )


def test_rectangle_export_still_verifies(std_catalog, tmp_path, capsys):
    path = tmp_path / "rectangle.json"
    path.write_text(_with_rectangle_details(std_catalog))
    assert main(["verify", "--catalog", str(path)]) == 0
    capsys.readouterr()


def test_oracle_sweep_report_bytes_are_pinned(capsys):
    # One audit per distinct class must leave the published sweep report
    # byte for byte as the per-row sweep wrote it.
    assert main(["verify", "--grid", "oracle", "--out", "json"]) == 0
    data = capsys.readouterr().out.encode("utf-8")
    assert (
        hashlib.sha256(data).hexdigest()
        == "a0bfdc567b127721d156bd6362e605b30027e0882be3f879e50a6eff51a35042"
    )


def test_failing_oracle_sweep_report_bytes_are_pinned(capsys, monkeypatch):
    # An enumeration one above the true index fails every audit; the pin
    # holds the failure detail text (closed form, direct formula,
    # enumeration) as well as the all-pass report's layout.
    from foliadex import _kernels

    exact = _kernels.best_index_bound

    def off_by_one(*args):
        num, den, d, c = exact(*args)
        return num + den, den, d, c

    monkeypatch.setattr(_kernels, "best_index_bound", off_by_one)
    argv = [
        "verify", "--grid", "oracle", "--m-max", "2", "--b1-max", "1",
        "--rprime-max", "2", "--k-max", "1", "--coeff-max", "2", "--out", "json",
    ]
    assert main(argv) == 1
    data = capsys.readouterr().out.encode("utf-8")
    assert b'"failed": 0' not in data
    assert hashlib.sha256(data).hexdigest() == (
        "c2a1f6c33a518aae2cf98eb61fd22fce8299fc25272702b4769882bca78f2ef1"
    )


def test_schema_version_gate(std_catalog):
    obj = json.loads(export_catalog(Catalog(records=std_catalog.records[:3])))
    obj["schema_version"] = "3"
    with pytest.raises(DomainError, match="^unsupported schema version '3', expected '1' or '2'$"):
        import_catalog(json.dumps(obj))
    # schema 1 has no objects array
    obj["schema_version"] = "1"
    with pytest.raises(ParseError, match=r"^catalog\.objects is unknown; expected schema_version"):
        import_catalog(json.dumps(obj))


def test_invalid_json_rejected():
    with pytest.raises(ParseError):
        import_catalog("{not json")
    with pytest.raises(ParseError):
        import_catalog("[1, 2, 3]")
    with pytest.raises(ParseError):
        import_catalog("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError):
        import_catalog('{"schema_version": "1", "records": 5}')


def test_malformed_record_rejected(std_catalog):
    obj = json.loads(export_catalog(std_catalog))
    del obj["records"][0]["foliation"]
    with pytest.raises(ParseError):
        import_catalog(json.dumps(obj))


def test_tampered_value_imports_but_fails_verification(std_catalog):
    obj = _inline(std_catalog)
    victim = next(
        r for r in obj["records"] if r["invariants"]["gen_index"] not in (None, "0")
    )
    victim["invariants"]["gen_index"] = str(
        int(victim["invariants"]["gen_index"].split("/")[0]) + 7
    )
    back = import_catalog(json.dumps(obj))
    tampered = next(r for r in back.records if r.id == victim["id"])
    report = verify_record(tampered)
    assert any(o.name == "stored-invariants-match-recomputation" for o in report.failures)


def test_structural_tamper_rejected_at_import(std_catalog):
    obj = _inline(std_catalog)
    victim = next(r for r in obj["records"] if r["variety"]["family"] == "wps")
    victim["foliation"]["rank"] = 99
    with pytest.raises(DomainError):
        import_catalog(json.dumps(obj))


def test_consistent_canonical_tamper_rejected_at_import(std_catalog):
    # Edit K and store the invariants the edited K gives, so that only a
    # derivation of K from the recipe can tell.
    record_id = "generalized-index:case1:n=3:r=2:c=9/8"
    record = next(r for r in std_catalog.records if r.id == record_id)
    assert record.foliation.canonical == Class2(-3, -48)
    edited = SimpleNamespace(ambient=record.variety, canonical=Class2(-3, -40))
    obj = _inline(std_catalog)
    victim = next(r for r in obj["records"] if r["id"] == record_id)
    victim["foliation"]["canonical"]["gamma"] = "-40"
    victim["invariants"] = record_to_json(
        ExampleRecord(
            id=record.id,
            request=record.request,
            branch=record.branch,
            foliation=record.foliation,
            invariants=compute_invariants(edited),
            checks=record.checks,
        )
    )["invariants"]
    assert victim["invariants"]["gen_index"] == "1"
    with pytest.raises(DomainError, match="stored canonical class"):
        import_catalog(json.dumps(obj))


@pytest.mark.parametrize(
    "path, named",
    [(("x",), "record.x"), (("checks", 0, "x"), "checks[0].x")],
    ids=["record-key", "check-key"],
)
def test_unknown_record_key_rejected(std_catalog, path, named):
    # a re-export would drop the key, so import refuses it by its path
    obj = _inline(Catalog(metadata={}, records=std_catalog.records[:1]))
    target = obj["records"][0]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 5
    with pytest.raises(ParseError, match=rf"^malformed record at position 0: {re.escape(named)} "):
        import_catalog(json.dumps(obj))


def test_duplicate_ids_rejected(std_catalog):
    rec = std_catalog.records[0]
    with pytest.raises(DomainError):
        Catalog(metadata={}, records=(rec, rec))


def test_standard_catalog_contents(std_catalog):
    records = std_catalog.records
    assert len(records) >= 500
    ids = [r.id for r in records]
    assert len(ids) == len(set(ids))
    assert std_catalog.metadata["record_count"] == len(records)
    for marker in ("table:mixed:", "table:rc-genus:", "table:rc-flat:", "table:wps1:"):
        assert any(i.startswith(marker) for i in ids), marker
    branches = {r.branch for r in records}
    assert {"case1", "case2", "cone", "wps1", "wps2", "wps3", "wps4", "pn"} <= branches


def test_stored_checks_all_green(std_catalog):
    for rec in std_catalog.records:
        for outcome in rec.checks:
            assert outcome.status.value != "fail", (rec.id, outcome)


def _nodes(value, path=()):
    """The path of every value inside a JSON value, containers included."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _nodes(child, path + (i,))


# each replaces a value with one of another JSON type, a huge integer or
# arrays nested DEPTH deep; "delete" removes the key or array entry instead
_DEEP = "deeply nested arrays"
_MUTATIONS = (
    "delete", None, True, 0, 1.5, "x", "1/0", [], {}, {"x": 1}, 10**30, -(10**30), _DEEP,
)


_MUTATED = dict(
    index=st.integers(0),
    node=st.integers(0),
    mutation=st.sampled_from(_MUTATIONS),
    depth=st.sampled_from((40, 900, 5000)),
)


def _mutated_catalog(std_catalog, tmp_path_factory, index, node, mutation, depth):
    """A one-record catalog file cut from the standard export, with one
    value deleted or replaced."""
    record = record_to_json(std_catalog.records[index % len(std_catalog.records)])
    paths = list(_nodes(record))[1:]
    path = paths[node % len(paths)]
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation
    obj = {"schema_version": SCHEMA_VERSION, "metadata": {}, "records": [record]}
    text = json.dumps(obj).replace(json.dumps(_DEEP), "[" * depth + "]" * depth)
    catalog = tmp_path_factory.mktemp("fuzz") / "catalog.json"
    catalog.write_text(text)
    return catalog


def _verify(catalog):
    """main's exit code and stderr for verify --catalog."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--catalog", str(catalog)])
    return code, err.getvalue()


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**_MUTATED)
def test_mutated_one_record_catalogs_end_in_one_line(
    std_catalog, tmp_path_factory, index, node, mutation, depth
):
    # A mutated one-record catalog ends verify in exit 0, 1 or 2 with at
    # most one line of stderr, and never raises out of main.
    catalog = _mutated_catalog(std_catalog, tmp_path_factory, index, node, mutation, depth)
    start = time.perf_counter()
    code, err = _verify(catalog)
    assert time.perf_counter() - start < 5.0
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    assert "Traceback" not in err


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**_MUTATED)
def test_imported_mutations_verify_to_a_report(
    std_catalog, tmp_path_factory, index, node, mutation, depth
):
    # verify decides what to compute from its own recomputation, so a
    # catalog that import accepts gets a report, whatever it stores.
    catalog = _mutated_catalog(std_catalog, tmp_path_factory, index, node, mutation, depth)
    try:
        import_catalog(catalog.read_text())
    except FoliadexError:
        return
    code, err = _verify(catalog)
    assert code in (0, 1)
    assert err == ""


# ---------------------------------------------------------------------------
# One decoded object per distinct geometry and check.


def _cone_pair(records):
    """The Fano-index cone record and the Seshadri record of the same (n, r, c)."""
    by_id = {r.id: r for r in records}
    fano = next(r for r in records if r.id.startswith("fano-index:cone:"))
    return fano, by_id[fano.id.replace("fano-index", "seshadri", 1)]


def test_import_decodes_each_distinct_geometry_once(std_catalog):
    records = import_catalog(export_catalog(std_catalog)).records
    assert len(records) == 1833
    assert len({id(r.foliation) for r in records}) == 1104
    assert len({id(r.invariants) for r in records}) == 279
    assert len({id(c) for r in records for c in r.checks}) == 941
    assert sum(len(r.checks) for r in records) == 5829


def test_schema_1_import_shares_the_objects_of_a_schema_2_import(std_catalog):
    # a schema 1 import decodes an inline object once per JSON text, so it
    # holds the objects a schema 2 import holds, and verify_catalog grades
    # 1,104 descriptors rather than 1,833
    records = import_catalog(json.dumps(_inline(std_catalog, "1"), indent=2)).records
    counts = [
        len({id(r.foliation) for r in records}),
        len({id(r.invariants) for r in records}),
        len({id(r.variety) for r in records}),
        len({id(c) for r in records for c in r.checks}),
    ]
    assert counts == [1104, 279, 402, 941]


def test_build_shares_each_repeated_cone_base_and_report(std_catalog, monkeypatch):
    # cones over P^k, the base foliations of cones and pullbacks and the
    # rank-one reports are built once per distinct geometry, so the export
    # renders each of them once
    records = std_catalog.records
    assert len({id(r.variety) for r in records}) == 610
    assert len({id(r.invariants) for r in records}) == 510
    bases = {id(r.foliation.recipe.base) for r in records if hasattr(r.foliation.recipe, "base")}
    assert len(bases) == 124
    calls = 0
    render = catalog._object

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return render(*args, **kwargs)

    monkeypatch.setattr(catalog, "_object", counted)
    catalog.write_catalog(std_catalog, io.StringIO())
    assert calls == 8380


def test_each_standard_record_rebuilds_from_its_id(std_catalog):
    # Each record is rebuilt with every cache of the package emptied, so a
    # cache that handed two constructions one object breaks an equality.
    clears = [
        value.cache_clear
        for name, module in list(sys.modules.items())
        if name.startswith("foliadex.")
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    ]
    assert len(clears) >= 5
    for record in std_catalog.records:
        for clear in clears:
            clear()
        assert build(record.id) == record, record.id


def test_edited_shared_invariants_fail_every_record_that_refers_to_them(std_catalog, tmp_path):
    obj = json.loads(export_catalog(std_catalog))
    referrers = {}
    for record in obj["records"]:
        referrers.setdefault(record["invariants"], []).append(record["id"])
    k = max(
        (k for k in referrers if obj["objects"][k]["gen_index"] is not None),
        key=lambda k: len(referrers[k]),
    )
    assert len(referrers[k]) == 34
    entry = obj["objects"][k]
    entry["gen_index"] = str(Fraction(entry["gen_index"]) + 7)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--catalog", str(path), "--out", "json"]) == 1
    failures = json.loads(out.getvalue())["failures"]
    assert {f["check"] for f in failures} == {"stored-invariants-match-recomputation"}
    assert [f["record"] for f in failures] == referrers[k]


def test_records_sharing_a_geometry_keep_their_own_fields(std_catalog):
    fano, sesh = _cone_pair(import_catalog(export_catalog(std_catalog)).records)
    assert fano.foliation is sesh.foliation and fano.invariants is sesh.invariants
    assert fano.id != sesh.id
    assert fano.request.kind.value == "fano-index" and sesh.request.kind.value == "seshadri"
    assert fano.checks[0].detail.startswith("fano_index = ")
    assert sesh.checks[0].detail.startswith("seshadri_antican = ")
    std = {r.id: r for r in std_catalog.records}
    assert (fano, sesh) == (std[fano.id], std[sesh.id])


def test_shared_decodes_tell_true_from_one(std_catalog):
    # dict == holds {"pseff": 1} equal to {"pseff": True}; the typed reads
    # must still refuse the second record, at its own position
    first = record_to_json(std_catalog.records[0])
    assert first["invariants"]["positivity"]["pseff"] is True
    second = json.loads(json.dumps(first))
    second["id"] += ":copy"
    second["invariants"]["positivity"]["pseff"] = 1
    text = json.dumps({"schema_version": SCHEMA_VERSION, "records": [first, second]})
    refusal = "malformed record at position 1: invariants.positivity.pseff must be a boolean, got 1"
    with pytest.raises(ParseError, match=rf"^{re.escape(refusal)}$"):
        import_catalog(text)


def test_import_decodes_each_distinct_variety_and_base_once(std_catalog, monkeypatch):
    # one decode per variety entry (402 records' varieties and one base's
    # ambient alone), per (variety, foliation) pair of the records and per
    # base foliation entry, of 1,875 varieties and 1,875 foliations held
    calls = {"variety": 0, "foliation": 0}

    def counted(name, decode):
        def wrapper(*args):
            calls[name] += 1
            return decode(*args)
        return wrapper

    for name, decoder in (("variety", "_variety_from_json"), ("foliation", "_fol_from_json")):
        monkeypatch.setattr(catalog, decoder, counted(name, getattr(catalog, decoder)))
    records = import_catalog(export_catalog(std_catalog)).records
    assert calls == {"variety": 403, "foliation": 1104 + 120}
    fols = {id(r.foliation): r.foliation for r in records}.values()
    bases = [fol.recipe.base for fol in fols if hasattr(fol.recipe, "base")]
    assert (len(bases), len({id(b) for b in bases})) == (771, 120)
    assert len({id(r.variety) for r in records}) == 402


@pytest.mark.parametrize(
    "keys, value, fault",
    [
        (("rank",), True, "rank must be an integer, got True"),
        (("algebraic_rank",), False, "algebraic_rank must be an integer, got False"),
        (("ambient", "weights"), [True, 1, 1], "ambient.weights must be an integer, got True"),
    ],
    ids=["rank", "algebraic-rank", "ambient-weights"],
)
def test_shared_nested_decodes_tell_true_from_one(std_catalog, keys, value, fault):
    # the first record's base foliation decodes; the second's is equal to
    # it under dict ==, and must be refused at its own position and path
    first = record_to_json(std_catalog.records[0])
    second = json.loads(json.dumps(first))
    second["id"] += ":copy"
    target = second["foliation"]["recipe_params"]["base"]
    for key in keys[:-1]:
        target = target[key]
    assert target[keys[-1]] == value
    target[keys[-1]] = value
    text = json.dumps({"schema_version": SCHEMA_VERSION, "records": [first, second]})
    refusal = f"malformed record at position 1: foliation.recipe_params.base.{fault}"
    with pytest.raises(ParseError, match=rf"^{re.escape(refusal)}$"):
        import_catalog(text)


# ---------------------------------------------------------------------------
# One rendered text per shared object of an export.


def _render_counts(monkeypatch, catalog_):
    """Record-level foliation writes and check writes of one export."""
    counts = {"foliation": 0, "check": 0}
    write_fol, write = catalog._fol_text, catalog._text

    def counted_fol(fol, newline, table=None, ambient=True):
        counts["foliation"] += not ambient
        return write_fol(fol, newline, table, ambient)

    def counted(value, newline, table=None):
        counts["check"] += type(value) is CheckOutcome
        return write(value, newline, table)

    monkeypatch.setattr(catalog, "_fol_text", counted_fol)
    monkeypatch.setattr(catalog, "_text", counted)
    text = export_catalog(catalog_)
    monkeypatch.undo()
    return text, counts


def test_export_renders_each_shared_object_once(std_catalog, monkeypatch):
    text, counts = _render_counts(monkeypatch, std_catalog)
    assert counts["foliation"] == 1194  # distinct descriptor objects of the built catalog
    assert counts["check"] == 941  # distinct check values, of 5,199 check objects
    again, counts = _render_counts(monkeypatch, import_catalog(text))
    assert again == text
    assert counts["foliation"] == 1104  # distinct geometries of the import
    assert counts["check"] == 941


def _apart(records):
    """records, one import apart each: equal objects, none shared."""
    return tuple(
        import_catalog(export_catalog(Catalog(records=(record,)))).records[0] for record in records
    )


def test_shared_and_distinct_objects_export_alike(std_catalog):
    shared = import_catalog(export_catalog(std_catalog)).records
    fano, sesh = _cone_pair(shared)
    assert fano.foliation is sesh.foliation and fano.invariants is sesh.invariants
    assert shared.index(sesh) - shared.index(fano) > 600  # the pair recurs far apart
    assert len({id(c) for r in shared for c in r.checks}) == 941
    apart = _apart(shared)
    assert apart == shared
    assert len({id(r.foliation) for r in apart}) == len({id(r.invariants) for r in apart}) == 1833
    inline = _inline(Catalog(metadata=std_catalog.metadata, records=shared))
    expected = json.dumps(_tabled(inline), indent=2) + "\n"
    for records in (shared, apart, std_catalog.records):
        out = io.StringIO()
        write_catalog(Catalog(metadata=std_catalog.metadata, records=records), out)
        text = out.getvalue()
        if text != expected:  # a plain assert would diff two 3.6 MB texts for minutes
            pairs = zip(text + "\0", expected + "\0")
            offset = next(i for i, (a, b) in enumerate(pairs) if a != b)
            pytest.fail(f"export differs at offset {offset}: {text[offset:offset + 200]!r}")


# ---------------------------------------------------------------------------
# The field-driven codec: each object holds its value type's fields.


@st.composite
def _lifted_foliations(draw):
    """arbitrary_foliations(), or one of them on P^k lifted one level: its
    pullback over a bundle on P^k or its cone over P^k."""
    fol = draw(arbitrary_foliations())
    ambient = fol.ambient
    lift = draw(st.sampled_from(("none", "pullback", "cone")))
    if lift == "none" or not (isinstance(ambient, WeightedProjectiveSpace) and ambient.is_smooth):
        return fol
    m = draw(st.integers(1, 3))
    if lift == "pullback":
        b = sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)), reverse=True)
        return pullback_over_bundle(BundleVariety(ambient.dim, m, b), fol)
    cone = GeneralizedCone(projective_space_base(ambient.dim), m, draw(st.integers(1, 3)))
    return cone_foliation(cone, fol)


@st.composite
def _arbitrary_records(draw):
    fol = draw(_lifted_foliations())
    # import refuses a synth record whose variety's dimension or whose
    # foliation's algebraic rank is not its request's
    n, r = fol.ambient.dim, fol.algebraic_rank
    target = st.fractions(min_value=Fraction(1, 8), max_value=n, max_denominator=8)
    requests = st.builds(
        SynthesisRequest, st.sampled_from(SynthKind), st.just(n), st.just(r), target,
    ) if 0 < r < n else st.nothing()
    request = draw(st.none() | requests)
    checks = draw(st.lists(
        st.builds(CheckOutcome, st.text(max_size=8), st.sampled_from(CheckStatus), st.text()),
        max_size=3,
    ))
    # import refuses a record whose id is not the one of its request and
    # branch, or of its family and parameters
    if request is None:
        branch = draw(st.sampled_from(list(FAMILY_PARAMS)))
        params = {name: draw(st.integers()) for name in FAMILY_PARAMS[branch]}
        key = record_id("table", branch, params)
    else:
        branch = draw(st.text(max_size=8))
        key = request_id(request, branch)
    return assemble_record(key, request, branch, fol, lambda _: checks)


@settings(deadline=None)
@given(_arbitrary_records())
def test_arbitrary_records_round_trip(record):
    text = export_catalog(Catalog(records=(record,)))
    back = import_catalog(text)
    assert back.records == (record,)
    assert export_catalog(back) == text


def _assert_written_as_json_dumps(catalog_: Catalog) -> str:
    """The export of catalog_, checked against the standard library's
    encoder, which shares no code with the writer, and against import.
    Neither check is a plain assert, which would diff megabytes."""
    text = export_catalog(catalog_)
    expected = json.dumps(json.loads(text), indent=2) + "\n"
    if text != expected:
        offset = next(i for i, (a, b) in enumerate(zip(text + "\0", expected + "\0")) if a != b)
        pytest.fail(f"export differs at offset {offset}: {text[offset:offset + 200]!r}")
    same = import_catalog(text) == catalog_
    assert same, "the import of the export differs from the catalog"
    return text


def test_standard_export_is_json_dumps_text(std_catalog):
    text = _assert_written_as_json_dumps(std_catalog)
    _assert_written_as_json_dumps(import_catalog(text))
    same = json.loads(text) == _tabled(_inline(std_catalog))
    assert same, "the export is not the table of the records' inline JSON"


@settings(deadline=None)
@given(_arbitrary_records())
def test_arbitrary_records_are_json_dumps_text(record):
    _assert_written_as_json_dumps(Catalog(records=(record,)))


# every class the codec decodes from the JSON object of its fields
DECODED = (
    SynthesisRequest, InvariantReport, Positivity, CheckOutcome, RankOneClass, Class2,
    *_VARIETIES.values(), *_RECIPES.values(),
)


@pytest.mark.parametrize("cls", DECODED, ids=lambda cls: cls.__name__)
def test_decoded_classes_take_their_fields_in_slots_order(cls):
    # the decoder builds cls(*fields) from the fields in __slots__ order
    if cls.__init__ is not Value.__init__:
        code = cls.__init__.__code__
        assert code.co_varnames[1:code.co_argcount] == cls.__slots__


def _stored(value, obj):
    """Each object of a DECODED class under value, with its JSON object in
    obj, value's inline JSON; a record's foliation leaves out its ambient."""
    if type(value) in DECODED:
        yield value, obj
    for name in type(value).__slots__:
        key = "recipe_params" if name == "recipe" else name
        if key in obj:
            field = getattr(value, name)
            pairs = zip(field, obj[key]) if type(field) is tuple else [(field, obj[key])]
            for item, item_obj in pairs:
                if isinstance(item, Value):
                    yield from _stored(item, item_obj)


# declared type -> the JSON types a field of it is stored as; an enum is
# stored as its value, a string, and any other value type as an object
_STORED_AS = {
    int: (int,), bool: (bool,), str: (str,), Fraction: (str,), Fraction | None: (str, type(None)),
    tuple[int, ...]: (list,), FoliationDescriptor: (dict, int),
}


def test_every_field_is_read_by_its_declared_type(std_catalog):
    # A field of a decoded object stored as a JSON value of a type its
    # declared type is not stored as is refused at its path: none is read
    # as an integer, say, for want of a reader of its type.
    samples = {}
    for record in std_catalog.records:
        obj = record_to_json(record)
        for value, value_obj in (*_stored(record.variety, obj["variety"]), *_stored(record, obj)):
            samples.setdefault(type(value), (obj, value_obj))
    assert set(samples) == set(DECODED)
    for cls, (obj, value_obj) in samples.items():
        hints = get_type_hints(cls)
        for name in cls.__slots__:
            kind = hints[name]
            stored_as = _STORED_AS.get(kind) or ((str,) if issubclass(kind, Enum) else (dict,))
            stored = value_obj[name]
            for wrong in (1, True, "x", None, [], {}):
                if type(wrong) not in stored_as:
                    value_obj[name] = wrong
                    with pytest.raises(ParseError, match=rf"\.{name}\b"):
                        import_catalog(json.dumps({"schema_version": "1", "records": [obj]}))
            value_obj[name] = stored


def test_only_a_recipe_base_takes_an_index(std_catalog):
    # An integer stands for a recipe's base foliation alone: at the
    # invariants' positivity or at a cone's base it is refused like any
    # other value that is not a JSON object.
    record = next(r for r in std_catalog.records if isinstance(r.variety, GeneralizedCone))
    obj = json.loads(export_catalog(Catalog(records=(record,))))
    (record_obj,), objects = obj["records"], obj["objects"]
    assert type(objects[record_obj["foliation"]]["recipe_params"]["base"]) is int
    for k, key in ((record_obj["invariants"], "positivity"), (record_obj["variety"], "base")):
        stored, objects[k][key] = objects[k][key], 0
        refusal = f"malformed record at position 0: objects[{k}].{key} must be a JSON object"
        with pytest.raises(ParseError, match=rf"^{re.escape(refusal)}$"):
            import_catalog(json.dumps(obj))
        objects[k][key] = stored
    import_catalog(json.dumps(obj))


def test_invariants_are_read_in_field_order(std_catalog):
    # gen_index precedes positivity, so of two faults it is the one named
    obj = record_to_json(std_catalog.records[0])
    obj["invariants"]["gen_index"] = "x"
    obj["invariants"]["positivity"]["pseff"] = 1
    text = json.dumps({"schema_version": SCHEMA_VERSION, "records": [obj]})
    refusal = "malformed record at position 0: invariants.gen_index: not a rational literal: 'x'"
    with pytest.raises(ParseError, match=rf"^{re.escape(refusal)}$"):
        import_catalog(text)
