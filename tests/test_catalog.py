"""Catalog serialization and the standard example catalog."""

import hashlib
import json
import re
from types import SimpleNamespace

import pytest

from foliadex import (
    Catalog,
    Class2,
    DomainError,
    ExampleRecord,
    ParseError,
    compute_invariants,
    export_catalog,
    import_catalog,
    record_to_json,
    verify_record,
)
from foliadex.cli import main


def test_round_trip_preserves_objects(std_catalog):
    text = export_catalog(std_catalog)
    back = import_catalog(text)
    assert back.metadata == std_catalog.metadata
    assert back.records == std_catalog.records


def test_round_trip_is_byte_identical(std_catalog):
    text = export_catalog(std_catalog)
    assert export_catalog(import_catalog(text)) == text
    assert text.endswith("\n")


def test_export_bytes_are_pinned(std_catalog):
    # The standard export is a published artifact: any change to how a
    # record renders must show up here, not slip through a round trip.
    data = export_catalog(std_catalog).encode("utf-8")
    assert len(data) == 3_665_965
    assert (
        hashlib.sha256(data).hexdigest()
        == "cb67558f760ddbd3d4b575b4eab262818f9bb3c35d7a6885e1d31891aa307dbc"
    )


WINDOW = "enumeration (d <= 3, 1 <= c - b1*d <= 6)"


def _with_rectangle_details(std_catalog):
    """The standard export with each audit detail naming the former rectangle.

    Audits once enumerated d <= 3, c <= 3*b1 + 6 in the (L, F) basis;
    the export is otherwise unchanged by the move to the fixed window.
    """
    obj = json.loads(export_catalog(std_catalog))
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


def test_schema_version_gate(std_catalog):
    obj = json.loads(export_catalog(std_catalog))
    obj["schema_version"] = "2"
    with pytest.raises(DomainError):
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
    obj = json.loads(export_catalog(std_catalog))
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
    obj = json.loads(export_catalog(std_catalog))
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
    obj = json.loads(export_catalog(std_catalog))
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
    obj = json.loads(export_catalog(Catalog(metadata={}, records=std_catalog.records[:1])))
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
