"""Command-line behavior: output formats, exit codes, file round trips."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foliadex
from foliadex import SCHEMA_VERSION, Catalog, export_catalog, record_to_json
from foliadex.cli import build_parser, main
from foliadex.verification import OracleGrid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_json_output(capsys):
    code, out, err = run(
        capsys, "synth", "--kind", "generalized-index", "--n", "3", "--r", "2",
        "--c", "3/2", "--out", "json",
    )
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["invariants"]["gen_index"] == "3/2"
    assert obj["branch"] == "case1"
    assert obj["request"] == {"kind": "generalized-index", "n": 3, "r": 2, "c": "3/2"}


def test_synth_table_output(capsys):
    code, out, _ = run(capsys, "synth", "--kind", "seshadri", "--n", "2", "--r", "1", "--c", "2/3")
    assert code == 0
    assert "P(1, 2, 3)" in out
    assert "2/3" in out


def test_underscore_kind_accepted(capsys):
    code, out, _ = run(
        capsys, "synth", "--kind", "fano_index", "--n", "3", "--r", "2", "--c", "3/2",
        "--out", "json",
    )
    assert code == 0
    assert json.loads(out)["branch"] == "wps1"


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--kind", "generalized-index", "--n", "3", "--r", "0", "--c", "1/2"),
        ("synth", "--kind", "generalized-index", "--n", "3", "--r", "2", "--c", "0.5"),
        ("synth", "--kind", "generalized-index", "--n", "3", "--r", "2", "--c", "1/0"),
        ("synth", "--kind", "volume", "--n", "3", "--r", "2", "--c", "1"),
        ("synth", "--kind", "seshadri", "--n", "3", "--r", "2"),
        ("table", "--family", "quintic", "--a", "1..3"),
        ("table", "--family", "hirzebruch", "--a", "3..1"),
        ("table", "--family", "hirzebruch"),
        ("frobnicate",),
        ("synth", "--kind", "seshadri", "--n", "2", "--r", "1", "--c", "1/2", "--out", "yaml"),
    ],
)
def test_bad_input_exits_one(capsys, argv):
    assert main(list(argv)) == 1
    assert capsys.readouterr().out == ""


def test_unsupported_requests_exit_two(capsys):
    code, out, err = run(capsys, "synth", "--kind", "fano-index", "--n", "3", "--r", "2", "--c", "7/5")
    assert code == 2 and out == ""
    assert err.startswith("unsupported:")
    code, _, _ = run(capsys, "synth", "--kind", "generalized-index", "--n", "4", "--r", "2", "--c", "5/2")
    assert code == 2


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_hirzebruch_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--family", "hirzebruch", "--a", "2..6", "--out", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert list(rows[0]) == ["a", "anticanonical", "gen_index", "fano_index", "seshadri", "algebraic_rank"]
    assert [r["gen_index"] for r in rows] == ["1/2", "2/3", "3/4", "4/5", "5/6"]


def test_cone_table_csv(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "cone", "--rprime", "2", "--m", "2", "--d", "0..3",
        "--out", "csv",
    )
    assert code == 0
    assert [r["gen_index"] for r in csv_rows(out)] == ["2", "3/2", "1", "1/2"]
    assert [r["seshadri"] for r in csv_rows(out)] == ["2", "3/2", "1", "1/2"]


def test_table_runs_are_byte_identical(capsys):
    argv = ("table", "--family", "wps2", "--n", "3..4", "--mprime", "2", "--m", "3", "--out", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_format_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("FOLIADEX_OUT", "json")
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert json.loads(out)["name"] == "foliadex"

    monkeypatch.setenv("FOLIADEX_OUT", "bogus")
    assert main(["info"]) == 1


def test_catalog_file_round_trip(capsys, tmp_path, std_catalog):
    first = tmp_path / "catalog.json"
    second = tmp_path / "again.json"
    small = Catalog(metadata=std_catalog.metadata, records=std_catalog.records[:40])
    first.write_text(export_catalog(small))

    code, out, _ = run(capsys, "catalog", "import", "--in", str(first))
    assert code == 0
    assert out.strip() == "imported 40 records (schema 1)"

    code, _, _ = run(capsys, "catalog", "import", "--in", str(first), "--out-file", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()

    assert main(["verify", "--catalog", str(first)]) == 0
    capsys.readouterr()


def test_catalog_export_matches_library(capsys, tmp_path, std_catalog):
    path = tmp_path / "std.json"
    code, out, _ = run(capsys, "catalog", "export", "--out-file", str(path))
    assert code == 0
    assert path.read_text() == export_catalog(std_catalog)


def test_tampered_catalog_fails_verify(capsys, tmp_path, std_catalog):
    small = Catalog(metadata={}, records=std_catalog.records[:25])
    obj = json.loads(export_catalog(small))
    victim = next(r for r in obj["records"] if r["invariants"]["gen_index"] is not None)
    victim["invariants"]["gen_index"] = "997"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))

    code, out, _ = run(capsys, "verify", "--catalog", str(path))
    assert code == 1
    assert "stored-invariants-match-recomputation" in out


def _big_not_ample(record):
    inv = record["invariants"]
    return inv["gen_index"] is not None and not inv["positivity"]["ample"]


def _cone(record):
    return record["variety"]["family"] == "cone"


def _wps(record):
    return record["variety"]["family"] == "wps"


def _bundle_with_m_one(record):
    # JSON true equals 1, so only m = 1 hides the boolean from recomputation
    variety = record["variety"]
    return variety["family"] == "bundle" and variety["m"] == 1


@pytest.mark.parametrize(
    "path, value, victim",
    [
        (("foliation", "leaf_rc"), "maybe", None),
        (("checks", 0, "status"), "maybe", None),
        (("invariants", "positivity", "big"), False, _big_not_ample),
        (("invariants", "gen_index"), "1" * 5000, None),
        (("variety", "m"), True, _bundle_with_m_one),
        (None, "1" * 5000 + "/3", None),
        (("variety", "base", "is_projective_space"), "no", _cone),
        (("variety", "base", "label"), 5, _cone),
        (("invariants", "positivity", "pseff"), 1, None),
        (("id",), 7, None),
        (("foliation", "rank"), 99, _wps),
    ],
    ids=[
        "leaf-rc", "check-status", "big-flag", "long-literal", "bool-int", "long-synth-target",
        "str-bool", "int-label", "int-flag", "int-id", "rank-99",
    ],
)
def test_bad_input_fails_in_one_line(capsys, tmp_path, std_catalog, path, value, victim):
    if path is None:
        argv = ["synth", "--kind", "generalized-index", "--n", "3", "--r", "2", "--c", value]
    else:
        records = (record_to_json(r) for r in std_catalog.records)
        record = next(r for r in records if victim is None or victim(r))
        target = record
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        catalog = tmp_path / "mutated.json"
        catalog.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION, "metadata": {}, "records": [record]})
        )
        argv = ["verify", "--catalog", str(catalog)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    if path is not None:
        assert "position 0" in err  # the mutated record is the catalog's only one


@pytest.mark.parametrize("n, r", [(3, 2), (4, 3)])
def test_case1_synth_work_is_bounded(n, r):
    # q = 10^6 gives b1 of order 10^12, and (4, 3) needs a twist scale
    # l near 2*10^6; each request must still finish in seconds
    argv = [
        "synth", "--kind", "generalized-index", "--n", str(n), "--r", str(r),
        "--c", "1000001/1000000", "--out", "json",
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(foliadex.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "foliadex.cli", *argv],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["invariants"]["gen_index"] == "1000001/1000000"
    assert all(check["status"] == "pass" for check in record["checks"])


def test_missing_catalog_file(capsys):
    assert main(["verify", "--catalog", "/nonexistent/nope.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_info_fields(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 0
    for token in ("name", "foliadex", "version", "kernel_backend", "schema_version"):
        assert token in out


def test_verify_flags_default_to_the_oracle_grid():
    args = build_parser().parse_args(["verify"])
    grid = OracleGrid()
    for field in dataclasses.fields(OracleGrid):
        assert getattr(args, field.name) == getattr(grid, field.name), field.name


def test_verify_grid_oracle_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--grid", "oracle", "--m-max", "1", "--b1-max", "1",
        "--rprime-max", "1", "--k-max", "1", "--coeff-max", "2", "--out", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0 and report["total"] > 0
