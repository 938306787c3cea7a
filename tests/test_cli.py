"""Command-line behavior: output formats, exit codes, file round trips."""

import ast
import csv
import errno
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import tomllib
from fractions import Fraction
from pathlib import Path

import pytest

import foliadex
from foliadex import (
    SCHEMA_VERSION,
    Catalog,
    CheckStatus,
    cli,
    export_catalog,
    import_catalog,
    record_to_json,
    verify_record,
)
from foliadex.cli import build_parser, main
from foliadex.synthesis import SynthKind
from foliadex.verification import OracleGrid, SynthGrid


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


# One request per synthesis branch, with the sha256 of its --out json
# stdout as the json module's indenting encoder wrote it.
SYNTH_JSON_PINS = [
    ("pn", "generalized-index", "3", "2", "2",
     "9457fb1a3b990380f17edc9a8d22887565f0e29742afbabf2326ca4de8326e04"),
    ("hirzebruch", "generalized-index", "2", "1", "2/3",
     "14c48370c3f75b7a0ef9516d621c0939328e1126270bf0a4395798e083d5941b"),
    ("case1", "generalized-index", "3", "2", "3/2",
     "7fc976e5b550b34ad25500f594c4d485517e666d41dfc8990eea2ca3271b182e"),
    ("case2", "generalized-index", "3", "2", "1/2",
     "b742107e64329644be3f9cb24d65fbbb54170351d61d80967ba97abf05905de1"),
    ("cone", "fano-index", "4", "2", "3/2",
     "e9290fb299e76a59ee24bb85f541401933dd4fa83103ec9b91bf464d80b33155"),
    ("wps1", "fano-index", "3", "2", "3/2",
     "02b26786a4d30247ff88d4b908daab6cacf1b67ce762bf9f756d508a8d2e37ec"),
    ("wps2", "seshadri", "4", "3", "5/2",
     "cb3cc673f98754ceaf42595fc14e1dd3bd3b5a87e84b4be3a49177d15857f547"),
    ("wps3", "fano-index", "2", "1", "1/2",
     "30d3f5f338e3aaf7fe478744bfc981496361b4e1e53c7016732de30f28f9fbbd"),
    ("wps4", "seshadri", "2", "1", "2/3",
     "fe14e2b172481feb1e77367fb4c1f97db1bd45974e176ecb8e56f63cc3111939"),
]


@pytest.mark.parametrize(
    "branch, kind, n, r, c, digest", SYNTH_JSON_PINS, ids=[pin[0] for pin in SYNTH_JSON_PINS]
)
def test_synth_json_is_pinned(capsys, branch, kind, n, r, c, digest):
    code, out, err = run(
        capsys, "synth", "--kind", kind, "--n", n, "--r", r, "--c", c, "--out", "json"
    )
    assert code == 0 and err == ""
    assert json.loads(out)["branch"] == branch
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_json_reports_are_pinned(capsys, tmp_path, monkeypatch, std_catalog):
    code, out, _ = run(capsys, "verify", "--grid", "standard", "--out", "json")
    assert code == 0
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "c6d48045dbb47fdbc4eda2b5b48865c09f25366d3298fcd67d503b355c8a4ab4"
    )
    # the report names its source path, so the file gets a fixed relative one
    monkeypatch.chdir(tmp_path)
    Path("std.json").write_text(export_catalog(std_catalog))
    code, out, _ = run(capsys, "verify", "--catalog", "std.json", "--out", "json")
    assert code == 0
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "c131e5eb4723a6fd31258d2a1fc76d17d522a699d9e68c26d86d02de5d1cd223"
    )


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


@pytest.mark.parametrize(
    "argv",
    [
        ("frobnicate",),
        ("synth", "--kind", "seshadri", "--n", "3", "--r", "2"),
        # argparse reads -1..1 as an option, so --a has no value
        ("table", "--family", "hirzebruch", "--a", "-1..1"),
        ("synth", "--kind", "seshadri", "--n", "2", "--r", "1", "--c", "1/2", "--out", "yaml"),
    ],
)
def test_usage_errors_fail_in_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("foliadex") and ": error: " in err


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


def _environment_reads(tree):
    """Line numbers of os.environ and os.getenv uses, however imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                yield node.lineno


def test_package_reads_no_environment():
    # Output depends on the arguments alone; a new knob needs this test changed.
    sources = sorted(Path(foliadex.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in _environment_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_catalog_file_round_trip(capsys, tmp_path, std_catalog):
    first = tmp_path / "catalog.json"
    second = tmp_path / "again.json"
    small = Catalog(metadata=std_catalog.metadata, records=std_catalog.records[:40])
    first.write_text(export_catalog(small))

    code, out, _ = run(capsys, "catalog", "import", "--in", str(first))
    assert code == 0
    assert out.strip() == "imported 40 records (schema 2)"

    code, _, _ = run(capsys, "catalog", "import", "--in", str(first), "--out-file", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()

    # the file is read whole before it is opened for writing
    code, _, _ = run(capsys, "catalog", "import", "--in", str(first), "--out-file", str(first))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()

    assert main(["verify", "--catalog", str(first)]) == 0
    capsys.readouterr()


def test_catalog_export_matches_library(capsys, tmp_path, std_catalog):
    path = tmp_path / "std.json"
    code, out, _ = run(capsys, "catalog", "export", "--out-file", str(path))
    assert code == 0
    assert path.read_text() == export_catalog(std_catalog)
    code, out, _ = run(capsys, "catalog", "export")
    assert code == 0
    assert out == export_catalog(std_catalog)


def _child_env() -> dict:
    """The environment for a CLI child, with stdout block-buffered as it
    is by default: PYTHONUNBUFFERED would hide a failed last flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(foliadex.__file__).parents[1])
    return env


# Each command that writes stdout, with its output well under one buffer
# except the export's.
_STDOUT_COMMANDS = {
    "export-stdout": ["catalog", "export"],
    "synth-json": [
        "synth", "--kind", "generalized-index", "--n", "3", "--r", "2", "--c", "3/2", "--out", "json",
    ],
    "info": ["info"],
    "table": ["table", "--family", "wps1", "--n", "3..5", "--m", "1..3"],
    "verify-oracle": ["verify", "--grid", "oracle"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        *_STDOUT_COMMANDS.values(),
        ["catalog", "export", "--out-file", "/dev/full"],
        ["catalog", "import", "--in", "small.json", "--out-file", "/dev/full"],
    ],
    ids=[*_STDOUT_COMMANDS, "export-file", "import-file"],
)
def test_full_device_fails_in_one_line(tmp_path, std_catalog, argv):
    # The export is written piece by piece; a write that fails, the last
    # buffered one included, must end in main's one-line error, not in a
    # traceback or an error at interpreter exit (exit 120).
    small = Catalog(metadata={}, records=std_catalog.records[:40])
    (tmp_path / "small.json").write_text(export_catalog(small))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "foliadex.cli", *argv], stdout=full, stderr=subprocess.PIPE,
            text=True, cwd=tmp_path, env=_child_env(), timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv", _STDOUT_COMMANDS.values(), ids=_STDOUT_COMMANDS)
def test_closed_pipe_fails_in_one_line(argv):
    # a reader that has gone away, as `foliadex table ... | head -c 1` leaves
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "foliadex.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=_child_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"


class _FillsUp(io.RawIOBase):
    """A device with room for a given number of bytes."""

    def __init__(self, room):
        self.room = room

    def writable(self):
        return True

    def write(self, data):
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)
        return len(data)


def test_export_to_stdout_reports_a_last_piece_that_does_not_fit(
    monkeypatch, capsys, std_catalog
):
    # Only the final newline finds no room; it is written by the flush
    # before main returns.
    size = len(export_catalog(std_catalog))
    device = _FillsUp(size - 1)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(device)))
    assert main(["catalog", "export"]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    device.room = size  # so the stream closes quietly


def _inline(records) -> dict:
    """The catalog JSON of records with every object written where it is used."""
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": {},
        "records": [record_to_json(record) for record in records],
    }


def test_tampered_catalog_fails_verify(capsys, tmp_path, std_catalog):
    obj = _inline(std_catalog.records[:25])
    victim = next(r for r in obj["records"] if r["invariants"]["gen_index"] is not None)
    victim["invariants"]["gen_index"] = "997"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))

    code, out, _ = run(capsys, "verify", "--catalog", str(path))
    assert code == 1
    assert "stored-invariants-match-recomputation" in out


def test_request_off_its_target_fails_verify(capsys, tmp_path, std_catalog):
    # the stored invariants and checks are those of 9/8; only the request
    # moves, and the id with it, since import refuses an id off its request
    record = next(
        r for r in std_catalog.records if r.id == "generalized-index:case1:n=3:r=2:c=9/8"
    )
    obj = json.loads(export_catalog(Catalog(metadata={}, records=(record,))))
    obj["records"][0]["request"]["c"] = "5/4"
    obj["records"][0]["id"] = "generalized-index:case1:n=3:r=2:c=5/4"
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(obj))

    code, out, _ = run(capsys, "verify", "--catalog", str(path))
    assert code == 1
    assert "stored-construction-checks" in out
    assert "target-invariant-exact on re-run" in out


_SYNTH_ID = "generalized-index:case2:n=3:r=1:c=1/8"
_ROW_ID = "table:wps1:n=3:m=1"


def _one_record_file(std_catalog, path, record_id, edit):
    """A catalog file holding the record record_id after edit(record JSON)."""
    record = next(r for r in std_catalog.records if r.id == record_id)
    obj = _inline((record,))
    edit(obj["records"][0])
    path.write_text(json.dumps(obj))
    return path


def _set(key, value, inner=None):
    def edit(record):
        (record if inner is None else record[inner])[key] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set("n", 4, "request"),
        _set("r", 2, "request"),
        _set("c", "1/7", "request"),
        _set("id", "generalized-index:case2:n=3:r=1:c=1/7"),
        _set("branch", "case1"),
    ],
    ids=["request-n", "request-r", "request-c", "id", "branch"],
)
def test_synth_id_off_its_request_or_branch_is_refused_on_import(
    capsys, tmp_path, std_catalog, edit
):
    # each edit leaves a well-formed record whose id is not the one its
    # request and branch give
    path = _one_record_file(std_catalog, tmp_path / "edited.json", _SYNTH_ID, edit)
    code, out, err = run(capsys, "catalog", "import", "--in", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed record at position 0: record.id ")
    assert err.endswith(", the id of its request and branch\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit",
    [
        _set("id", _ROW_ID + "x"),
        _set("id", _ROW_ID + ":m=1"),
        _set("id", "table:wps1:m=1:n=3"),
        _set("id", "table:wps1:n=3:m=1/1"),
        _set("id", "synth:wps1:n=3:m=1"),
        _set("branch", "wps2"),
        _set("branch", "cone"),
        _set("branch", "pn"),
    ],
    ids=["id-char", "id-field", "id-order", "id-value", "id-head", "branch",
         "branch-family", "branch-synth"],
)
def test_table_id_off_its_family_or_parameters_is_refused_on_import(
    capsys, tmp_path, std_catalog, edit
):
    # a row with no request must carry the id record_id gives its family
    # and integer parameters, named in the family's order
    path = _one_record_file(std_catalog, tmp_path / "edited.json", _ROW_ID, edit)
    code, out, err = run(capsys, "catalog", "import", "--in", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed record at position 0: record.id ")
    assert err.endswith(" table row\n") and err.count("\n") == 1


def _degree_sixteen_base(record):
    # p 13 -> 15 moves K from (-2, 14) to (-2, 16), so -K = (2, -16) is not
    # big; both stored canonicals follow, and the stored invariants do not
    base = record["foliation"]["recipe_params"]["base"]
    base["recipe_params"]["p"] = 15
    base["canonical"]["s"] = "15"
    record["foliation"]["canonical"]["gamma"] = "16"


def test_consistent_edit_to_a_class_that_is_not_big_fails_verify(capsys, tmp_path, std_catalog):
    # the checks grade the recomputed invariants, so the stored gen_index
    # of 1/8 neither sends the oracle a class that is not big nor meets the
    # request's target
    record_id = "generalized-index:case2:n=3:r=1:c=1/8"
    path = _one_record_file(std_catalog, tmp_path / "edited.json", record_id, _degree_sixteen_base)
    code, out, err = run(capsys, "catalog", "import", "--in", str(path))
    assert (code, err) == (0, "")

    code, out, err = run(capsys, "verify", "--catalog", str(path), "--out", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert [f["check"] for f in report["failures"]] == [
        "stored-invariants-match-recomputation",
        "stored-construction-checks",
    ]
    assert report["failures"][1]["detail"] == (
        "failed: target-invariant-exact on re-run (gen_index = absent, target 1/8)"
    )
    (record,) = import_catalog(path.read_text()).records
    outcomes = {o.name: o for o in verify_record(record).outcomes}
    oracle = outcomes["closed-form-vs-oracle"]
    assert (oracle.status, oracle.detail) == (CheckStatus.SKIP, "anticanonical class not big")
    # the theorem checks grade the recomputation, which has no generalized index
    index = outcomes["kobayashi-ochiai-generalized"]
    assert (index.status, index.detail) == (CheckStatus.SKIP, "no generalized index on record")


def test_absent_stored_gen_index_fails_verify_in_rendered_rationals(
    capsys, tmp_path, std_catalog
):
    path = _one_record_file(
        std_catalog, tmp_path / "absent.json", _SYNTH_ID,
        lambda record: record["invariants"].update(gen_index=None),
    )
    code, out, err = run(capsys, "verify", "--catalog", str(path), "--out", "json")
    assert (code, err) == (1, "")
    details = {f["check"]: f["detail"] for f in json.loads(out)["failures"]}
    assert details == {
        "stored-invariants-match-recomputation": "gen_index: stored absent, recomputed 1/8",
        "closed-form-vs-oracle": (
            "closed form 1/8, enumeration (d <= 3, 1 <= c - b1*d <= 6) 1/8, stored absent"
        ),
    }
    for detail in details.values():
        assert "None" not in detail and "Fraction(" not in detail


def test_changed_positivity_is_named_with_its_flags(capsys, tmp_path, std_catalog):
    path = _one_record_file(
        std_catalog, tmp_path / "nef.json", _SYNTH_ID,
        lambda record: record["invariants"]["positivity"].update(nef=True),
    )
    code, out, _ = run(capsys, "verify", "--catalog", str(path), "--out", "json")
    assert code == 1
    (failure,) = json.loads(out)["failures"]
    assert failure["detail"] == (
        "positivity: stored pseff=True big=True nef=True ample=False, "
        "recomputed pseff=True big=True nef=False ample=False"
    )


def _without(*names):
    """Drop the stored checks called names; every one when none is named."""
    def edit(record):
        record["checks"] = [c for c in record["checks"] if names and c["name"] not in names]
    return edit


def _skipped(name):
    """Mark the stored check called name as skipped."""
    def edit(record):
        (check,) = (c for c in record["checks"] if c["name"] == name)
        check["status"] = "skip"
    return edit


@pytest.mark.parametrize(
    "record_id, edit, missing",
    [
        (_SYNTH_ID, _without(), "target-invariant-exact, anticanonical-positivity"),
        (_SYNTH_ID, _without("target-invariant-exact"), "target-invariant-exact"),
        (_SYNTH_ID, _without("anticanonical-positivity"), "anticanonical-positivity"),
        (_SYNTH_ID, _skipped("target-invariant-exact"), "target-invariant-exact"),
        (_ROW_ID, _without(), "family-formula, anticanonical-positivity"),
        (_ROW_ID, _without("family-formula"), "family-formula"),
        (_ROW_ID, _without("anticanonical-positivity"), "anticanonical-positivity"),
        (_ROW_ID, _skipped("family-formula"), "family-formula"),
        (_ROW_ID, _skipped("anticanonical-positivity"), "anticanonical-positivity"),
    ],
    ids=["synth-emptied", "synth-target", "synth-positivity", "synth-target-skipped",
         "row-emptied", "row-formula", "row-positivity", "row-formula-skipped",
         "row-positivity-skipped"],
)
def test_record_without_its_certificate_checks_fails_verify(
    capsys, tmp_path, std_catalog, record_id, edit, missing
):
    path = _one_record_file(std_catalog, tmp_path / "bare.json", record_id, edit)
    code, out, err = run(capsys, "catalog", "import", "--in", str(path))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "verify", "--catalog", str(path), "--out", "json")
    assert (code, err) == (1, "")
    (failure,) = json.loads(out)["failures"]
    assert failure == {
        "record": record_id, "check": "stored-construction-checks", "detail": f"missing: {missing}"
    }


def _base_as_variety(record):
    # the cone's base foliation, a fibration on a polarized base, made the record's own
    base = record["foliation"]["recipe_params"]["base"]
    record["variety"] = base.pop("ambient")
    record["foliation"] = base


@pytest.mark.parametrize("command", ["import", "verify"])
def test_polarized_base_variety_is_refused(capsys, tmp_path, std_catalog, command):
    path = _one_record_file(
        std_catalog, tmp_path / "base.json", "table:rc-flat:n=4:r=2:m=2", _base_as_variety
    )
    if command == "import":
        argv = ["catalog", "import", "--in", str(path)]
    else:
        argv = ["verify", "--catalog", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "error: malformed record at position 0: "
        "variety.family must be one of bundle, wps, cone, got 'polarized-base'\n"
    )


def _pullback_on_a_weighted_space(record):
    # the case-2 pullback record moved onto P(1, 1, 1, 2), of its dimension
    record["variety"] = {"family": "wps", "weights": [1, 1, 1, 2]}


def test_pullback_on_a_weighted_projective_space_is_refused(capsys, tmp_path, std_catalog):
    path = _one_record_file(
        std_catalog, tmp_path / "moved.json", _SYNTH_ID, _pullback_on_a_weighted_space
    )
    code, out, err = run(capsys, "catalog", "import", "--in", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: malformed record at position 0: foliation: the pullback recipe lives on a bundle\n"
    )


def test_metadata_that_is_not_an_object_is_refused(capsys, tmp_path):
    path = tmp_path / "listed.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "metadata": [], "records": []}))
    code, out, err = run(capsys, "catalog", "import", "--in", str(path))
    assert (code, out, err) == (1, "", "error: catalog metadata must be a JSON object\n")


def _index_out_of_range(obj):
    n = len(obj["objects"])
    obj["records"][1]["invariants"] = n
    return f"malformed record at position 1: invariants: {n} is not an index of objects[0:{n}]"


def _negative_index(obj):
    obj["records"][1]["checks"][0] = -1
    n = len(obj["objects"])
    return f"malformed record at position 1: checks[0]: -1 is not an index of objects[0:{n}]"


def _boolean_index(obj):
    obj["records"][0]["variety"] = True
    n = len(obj["objects"])
    return f"malformed record at position 0: variety: True is not an index of objects[0:{n}]"


def _index_to_itself(obj):
    # the base foliation's entry names itself as its ambient
    k = next(k for k, entry in enumerate(obj["objects"]) if "ambient" in entry)
    obj["objects"][k]["ambient"] = k
    return (
        f"malformed record at position 1: objects[{k}].ambient: {k} is not an index of "
        f"objects[0:{k}]"
    )


def _entry_read_by_no_record(obj):
    n = len(obj["objects"])
    obj["objects"].append(obj["objects"][0])
    return f"objects[{n}] is read by no record, and a re-export would drop it"


def _entry_in_two_roles(obj):
    record = obj["records"][1]
    record["invariants"] = k = record["variety"]
    return (
        f"malformed record at position 1: invariants: objects[{k}] is a variety, "
        "not an invariant report"
    )


@pytest.mark.parametrize("command", ["import", "verify"])
@pytest.mark.parametrize(
    "edit",
    [
        _index_out_of_range, _negative_index, _boolean_index, _index_to_itself,
        _entry_read_by_no_record, _entry_in_two_roles,
    ],
)
def test_malformed_object_table_fails_in_one_line(capsys, tmp_path, std_catalog, command, edit):
    # two records, the second over a base foliation and its ambient
    plain, based = (
        next(r for r in std_catalog.records if hasattr(r.foliation.recipe, "base") is has_base)
        for has_base in (False, True)
    )
    obj = json.loads(export_catalog(Catalog(records=(plain, based))))
    refusal = edit(obj)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    if command == "import":
        argv = ["catalog", "import", "--in", str(path), "--out-file", str(tmp_path / "again.json")]
    else:
        argv = ["verify", "--catalog", str(path)]
    assert run(capsys, *argv) == (1, "", f"error: {refusal}\n")
    assert not (tmp_path / "again.json").exists()


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


def _coordinate(record):
    return record["foliation"]["recipe"] == "coordinate"


def _nine_eighths(record):
    return record["id"] == "generalized-index:case1:n=3:r=2:c=9/8"


def _one_eighth_cone(record):
    # rank 3 and algebraic rank 2: the vertex rank 1 plus a pn1 base of (2, 1)
    return record["id"] == "fano-index:cone:n=4:r=2:c=1/8"


def _pencil_of_degrees_two_and_one(record):
    # K = d_f + d_g - 4 = -1, so (3, 0) keeps the stored K
    return record["id"] == "generalized-index:pn:n=3:r=2:c=1"


def _transcendental_base_over_plane(record):
    # a transcendental base keeps its K = p*H when moved to another P^k,
    # so only the ambient check can refuse the move
    fol = record["foliation"]
    if fol["recipe"] not in ("cone", "pullback"):
        return False
    plane = record["variety"].get("base_dim") == 2 or (
        _cone(record) and record["variety"]["base"]["label"] == "P^2"
    )
    return plane and fol["recipe_params"]["base"]["recipe"] == "transcendental"


def _quiet_leaf_status(record):
    # eps <= r^a - 1, so rc-consistency passes whatever leaf_rc says
    eps = record["invariants"]["seshadri_antican"]
    fol = record["foliation"]
    return (
        _cone(record)
        and fol["leaf_rc"] == "true"
        and eps is not None
        and Fraction(eps) <= fol["algebraic_rank"] - 1
    )


def _bundle(record):
    return record["variety"]["family"] == "bundle"


def _cone_over_transcendental(record):
    base = record["foliation"]["recipe_params"].get("base")
    return _cone(record) and base["recipe"] == "transcendental"


# fields a recipe fixes, each stored with another value; all three
# imported and verified before the recipes fixed them
_FIXED_FIELD_EDITS = [
    (
        ("foliation", "leaf_rc"), "false", _nine_eighths,
        'position 0: foliation: leaf_rc "false" differs from "true", '
        "fixed by the fibration recipe",
    ),
    (
        ("foliation", "provenance"),
        "asserted-existence: fibers of the pencil spanned by x_0^1 and x_1",
        _coordinate,
        'position 0: foliation: provenance "asserted-existence: fibers of the pencil spanned '
        'by x_0^1 and x_1" differs from "constructed: fibers of the pencil spanned by x_0^1 '
        'and x_1", fixed by the coordinate recipe',
    ),
    (
        ("foliation", "recipe_params", "base", "leaf_rc"), "true", _cone_over_transcendental,
        'position 0: foliation.recipe_params.base: leaf_rc "true" differs from "unknown", '
        "fixed by the transcendental recipe",
    ),
]


def _with(invariant):
    return lambda record: record["invariants"][invariant] is not None


_UTF16 = b"\xff\xfe" + '{"schema_version": "1"}'.encode("utf-16-le")


def _nested(depth):
    value = "leaf"
    for _ in range(depth):
        value = [value]
    return value


# command: "synth" takes value as its --c; "grid" runs verify with the
# arguments in value, each of which empties a sweep or gives a flag the grid
# does not read; "flags" runs verify --catalog of a one-record catalog with
# the arguments in value; "verify" and "import" read a
# catalog file.  A bytes value is the file's content.  Otherwise path
# names the field set to value: in the catalog's metadata when it starts
# with "metadata", in the catalog object itself when it starts with
# "catalog", else in the first record that victim accepts, which becomes
# the catalog's only record.  The error must contain named, when given.
@pytest.mark.parametrize(
    "command, path, value, victim, named",
    [
        ("verify", ("foliation", "leaf_rc"), "maybe", None, "foliation.leaf_rc must be one of"),
        ("verify", ("checks", 0, "status"), "maybe", None, "checks[0].status must be one of"),
        ("verify", ("invariants", "positivity", "big"), False, _big_not_ample, None),
        ("verify", ("invariants", "gen_index"), "1" * 5000, None, "invariants.gen_index: "),
        ("verify", ("variety", "m"), True, _bundle_with_m_one, None),
        ("synth", None, "1" * 5000 + "/3", None, None),
        ("verify", ("variety", "base", "is_projective_space"), "no", _cone, None),
        ("verify", ("variety", "base", "label"), 5, _cone, None),
        ("verify", ("invariants", "positivity", "pseff"), 1, None, None),
        ("verify", ("id",), 7, None, None),
        ("verify", ("foliation", "rank"), 99, _wps, None),
        ("verify", None, _UTF16, None, None),
        ("import", None, _UTF16, None, None),
        ("import", ("metadata", "i"), 1.5, None, None),
        ("import", ("metadata", "i"), float("inf"), None, None),
        ("import", ("metadata", "i"), _nested(900), None, None),
        ("verify", ("metadata", "deep key"), {"a": 1}, None, None),
        (
            "verify", ("foliation", "canonical", "gamma"), "-40", _nine_eighths,
            "foliation.canonical: stored canonical class (-3, -40) differs",
        ),
        ("verify", ("foliation", "recipe_params", "j"), 0, _coordinate, None),
        (
            "verify", ("foliation", "recipe_params", "base", "ambient", "weights"),
            [1] * 6, lambda r: _cone(r) and _transcendental_base_over_plane(r), None,
        ),
        (
            "verify", ("foliation", "recipe_params", "base", "ambient", "weights"),
            [1] * 9, lambda r: not _cone(r) and _transcendental_base_over_plane(r), None,
        ),
        ("import", ("foliation", "recipe_params", "x"), 5, _coordinate, None),
        ("import", ("foliation", "recipe_params", "j"), 3, _nine_eighths, None),
        ("verify", ("foliation", "leaf_rc"), "false", _quiet_leaf_status, None),
        ("verify", ("variety", "weights"), [1, 1, 1, 2], lambda r: r["branch"] == "pn", None),
        ("verify", ("foliation", "algebraic_rank"), 1, _one_eighth_cone, None),
        ("verify", ("foliation", "rank"), 2, _one_eighth_cone, None),
        (
            "verify", ("foliation", "recipe_params"), {"d_f": 3, "d_g": 0},
            _pencil_of_degrees_two_and_one, None,
        ),
        ("import", ("invariants", "x"), 5, None, None),
        ("import", ("invariants", "positivity", "x"), 5, None, None),
        ("import", ("variety", "x"), 5, None, None),
        ("import", ("request", "x"), 5, None, None),
        ("import", ("catalog", "x"), 5, None, None),
        ("verify", ("checks",), {}, None, "record.checks must be a JSON array"),
        ("verify", ("checks",), "abc", None, "record.checks must be a JSON array"),
        ("verify", ("variety", "b"), 7, _bundle, "variety.b must be a JSON array"),
        ("verify", ("variety", "weights"), 7, _wps, "variety.weights must be a JSON array"),
        (
            "import", ("foliation", "recipe_params", "base", "ambient", "weights"), "abc",
            _transcendental_base_over_plane,
            "foliation.recipe_params.base.ambient.weights must be a JSON array",
        ),
        ("verify", ("checks", 0, "status"), [], None, "checks[0].status must be one of"),
        ("verify", ("request", "kind"), "bogus", _nine_eighths, "request.kind must be one of"),
        (
            "verify", ("variety", "base", "singularity_class"), "bogus", _cone,
            "variety.base.singularity_class must be one of",
        ),
        ("verify", ("request", "c"), "1.5", _nine_eighths, "request.c: not a rational literal"),
        ("verify", ("invariants", "gen_index"), "1.5", None, "invariants.gen_index: not a"),
        (
            "verify", ("invariants", "fano_index"), "1/0", _with("fano_index"),
            "invariants.fano_index: zero denominator",
        ),
        (
            "verify", ("invariants", "seshadri_antican"), [], _with("seshadri_antican"),
            "invariants.seshadri_antican: not a",
        ),
        (
            "verify", ("foliation", "canonical", "gamma"), "x", _nine_eighths,
            "foliation.canonical.gamma: not a",
        ),
        ("verify", ("foliation", "canonical", "s"), 2, _cone, "foliation.canonical.s: not a"),
        (
            "import", ("foliation", "recipe_params", "base", "canonical", "s"), "1.5",
            _cone, "foliation.recipe_params.base.canonical.s: not a",
        ),
        ("grid", None, ("oracle", "--coeff-max", "-3"), None, "coeff_max must be at least 1"),
        ("grid", None, ("oracle", "--coeff-max", "0"), None, "coeff_max must be at least 1"),
        ("grid", None, ("oracle", "--b1-max", "-1"), None, "b1_max must be at least 0"),
        ("grid", None, ("oracle", "--k-max", "0"), None, "k_max must be at least 1"),
        ("grid", None, ("oracle", "--m-max", "0"), None, "m_max must be at least 1"),
        ("grid", None, ("oracle", "--rprime-max", "0"), None, "rprime_max must be at least 1"),
        (
            "grid", None, ("synth", "--kind", "seshadri", "--n-max", "1"), None,
            "n_max must be at least 2",
        ),
        (
            "grid", None, ("synth", "--kind", "seshadri", "--q-max", "0"), None,
            "q_max must be at least 1",
        ),
        ("grid", None, ("oracle", "--d-max", "0"), None, "d_max must be at least 1"),
        (
            "grid", None, ("oracle", "--c-max", "10"), None,
            "c_max must be at least b1_max*d_max + 1 = 19, got 10",
        ),
        (
            "verify", ("variety", "family"), "klein", None,
            "variety.family must be one of bundle, wps, cone, polarized-base, got 'klein'",
        ),
        ("verify", ("foliation", "recipe"), "zzz", None, "foliation.recipe must be one of"),
        (
            "import", ("foliation", "recipe_params", "base", "recipe"), "zzz", _cone,
            "foliation.recipe_params.base.recipe must be one of",
        ),
        ("import", ("foliation", "rank"), 0, _wps, "foliation: rank must satisfy"),
        ("verify", ("variety", "m"), 0, _bundle, "variety: twist m must be"),
        ("verify", ("request", "n"), 1, _nine_eighths, "request: need integer n >= 2"),
        (
            "verify", ("invariants", "positivity", "pseff"), False, _big_not_ample,
            "invariants.positivity: inconsistent flags",
        ),
        (
            "verify", ("invariants", "fano_index"), "1", _big_not_ample,
            "invariants: fano_index recorded for a non-ample anticanonical class",
        ),
        (
            "import", ("foliation", "recipe_params", "base", "canonical", "s"), "1/2", _cone,
            "foliation.recipe_params.base.canonical: stored canonical class (1/2)H differs",
        ),
        (
            "table", None, ("--family", "wps1", "--n", "3", "--m", "1", "--a1", "5", "--r", "99"),
            None, "family 'wps1' takes no a1; its parameters are: n, m",
        ),
        (
            "flags", None, ("--m-max", "5", "--kind", "seshadri", "--out", "csv"), None,
            "--m-max is not read by verify --catalog",
        ),
        (
            "grid", None, ("standard", "--coeff-max", "2"), None,
            "--coeff-max is not read by verify --grid standard",
        ),
        (
            "grid", None, ("oracle", "--kind", "seshadri", "--n-max", "9"), None,
            "--kind is not read by verify --grid oracle",
        ),
        (
            "grid", None, ("synth", "--coeff-max", "99"), None,
            "--coeff-max is not read by verify --grid synth",
        ),
        ("flags", None, ("--grid", "standard"), None, "--grid is not read by verify --catalog"),
        *((command, *edit) for edit in _FIXED_FIELD_EDITS for command in ("import", "verify")),
    ],
    ids=[
        "leaf-rc", "check-status", "big-flag", "long-literal", "bool-int", "long-synth-target",
        "str-bool", "int-label", "int-flag", "int-id", "rank-99", "utf16-verify",
        "utf16-import", "metadata-float", "metadata-infinity", "metadata-nested",
        "metadata-object", "case1-gamma", "coordinate-j-0", "cone-base-p5",
        "pullback-base-p8", "unknown-param", "fibration-param", "quiet-leaf-rc",
        "pn-on-weighted", "cone-algebraic-rank", "cone-rank", "pencil-degree-zero",
        "invariants-key", "positivity-key", "variety-key", "request-key", "catalog-key",
        "checks-object", "checks-string", "b-integer", "weights-integer", "base-weights-string",
        "check-status-array", "request-kind", "singularity-class", "request-c-decimal",
        "gen-index-decimal", "fano-index-zero-denominator", "seshadri-array", "canonical-gamma",
        "canonical-s-integer", "base-canonical-decimal", "oracle-coeff-negative",
        "oracle-coeff-zero", "oracle-b1-negative", "oracle-k-zero", "oracle-m-zero",
        "oracle-rprime-zero", "synth-n-one", "synth-q-zero", "oracle-d-zero",
        "oracle-c-short", "variety-family", "recipe", "base-recipe", "foliation-rank-zero",
        "variety-m-zero", "request-n-one", "positivity-constructor", "report-constructor",
        "base-canonical-mismatch", "table-param-of-another-family", "catalog-oracle-flag",
        "standard-oracle-flag", "oracle-synth-flag", "synth-oracle-flag", "catalog-grid",
        "fibration-leaf-rc-import", "fibration-leaf-rc-verify", "coordinate-provenance-import",
        "coordinate-provenance-verify", "base-leaf-rc-import", "base-leaf-rc-verify",
    ],
)
def test_bad_input_fails_in_one_line(
    capsys, tmp_path, std_catalog, command, path, value, victim, named
):
    catalog = tmp_path / "mutated.json"
    again = tmp_path / "again.json"
    if command == "synth":
        argv = ["synth", "--kind", "generalized-index", "--n", "3", "--r", "2", "--c", value]
    elif command == "grid":
        argv = ["verify", "--grid", *value, "--out", "json"]
    elif command == "table":
        argv = ["table", *value]
    elif command == "flags":
        catalog.write_text(export_catalog(Catalog(records=std_catalog.records[:1])))
        argv = ["verify", "--catalog", str(catalog), *value]
    else:
        if isinstance(value, bytes):
            catalog.write_bytes(value)
        else:
            records = (record_to_json(r) for r in std_catalog.records)
            record = next(r for r in records if victim is None or victim(r))
            obj = {"schema_version": SCHEMA_VERSION, "metadata": {}, "records": [record]}
            if path[0] == "catalog":
                target, keys = obj, path[1:-1]
            else:
                target, keys = obj if path[0] == "metadata" else record, path[:-1]
            for key in keys:
                target = target[key]
            added = path[-1] not in target
            target[path[-1]] = value
            catalog.write_text(json.dumps(obj))
        if command == "verify":
            argv = ["verify", "--catalog", str(catalog)]
        else:
            argv = ["catalog", "import", "--in", str(catalog), "--out-file", str(again)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not again.exists()
    if named is not None:
        assert named in err
    if isinstance(value, bytes):
        assert "not UTF-8" in err
    elif path is not None and path[0] == "metadata":
        assert f"metadata.{path[-1]} " in err or f"metadata[{path[-1]!r}] " in err
    elif path is not None and path[0] == "catalog":
        assert f"catalog.{path[-1]} " in err
    elif path is not None:
        assert "position 0" in err  # the mutated record is the catalog's only one
        if added:  # a key the schema does not know is named
            assert f"{path[-2]}.{path[-1]} " in err


@pytest.mark.parametrize(
    "name, argv",
    [
        (
            "n",
            ("synth", "--kind", "fano-index", "--n", "1000000000000000000000", "--r", "1",
             "--c", "1"),
        ),
        (
            "rprime",
            ("table", "--family", "cone", "--rprime", "1000000000000000000000", "--m", "1",
             "--d", "0"),
        ),
        (
            "base_dim",
            ("table", "--family", "cone", "--rprime", "1", "--m", "1", "--d", "0",
             "--base-dim", "100000000000000000000"),
        ),
        (
            "rprime",
            ("table", "--family", "cone", "--rprime", "1..1000000000000000000000", "--m", "1",
             "--d", "0"),
        ),
        ("m", ("table", "--family", "wps1", "--n", "3", "--m", "1..1000000000000000000000")),
        (
            "b1_max",
            ("verify", "--grid", "oracle", "--b1-max", "1000000000000000000000",
             "--c-max", "1000000000000000000000000", "--d-max", "1"),
        ),
    ],
    ids=[
        "synth-n", "cone-rprime", "cone-base-dim", "cone-rprime-range", "wps1-m-range",
        "oracle-b1-max",
    ],
)
def test_integer_too_large_for_a_length_fails_in_one_line(capsys, name, argv):
    # these would build tuples of the given length, which Python refuses
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {name} = ") and err.count("\n") == 1
    assert "too large" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["k_max", "rprime_max", "m_max", "coeff_max"])
def test_oracle_grid_above_its_ceiling_fails_in_one_line(name):
    # each of these grids would run for ever; the grid's cost bounds
    # refuse it before any work
    argv = ["verify", "--grid", "oracle", f"--{name.replace('_', '-')}", str(10**21)]
    env = {**os.environ, "PYTHONPATH": str(Path(foliadex.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "foliadex.cli", *argv],
        capture_output=True, text=True, env=env, timeout=3,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {name} = {10**21} is too large")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "name, argv",
    [
        (
            "rprime",
            ("table", "--family", "cone", "--rprime", "1..100000000", "--m", "1", "--d", "0"),
        ),
        ("a2", ("table", "--family", "wps3", "--a1", "1..100000", "--a2", "1..100000")),
        ("n_max", ("verify", "--grid", "synth", "--kind", "fano-index", "--n-max", str(10**21))),
        ("q_max", ("verify", "--grid", "synth", "--kind", "fano-index", "--q-max", str(10**21))),
        ("r", ("table", "--family", "mixed", "--r", "1..100000", "--out", "csv")),
        ("n", ("table", "--family", "wps1", "--n", "3..100002", "--m", "1", "--out", "csv")),
        ("n", ("synth", "--kind", "generalized-index", "--n", "100000000", "--r", "1", "--c", "1")),
    ],
    ids=["cone-rprime", "wps3-a2", "synth-n-max", "synth-q-max", "mixed-r", "wps1-n", "synth-n"],
)
def test_work_above_its_ceiling_fails_in_one_line(name, argv):
    # each of these would run for minutes or for ever; the product of the
    # table's range lengths, the synth grid's target-count bound, or the
    # dimension ceiling is refused before any work
    env = {**os.environ, "PYTHONPATH": str(Path(foliadex.__file__).parents[1])}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "foliadex.cli", *argv],
        capture_output=True, text=True, env=env, timeout=3,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {name} = ") and "is too large" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_out_of_memory_fails_in_one_line(capsys, monkeypatch):
    # str(MemoryError()) is empty, so the line must say what happened
    def exhausted(request):
        raise MemoryError()

    monkeypatch.setattr(cli, "synthesize", exhausted)
    argv = ("synth", "--kind", "fano-index", "--n", "3", "--r", "1", "--c", "1")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: out of memory\n")


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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every CLI process pays for its imports; these two and the code that
    # dataclasses generates were a third of importing foliadex.cli.  -S
    # keeps site .pth files, which may import either, out of the result.
    code = "import foliadex.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(foliadex.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_installed_script_and_module_run_call_the_process_entry():
    # the installed `foliadex` script and `python -m foliadex.cli` must
    # both start cli.run, the entry that freezes the collector at exit
    pyproject = Path(foliadex.__file__).parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["foliadex"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == ["sys.exit(run())"]


_FROZEN_AT_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("foliadex.cli", run_name="__main__")
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["info", "--out", "json"], 0),
        (["info", "--no-such-flag"], 1),
        (["synth", "--kind", "fano-index", "--n", "3", "--r", "2", "--c", "7/5"], 2),
    ],
    ids=["ok", "usage", "unsupported"],
)
def test_module_run_freezes_its_objects_before_exit(argv, code):
    # the collections at interpreter exit skip frozen objects; an atexit
    # hook runs after run() has returned, before those collections
    proc = subprocess.run(
        [sys.executable, "-c", _FROZEN_AT_EXIT, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == code
    assert proc.stderr.splitlines()[-1] == "True"


def test_main_leaves_the_collector_alone(capsys):
    # tests, embedders and the tracer call main in-process
    before = gc.get_freeze_count()
    assert main(["info"]) == 0
    assert main(["synth", "--kind", "fano-index", "--n", "3", "--r", "2", "--c", "7/5"]) == 2
    assert gc.get_freeze_count() == before


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
    for name in OracleGrid.__slots__:
        assert getattr(args, name) == getattr(grid, name), name


def test_verify_flags_default_to_the_synth_grid():
    args = build_parser().parse_args(["verify", "--grid", "synth", "--kind", "seshadri"])
    grid = SynthGrid(SynthKind.SESHADRI)
    assert cli._GRID_FLAGS["synth"] == SynthGrid.__slots__
    for name in ("n_max", "q_max"):
        assert getattr(args, name) == getattr(grid, name), name


def test_verify_grid_oracle_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--grid", "oracle", "--m-max", "1", "--b1-max", "1",
        "--rprime-max", "1", "--k-max", "1", "--coeff-max", "2", "--out", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0 and report["total"] > 0
