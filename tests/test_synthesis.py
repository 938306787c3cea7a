"""Synthesis: target invariant in, certified example record out."""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import foliadex
from foliadex import bundle, invariants, synthesis
from foliadex import (
    BundleVariety,
    DomainError,
    ParseError,
    SynthKind,
    SynthesisRequest,
    UnsupportedRequest,
    WeightedProjectiveSpace,
    case1_parameters,
    synth_fano_index,
    synth_generalized_index,
    synth_seshadri,
    synthesize,
)
from foliadex.catalog import _standard_tables, record_to_json
from foliadex.lattice import Class2
from foliadex.synthesis import TARGET_FIELD, parse_record_id, record_id, request_id
from foliadex.tables import FAMILY_PARAMS, build, table_rows

# every synthesized record must come back with its construction checks green
def assert_certified(record):
    bad = [c for c in record.checks if c.status.value == "fail"]
    assert not bad, bad


def test_gen_index_fibration_case():
    rec = synth_generalized_index(3, 2, "3/2")
    assert rec.branch == "case1"
    assert rec.variety == BundleVariety(1, 2, (1, 1))
    assert rec.invariants.gen_index == Fraction(3, 2)
    assert_certified(rec)


def test_gen_index_small_target_case():
    rec = synth_generalized_index(3, 2, "1/2")
    assert rec.branch == "case2"
    assert rec.variety == BundleVariety(2, 2, (1,))
    assert rec.invariants.gen_index == Fraction(1, 2)
    assert_certified(rec)


def test_gen_index_surface():
    rec = synth_generalized_index(2, 1, "1/2")
    assert rec.branch == "hirzebruch"
    assert rec.variety == BundleVariety(1, 1, (0,))
    assert_certified(rec)
    with pytest.raises(UnsupportedRequest):
        synth_generalized_index(2, 1, "2/5")  # not of the form (a-1)/a


def test_fano_index_cone_case():
    rec = synth_fano_index(4, 2, "3/2")
    assert rec.branch == "cone"
    assert rec.variety.m == 2
    assert rec.variety.vertex_rank == 2
    assert rec.variety.base.dim == 2
    assert rec.invariants.fano_index == Fraction(3, 2)
    assert rec.foliation.algebraic_rank == 2
    assert_certified(rec)


def test_fano_index_weighted_case():
    rec = synth_fano_index(3, 2, "3/2")
    assert rec.branch == "wps1"
    assert rec.variety == WeightedProjectiveSpace((1, 1, 1, 2))
    assert rec.invariants.fano_index == Fraction(3, 2)
    assert_certified(rec)


def test_fano_index_integer_target():
    rec = synth_fano_index(5, 1, 1)
    assert rec.branch == "pn"
    assert rec.variety == WeightedProjectiveSpace((1,) * 6)
    assert rec.invariants.fano_index == 1
    assert_certified(rec)


def test_seshadri_band_case():
    rec = synth_seshadri(3, 2, "3/2")
    assert rec.branch == "wps2"
    assert rec.variety == WeightedProjectiveSpace((1, 1, 1, 2))
    assert rec.invariants.seshadri_antican == Fraction(3, 2)
    assert_certified(rec)


def test_seshadri_surface_case():
    rec = synth_seshadri(2, 1, "2/3")
    assert rec.branch == "wps4"
    assert rec.variety == WeightedProjectiveSpace((1, 2, 3))
    assert rec.invariants.seshadri_antican == Fraction(2, 3)
    assert_certified(rec)


def test_seshadri_cone_case():
    rec = synth_seshadri(4, 2, "3/2")
    assert rec.branch == "cone"
    assert rec.invariants.seshadri_antican == Fraction(3, 2)
    assert_certified(rec)


def test_case1_parameters_values():
    small = case1_parameters(2, 3, 2)
    assert (small.l, small.b_list) == (1, (1, 1))
    wide = case1_parameters(3, 5, 2)
    assert (wide.l, wide.b_list) == (2, (3, 3, 3))
    with pytest.raises(DomainError):
        case1_parameters(2, 1, 2)  # needs q < p


def _scanned_twist_scale(r, p, q):
    # the minimal l found by direct scan, as case1_parameters once did
    l = 1
    while not (l * (p - q) + (p - q * r) + 1 > 0 and l * (q * r - p) >= r - 1):
        l += 1
    return l


def test_case1_twist_scale_matches_the_scan():
    for r in range(2, 7):
        for q in range(1, 41):
            for p in range(q + 1, q * r):
                if math.gcd(p, q) == 1:
                    assert case1_parameters(r, p, q).l == _scanned_twist_scale(r, p, q), (r, p, q)


def test_request_validation():
    with pytest.raises(DomainError):
        SynthesisRequest(SynthKind.GENERALIZED_INDEX, n=1, r=1, c=Fraction(1))
    with pytest.raises(DomainError):
        SynthesisRequest(SynthKind.GENERALIZED_INDEX, n=3, r=3, c=Fraction(1))
    with pytest.raises(DomainError):
        SynthesisRequest(SynthKind.GENERALIZED_INDEX, n=3, r=2, c=Fraction(0))


def test_target_above_rank_is_rejected():
    with pytest.raises(UnsupportedRequest):
        synth_generalized_index(4, 2, "5/2")
    with pytest.raises(UnsupportedRequest):
        synth_fano_index(4, 1, 2)


def test_kind_spellings():
    assert SynthKind.from_text("generalized_index") is SynthKind.GENERALIZED_INDEX
    assert SynthKind.from_text("fano-index") is SynthKind.FANO_INDEX
    with pytest.raises(DomainError):
        SynthKind.from_text("volume")


requests = st.builds(
    lambda kind, n, r_seed, p, q: SynthesisRequest(
        kind, n=n, r=1 + r_seed % (n - 1), c=Fraction(p, q)
    ),
    st.sampled_from(list(SynthKind)),
    st.integers(2, 6),
    st.integers(0, 4),
    st.integers(1, 18),
    st.integers(1, 6),
)


@given(requests)
@settings(max_examples=150)
def test_round_trip_is_exact(request):
    try:
        rec = synthesize(request)
    except UnsupportedRequest:
        return
    field = TARGET_FIELD[request.kind]
    assert getattr(rec.invariants, field) == request.c
    assert_certified(rec)


@given(requests)
@settings(max_examples=150)
def test_branch_totality(request):
    # raising anything but UnsupportedRequest here is a bug, whatever c is
    try:
        rec = synthesize(request)
    except UnsupportedRequest:
        return
    assert rec.branch
    assert rec.id.startswith(request.kind.value)


def test_records_are_deterministic():
    a = record_to_json(synth_generalized_index(5, 3, "7/3"))
    b = record_to_json(synth_generalized_index(5, 3, "7/3"))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a == b


def _callers(name):
    """(module, innermost enclosing function) of each call to name in the package.

    A call at module level is placed in "<module>"; a lambda belongs to the
    function it is written in.
    """
    found = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(foliadex.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    return found


def test_records_are_built_only_by_the_assembler_and_the_decoder():
    # A record is built from a foliation in one place, which computes its
    # invariants once; the catalog decoder rebuilds stored records as read.
    assert _callers("ExampleRecord") == {
        ("synthesis.py", "assemble_record"),
        ("catalog.py", "_record_from_json"),
    }
    builders = {c for c in _callers("compute_invariants") if c[0] in ("synthesis.py", "families.py")}
    assert builders == {("synthesis.py", "assemble_record")}


def test_ids_are_formatted_in_one_place():
    # a synth record's id renders its request, a table row's its family
    # and parameters; nothing else writes one, and the parser reads back
    # only what it writes
    assert _callers("record_id") == {
        ("synthesis.py", "request_id"),
        ("families.py", "_family_record"),
        ("synthesis.py", "parse_record_id"),
    }


def test_ids_are_parsed_in_one_place():
    # parse_construction is the one reader of an id, for build and for
    # the import check of a table row's id
    assert _callers("parse_record_id") == {("tables.py", "parse_construction")}
    assert _callers("parse_construction") == {
        ("tables.py", "build"),
        ("catalog.py", "_record_from_json"),
    }


def test_each_shared_branch_has_one_geometry():
    # synthesize and the table rows of the wps1-wps4 and cone branches
    # build their foliations through the same geometry functions
    assert _callers("wps_coordinate_foliation") == {("synthesis.py", "_wps")}
    assert _callers("_pn_cone") == {("synthesis.py", "_cone")}
    assert {where for module, where in _callers("cone_foliation")} == {
        "_cone", "rc_genus_record", "rc_flat_record",
    }
    # the Hirzebruch, case-1 and case-2 rows are synth requests, under one rule
    assert {c for c in _callers("synthesize") if c[0] == "families.py"} == {
        ("families.py", "_synth_row"),
    }
    assert {where for module, where in _callers("_synth_row")} == {
        "hirzebruch_record", "case1_record", "case2_record",
    }


def test_id_grammar():
    request = SynthesisRequest(SynthKind.SESHADRI, 3, 2, Fraction(3, 2))
    assert request_id(request, "cone") == "seshadri:cone:n=3:r=2:c=3/2"
    params = {"base_dim": 2, "rprime": 1, "m": 3, "d": 0}
    assert record_id("table", "cone", params) == "table:cone:k=2:rprime=1:m=3:d=0"


def test_each_standard_id_renders_its_construction(std_catalog):
    # synth records first, then the table rows, in export order
    expected = [
        request_id(record.request, record.branch)
        for record in std_catalog.records if record.request is not None
    ]
    for family, ranges in _standard_tables():
        rows = table_rows(family, ranges)
        expected.extend(record_id("table", family, row.params) for row in rows)
    assert [record.id for record in std_catalog.records] == expected


def test_parse_record_id_inverts_record_id_on_every_standard_id(std_catalog):
    for record in std_catalog.records:
        head, branch, params = parse_record_id(record.id)
        assert record_id(head, branch, params) == record.id
        assert branch == record.branch
        if record.request is not None:
            assert (head, params) == (record.request.kind.value, {
                "n": record.request.n, "r": record.request.r, "c": record.request.c,
            })
    assert parse_record_id("table:cone:k=2:rprime=1:m=3:d=0") == (
        "table", "cone", {"base_dim": 2, "rprime": 1, "m": 3, "d": 0}
    )


def _box(family):
    """A small box of family's parameters, each over up to 3 values in -1..11."""
    return st.fixed_dictionaries({
        name: st.builds(lambda start, size: range(start, start + size),
                        st.integers(-1, 9), st.integers(1, 3))
        for name in FAMILY_PARAMS[family]
    })


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(FAMILY_PARAMS)), st.data())
def test_parse_record_id_inverts_record_id_on_table_rows(family, data):
    for row in table_rows(family, data.draw(_box(family))):
        head, branch, params = parse_record_id(row.record.id)
        assert record_id(head, branch, params) == row.record.id
        if row.record.request is None:
            assert (head, branch, params) == ("table", family, row.params)


@pytest.mark.parametrize("family", FAMILY_PARAMS)
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_build_rebuilds_each_table_row_from_its_id(family, data):
    # a synth-backed row's id is its request's, any other row's is its
    # family's and parameters'; either names the row's construction
    for row in table_rows(family, data.draw(_box(family))):
        assert build(row.record.id) == row.record


# texts record_id does not write
_NOT_IDS = [
    "", "table", "table:wps1:n", "table:wps1:n=3=4", "table:wps1:n=x", "table:wps1:n=03",
    "table:cone:base_dim=2", "table:wps1:n=3:", "table:wps1:n=3:n=3",
]


@pytest.mark.parametrize("text", _NOT_IDS)
def test_parse_record_id_refuses_what_record_id_does_not_write(text):
    with pytest.raises(ParseError, match="is not a record id$"):
        parse_record_id(text)


@pytest.mark.parametrize(
    "text",
    [
        *_NOT_IDS,
        # table ids with misnamed, misordered, missing, surplus or non-integer parameters
        "table:wps1:n=3:mm=2", "table:wps1:m=2:n=3", "table:wps1:n=3", "table:wps1:n=3:m=2:d=0",
        "table:wps1:n=3:m=1/2", "table:cone:k=2:rprime=1:m=3:d=-1/2", "table:quintic:a=2",
        # synth ids of no kind, with a non-integer dimension or rank, or out of range
        "volume:pn:n=3:r=1:c=1", "fano-index:pn:n=7/2:r=1:c=1", "fano-index:pn:n=3:r=1/2:c=1",
        "fano-index:pn:n=3:r=3:c=1", "fano-index:pn:n=3:r=1:c=0", "fano-index:pn:n=3:r=1",
        "fano-index:pn:r=1:n=3:c=1",
    ],
)
def test_build_refuses_what_names_no_construction(text):
    with pytest.raises(ParseError, match="is not a record id$"):
        build(text)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 12), st.data())
def test_every_seshadri_target_up_to_the_rank_synthesizes(n, data):
    # the targets c <= r that no cone or P^n realizes are the surface
    # targets and the band n-2 < c < n-1 of rank n-1, both weighted spaces
    r = data.draw(st.integers(1, n - 1), label="r")
    q = data.draw(st.integers(1, 12), label="q")
    c = Fraction(data.draw(st.integers(1, r * q), label="p"), q)
    record = synth_seshadri(n, r, c)
    assert record.invariants.seshadri_antican == c
    assert_certified(record)


def test_each_certified_bundle_fact_has_one_test_and_one_rule():
    # The witness is tested only by the construction check that stores
    # the outcome; the Seshadri rule the records use is the one the
    # check audits.
    assert _callers("is_valid_for") == {("synthesis.py", "witness_check")}
    assert _callers("seshadri_constant") == {
        ("invariants.py", "_bundle_invariants"),
        ("synthesis.py", "seshadri_scaled_check"),
    }


def test_an_invalid_witness_is_stored_as_fail(monkeypatch):
    monkeypatch.setattr(bundle.IndexWitness, "is_valid_for", lambda self, variety, cls: False)
    value, _ = bundle.generalized_index(BundleVariety(1, 2, (1, 1)), Class2(3, 0))
    assert value == Fraction(3, 2)
    statuses = {c.name: c.status.value for c in synth_generalized_index(3, 2, "3/2").checks}
    assert statuses["index-witness-valid"] == "fail"
    assert statuses["target-invariant-exact"] == "pass"


def test_a_wrong_seshadri_rule_is_stored_as_fail(monkeypatch):
    honest = bundle.seshadri_constant

    def doubled_on_the_ray(variety, cls):
        eps = honest(variety, cls)
        return None if eps is None else 2 * eps

    for module in (invariants, synthesis):
        monkeypatch.setattr(module, "seshadri_constant", doubled_on_the_ray)
    record = synth_generalized_index(3, 2, "3/2")
    check = next(c for c in record.checks if c.name == "seshadri-scaled-polarization")
    assert check.status.value == "fail"
    assert check.detail == "eps(3/2*H0) = 3 with H0 = (1, 2)"
