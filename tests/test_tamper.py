"""A data-mutation corpus (DeMillo, Lipton and Sayward, "Hints on test data
selection", 1978): one-record catalogs cut from the standard export, each
with one stored field edited, and where each edit is caught.

Every edit below changes a field that some recipe fixes: a record's leaf
status, its provenance kind, and the leaf status of a transcendental base
foliation.  Each edit either is refused on import, fails verify --catalog,
or passes both; the test pins how many do each, and which recipes the
survivors sit on.  Then the base dimension of a synth record's bundle,
which its request fixes, is edited by one either way, and every edit is
refused on import.  Last, a synth record's foliation is swapped for one
of another algebraic rank on the same variety, which its request also
fixes, and every swap is refused on import.
"""

import json
from collections import Counter

import pytest

from foliadex import (
    SCHEMA_VERSION,
    BundleVariety,
    FoliadexError,
    import_catalog,
    record_to_json,
)
from foliadex.verification import verify_catalog

_LEAF_STATUSES = ("true", "false", "unknown")


def _caught(record) -> str:
    """Where the one-record catalog of record is caught, if anywhere."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, "metadata": {}, "records": [record]})
    try:
        catalog = import_catalog(text)
    except FoliadexError:
        return "refused"
    return "fails" if verify_catalog(catalog.records).failed else "passes"


def _swapped(provenance: str) -> str:
    kind, rest = provenance.split(":", 1)
    return ("asserted-existence" if kind == "constructed" else "constructed") + ":" + rest


def _edits(record):
    """(corpus, an edited copy of record) for each edit of record."""
    fol = record["foliation"]
    text = json.dumps(record)
    for status in _LEAF_STATUSES:
        if status != fol["leaf_rc"]:
            edited = json.loads(text)
            edited["foliation"]["leaf_rc"] = status
            yield "leaf_rc", edited
    edited = json.loads(text)
    edited["foliation"]["provenance"] = _swapped(fol["provenance"])
    yield "provenance", edited
    base = fol["recipe_params"].get("base")
    if base is not None and base["recipe"] == "transcendental":
        for status in _LEAF_STATUSES:
            if status != base["leaf_rc"]:
                edited = json.loads(text)
                edited["foliation"]["recipe_params"]["base"]["leaf_rc"] = status
                yield "base leaf_rc", edited


def test_fixed_field_edits_are_caught(std_catalog):
    counts = {corpus: Counter() for corpus in ("leaf_rc", "provenance", "base leaf_rc")}
    survivors = {corpus: Counter() for corpus in counts}
    for record in std_catalog.records:
        obj = record_to_json(record)
        for corpus, edited in _edits(obj):
            caught = _caught(edited)
            counts[corpus][caught] += 1
            if caught == "passes":
                survivors[corpus][obj["foliation"]["recipe"]] += 1
    # Only the pn1 and pn2 rows on P^n keep free fields among these: a
    # pencil of hypersurfaces other than hyperplanes leaves its leaf
    # status free, and neither recipe fixes its provenance.
    assert counts == {
        "leaf_rc": Counter(refused=3660, passes=6),
        "provenance": Counter(refused=1821, passes=12),
        "base leaf_rc": Counter(refused=882),
    }
    assert survivors == {
        "leaf_rc": Counter(pn2=6),
        "provenance": Counter(pn1=6, pn2=6),
        "base leaf_rc": Counter(),
    }


def _refusal(record) -> str:
    """Which rule of import refuses the one-record catalog of record."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, "metadata": {}, "records": [record]})
    try:
        import_catalog(text)
    except FoliadexError as exc:
        return "dimension" if "not request.n" in str(exc) else "other"
    return "none"


def test_synth_bundle_dimension_edits_are_refused(std_catalog):
    # A synth record's variety must have the dimension n of its request.
    # Of the base_dim +-1 edits of the 240 synth bundle records, 198 pass
    # every other rule of import: the fibrations, whose recipe fits any base.
    refusals = Counter()
    for record in std_catalog.records:
        if record.request is None or not isinstance(record.variety, BundleVariety):
            continue
        obj = record_to_json(record)
        for step in (-1, 1):
            edited = json.loads(json.dumps(obj))
            edited["variety"]["base_dim"] += step
            refusals[_refusal(edited)] += 1
    assert refusals == Counter(other=282, dimension=198)


def test_dimension_refusal_names_the_record_and_both_dimensions(std_catalog):
    record = next(r for r in std_catalog.records if r.id == "generalized-index:case1:n=3:r=2:c=9/8")
    obj = record_to_json(record)
    obj["variety"]["base_dim"] += 1
    text = json.dumps({"schema_version": SCHEMA_VERSION, "metadata": {}, "records": [obj]})
    with pytest.raises(FoliadexError) as refusal:
        import_catalog(text)
    assert str(refusal.value) == (
        "malformed record at position 0: variety has dimension 4, not request.n = 3"
    )


def _rank_refusal(record) -> str:
    """Which rule of import refuses the one-record catalog of record."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, "metadata": {}, "records": [record]})
    try:
        import_catalog(text)
    except FoliadexError as exc:
        return "rank" if "not request.r" in str(exc) else "other"
    return "none"


def test_synth_foliation_swaps_of_another_algebraic_rank_are_refused(std_catalog):
    # A synth record's foliation must have the algebraic rank r of its
    # request.  Each synth record is given the foliation of the first
    # synth record of its branch and variety whose algebraic rank differs.
    # Without this rule, 452 of the 1,352 swaps import and pass verify
    # --catalog, because the donor's invariants are the record's own, and
    # the other 900 import and fail verify.
    peers = {}
    for record in std_catalog.records:
        if record.request is not None:
            peers.setdefault((record.branch, record.variety), []).append(record)
    refusals = Counter()
    for record in std_catalog.records:
        if record.request is None:
            continue
        rank = record.foliation.algebraic_rank
        donor = next(
            (peer for peer in peers[record.branch, record.variety]
             if peer.foliation.algebraic_rank != rank),
            None,
        )
        if donor is not None:
            edited = record_to_json(record)
            edited["foliation"] = record_to_json(donor)["foliation"]
            refusals[_rank_refusal(edited)] += 1
    assert refusals == Counter(rank=1352)


@pytest.mark.parametrize(
    "record_id, donor_id, ranks",
    [
        ("seshadri:cone:n=6:r=5:c=7/2", "fano-index:cone:n=6:r=4:c=7/2", (4, 5)),
        ("generalized-index:case2:n=4:r=3:c=5/8", "generalized-index:case2:n=4:r=2:c=5/8", (2, 3)),
        ("seshadri:cone:n=6:r=3:c=14/5", "seshadri:cone:n=6:r=5:c=14/5", (5, 3)),
    ],
)
def test_rank_refusal_names_the_record_and_both_ranks(std_catalog, record_id, donor_id, ranks):
    # a donor on the same variety, with the record's own invariants
    by_id = {r.id: r for r in std_catalog.records}
    obj = record_to_json(by_id[record_id])
    obj["foliation"] = record_to_json(by_id[donor_id])["foliation"]
    text = json.dumps({"schema_version": SCHEMA_VERSION, "metadata": {}, "records": [obj]})
    with pytest.raises(FoliadexError) as refusal:
        import_catalog(text)
    stored, requested = ranks
    assert str(refusal.value) == (
        "malformed record at position 0: "
        f"foliation has algebraic rank {stored}, not request.r = {requested}"
    )
