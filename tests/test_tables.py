"""The table command: family registry, parameter columns and pinned output."""

import hashlib
import json

import pytest

from foliadex.catalog import record_to_json
from foliadex.cli import main
from foliadex.errors import DomainError
from foliadex.jsontext import render
from foliadex.tables import FAMILY_PARAMS, table_rows

# Every family over a box that holds feasible and infeasible tuples,
# plus requests that table_rows or parse_range reject.
TABLE_REQUESTS = [
    ["--family", "hirzebruch", "--a", "0..7"],
    ["--family", "hirzebruch", "--a", "2..4", "--n", "3"],
    ["--family", "wps1", "--n", "2..5", "--m", "0..3"],
    ["--family", "wps2", "--n", "2..4", "--mprime", "0..3", "--m", "1..5"],
    ["--family", "wps3", "--a1", "0..4", "--a2", "1..5"],
    ["--family", "wps4", "--a1", "0..4", "--a2", "1..5"],
    ["--family", "cone", "--rprime", "0..3", "--m", "0..3", "--d=-1..9"],
    ["--family", "cone", "--base-dim", "1..3", "--rprime", "1..2", "--m", "2", "--d", "0..3"],
    ["--family", "case1", "--n", "2..5", "--r", "1..4", "--p", "1..9", "--q", "1..4"],
    ["--family", "case1", "--n", "3", "--r", "2", "--p", "1..3", "--q=-2..-1"],
    ["--family", "case2", "--n", "2..4", "--r", "1..3", "--p=-1..5", "--q", "1..6"],
    ["--family", "case2", "--n", "3", "--r", "2", "--p=-1..5", "--q=-2..-1"],
    ["--family", "mixed", "--r", "0..5"],
    ["--family", "rc-genus", "--r", "1..4", "--m", "0..3"],
    ["--family", "rc-flat", "--n", "2..6", "--r", "1..4", "--m", "0..3"],
    ["--family", "hirzebruch", "--a", "3..1"],
    ["--family", "hirzebruch"],
    ["--family", "hirzebruch", "--a", "x"],
    ["--family", "quintic", "--a", "1..3"],
    ["--family", "case1", "--n", "3", "--r", "2", "--p", "3"],
    ["--family", "rc-flat", "--n", "5..2", "--r", "2", "--m", "1"],
]


def test_table_output_is_pinned(capsys):
    # Exit code, stdout and stderr of every request in every format, and
    # the family list info reports, exactly as the if-chain dispatch
    # produced them.
    transcript = []
    for request in TABLE_REQUESTS:
        for fmt in ("json", "csv", "table"):
            argv = ["table", *request, "--out", fmt]
            code = main(argv)
            captured = capsys.readouterr()
            transcript.append(f"$ {' '.join(argv)}\n{code}\n{captured.out}{captured.err}")
    assert main(["info", "--out", "json"]) == 0
    families = json.loads(capsys.readouterr().out)["table_families"]
    transcript.append(", ".join(families))
    data = "".join(transcript).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == (
        "c7e96471b2efbdec2ff634a90ebe9783c931881a373a49f7725985f7ec8fe052"
    )


def test_family_params_keep_their_columns():
    assert list(FAMILY_PARAMS.items()) == [
        ("hirzebruch", ("a",)),
        ("wps1", ("n", "m")),
        ("wps2", ("n", "mprime", "m")),
        ("wps3", ("a1", "a2")),
        ("wps4", ("a1", "a2")),
        ("cone", ("base_dim", "rprime", "m", "d")),
        ("case1", ("n", "r", "p", "q")),
        ("case2", ("n", "r", "p", "q")),
        ("mixed", ("r",)),
        ("rc-genus", ("r", "m")),
        ("rc-flat", ("n", "r", "m")),
    ]


def test_zero_denominator_is_an_infeasible_row(capsys):
    base = ["table", "--family", "case1", "--n", "3", "--r", "2", "--p", "1..5", "--out", "csv"]
    assert main([*base, "--q", "1..2"]) == 0
    expected = capsys.readouterr().out
    assert main([*base, "--q", "0..2"]) == 0
    assert capsys.readouterr().out == expected


def test_table_tuples_are_bounded_before_any_is_built():
    # 2 * 50,001 tuples pass the ceiling of 100,000, which a2 takes over
    refusal = "a2 = 1..50001 is too large: a table may try at most 100,000 parameter tuples"
    with pytest.raises(DomainError, match=f"^{refusal}, the product of its range lengths$"):
        table_rows("wps3", {"a1": range(1, 3), "a2": range(1, 50_002)})
    # with an empty range no tuple exists, however long the others are
    assert table_rows("wps3", {"a1": (), "a2": range(1, 10**21)}) == []


def _box(names):
    # each parameter over -2..8, or -1..6 in the four-parameter families
    values = range(-1, 7) if len(names) == 4 else range(-2, 9)
    return {name: values for name in names}


def test_family_rows_over_a_box_are_pinned():
    # Every row of every family over a box reaching past each bound on
    # both sides, as its record's JSON; a builder's bounds may move
    # between it and the constructors it calls, but not its rows.
    texts = [
        render(record_to_json(row.record))
        for family, names in FAMILY_PARAMS.items()
        for row in table_rows(family, _box(names))
    ]
    assert len(texts) == 1729
    assert hashlib.sha256("".join(texts).encode("utf-8")).hexdigest() == (
        "e414c1ef4bd83ddb008b6a95743151cbb2c432efb5ee1a467395e6831591c36a"
    )
