"""The one JSON writer: json.dumps(indent=2) text for exact JSON values only."""

import ast
import enum
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import foliadex
from foliadex.jsontext import render

# Characters the escaper treats specially, next to arbitrary code points
# (lone surrogates included: the default alphabet leaves category Cs out).
SPECIAL = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "\ud800", "\udfff", "😀"])
text = st.text(st.one_of(SPECIAL, st.characters(blacklist_categories=())), max_size=8)
integers = st.one_of(
    st.integers(-(2**16), 2**16),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
)
scalars = st.one_of(text, integers, st.booleans(), st.none())


def _trees(depth):
    tree = scalars
    for _ in range(depth):
        tree = st.one_of(
            scalars,
            st.lists(tree, max_size=3),
            st.dictionaries(text, tree, max_size=3),
        )
    return tree


DEEP = {"k\u00e9\ud800": [[], {}, [{"\"\\": [[[[-(2**70), True, None, "\x01"]]]]}]]}


@given(_trees(8))
@example(DEEP)
def test_render_equals_json_dumps_indent_2(value):
    expected = json.dumps(value, indent=2)
    assert render(value) == expected


@given(st.lists(_trees(3), max_size=4))
def test_render_refuses_an_iterator(members):
    with pytest.raises(TypeError):
        render({"members": iter(members)})


class _Level(int):
    def __repr__(self):
        return f"_Level({int(self)})"

    __str__ = __repr__


class _Kind(str, enum.Enum):
    CONE = "cone"


def test_render_writes_int_and_str_subclasses_as_json_dumps_does():
    value = {"level": _Level(3), "kind": _Kind.CONE, _Kind.CONE: [_Level(-4)]}
    assert render(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        float("nan"),
        float("inf"),
        [0.0],
        {"a": {"b": [1, -0.0]}},
        {1: "int key"},
        {None: "null key"},
        (1, 2),
        Fraction(1, 2),
        Decimal(1),
        b"bytes",
    ],
    ids=repr,
)
def test_render_refuses_other_types(value):
    with pytest.raises(TypeError):
        render(value)


SOURCES = sorted(Path(foliadex.__file__).parent.glob("*.py"))


def _indenting_dumps(tree):
    """Line numbers of json.dump/json.dumps calls that pass indent."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("dump", "dumps") and any(kw.arg == "indent" for kw in node.keywords):
            yield node.lineno


def test_one_writer_for_indented_json():
    # Every indented JSON output goes through foliadex.jsontext, so a new
    # output cannot fork the encoder or let a float through.
    assert SOURCES
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _indenting_dumps(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
