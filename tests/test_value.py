"""The package's value types keep the contract of the dataclasses they were.

Every class built on foliadex.value lists its fields in __slots__, in the
order below, and compares, hashes and prints by them.  Every one but
SweepReport is frozen.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import foliadex.cli  # noqa: F401  (loads every module of the package)
from foliadex import (
    BundleVariety,
    CaseParameters,
    Catalog,
    CheckOutcome,
    CheckReport,
    CheckStatus,
    Class2,
    Cone2,
    ConeInduced,
    CoordinateProjection,
    ExampleRecord,
    FibrationInduced,
    FoliationDescriptor,
    GeneralizedCone,
    IndexWitness,
    InvariantReport,
    OracleGrid,
    PnCatalogCase1,
    PnCatalogCase2,
    PolarizedBase,
    Positivity,
    PullbackOverBundle,
    RankOneClass,
    SweepReport,
    SynthesisRequest,
    SynthGrid,
    SynthKind,
    TableRow,
    TranscendentalRankOne,
    WeightedProjectiveSpace,
    case1_parameters,
    compute_invariants,
    fibration_foliation,
    generalized_index,
    projective_space_base,
    synthesize,
    table_rows,
    transcendental_rank1,
)
from foliadex.value import Frozen, Value

_BUNDLE = BundleVariety(2, 1, (1, 0))
_FOLIATION = fibration_foliation(_BUNDLE)
_REQUEST = SynthesisRequest(SynthKind.GENERALIZED_INDEX, 3, 2, Fraction(3, 2))
_RECORD = synthesize(_REQUEST)
_OUTCOME = CheckOutcome("a-check", CheckStatus.PASS, "detail")

# class -> (a sample value, its fields in order)
SAMPLES = {
    Class2: (lambda: Class2(1, Fraction(-3, 2)), ("beta", "gamma")),
    Cone2: (lambda: Cone2(Class2(1, 0), Class2(0, 1)), ("ray1", "ray2")),
    BundleVariety: (lambda: BundleVariety(2, 1, (1, 0)), ("base_dim", "m", "b")),
    Positivity: (lambda: Positivity(True, True, True, False), ("pseff", "big", "nef", "ample")),
    IndexWitness: (
        lambda: generalized_index(_BUNDLE, Class2(2, 1))[1], ("t", "h", "p_e", "p_a"),
    ),
    PolarizedBase: (
        lambda: projective_space_base(2),
        ("dim", "is_projective_space", "singularity_class", "label"),
    ),
    GeneralizedCone: (
        lambda: GeneralizedCone(projective_space_base(2), 2, 1), ("base", "m", "vertex_rank"),
    ),
    WeightedProjectiveSpace: (lambda: WeightedProjectiveSpace((1, 1, 2)), ("weights",)),
    RankOneClass: (lambda: RankOneClass(Fraction(3, 2)), ("s",)),
    InvariantReport: (
        lambda: compute_invariants(_FOLIATION),
        ("gen_index", "fano_index", "seshadri_antican", "positivity"),
    ),
    CheckOutcome: (
        lambda: CheckOutcome("a-check", CheckStatus.PASS, "detail"), ("name", "status", "detail"),
    ),
    CheckReport: (lambda: CheckReport("an-id", (_OUTCOME,)), ("record_id", "outcomes")),
    SweepReport: (
        lambda: SweepReport(3, 1, 1, 1, [{"record": "r"}]),
        ("total", "passed", "failed", "skipped", "failures"),
    ),
    SynthesisRequest: (
        lambda: SynthesisRequest(SynthKind.FANO_INDEX, 4, 2, 3), ("kind", "n", "r", "c"),
    ),
    CaseParameters: (lambda: case1_parameters(2, 3, 2), ("p", "q", "l", "b_list")),
    ExampleRecord: (
        lambda: synthesize(_REQUEST),
        ("id", "request", "branch", "foliation", "invariants", "checks"),
    ),
    FibrationInduced: (FibrationInduced, ()),
    PullbackOverBundle: (lambda: PullbackOverBundle(transcendental_rank1(2, 1)), ("base",)),
    ConeInduced: (lambda: ConeInduced(transcendental_rank1(2, 1)), ("base",)),
    CoordinateProjection: (lambda: CoordinateProjection(2), ("j",)),
    PnCatalogCase1: (lambda: PnCatalogCase1(1), ("d",)),
    PnCatalogCase2: (lambda: PnCatalogCase2(2, 1), ("d_f", "d_g")),
    TranscendentalRankOne: (lambda: TranscendentalRankOne(3), ("p",)),
    FoliationDescriptor: (
        lambda: fibration_foliation(BundleVariety(2, 1, (1, 0))),
        ("ambient", "rank", "algebraic_rank", "canonical", "recipe", "leaf_rc", "provenance"),
    ),
    TableRow: (
        lambda: table_rows("hirzebruch", {"a": (2,)})[0], ("params", "record"),
    ),
    OracleGrid: (
        lambda: OracleGrid(k_max=2),
        ("m_max", "b1_max", "rprime_max", "k_max", "coeff_max", "d_max", "c_max"),
    ),
    SynthGrid: (lambda: SynthGrid(SynthKind.SESHADRI, 4, 6), ("kind", "n_max", "q_max")),
    Catalog: (lambda: Catalog({"a": 1}, (_RECORD,)), ("metadata", "records", "schema_version")),
}


def _value_types(cls=Value):
    """Every concrete subclass of Value the package defines."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("foliadex.") and not sub.__name__.startswith("_"):
            if sub is not Frozen:
                yield sub
        yield from _value_types(sub)


def _with_field(value, name, new):
    """A copy of value with one field replaced, built without __init__."""
    copy = object.__new__(type(value))
    for field in type(value).__slots__:
        object.__setattr__(copy, field, new if field == name else getattr(value, field))
    return copy


@pytest.mark.parametrize("cls", sorted(set(_value_types()), key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_value_type_contract(cls):
    assert set(_value_types()) == SAMPLES.keys()
    make, names = SAMPLES[cls]
    value, again = make(), make()
    assert type(value) is cls and value is not again
    assert cls.__slots__ == names and not hasattr(value, "__dict__")
    fields = tuple(getattr(value, name) for name in names)

    # equal iff the same type and equal fields
    assert value == again and not value != again
    assert value.__eq__(fields) is NotImplemented
    assert value != fields
    for name in names:
        assert value != _with_field(value, name, object()), name
    other_types = [c for c in SAMPLES if c is not cls and c.__slots__ == ()]
    for other in other_types:
        assert value != SAMPLES[other][0]()

    # printed as Name(field=value!r, ...) in field order
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{cls.__qualname__}({shown})"

    if cls is SweepReport:
        # mutable and unhashable
        value.total += 1
        assert value.total == fields[0] + 1
        with pytest.raises(TypeError):
            hash(value)
        return

    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected
    for name in names or ("x",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == again


def _storing_only_constructors(source: str) -> list[str]:
    """Classes in source whose __init__ only stores its parameters, in
    __slots__ order, with object.__setattr__ or with one Value.__init__
    call: the constructor Value gives."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        slots = next(
            (
                ast.literal_eval(node.value) for node in cls.body
                if isinstance(node, ast.Assign)
                and [ast.unparse(target) for target in node.targets] == ["__slots__"]
            ),
            None,
        )
        for node in cls.body:
            if not (isinstance(node, ast.FunctionDef) and node.name == "__init__"):
                continue
            params = tuple(arg.arg for arg in node.args.args[1:])
            stored = tuple(
                f"object.__setattr__(self, {name!r}, {name})" for name in params
            )
            delegated = (f"Value.__init__(self, {', '.join(params)})",)
            body = tuple(ast.unparse(statement) for statement in node.body)
            if params == slots and body in (stored, delegated) and not node.args.defaults:
                found.append(cls.name)
    return found


def test_no_constructor_only_stores_its_fields():
    sources = sorted(Path(foliadex.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [
        f"{path.name}:{name}"
        for path in sources
        for name in _storing_only_constructors(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_storing_only_scan_finds_a_storing_constructor():
    source = (
        "class Pair(Frozen):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "        object.__setattr__(self, 'b', b)\n"
    )
    assert _storing_only_constructors(source) == ["Pair"]
    checking = source + "        if a < 0:\n            raise ValueError(a)\n"
    assert _storing_only_constructors(checking) == []


def test_storing_only_scan_finds_a_constructor_that_only_calls_value():
    source = (
        "class Pair(Frozen):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        Value.__init__(self, a, b)\n"
    )
    assert _storing_only_constructors(source) == ["Pair"]
    checking = source.replace(
        "        Value", "        if a < 0:\n            raise ValueError(a)\n        Value"
    )
    assert _storing_only_constructors(checking) == []
    converting = source.replace("(self, a, b)\n", "(self, a, tuple(b))\n")
    assert _storing_only_constructors(converting) == []


def _hand_stores(source: str) -> list[int]:
    """The lines where source calls object.__setattr__."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
    )


def test_only_value_stores_fields_by_hand():
    sources = sorted(Path(foliadex.__file__).parent.glob("*.py"))
    found = {
        path.name: _hand_stores(path.read_text(encoding="utf-8"))
        for path in sources
        if path.name != "value.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_hand_store_scan_finds_every_call():
    source = (
        "class Pair:\n"
        "    def __init__(self, a):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "    def renamed(self, a):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "object.__setattr__(Pair, 'b', 1)\n"
        "setattr(Pair, 'c', 1)\n"
    )
    assert _hand_stores(source) == [3, 5, 6]


# Calls that change how the process ends.  gc.freeze is cli.run's alone;
# os._exit and atexit would skip or add exit work that `coverage run` and
# `python -m cProfile` rely on, and gc.disable would let a large table's
# garbage grow unchecked.
_PROCESS_CALLS = ("gc.freeze", "gc.disable", "os._exit", "atexit")


def _process_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing function, name) for each use in source of a name in
    _PROCESS_CALLS, by attribute, name or import; '' at module level."""
    found = []

    def visit(node, where):
        names = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(f"{node.module}.{alias.name}" for alias in node.names)]
        found.extend(
            (where, name) for name in names
            if name in _PROCESS_CALLS or name.startswith("atexit.")
        )
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_only_the_process_entry_changes_how_the_process_ends():
    sources = sorted(Path(foliadex.__file__).parent.glob("*.py"))
    found = [
        (path.name, where, name)
        for path in sources
        for where, name in _process_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == [("cli.py", "run", "gc.freeze")]


def test_process_call_scan_finds_every_use():
    source = (
        "import atexit\n"
        "from os import _exit\n"
        "import gc\n"
        "gc.disable()\n"
        "def run():\n"
        "    gc.freeze()\n"
        "    def later():\n"
        "        atexit.register(print)\n"
        "    return os._exit\n"
        "gc.collect()\n"
    )
    assert _process_calls(source) == [
        ("", "atexit"),
        ("", "os._exit"),
        ("", "gc.disable"),
        ("run", "gc.freeze"),
        ("later", "atexit.register"),
        ("later", "atexit"),
        ("run", "os._exit"),
    ]


_INHERITED = sorted(
    (cls for cls in SAMPLES if "__init__" not in vars(cls)), key=lambda c: c.__qualname__
)


def test_storing_only_types_inherit_the_constructor():
    assert len(_INHERITED) == 13  # twelve storing types and FibrationInduced


@pytest.mark.parametrize("cls", _INHERITED, ids=lambda c: c.__qualname__)
def test_inherited_constructor_binds_by_position_and_keyword(cls):
    make, names = SAMPLES[cls]
    sample = make()
    fields = {name: getattr(sample, name) for name in names}
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert type(by_position) is type(by_keyword) is cls
    assert by_position == sample and by_keyword == sample
    assert repr(by_position) == repr(by_keyword) == repr(sample)
    if fields:
        first, *rest = names
        mixed = cls(fields[first], **{name: fields[name] for name in rest})
        assert mixed == sample


@pytest.mark.parametrize(
    "cls, args, kwargs",
    [
        (CheckOutcome, ("a-check", CheckStatus.PASS), {}),
        (CheckOutcome, ("a-check",), {"detail": "detail"}),
        (CheckOutcome, ("a-check", CheckStatus.PASS, "detail"), {"colour": "red"}),
        (CheckOutcome, ("a-check", CheckStatus.PASS, "detail"), {"name": "again"}),
        (CheckOutcome, ("a-check", CheckStatus.PASS, "detail", "surplus"), {}),
        (FibrationInduced, ("surplus",), {}),
        (FibrationInduced, (), {"kind": "fibration"}),
    ],
    ids=[
        "missing", "missing-after-keyword", "unknown", "twice", "surplus",
        "fieldless-surplus", "fieldless-unknown",
    ],
)
def test_inherited_constructor_refuses_a_bad_field(cls, args, kwargs):
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*args, **kwargs)
