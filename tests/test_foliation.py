"""Foliation descriptors: canonical classes, ranks, and the catalog recipes."""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import assume, given, strategies as st

import foliadex
from foliadex import (
    BundleVariety,
    Class2,
    CoordinateProjection,
    DomainError,
    FibrationInduced,
    FoliationDescriptor,
    GeneralizedCone,
    LeafStatus,
    PnCatalogCase1,
    PnCatalogCase2,
    PolarizedBase,
    RankOneClass,
    SingularityClass,
    TranscendentalRankOne,
    WeightedProjectiveSpace,
    cone_foliation,
    fibration_foliation,
    pn_foliation,
    projective_space,
    projective_space_base,
    pullback_over_bundle,
    relative_anticanonical,
    transcendental_rank1,
    wps_coordinate_foliation,
)
from foliadex import foliation
from foliadex.foliation import Recipe


def test_fibration_canonical_and_rank():
    fol = fibration_foliation(BundleVariety(1, 2, (1, 1)))
    assert fol.canonical == Class2(-3, 0)
    assert fol.rank == 2
    assert fol.algebraic_rank == 2
    assert fol.leaf_rc is LeafStatus.TRUE

    hirzebruch = fibration_foliation(BundleVariety(1, 1, (0,)))
    assert hirzebruch.canonical == Class2(-2, 1)
    assert hirzebruch.algebraic_rank == 1

    tall = fibration_foliation(BundleVariety(3, 1, (0, 0)))
    assert tall.canonical == Class2(-3, 1)
    assert tall.algebraic_rank == 2

    # on an abstract base, K = 0 holds only where K_base is numerically trivial
    def fibers_of(singularities):
        return FoliationDescriptor(
            ambient=PolarizedBase(2, False, singularities, "test fixture"),
            rank=1,
            algebraic_rank=1,
            recipe=FibrationInduced(),
            leaf_rc=LeafStatus.FALSE,
            provenance="test fixture",
        )

    assert fibers_of(SingularityClass.CALABI_YAU_LC).canonical == RankOneClass(0)
    with pytest.raises(DomainError, match="fibration recipe"):
        fibers_of(SingularityClass.KLT_FANO)


def test_pullback_adds_base_canonical():
    x = BundleVariety(2, 2, (1,))
    fol = pullback_over_bundle(x, pn_foliation(2, 1, 1))
    assert -fol.canonical == Class2(2, -2)
    assert fol.rank == 2
    assert fol.algebraic_rank == 2

    big = BundleVariety(5, 1, (1, 1, 1))
    mixed = pullback_over_bundle(big, pn_foliation(5, 3, -3))
    assert -mixed.canonical == Class2(4, 5)
    assert mixed.rank == 7
    assert mixed.algebraic_rank == 6


def test_pullback_of_transcendental_base():
    # zero canonical degree has no catalog constructor (those need p >= 1),
    # so assemble the descriptor by hand
    base = FoliationDescriptor(
        ambient=projective_space(2),
        rank=1,
        algebraic_rank=0,
        recipe=TranscendentalRankOne(p=0),
        leaf_rc=LeafStatus.UNKNOWN,
        provenance="test fixture: flat transcendental base",
    )
    x = BundleVariety(2, 1, (0,))
    fol = pullback_over_bundle(x, base)
    assert fol.canonical == -relative_anticanonical(x)
    assert fol.algebraic_rank == 1
    assert fol.leaf_rc is LeafStatus.TRUE


def test_pn_catalog_cases():
    linear = pn_foliation(4, 2, 0)
    assert isinstance(linear.recipe, PnCatalogCase1)
    assert linear.rank == 3
    assert linear.algebraic_rank == 2
    assert linear.canonical == RankOneClass(Fraction(0))
    assert linear.leaf_rc is LeafStatus.TRUE

    pencil = pn_foliation(3, 2, -2)
    assert isinstance(pencil.recipe, PnCatalogCase2)
    assert pencil.recipe.d_f + pencil.recipe.d_g == 2
    assert pencil.recipe.d_f == 1 and pencil.recipe.d_g == 1
    assert pencil.leaf_rc is LeafStatus.TRUE
    assert linear.recipe.linear_leaves(linear.ambient)
    assert pencil.recipe.linear_leaves(pencil.ambient)
    conic_and_line = pn_foliation(2, 1, 0)  # a pencil of degrees (2, 1)
    assert not conic_and_line.recipe.linear_leaves(conic_and_line.ambient)

    with pytest.raises(DomainError):
        pn_foliation(3, 1, -2)
    with pytest.raises(DomainError):
        pn_foliation(3, 3, 0)


def test_transcendental_rank_one():
    fol = transcendental_rank1(2, 1)
    assert fol.canonical == RankOneClass(Fraction(1))
    assert fol.algebraic_rank == 0
    assert fol.leaf_rc is LeafStatus.UNKNOWN

    assert transcendental_rank1(3, 4).canonical == RankOneClass(Fraction(4))

    with pytest.raises(DomainError):
        transcendental_rank1(2, 0)
    with pytest.raises(DomainError):
        transcendental_rank1(1, 1)


def test_coordinate_pencil_degrees():
    fol = wps_coordinate_foliation(WeightedProjectiveSpace((1, 1, 1, 2, 2)), 1)
    assert -fol.canonical == RankOneClass(Fraction(5))
    assert fol.rank == fol.algebraic_rank == 3

    assert -wps_coordinate_foliation(
        WeightedProjectiveSpace((1, 2, 3)), 2
    ).canonical == RankOneClass(Fraction(2))
    assert -wps_coordinate_foliation(
        WeightedProjectiveSpace((1, 1, 1)), 1
    ).canonical == RankOneClass(Fraction(1))

    with pytest.raises(DomainError):
        wps_coordinate_foliation(WeightedProjectiveSpace((1, 2, 3)), 0)
    with pytest.raises(DomainError, match="coordinate index"):
        FoliationDescriptor(
            ambient=WeightedProjectiveSpace((1, 2, 3)),
            rank=1,
            algebraic_rank=1,
            recipe=CoordinateProjection(j=3),
            leaf_rc=LeafStatus.UNKNOWN,
            provenance="test fixture",
        )

    honest = wps_coordinate_foliation(projective_space(3), 1)
    assert honest.recipe.linear_leaves(honest.ambient)
    assert not fol.recipe.linear_leaves(fol.ambient)


def test_fibration_recipe_forces_integrability():
    x = BundleVariety(1, 2, (1, 1))
    with pytest.raises(DomainError):
        FoliationDescriptor(
            ambient=x,
            rank=2,
            algebraic_rank=1,
            recipe=fibration_foliation(x).recipe,
            leaf_rc=LeafStatus.TRUE,
            provenance="test fixture",
        )


@st.composite
def arbitrary_foliations(draw):
    pick = draw(st.integers(0, 3))
    if pick == 0:
        k = draw(st.integers(1, 3))
        m = draw(st.integers(1, 3))
        b = tuple(
            sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)), reverse=True)
        )
        return fibration_foliation(BundleVariety(k, m, b))
    if pick == 1:
        n = draw(st.integers(2, 6))
        r = draw(st.integers(1, n - 1))
        d = draw(st.integers(-r, 6))
        return pn_foliation(n, r, d)
    if pick == 2:
        return transcendental_rank1(draw(st.integers(2, 6)), draw(st.integers(1, 6)))
    n = draw(st.integers(2, 5))
    tail = tuple(sorted(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))))
    assume(math.gcd(*tail) == 1)
    w = WeightedProjectiveSpace((1,) + tail)
    return wps_coordinate_foliation(w, draw(st.integers(1, n)))


@given(arbitrary_foliations())
def test_type_invariants(fol):
    n = fol.ambient.dim
    assert 1 <= fol.rank < n
    assert 0 <= fol.algebraic_rank <= fol.rank
    assert fol.purely_transcendental == (fol.algebraic_rank == 0)
    assert fol.purely_transcendental == isinstance(fol.recipe, TranscendentalRankOne)


@given(
    st.integers(2, 5),
    st.integers(1, 3),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.integers(1, 4),
    st.integers(-4, 5),
)
def test_pullback_canonical_additivity(k, m, b_seed, r_seed, d_seed):
    b = tuple(sorted(b_seed, reverse=True))
    x = BundleVariety(k, m, b)
    r = min(r_seed, k - 1)
    d = max(d_seed, -r)
    base = pn_foliation(k, r, d)
    if base.rank >= k:
        return  # case-2 bases saturate the rank bound over their own P^k
    fol = pullback_over_bundle(x, base)
    delta = fol.canonical - (-relative_anticanonical(x))
    assert delta == Class2(0, base.canonical.s)


@given(st.integers(2, 8), st.integers(-20, 20))
def test_degree_bookkeeping_in_pencil_case(n, d):
    if d < -(n - 1):
        return
    fol = pn_foliation(n, n - 1, d)
    recipe = fol.recipe
    assert isinstance(recipe, PnCatalogCase2)
    assert recipe.d_f + recipe.d_g - n - 1 == d
    assert recipe.d_f >= recipe.d_g >= 1


@given(st.integers(3, 6), st.integers(1, 7))
def test_pencil_degree_matches_family_forms(n, a):
    # the four weighted families all arise from the j=1 (or j=2) pencil;
    # their canonical degrees must match the closed forms the tables use
    w1 = WeightedProjectiveSpace((1, 1, 1) + (a,) * (n - 2))
    assert -wps_coordinate_foliation(w1, 1).canonical.s == (n - 2) * a + 1

    mprime, m = sorted((a, a + 1))
    w2 = WeightedProjectiveSpace((1,) + (mprime,) * (n - 1) + (m,))
    assert -wps_coordinate_foliation(w2, 1).canonical.s == (n - 2) * mprime + m

    w3 = WeightedProjectiveSpace((1, a, a + 1))
    assert -wps_coordinate_foliation(w3, 1).canonical.s == a + 1

    w4 = WeightedProjectiveSpace((1, a, a + 1))
    assert -wps_coordinate_foliation(w4, 2).canonical.s == a


def test_cone_base_must_match():
    cone = GeneralizedCone(base=projective_space_base(2), m=2, vertex_rank=2)
    with pytest.raises(DomainError):
        # foliation lives on P^3, cone base is P^2
        cone_foliation(cone, transcendental_rank1(3, 1))
    lifted = cone_foliation(cone, transcendental_rank1(2, 1))
    assert lifted.canonical == RankOneClass(Fraction(1, 2) - 2)
    assert lifted.rank == 3
    assert lifted.algebraic_rank == 2


RECIPE_NAMES = {recipe.__name__ for recipe in get_args(Recipe)}


def _recipe_isinstance_calls(tree):
    """Line numbers of isinstance calls that test for a recipe class."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
            continue
        classes = node.args[1] if len(node.args) == 2 else None
        for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            name = cls.attr if isinstance(cls, ast.Attribute) else getattr(cls, "id", None)
            if name in RECIPE_NAMES:
                yield node.lineno


def test_recipes_are_dispatched_only_in_foliation():
    # Each recipe's facts live on the recipe in foliation.py, so no other
    # module may switch on the recipe's class.
    sources = sorted(Path(foliadex.__file__).parent.glob("*.py"))
    assert len(RECIPE_NAMES) == 7 and sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        if path.name != "foliation.py"
        for line in _recipe_isinstance_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


FIXABLE = ("rank", "algebraic_rank", "leaf_rc", "provenance")


@st.composite
def fixing_foliations(draw):
    """arbitrary_foliations, and pullbacks and cones of those on a P^k."""
    fol = draw(arbitrary_foliations())
    ambient = fol.ambient
    lift = draw(st.sampled_from(("none", "pullback", "cone")))
    if lift == "none" or not (isinstance(ambient, WeightedProjectiveSpace) and ambient.is_smooth):
        return fol
    k, m = ambient.dim, draw(st.integers(1, 3))
    if lift == "pullback":
        b = tuple(sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)), reverse=True))
        return pullback_over_bundle(BundleVariety(k, m, b), fol)
    cone = GeneralizedCone(projective_space_base(k), m, draw(st.integers(1, 2)))
    return cone_foliation(cone, fol)


def _exported(value) -> str:
    return json.dumps(value.value if isinstance(value, LeafStatus) else value)


def _other_values(name, value):
    """Values other than value of the field name, in and out of range."""
    if name == "leaf_rc":
        return [status for status in LeafStatus if status is not value]
    if name == "provenance":
        kind, rest = value.split(":", 1)
        swapped = "asserted-existence" if kind == "constructed" else "constructed"
        return [value + " (edited)", f"{swapped}:{rest}"]
    return [value - 1, value + 1]


@given(fixing_foliations())
def test_fixed_fields_are_derived_and_compared(fol):
    fixed = dict(zip(FIXABLE, fol.recipe.fixed(fol.ambient)))
    stored = {name: getattr(fol, name) for name in FIXABLE}
    free = {name: stored[name] for name, value in fixed.items() if value is None}
    # the recipe's fields, and only those, may be left out
    assert FoliationDescriptor(fol.ambient, fol.recipe, **free) == fol
    assert FoliationDescriptor(fol.ambient, fol.recipe, **stored) == fol
    kind = fol.recipe.kind
    for name, value in fixed.items():
        if value is None:
            without = {key: given for key, given in free.items() if key != name}
            with pytest.raises(DomainError) as refused:
                FoliationDescriptor(fol.ambient, fol.recipe, **without)
            assert str(refused.value) == f"no {name} given, and the {kind} recipe fixes none"
            continue
        assert stored[name] == value
        for other in _other_values(name, value):
            with pytest.raises(DomainError) as refused:
                FoliationDescriptor(fol.ambient, fol.recipe, **{**stored, name: other})
            assert str(refused.value) == (
                f"{name} {_exported(other)} differs from {_exported(value)}, "
                f"fixed by the {kind} recipe"
            )


def test_a_field_neither_given_nor_fixed_is_named():
    with pytest.raises(DomainError, match="^no provenance given, and the transcendental recipe"):
        FoliationDescriptor(projective_space(2), TranscendentalRankOne(1))
    with pytest.raises(DomainError, match="^no rank given, and the pn1 recipe fixes none$"):
        FoliationDescriptor(projective_space(3), PnCatalogCase1(1), provenance="test fixture")
    fibers = PolarizedBase(2, False, SingularityClass.CALABI_YAU_LC, "test fixture")
    with pytest.raises(DomainError, match="^no leaf_rc given, and the fibration recipe"):
        FoliationDescriptor(fibers, FibrationInduced(), rank=1, algebraic_rank=1)


def test_a_lift_derives_its_fields_from_its_base_once(monkeypatch):
    calls = []
    inherited = foliation._inherited
    monkeypatch.setattr(
        foliation, "_inherited", lambda *args: calls.append(args) or inherited(*args)
    )
    base = pn_foliation(2, 1, 0)
    pullback_over_bundle(BundleVariety(2, 1, (1,)), base)
    cone_foliation(GeneralizedCone(projective_space_base(2), 2, 1), base)
    assert len(calls) == 2


def test_descriptor_constructor_dispatches_on_no_lift_or_coordinate_recipe():
    # the fixed fields live on the recipes; only the fibration's
    # integrability on a polarized base is checked by class
    tree = ast.parse(Path(foliation.__file__).read_text(encoding="utf-8"))
    descriptor = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "FoliationDescriptor"
    )
    init = next(node for node in descriptor.body if getattr(node, "name", None) == "__init__")
    assert len(list(_recipe_isinstance_calls(init))) == 1
    assert "isinstance(recipe, FibrationInduced)" in ast.unparse(init)
