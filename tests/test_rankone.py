import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foliadex.bundle import BundleVariety, relative_anticanonical
from foliadex.errors import DomainError
from foliadex.foliation import wps_coordinate_foliation
from foliadex.lattice import Class2
from foliadex.rankone import (
    GeneralizedCone,
    PolarizedBase,
    RankOneClass,
    SingularityClass,
    WeightedProjectiveSpace,
    cartier_index,
    projective_space,
    projective_space_base,
    pushforward_to_cone,
    rank_one_invariants,
    seshadri_of_generator,
)

W123 = WeightedProjectiveSpace((1, 2, 3))
W1112 = WeightedProjectiveSpace((1, 1, 1, 2))
CONE_P2_2_2 = GeneralizedCone(base=projective_space_base(2), m=2, vertex_rank=2)


def test_wps_validation():
    with pytest.raises(DomainError):
        WeightedProjectiveSpace((2, 2, 3))  # first weight must be 1
    with pytest.raises(DomainError):
        WeightedProjectiveSpace((1, 3, 2))  # not ascending
    with pytest.raises(DomainError):
        WeightedProjectiveSpace((1, 2, 4))  # tail gcd 2


def test_cartier_index():
    assert cartier_index(W123) == 6
    assert cartier_index(W1112) == 2
    assert cartier_index(CONE_P2_2_2) == 1
    assert cartier_index(projective_space(4)) == 1


def test_seshadri_of_generator():
    assert seshadri_of_generator(W123) == Fraction(1, 3)
    assert seshadri_of_generator(CONE_P2_2_2) == 1
    assert seshadri_of_generator(projective_space(3)) == 1


def index_pair(variety, s):
    inv = rank_one_invariants(variety, Fraction(s))
    return inv.gen_index, inv.fano_index


def test_index_pair_values():
    assert index_pair(W1112, 3) == (Fraction(3, 2), Fraction(3, 2))
    assert index_pair(W123, 3) == (Fraction(1, 2), Fraction(1, 2))
    assert index_pair(CONE_P2_2_2, Fraction(3, 2)) == (Fraction(3, 2), Fraction(3, 2))
    assert index_pair(W123, 0) == (None, None)
    assert index_pair(W123, -1) == (None, None)


@pytest.mark.parametrize("value", [0.5, "3/4", True, None])
def test_rank_one_class_refuses_inexact_coefficients(value):
    # the same exact-coercion rule as Class2
    with pytest.raises(DomainError):
        RankOneClass(value)
    with pytest.raises(DomainError):
        Class2(value, 0)


def test_rank_one_class_keeps_a_fraction_as_given():
    s = Fraction(3, 2)
    assert RankOneClass(s).s is s
    assert RankOneClass(2).s == Fraction(2) and type(RankOneClass(2).s) is Fraction


def test_pushforward_to_cone():
    x = BundleVariety(base_dim=2, m=2, b=(0, 0))
    assert pushforward_to_cone(x, Class2(1, 0)) == RankOneClass(Fraction(1))
    assert pushforward_to_cone(x, Class2(0, 2)) == RankOneClass(Fraction(1))
    assert pushforward_to_cone(x, Class2(3, -3)) == RankOneClass(Fraction(3, 2))
    with pytest.raises(DomainError):
        pushforward_to_cone(BundleVariety(2, 2, (1, 0)), Class2(1, 0))


def cone_foliation_invariants(cone, d):
    # the induced foliation of a base foliation with K = d*H has -K = (r' - d/m) H
    return rank_one_invariants(cone, cone.vertex_rank - Fraction(d, cone.m))


def test_cone_foliation_invariants():
    inv = cone_foliation_invariants(CONE_P2_2_2, 1)
    assert inv.gen_index == inv.fano_index == inv.seshadri_antican == Fraction(3, 2)

    abstract = PolarizedBase(
        dim=3,
        is_projective_space=False,
        singularity_class=SingularityClass.CALABI_YAU_LC,
        label="product base",
    )
    for r in (2, 3, 4):
        cone = GeneralizedCone(base=abstract, m=2, vertex_rank=r - 1)
        inv = cone_foliation_invariants(cone, 0)
        assert inv.gen_index == inv.fano_index == inv.seshadri_antican == r - 1

    not_fano = cone_foliation_invariants(
        GeneralizedCone(base=projective_space_base(2), m=1, vertex_rank=2), 2
    )
    assert not_fano.gen_index is None and not_fano.fano_index is None


def test_cone_singularity_propagation():
    assert CONE_P2_2_2.singularity_class is SingularityClass.KLT_FANO
    assert not CONE_P2_2_2.is_smooth
    smooth = GeneralizedCone(base=projective_space_base(2), m=1, vertex_rank=2)
    assert smooth.is_smooth
    lc_base = PolarizedBase(
        dim=2,
        is_projective_space=False,
        singularity_class=SingularityClass.CALABI_YAU_LC,
        label="abelian surface",
    )
    assert (
        GeneralizedCone(base=lc_base, m=1, vertex_rank=1).singularity_class
        is SingularityClass.CALABI_YAU_LC
    )


def test_cone_resolution_model():
    assert CONE_P2_2_2.resolution() == BundleVariety(base_dim=2, m=2, b=(0, 0))
    abstract = PolarizedBase(
        dim=2,
        is_projective_space=False,
        singularity_class=SingularityClass.OTHER,
        label="abstract",
    )
    with pytest.raises(DomainError):
        GeneralizedCone(base=abstract, m=1, vertex_rank=1).resolution()


# --- properties -------------------------------------------------------------


@given(
    st.lists(st.integers(1, 7), min_size=2, max_size=6),
    st.integers(1, 60),
)
def test_index_pair_components_agree(tail_seed, s_num):
    tail = tuple(sorted(tail_seed))
    if math.gcd(*tail) != 1:
        return
    w = WeightedProjectiveSpace((1,) + tail)
    a, b = index_pair(w, s_num)
    assert a == b


@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 9), st.integers(1, 9))
def test_index_pair_homogeneity(rprime, m, num, den):
    cone = GeneralizedCone(base=projective_space_base(2), m=m, vertex_rank=rprime)
    k = Fraction(num, den)
    s = Fraction(3, 2)
    scaled = index_pair(cone, s * k)
    base = index_pair(cone, s)
    assert scaled == (k * base[0], k * base[1])
    assert seshadri_of_generator(cone) * (s * k) == k * (
        seshadri_of_generator(cone) * s
    )


def test_weighted_sub_case_formulas():
    # the four weight patterns, swept over n <= 6 and weights <= 7
    for n in range(3, 7):
        for m in range(1, 8):
            w = WeightedProjectiveSpace((1, 1, 1) + (m,) * (n - 2))
            fol = wps_coordinate_foliation(w, 1)
            s = -fol.canonical.s
            iota = index_pair(w, s)[1]
            eps = s * seshadri_of_generator(w)
            assert iota == n - 2 + Fraction(1, m)
            assert eps == n - 2 + Fraction(1, m)
    for n in range(3, 7):
        for mprime in range(1, 8):
            for m in range(mprime, 8):
                if math.gcd(mprime, m) != 1:
                    continue
                w = WeightedProjectiveSpace((1,) + (mprime,) * (n - 1) + (m,))
                fol = wps_coordinate_foliation(w, 1)
                s = -fol.canonical.s
                assert index_pair(w, s)[1] == Fraction(
                    (n - 2) * mprime + m, mprime * m
                )
                assert s * seshadri_of_generator(w) == 1 + Fraction(
                    (n - 2) * mprime, m
                )
    for a1 in range(1, 8):
        for a2 in range(a1, 8):
            if math.gcd(a1, a2) != 1:
                continue
            w = WeightedProjectiveSpace((1, a1, a2))
            fol1 = wps_coordinate_foliation(w, 1)
            s1 = -fol1.canonical.s
            assert index_pair(w, s1)[1] == Fraction(1, a1)
            assert s1 * seshadri_of_generator(w) == 1
            fol2 = wps_coordinate_foliation(w, 2)
            s2 = -fol2.canonical.s
            assert index_pair(w, s2)[1] == Fraction(1, a2)
            assert s2 * seshadri_of_generator(w) == Fraction(a1, a2)


@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 11))
def test_cone_bundle_consistency(rprime, m, d):
    # pushing -K_{X/Z} - d*F off the trivial-summand model reproduces r' - d/m
    if d >= m * rprime:
        return
    cone = GeneralizedCone(base=projective_space_base(2), m=m, vertex_rank=rprime)
    model = cone.resolution()
    upstairs = relative_anticanonical(model) - Class2(0, d)
    pushed = pushforward_to_cone(model, upstairs)
    assert pushed.s == rprime - Fraction(d, m)
    inv = cone_foliation_invariants(cone, d)
    assert inv.gen_index == pushed.s / cartier_index(cone)
