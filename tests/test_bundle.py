from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliadex.bundle import (
    FIBER_RAY,
    BundleVariety,
    IndexWitness,
    classify_divisor,
    fano_index,
    generalized_index,
    nef_cone,
    pseff_cone,
    relative_anticanonical,
    seshadri_constant,
    seshadri_polarization,
)
from foliadex.errors import DomainError
from foliadex.lattice import Class2, Cone2, Membership
from foliadex.oracle import audited_index, oracle_generalized_index

X_HIRZEBRUCH = BundleVariety(base_dim=1, m=1, b=(0,))
X_CASE1 = BundleVariety(base_dim=1, m=2, b=(1, 1))
X_BIG = BundleVariety(base_dim=5, m=1, b=(1, 1, 1))


def test_nef_cone_rays():
    assert nef_cone(X_HIRZEBRUCH) == Cone2(Class2(1, 0), Class2(0, 1))
    assert nef_cone(X_CASE1) == Cone2(Class2(1, 1), Class2(0, 1))
    assert nef_cone(X_BIG) == Cone2(Class2(1, 1), Class2(0, 1))


def test_pseff_cone_rays():
    assert pseff_cone(X_HIRZEBRUCH) == Cone2(Class2(1, -1), Class2(0, 1))
    assert pseff_cone(X_CASE1) == Cone2(Class2(1, -2), Class2(0, 1))
    assert pseff_cone(BundleVariety(2, 3, (0,))) == Cone2(Class2(1, -3), Class2(0, 1))


def test_classify_divisor():
    flags = classify_divisor(X_CASE1, Class2(3, 0))
    assert (flags.pseff, flags.big, flags.nef, flags.ample) == (True, True, False, False)
    flags = classify_divisor(X_BIG, Class2(4, 5))
    assert (flags.pseff, flags.big, flags.nef, flags.ample) == (True, True, True, True)
    flags = classify_divisor(X_CASE1, Class2(0, 1))
    assert (flags.pseff, flags.big, flags.nef, flags.ample) == (True, False, True, False)


def test_relative_anticanonical():
    assert relative_anticanonical(X_CASE1) == Class2(3, 0)
    assert relative_anticanonical(X_HIRZEBRUCH) == Class2(2, -1)
    assert relative_anticanonical(BundleVariety(2, 2, (1,))) == Class2(2, -1)


def test_generalized_index_values():
    value, _ = generalized_index(X_HIRZEBRUCH, Class2(2, -1))
    assert value == Fraction(1, 2)
    value, _ = generalized_index(X_CASE1, Class2(3, 0))
    assert value == Fraction(3, 2)
    value, _ = generalized_index(X_BIG, Class2(4, 5))
    assert value == 3


def test_generalized_index_needs_big():
    with pytest.raises(DomainError):
        generalized_index(X_CASE1, Class2(0, 1))


def test_fano_index_values():
    assert fano_index(X_BIG, Class2(4, 5)) == 1
    assert fano_index(BundleVariety(1, 2, (1,)), Class2(2, 4)) == 2
    with pytest.raises(DomainError):
        fano_index(X_CASE1, Class2(3, 0))  # big but not ample


def test_seshadri_polarization():
    assert seshadri_polarization(X_HIRZEBRUCH) == (Class2(1, 1), Fraction(1))
    assert seshadri_polarization(X_CASE1) == (Class2(1, 2), Fraction(1))
    assert seshadri_polarization(BundleVariety(2, 2, (1,))) == (Class2(1, 2), Fraction(1))


@given(
    st.integers(1, 3), st.integers(1, 5), st.integers(0, 5),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)), st.integers(-3, 3),
)
def test_seshadri_constant_is_known_only_on_the_h0_ray(k, m, b1, t, off):
    variety = BundleVariety(k, m, (b1,))
    h0 = Class2(1, b1 + 1)
    expected = t if t >= 0 and off == 0 else None
    assert seshadri_constant(variety, t * h0 + Class2(0, off)) == expected


# --- properties -------------------------------------------------------------

small_bundles = st.builds(
    BundleVariety,
    base_dim=st.integers(1, 3),
    m=st.integers(1, 5),
    b=st.lists(st.integers(0, 5), min_size=1, max_size=3).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    ),
)


@given(small_bundles)
def test_nef_contained_in_pseff(variety):
    pseff = pseff_cone(variety)
    nef = nef_cone(variety)
    for ray in (nef.ray1, nef.ray2):
        assert pseff.membership(ray) is not Membership.OUTSIDE


big_classes = st.tuples(st.integers(1, 6), st.integers(-6, 6))


def _big(variety, beta, gamma):
    return gamma > -variety.m * beta


@given(small_bundles, big_classes, st.integers(1, 7), st.integers(1, 7))
def test_index_homogeneity(variety, coeffs, num, den):
    beta, gamma = coeffs
    if not _big(variety, beta, gamma):
        return
    k = Fraction(num, den)
    d = Class2(beta, gamma)
    assert generalized_index(variety, d * k)[0] == k * generalized_index(variety, d)[0]


@given(small_bundles, big_classes, st.integers(0, 4), st.integers(0, 4))
def test_index_monotone_under_pseff(variety, coeffs, p_beta, extra):
    beta, gamma = coeffs
    if not _big(variety, beta, gamma):
        return
    # p is pseff by construction: gamma bound -m*p_beta plus a surplus
    p = Class2(p_beta, -variety.m * p_beta + extra)
    base = generalized_index(variety, Class2(beta, gamma))[0]
    bumped = generalized_index(variety, Class2(beta, gamma) + p)[0]
    assert bumped >= base


@given(small_bundles, st.integers(1, 6))
def test_regimes_agree_on_nef_boundary(variety, beta):
    # at gamma = b1*beta the min is still the second term
    m, b1 = variety.m, variety.b1
    gamma = b1 * beta
    value, _ = generalized_index(variety, Class2(beta, gamma))
    assert value == Fraction(m * beta + gamma, m + b1 + 1)
    assert value <= beta


@settings(max_examples=60)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    big_classes,
)
def test_oracle_equivalence_on_big_classes(k, m, b_list, coeffs):
    variety = BundleVariety(k, m, tuple(sorted(b_list, reverse=True)))
    beta, gamma = coeffs
    if not _big(variety, beta, gamma):
        return
    d = Class2(beta, gamma)
    assert generalized_index(variety, d)[0] == oracle_generalized_index(
        variety, d, d_max=6, c_max=40
    )


@given(small_bundles, big_classes)
def test_witness_soundness(variety, coeffs):
    beta, gamma = coeffs
    if not _big(variety, beta, gamma):
        return
    d = Class2(beta, gamma)
    _, witness = generalized_index(variety, d)
    assert witness.is_valid_for(variety, d)
    assert witness.p_e >= 0 and witness.p_a >= 0
    assert classify_divisor(variety, witness.h).ample


@given(small_bundles, st.integers(1, 6), st.integers(1, 36))
def test_fano_at_most_generalized(variety, beta, gamma):
    # sampled ample integral classes: gamma > b1*beta guaranteed below
    d = Class2(beta, variety.b1 * beta + gamma)
    assert fano_index(variety, d) <= generalized_index(variety, d)[0]


# --- rational classes against independent derivations -----------------------

rationals = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 9))
positive_rationals = st.builds(Fraction, st.integers(1, 24), st.integers(1, 9))
nonnegative_rationals = st.builds(Fraction, st.integers(0, 24), st.integers(1, 9))


@st.composite
def rational_classes(draw):
    """A bundle and a class on, near or away from a cone boundary.

    gamma is an edge value (-m*beta on the pseudoeffective edge, b1*beta
    on the nef edge, or 0) plus an offset that is often 0 and otherwise
    has its own denominator; beta = 0 gives the fiber ray's line.
    """
    variety = draw(small_bundles)
    beta = draw(st.one_of(st.just(Fraction(0)), rationals))
    edge = draw(st.sampled_from((-variety.m, variety.b1, 0)))
    offset = draw(st.one_of(st.just(Fraction(0)), rationals))
    return variety, Class2(beta, edge * beta + offset)


@given(rational_classes())
def test_classify_divisor_equals_cone_membership(case):
    variety, cls = case
    flags = classify_divisor(variety, cls)
    pseff = pseff_cone(variety).membership(cls)
    nef = nef_cone(variety).membership(cls)
    assert flags.pseff == (pseff is not Membership.OUTSIDE)
    assert flags.big == (pseff is Membership.INTERIOR)
    assert flags.nef == (nef is not Membership.OUTSIDE)
    assert flags.ample == (nef is Membership.INTERIOR)


@settings(max_examples=60)
@given(small_bundles, positive_rationals, positive_rationals)
def test_index_derivations_agree_on_non_integral_big_classes(variety, beta, surplus):
    cls = Class2(beta, -variety.m * beta + surplus)  # big: inside the E edge
    if cls.is_integral:
        return
    value, witness = generalized_index(variety, cls)
    assert witness.is_valid_for(variety, cls)
    assert value == oracle_generalized_index(variety, cls, d_max=6, c_max=40)
    assert value == audited_index(variety, cls)[0]
    m, b1 = variety.m, variety.b1
    assert value == min(beta, (m * cls.beta + cls.gamma) / (m + b1 + 1))


@given(
    small_bundles, positive_rationals, nonnegative_rationals, nonnegative_rationals,
    st.integers(1, 3), st.integers(1, 4), st.integers(1, 9),
)
def test_witness_test_refuses_each_forgery(variety, t, p_e, p_a, d, extra, q):
    # Each forgery breaks one of the four conditions; the class is the
    # sum the witness names unless the forgery is the sum itself.
    b1 = variety.b1
    edge = variety.extremal_effective_ray

    def valid(t, h, p_e, p_a, shift=Class2(0, 0)):
        cls = t * h + p_e * edge + p_a * FIBER_RAY + shift
        return IndexWitness(t=t, h=h, p_e=p_e, p_a=p_a).is_valid_for(variety, cls)

    ample = Class2(d, b1 * d + extra)
    assert valid(t, ample, p_e, p_a)
    half = Fraction(2 * d - 1, 2)
    assert not valid(t, Class2(half, b1 * half + extra), p_e, p_a)  # ample, not integral
    for not_ample in (Class2(d, b1 * d), Class2(d, b1 * d - extra), Class2(0, 1)):
        assert not valid(t, not_ample, p_e, p_a)
    below = Fraction(-1, q)
    assert not valid(t, ample, below - p_e, p_a)
    assert not valid(t, ample, p_e, below - p_a)
    for shift in (Class2(Fraction(1, q), 0), Class2(0, Fraction(1, q)), Class2(0, below)):
        assert not valid(t, ample, p_e, p_a, shift)
