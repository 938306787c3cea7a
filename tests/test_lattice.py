import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foliadex.errors import DomainError, ParseError
from foliadex.lattice import (
    Class2,
    Cone2,
    Membership,
    _coerce,
    _parse_literal,
    content,
    parse_rational,
    reduced_targets,
    render_rational,
)


def test_parse_rational_values():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("+7/3") == Fraction(7, 3)
    assert parse_rational("  2/4 ") == Fraction(1, 2)


@pytest.mark.parametrize("text", ["0.5", "1e3", "", "x", "1 / 2", "/3", "3/", "1/0"])
def test_parse_rational_rejects(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_bad_literal_raises_on_every_call():
    # a failed parse is not memoised, so every call runs the checks again
    for text in ("1/0", "0.5", "1" * 5000):
        for _ in range(3):
            with pytest.raises(ParseError):
                parse_rational(text)
    assert 0 < _parse_literal.cache_info().maxsize <= 4096


def test_coerce_keeps_a_fraction_and_refuses_inexact_values():
    value = Fraction(3, 2)
    assert _coerce(value) is value
    assert _coerce(7) == Fraction(7) and type(_coerce(7)) is Fraction
    for bad in (True, 1.5, "1", Decimal(1), None):
        with pytest.raises(DomainError):
            _coerce(bad)


def test_render_lowest_terms():
    assert render_rational(Fraction(4, 6)) == "2/3"
    assert render_rational(Fraction(-3, 2)) == "-3/2"
    assert render_rational(Fraction(5)) == "5"


PSEFF_LIKE = Cone2(Class2(1, -2), Class2(0, 1))


def test_cone_membership_cases():
    assert PSEFF_LIKE.membership(Class2(1, -2)) is Membership.BOUNDARY
    assert PSEFF_LIKE.membership(Class2(1, 0)) is Membership.INTERIOR
    assert PSEFF_LIKE.membership(Class2(1, -3)) is Membership.OUTSIDE


def test_cone_rejects_bad_rays():
    with pytest.raises(DomainError):
        Cone2(Class2(2, -4), Class2(0, 1))  # not primitive
    with pytest.raises(DomainError):
        Cone2(Class2(1, 2), Class2(2, 4))  # proportional
    with pytest.raises(DomainError):
        Cone2(Class2(Fraction(1, 2), 1), Class2(0, 1))  # not integral


def test_content_values():
    assert content(Class2(4, 5)) == 1
    assert content(Class2(2, 4)) == 2
    assert content(Class2(0, 7)) == 7


def test_content_domain_errors():
    with pytest.raises(DomainError):
        content(Class2(Fraction(1, 2), 1))
    with pytest.raises(DomainError):
        content(Class2(0, 0))


rationals = st.fractions(max_denominator=10**6)


@given(rationals)
def test_parse_render_round_trip(x):
    assert parse_rational(render_rational(x)) == x


@given(
    rationals.filter(lambda a: a > 0),
    rationals.filter(lambda b: b > 0),
)
def test_positive_ray_combinations_are_interior(a, b):
    v = Class2(a, -2 * a) + Class2(0, b)
    assert PSEFF_LIKE.membership(v) is Membership.INTERIOR


@given(st.integers(1, 1000), st.integers(-50, 50), st.integers(-50, 50))
def test_content_scales(k, x, y):
    if x == 0 and y == 0:
        return
    v = Class2(x, y)
    assert content(v * k) == k * content(v)


@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_class2_arithmetic_exact(a, b, c, d, e, f):
    # associativity/commutativity only hold exactly; floats would drift
    u, v, w = Class2(a, b), Class2(c, d), Class2(e, f)
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert (u + v) * 3 == u * 3 + v * 3
    assert (u + v) - v == u


@given(
    st.integers(-50, 50), st.integers(1, 30), st.integers(-50, 50), st.integers(1, 30)
)
def test_over_common_denominator(bp, bq, gp, gq):
    cls = Class2(Fraction(bp, bq), Fraction(gp, gq))
    beta_num, gamma_num, den = cls.over_common_denominator()
    assert Fraction(beta_num, den) == cls.beta and Fraction(gamma_num, den) == cls.gamma
    assert den == math.lcm(cls.beta.denominator, cls.gamma.denominator)
    assert all(type(n) is int for n in (beta_num, gamma_num, den))


def test_over_common_denominator_is_not_stored():
    cls = Class2(Fraction(1, 2), Fraction(-1, 3))
    assert cls.over_common_denominator() == (3, -2, 6)
    assert Class2.__slots__ == ("beta", "gamma")
    assert repr(cls) == "Class2(beta=Fraction(1, 2), gamma=Fraction(-1, 3))"


def _reduced_targets_by_definition(limit, q_max):
    """Every reduced p/q with q <= q_max and 0 < p/q <= limit, ascending."""
    return sorted(
        Fraction(p, q)
        for q in range(1, q_max + 1)
        for p in range(1, math.floor(limit * q) + 1)
        if math.gcd(p, q) == 1
    )


@given(
    st.one_of(
        st.integers(-3, 6).map(Fraction),
        st.fractions(min_value=-3, max_value=6, max_denominator=50),
    ),
    st.integers(1, 40),
)
def test_reduced_targets_match_their_definition(limit, q_max):
    targets = reduced_targets(limit, q_max)
    assert targets == _reduced_targets_by_definition(limit, q_max)
    assert all(type(c) is Fraction for c in targets)


@pytest.mark.parametrize("limit", [Fraction(0), Fraction(-1), Fraction(-5, 2)])
def test_reduced_targets_up_to_a_limit_at_most_zero_are_empty(limit):
    assert reduced_targets(limit, 8) == []
