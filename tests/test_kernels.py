"""The enumeration kernel: exact, attained and maximal."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from foliadex._kernels import best_index_bound


def test_empty_range_raises():
    # b1*d + 1 already exceeds c_max for every d
    with pytest.raises(ValueError):
        best_index_bound(1, 1, 1, 1, 5, 3, 4)


def test_huge_integers_stay_exact():
    huge = 10**30
    num, den, d, c = best_index_bound(huge, huge, 1, 2, 1, 3, 10)
    # beta/d dominates at d=1 only if beta <= (m*beta+gamma)/(c+m*d); here
    # 3*huge/(c+2d) < huge iff c+2d > 3, so the bound is the second term
    assert Fraction(num, den) == Fraction(3 * huge, 4)
    assert (d, c) == (1, 2)


@given(
    st.integers(1, 40),
    st.integers(-40, 40),
    st.integers(1, 4),
    st.integers(0, 3),
)
def test_result_is_attained_and_maximal(beta, gamma, m, b1):
    d_max, c_max = 5, 25
    num, den, d, c = best_index_bound(beta, gamma, 1, m, b1, d_max, c_max)
    assert 1 <= d <= d_max and b1 * d + 1 <= c <= c_max
    value = Fraction(num, den)
    a, b = Fraction(beta), Fraction(m * beta + gamma)
    assert value == min(a / d, b / (c + m * d))
    for dd in range(1, d_max + 1):
        for cc in range(b1 * dd + 1, c_max + 1):
            assert min(a / dd, b / (cc + m * dd)) <= value
