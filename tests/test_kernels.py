"""The enumeration kernel: exact, attained and maximal."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def _reference_bound(beta_num, gamma_num, scale, m, b1, d_max, c_max):
    """best_index_bound by its definition, on Fractions.

    Each candidate's bound keeps the kernel's unreduced form: beta/d as
    (beta_num, scale*d) when it is the smaller one or the two are equal,
    else (m*beta_num + gamma_num, scale*(c + m*d)).  Only a strictly
    larger bound replaces the best, so ties keep the first (d, c).
    """
    beta, gamma = Fraction(beta_num, scale), Fraction(gamma_num, scale)
    best = None
    for d in range(1, d_max + 1):
        for c in range(b1 * d + 1, c_max + 1):
            if beta / d <= (m * beta + gamma) / (c + m * d):
                bound = (beta_num, scale * d)
            else:
                bound = (m * beta_num + gamma_num, scale * (c + m * d))
            if best is None or Fraction(*bound) > Fraction(*best[:2]):
                best = (*bound, d, c)
    return best


@given(
    st.integers(-5, 30),
    st.integers(-30, 60),
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(1, 5),
    st.integers(0, 20),
)
@settings(max_examples=300)
def test_kernel_equals_the_fraction_brute_force(beta_num, total, scale, m, b1, d_max, spare):
    # total = m*beta_num + gamma_num is drawn directly, so a third of the
    # cases have a non-positive second bound; scale runs over 1..6
    gamma_num = total - m * beta_num
    c_max = b1 * d_max + 1 + spare
    args = (beta_num, gamma_num, scale, m, b1, d_max, c_max)
    assert best_index_bound(*args) == _reference_bound(*args)
