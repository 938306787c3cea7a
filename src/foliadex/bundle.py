"""Divisor-class geometry on projective bundles over projective space.

The varieties here are X = P(O(m) + O(-b_1) + ... + O(-b_r')) over Z = P^k,
with m >= 1 and b_1 >= ... >= b_r' >= 0.  Writing L for the tautological
hyperplane class of the bundle (normalized against the O(m) summand) and
F for the pullback of a hyperplane from Z, the divisor-class lattice is
Z.L + Z.F and:

    Nef(X)   = <L + b_1 F, F>
    Pseff(X) = <L - m F, F>

The ray E = L - m F is the class of the divisor P(O(-b_1)+...+O(-b_r'))
and F is the pullback ray; both cones are simplicial, so positivity of a
class (beta, gamma) reduces to two exact linear inequalities.

The generalized index of a big class D is the largest t such that D - t*H
is pseudoeffective for some integral ample H.  On these bundles it has the
closed form

    min(beta, (m*beta + gamma) / (m + b_1 + 1)),

attained at the corner polarization H0 = L + (b_1+1) F: t_max(D, H) is
strictly decreasing in both coordinates of H on the ample lattice, so the
componentwise-minimal integral ample class is optimal.  generalized_index
returns the witness decomposition D = t*H0 + p_e*E + p_a*F with p_e,
p_a >= 0; it does not test it.  IndexWitness.is_valid_for does, once per
record, in the construction check that stores the outcome.

Positivity and the choice between the two terms of the minimum run on
integers: a class is read as numerators over its least common positive
denominator (Class2.over_common_denominator), which keeps every sign and
order.  _classify holds the positivity inequalities and _closed_form_terms
the closed form as (num, den); classify_divisor and generalized_index wrap
them into a Positivity and a Fraction for a value that is returned, and
the oracle sweep reads them as they are.  The witness test compares the two
coordinates as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .errors import DomainError
from .lattice import Class2, Cone2, content
from .value import Frozen, Value

#: Fiber ray F: the pullback of a base hyperplane.
FIBER_RAY = Class2(0, 1)

_ZERO = Fraction(0)


class BundleVariety(Frozen):
    """P(O(m) + O(-b_1) + ... + O(-b_r')) over P^k."""

    __slots__ = ("base_dim", "m", "b")
    base_dim: int
    m: int
    b: tuple[int, ...]

    def __init__(self, base_dim: int, m: int, b: Iterable[int]) -> None:
        b = tuple(b)
        if not isinstance(base_dim, int) or base_dim < 1:
            raise DomainError(f"base dimension must be a positive integer, got {base_dim}")
        if not isinstance(m, int) or m < 1:
            raise DomainError(f"twist m must be a positive integer, got {m}")
        if not b:
            raise DomainError("need at least one negative summand O(-b_i)")
        for bi in b:
            if not isinstance(bi, int) or bi < 0:
                raise DomainError(f"summand degrees must be integers >= 0, got {bi}")
        if any(b[i] < b[i + 1] for i in range(len(b) - 1)):
            raise DomainError(f"summand degrees must be sorted descending, got {b}")
        Value.__init__(self, base_dim, m, b)

    @property
    def fiber_rank(self) -> int:
        """r': the number of O(-b_i) summands, equal to the fiber dimension."""
        return len(self.b)

    @property
    def dim(self) -> int:
        return self.base_dim + self.fiber_rank

    @property
    def b1(self) -> int:
        return self.b[0]

    @property
    def b_total(self) -> int:
        return sum(self.b)

    @property
    def is_smooth(self) -> bool:
        return True

    @property
    def extremal_effective_ray(self) -> Class2:
        """E = L - m F, the class of the sub-bundle divisor."""
        return Class2(1, -self.m)

    def label(self) -> str:
        inside = " + ".join(["O(%d)" % self.m] + ["O(%d)" % (-bi) for bi in self.b])
        return f"P({inside}) over P^{self.base_dim}"


class Positivity(Frozen):
    """Exact positivity flags of a single divisor class."""

    __slots__ = ("pseff", "big", "nef", "ample")
    pseff: bool
    big: bool
    nef: bool
    ample: bool

    def __init__(self, pseff: bool, big: bool, nef: bool, ample: bool) -> None:
        # ample => nef => pseff and ample => big => pseff, by definition.
        if ample and not (nef and big):
            raise DomainError("inconsistent flags: ample needs nef and big")
        if (big or nef) and not pseff:
            raise DomainError("inconsistent flags: big/nef need pseff")
        Value.__init__(self, pseff, big, nef, ample)


def nef_cone(variety: BundleVariety) -> Cone2:
    return Cone2(Class2(1, variety.b1), FIBER_RAY)


def pseff_cone(variety: BundleVariety) -> Cone2:
    return Cone2(variety.extremal_effective_ray, FIBER_RAY)


def _is_big(m: int, beta_num: int, gamma_num: int) -> bool:
    """Bigness on the numerators of a class over a positive denominator."""
    return beta_num > 0 and gamma_num > -m * beta_num


def _classify(m: int, b1: int, beta_num: int, gamma_num: int) -> tuple[bool, bool, bool, bool]:
    """(pseff, big, nef, ample) of a class from the two cone inequalities.

    beta >= 0 and gamma >= -m*beta give pseudoeffectivity, strict versions
    give bigness; gamma >= b_1*beta upgrades to nef, strict plus beta > 0
    to ample.  The inequalities are tested on the numerators of beta and
    gamma over a common positive denominator, which keeps their signs.
    """
    return (
        beta_num >= 0 and gamma_num >= -m * beta_num,
        _is_big(m, beta_num, gamma_num),
        beta_num >= 0 and gamma_num >= b1 * beta_num,
        beta_num > 0 and gamma_num > b1 * beta_num,
    )


def classify_divisor(variety: BundleVariety, cls: Class2) -> Positivity:
    """The positivity flags _classify gives cls over its common denominator."""
    beta, gamma, _ = cls.over_common_denominator()
    return Positivity(*_classify(variety.m, variety.b1, beta, gamma))


def relative_anticanonical(variety: BundleVariety) -> Class2:
    """-K_{X/Z} = (r'+1) L + (b_total - m) F.

    Relative Euler sequence: the fiberwise anticanonical is (r'+1) times
    the tautological class, corrected by the determinant of the bundle.
    """
    return Class2(variety.fiber_rank + 1, variety.b_total - variety.m)


class IndexWitness(Frozen):
    """Certificate D = t*H + p_e*E + p_a*F with H integral ample.

    E = L - m F and F are the extremal pseudoeffective rays, so p_e >= 0
    and p_a >= 0 certify that D - t*H is pseudoeffective; optimality of t
    is separately checkable against the enumeration oracle.
    """

    __slots__ = ("t", "h", "p_e", "p_a")
    t: Fraction
    h: Class2
    p_e: Fraction
    p_a: Fraction

    def is_valid_for(self, variety: BundleVariety, cls: Class2) -> bool:
        """H integral and ample, p_e, p_a >= 0, and t*H + p_e*E + p_a*F == cls,
        compared coordinatewise with E = L - m*F and F = (0, 1)."""
        h, t, p_e, p_a = self.h, self.t, self.p_e, self.p_a
        return (
            h.is_integral
            and classify_divisor(variety, h).ample
            and p_e >= 0
            and p_a >= 0
            and t * h.beta + p_e == cls.beta
            and t * h.gamma - variety.m * p_e + p_a == cls.gamma
        )


def generalized_index(variety: BundleVariety, cls: Class2) -> tuple[Fraction, IndexWitness]:
    """Largest t with cls - t*H pseudoeffective for some integral ample H.

    Requires cls big.  The optimum is attained at H0 = L + (b_1+1) F and
    equals min(beta, (m*beta + gamma)/(m + b_1 + 1)); the returned witness
    decomposes cls over {H0, E, F} with nonnegative surplus coefficients,
    which IndexWitness.is_valid_for tests.
    """
    beta_num, gamma_num, den = cls.over_common_denominator()
    m, b1 = variety.m, variety.b1
    if not _is_big(m, beta_num, gamma_num):
        raise DomainError(f"generalized index needs a big class, got {cls}")
    t = Fraction(*_closed_form_terms(m, b1, beta_num, gamma_num, den))
    total = m + b1 + 1
    # where the two terms of the minimum are equal, both branches give
    # p_e = p_a = 0
    if t != cls.beta:
        # Pseff surplus sits on the E ray: D - t*H0 = p_e * E.
        p_e = Fraction(beta_num * (b1 + 1) - gamma_num, den * total)
        p_a = _ZERO
    else:
        # Surplus sits on the fiber ray: D - beta*H0 = p_a * F.
        p_e = _ZERO
        p_a = Fraction(gamma_num - beta_num * (b1 + 1), den)
    return t, IndexWitness(t, Class2(1, b1 + 1), p_e, p_a)


def _closed_form_terms(
    m: int, b1: int, beta_num: int, gamma_num: int, den: int
) -> tuple[int, int]:
    """min(beta, (m*beta + gamma)/(m + b1 + 1)) as (num, den') with den' > 0,
    not necessarily reduced, for a big class given by its numerators over
    den, unguarded: the caller has classified the class."""
    total = m + b1 + 1
    # (m*beta + gamma)/(m + b1 + 1) <= beta, both sides times den*(m + b1 + 1) > 0
    if m * beta_num + gamma_num <= beta_num * total:
        return m * beta_num + gamma_num, den * total
    return beta_num, den


def fano_index(variety: BundleVariety, cls: Class2) -> Fraction:
    """Largest t with cls = t*H for H an integral ample class.

    Requires cls integral and ample.  Any such t is u/v with u dividing
    both coordinates, and H = (v/u)*cls must be integral ample, so the
    optimum is the content of cls.
    """
    if not cls.is_integral:
        raise DomainError(f"Fano index needs an integral class, got {cls}")
    if not classify_divisor(variety, cls).ample:
        raise DomainError(f"Fano index needs an ample class, got {cls}")
    return Fraction(content(cls))


def seshadri_polarization(variety: BundleVariety) -> tuple[Class2, Fraction]:
    """The corner polarization H0 = L + (b_1+1) F and its Seshadri bound.

    Twisting by b_1+1 makes every summand degree of the defining bundle
    strictly positive, so H0 is very ample and its Seshadri constant at a
    general point is exactly 1; by homogeneity eps(t*H0) = t for t >= 0.
    """
    return Class2(1, variety.b1 + 1), Fraction(1)


def seshadri_constant(variety: BundleVariety, cls: Class2) -> Optional[Fraction]:
    """eps(cls) = t*eps(H0) when cls = t*H0 with t >= 0, else None (unknown)."""
    h0, eps_h0 = seshadri_polarization(variety)
    t = cls.beta
    if t >= 0 and cls == t * h0:
        return t * eps_h0
    return None
