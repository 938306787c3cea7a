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
p_a >= 0, which certifies the value it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .lattice import Class2, Cone2, content

#: Fiber ray F: the pullback of a base hyperplane.
FIBER_RAY = Class2(0, 1)


@dataclass(frozen=True)
class BundleVariety:
    """P(O(m) + O(-b_1) + ... + O(-b_r')) over P^k."""

    base_dim: int
    m: int
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(self.b))
        if not isinstance(self.base_dim, int) or self.base_dim < 1:
            raise DomainError(f"base dimension must be a positive integer, got {self.base_dim}")
        if not isinstance(self.m, int) or self.m < 1:
            raise DomainError(f"twist m must be a positive integer, got {self.m}")
        if not self.b:
            raise DomainError("need at least one negative summand O(-b_i)")
        for bi in self.b:
            if not isinstance(bi, int) or bi < 0:
                raise DomainError(f"summand degrees must be integers >= 0, got {bi}")
        if any(self.b[i] < self.b[i + 1] for i in range(len(self.b) - 1)):
            raise DomainError(f"summand degrees must be sorted descending, got {self.b}")

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


@dataclass(frozen=True)
class Positivity:
    """Exact positivity flags of a single divisor class."""

    pseff: bool
    big: bool
    nef: bool
    ample: bool

    def __post_init__(self) -> None:
        # ample => nef => pseff and ample => big => pseff, by definition.
        if self.ample and not (self.nef and self.big):
            raise DomainError("inconsistent flags: ample needs nef and big")
        if (self.big or self.nef) and not self.pseff:
            raise DomainError("inconsistent flags: big/nef need pseff")


def nef_cone(variety: BundleVariety) -> Cone2:
    return Cone2(Class2(1, variety.b1), FIBER_RAY)


def pseff_cone(variety: BundleVariety) -> Cone2:
    return Cone2(variety.extremal_effective_ray, FIBER_RAY)


def classify_divisor(variety: BundleVariety, cls: Class2) -> Positivity:
    """Positivity flags from the two cone inequalities.

    beta >= 0 and gamma >= -m*beta give pseudoeffectivity, strict versions
    give bigness; gamma >= b_1*beta upgrades to nef, strict plus beta > 0
    to ample.
    """
    beta, gamma = cls.beta, cls.gamma
    m, b1 = variety.m, variety.b1
    pseff = beta >= 0 and gamma >= -m * beta
    big = beta > 0 and gamma > -m * beta
    nef = beta >= 0 and gamma >= b1 * beta
    ample = beta > 0 and gamma > b1 * beta
    return Positivity(pseff=pseff, big=big, nef=nef, ample=ample)


def relative_anticanonical(variety: BundleVariety) -> Class2:
    """-K_{X/Z} = (r'+1) L + (b_total - m) F.

    Relative Euler sequence: the fiberwise anticanonical is (r'+1) times
    the tautological class, corrected by the determinant of the bundle.
    """
    return Class2(variety.fiber_rank + 1, variety.b_total - variety.m)


@dataclass(frozen=True)
class IndexWitness:
    """Certificate D = t*H + p_e*E + p_a*F with H integral ample.

    E = L - m F and F are the extremal pseudoeffective rays, so p_e >= 0
    and p_a >= 0 certify that D - t*H is pseudoeffective; optimality of t
    is separately checkable against the enumeration oracle.
    """

    t: Fraction
    h: Class2
    p_e: Fraction
    p_a: Fraction

    def reconstruct(self, variety: BundleVariety) -> Class2:
        return (
            self.t * self.h
            + self.p_e * variety.extremal_effective_ray
            + self.p_a * FIBER_RAY
        )

    def is_valid_for(self, variety: BundleVariety, cls: Class2) -> bool:
        return (
            self.h.is_integral
            and classify_divisor(variety, self.h).ample
            and self.p_e >= 0
            and self.p_a >= 0
            and self.reconstruct(variety) == cls
        )


def generalized_index(variety: BundleVariety, cls: Class2) -> tuple[Fraction, IndexWitness]:
    """Largest t with cls - t*H pseudoeffective for some integral ample H.

    Requires cls big.  The optimum is attained at H0 = L + (b_1+1) F and
    equals min(beta, (m*beta + gamma)/(m + b_1 + 1)); the returned witness
    decomposes cls over {H0, E, F} with nonnegative surplus coefficients.
    """
    flags = classify_divisor(variety, cls)
    if not flags.big:
        raise DomainError(f"generalized index needs a big class, got {cls}")
    beta, gamma = cls.beta, cls.gamma
    m, b1 = variety.m, variety.b1
    h0 = Class2(1, b1 + 1)
    second = Fraction(m * beta + gamma, m + b1 + 1)
    if second <= beta:
        # Pseff surplus sits on the E ray: D - t*H0 = p_e * E.
        t = second
        p_e = (beta * (b1 + 1) - gamma) / (m + b1 + 1)
        p_a = Fraction(0)
    else:
        # Surplus sits on the fiber ray: D - beta*H0 = p_a * F.
        t = beta
        p_e = Fraction(0)
        p_a = gamma - beta * (b1 + 1)
    witness = IndexWitness(t=t, h=h0, p_e=p_e, p_a=p_a)
    if not witness.is_valid_for(variety, cls):
        raise ArithmeticError(f"witness reconstruction failed for {cls} on {variety.label()}")
    return t, witness


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
