"""Exact arithmetic in a rank-2 divisor-class lattice.

Every variety handled by this package has a rank-1 or rank-2 rational
divisor-class group.  The rank-2 case is spanned by a fixed ordered basis
(L, F): L is the tautological hyperplane class of a projective bundle and
F the pullback of a hyperplane from the base.  A class is stored as the
coefficient pair (beta, gamma) with respect to that basis, with exact
rational coefficients throughout; no floating point enters anywhere.
Hot paths (positivity, the generalized index, the enumeration oracle)
read a class as integer numerators over one common positive
denominator, Class2.over_common_denominator(), and build a Fraction only
for a value they return.

Cones are pairs of primitive integral non-proportional rays.  Membership
is decided by solving the 2x2 change of basis exactly, so interior /
boundary / outside answers are never approximate.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import re
from fractions import Fraction

from .errors import DomainError, ParseError
from .value import Frozen, Value

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational.

    Decimal notation is rejected on purpose: a decimal in the input is a
    sign that something upstream went through floating point.
    """
    if not isinstance(text, str):
        raise ParseError(f"not a rational literal: {text!r}")
    return _parse_literal(text)


# A catalog repeats few literals (the standard export's 10,154 rational
# fields hold 354 distinct strings), so parsed values are memoised.  A
# literal that raises is not stored and is checked again on every call.
@functools.lru_cache(maxsize=1024)
def _parse_literal(text: str) -> Fraction:
    body = text.strip()
    if not _RATIONAL_RE.match(body):
        raise ParseError(f"not a rational literal: {text!r}")
    num, _, den = body.partition("/")
    try:
        num_value, den_value = int(num), int(den or "1")
    except ValueError as exc:
        # int() refuses literals longer than sys.get_int_max_str_digits()
        raise ParseError(f"rational literal too long: {len(body)} characters") from exc
    if den_value == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return Fraction(num_value, den_value)


def render_rational(value: Fraction) -> str:
    """Render in lowest terms; integers print without a denominator."""
    return str(value)


def render_optional(value: Fraction | None, absent: str | None) -> str | None:
    """render_rational(value), or absent when the value is None."""
    return absent if value is None else render_rational(value)


def reduced_targets(limit: Fraction, q_max: int) -> list[Fraction]:
    """Every reduced p/q with q <= q_max and 0 < p/q <= limit, ascending.

    A walk over the Farey sequence of order q_max lists those of (0, 1]
    in order; shifting that list by each whole part up to limit keeps
    them reduced and ascending, so nothing is sorted or tested for a
    common factor, and the shifted list is cut at limit.
    """
    unit = []
    # a/b and c/d are neighbours in the Farey sequence, c/d the next term
    a, b, c, d = 0, 1, 1, q_max
    while c <= d:
        unit.append((c, d))
        k = (q_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    targets = [Fraction(w * q + p, q) for w in range(math.floor(limit) + 1) for p, q in unit]
    return targets[: bisect.bisect_right(targets, limit)]


def _coerce(value: int | Fraction) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DomainError(f"expected an exact rational, got {value!r}")
    return Fraction(value)


class Class2(Frozen):
    """A divisor class beta*L + gamma*F in the fixed (L, F) basis."""

    __slots__ = ("beta", "gamma")
    beta: Fraction
    gamma: Fraction

    def __init__(self, beta: int | Fraction, gamma: int | Fraction) -> None:
        Value.__init__(self, _coerce(beta), _coerce(gamma))

    def __add__(self, other: Class2) -> Class2:
        return Class2(self.beta + other.beta, self.gamma + other.gamma)

    def __sub__(self, other: Class2) -> Class2:
        return Class2(self.beta - other.beta, self.gamma - other.gamma)

    def __neg__(self) -> Class2:
        return Class2(-self.beta, -self.gamma)

    def __mul__(self, k: int | Fraction) -> Class2:
        k = _coerce(k)
        return Class2(k * self.beta, k * self.gamma)

    __rmul__ = __mul__

    @property
    def is_integral(self) -> bool:
        return self.beta.denominator == 1 and self.gamma.denominator == 1

    @property
    def is_zero(self) -> bool:
        return self.beta == 0 and self.gamma == 0

    def over_common_denominator(self) -> tuple[int, int, int]:
        """(beta_num, gamma_num, den) with beta = beta_num/den, gamma = gamma_num/den.

        den is the least common positive denominator, so the signs of
        beta_num and gamma_num are those of beta and gamma.
        """
        beta, gamma = self.beta, self.gamma
        beta_den, gamma_den = beta.denominator, gamma.denominator
        if beta_den == gamma_den:
            return beta.numerator, gamma.numerator, beta_den
        den = math.lcm(beta_den, gamma_den)
        return (
            beta.numerator * (den // beta_den),
            gamma.numerator * (den // gamma_den),
            den,
        )

    def as_integer_pair(self) -> tuple[int, int]:
        if not self.is_integral:
            raise DomainError(f"class {self} is not integral")
        return int(self.beta), int(self.gamma)

    def __str__(self) -> str:
        return f"({render_rational(self.beta)}, {render_rational(self.gamma)})"


def content(cls: Class2) -> int:
    """gcd of the coordinates of a nonzero integral class.

    content(k*v) = k*content(v) for positive integers k, and a class is
    primitive exactly when its content is 1.
    """
    if not cls.is_integral:
        raise DomainError(f"content needs an integral class, got {cls}")
    if cls.is_zero:
        raise DomainError("content of the zero class is undefined")
    b, g = cls.as_integer_pair()
    return math.gcd(abs(b), abs(g))


class Membership(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class Cone2(Frozen):
    """A 2-dimensional closed convex cone spanned by two extremal rays.

    Rays are primitive integral classes and must not be proportional, so
    the cone is full-dimensional and the change of basis below is exact.
    """

    __slots__ = ("ray1", "ray2")
    ray1: Class2
    ray2: Class2

    def __init__(self, ray1: Class2, ray2: Class2) -> None:
        for ray in (ray1, ray2):
            if not ray.is_integral:
                raise DomainError(f"cone ray {ray} is not integral")
            if content(ray) != 1:
                raise DomainError(f"cone ray {ray} is not primitive")
        Value.__init__(self, ray1, ray2)
        if self._det() == 0:
            raise DomainError(f"rays {ray1} and {ray2} are proportional")

    def _det(self) -> Fraction:
        return self.ray1.beta * self.ray2.gamma - self.ray1.gamma * self.ray2.beta

    def coordinates(self, cls: Class2) -> tuple[Fraction, Fraction]:
        """Exact coefficients (a, b) with cls = a*ray1 + b*ray2."""
        det = self._det()
        a = (cls.beta * self.ray2.gamma - cls.gamma * self.ray2.beta) / det
        b = (self.ray1.beta * cls.gamma - self.ray1.gamma * cls.beta) / det
        return a, b

    def membership(self, cls: Class2) -> Membership:
        a, b = self.coordinates(cls)
        if a < 0 or b < 0:
            return Membership.OUTSIDE
        if a > 0 and b > 0:
            return Membership.INTERIOR
        return Membership.BOUNDARY
