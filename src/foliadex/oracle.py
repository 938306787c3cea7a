"""Brute-force generalized index straight from the definition.

For a big class D on a bundle, the generalized index is the best t such
that D - t*H stays pseudoeffective for some integral ample H.  This
module enumerates every integral ample H = (d, c) inside a rectangle and
takes the exact maximum, deliberately ignoring the closed form, so the
two computations can only agree if both are right.  The enumeration is
exhaustive within its bounds, and any rectangle containing (1, b1+1)
already contains the true optimum, so enlarging the bounds never changes
the answer; that stability is itself tested.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernels
from .bundle import BundleVariety, classify_divisor
from .errors import DomainError
from .lattice import Class2


def oracle_generalized_index(
    variety: BundleVariety, cls: Class2, d_max: int, c_max: int
) -> Fraction:
    """max over 1 <= d <= d_max, b1*d < c <= c_max of min(beta/d, (m*beta+gamma)/(c+m*d)).

    Requires cls big, d_max >= 1 and c_max >= b1*d_max + 1 (so every d in
    range admits an ample c, and in particular H = (1, b1+1) is
    enumerated).
    """
    if d_max < 1:
        raise DomainError(f"need d_max >= 1, got {d_max}")
    if c_max < variety.b1 * d_max + 1:
        raise DomainError(
            f"need c_max >= b1*d_max + 1 = {variety.b1 * d_max + 1}, got {c_max}"
        )
    if not classify_divisor(variety, cls).big:
        raise DomainError(f"oracle needs a big class, got {cls}")
    scale = math.lcm(cls.beta.denominator, cls.gamma.denominator)
    beta_num = int(cls.beta * scale)
    gamma_num = int(cls.gamma * scale)
    num, den, _, _ = _kernels.best_index_bound(
        beta_num, gamma_num, scale, variety.m, variety.b1, d_max, c_max
    )
    return Fraction(num, den)


def audited_index(variety: BundleVariety, cls: Class2) -> tuple[Fraction, str]:
    """The oracle's index of cls over the audit rectangle d <= 3, c <= 3*b1 + 6.

    Construction checks and catalog verification audit the closed form
    over this one rectangle.  Returns the enumerated value and the
    rectangle as the check details print it.
    """
    d_max = 3
    c_max = 3 * variety.b1 + 6
    value = oracle_generalized_index(variety, cls, d_max, c_max)
    return value, f"enumeration (d <= {d_max}, c <= {c_max})"


def kernel_backend() -> str:
    """Name of the enumeration kernel: always "pure" (pure Python)."""
    return "pure"
