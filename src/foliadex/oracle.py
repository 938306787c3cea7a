"""Brute-force generalized index straight from the definition.

For a big class D on a bundle, the generalized index is the best t such
that D - t*H stays pseudoeffective for some integral ample H.  This
module enumerates every integral ample H = (d, c) inside a bounded set
and takes the exact maximum, deliberately ignoring the closed form, so
the two computations can only agree if both are right.

The bound min(beta/d, (m*beta + gamma)/(c + m*d)) never rises as d or c
grows, and every integral ample H = (d, c) has d >= 1 and
c >= b1*d + 1 >= b1 + 1, so the optimum is always attained at the corner
H = L + (b1+1)F.  Any enumerated set that contains this corner therefore
already contains the true optimum, and enlarging it never changes the
answer.  That stability is itself tested.

Two sets are enumerated, both by the one kernel loop:

- oracle_generalized_index takes the rectangle d <= d_max, c <= c_max
  of the (L, F) basis, which the oracle sweep sizes by its grid;
- audited_index, the audit behind every bundle record, takes the window
  1 <= d <= 3, 1 <= c - b1*d <= 6 of 18 classes, whatever b1 is.

The window is the kernel's rectangle in the basis (N, F) with
N = L + b1*F.  There H = dL + cF reads dN + (c - b1*d)F, so the ample
cone is the open positive quadrant, a class beta*L + gamma*F reads
beta*N + (gamma - b1*beta)F, and the pseudoeffective ray L - mF reads
N - (m + b1)F.  The kernel is called with those coordinates and b1 = 0,
and its bound on t is the same number in either basis.  The corner
(1, b1+1) is (1, 1) in the new basis, the window's first candidate.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels
from .bundle import BundleVariety, _is_big
from .errors import DomainError
from .lattice import Class2

# The audit window in (N, F) coordinates: 1 <= d <= AUDIT_D_MAX and
# 1 <= c - b1*d <= AUDIT_C_SPAN.
AUDIT_D_MAX = 3
AUDIT_C_SPAN = 6


def _big_numerators(variety: BundleVariety, cls: Class2) -> tuple[int, int, int]:
    """cls over its common denominator, refused unless it is big."""
    beta_num, gamma_num, den = cls.over_common_denominator()
    if not _is_big(variety.m, beta_num, gamma_num):
        raise DomainError(f"oracle needs a big class, got {cls}")
    return beta_num, gamma_num, den


def _kernel_index(
    beta_num: int, gamma_num: int, den: int, m: int, b1: int, d_max: int, c_max: int
) -> Fraction:
    num, den, _, _ = _kernels.best_index_bound(
        beta_num, gamma_num, den, m, b1, d_max, c_max
    )
    return Fraction(num, den)


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
    beta_num, gamma_num, den = _big_numerators(variety, cls)
    return _kernel_index(beta_num, gamma_num, den, variety.m, variety.b1, d_max, c_max)


def audited_index(variety: BundleVariety, cls: Class2) -> tuple[Fraction, str]:
    """The oracle's index of cls over the window d <= 3, 1 <= c - b1*d <= 6.

    Construction checks and catalog verification audit the closed form
    over this one window of 18 ample classes, enumerated in the basis
    (L + b1*F, F) described in the module docstring, so an audit costs
    the same whatever b1 is.  The window contains the corner
    H = L + (b1+1)F, where the optimum lies, so it agrees with every
    rectangle oracle_generalized_index accepts.  Returns the enumerated
    value and the window as the check details print it.
    """
    beta_num, gamma_num, den = _big_numerators(variety, cls)
    b1 = variety.b1
    value = _kernel_index(
        beta_num, gamma_num - b1 * beta_num, den, variety.m + b1, 0, AUDIT_D_MAX, AUDIT_C_SPAN
    )
    return value, f"enumeration (d <= {AUDIT_D_MAX}, 1 <= c - b1*d <= {AUDIT_C_SPAN})"


def kernel_backend() -> str:
    """Name of the enumeration kernel: always "pure" (pure Python)."""
    return "pure"
