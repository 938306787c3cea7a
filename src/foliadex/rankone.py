"""Varieties with a rank-one rational divisor-class group.

Two concrete families live here, plus the abstract polarized bases that
generalized cones are built on:

* generalized cones C(Z, O_Z(m)) with vertex a projective space P^{r'-1},
  obtained by contracting the sub-bundle divisor of
  P(O_Z(m) + O_Z^{r'}) -> Z; the class group is generated by the
  hyperplane class H with mu_* L = H and m * mu_* F = H,
* weighted projective spaces P(1, a_1, ..., a_n) with ascending weights
  and gcd(a_1, ..., a_n) = 1, where H is the degree-1 generator.

Every divisor class is s*H for an exact rational s, and both the Fano
index and the generalized index of an ample class s*H equal
s / cartier_index: an integral ample witness must be a positive integer
multiple of cartier_index(V) * H, and the smallest one is best.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable

from .bundle import BundleVariety, Positivity
from .errors import DomainError
from .lattice import Class2
from .report import InvariantReport
from .value import Frozen


class SingularityClass(enum.Enum):
    SMOOTH = "smooth"
    KLT_FANO = "klt-fano"
    CALABI_YAU_LC = "numerically-trivial-canonical-lc"
    OTHER = "other"


class PolarizedBase(Frozen):
    """An abstract polarized variety (Z, O_Z(1)) used as a cone base.

    Only the data entering the cone computations is kept: the dimension,
    whether Z is a projective space, and a coarse singularity class for
    propagating singularities of the cone.  No geometry of Z itself is
    computed here.
    """

    __slots__ = ("dim", "is_projective_space", "singularity_class", "label")
    dim: int
    is_projective_space: bool
    singularity_class: SingularityClass
    label: str

    def __init__(
        self,
        dim: int,
        is_projective_space: bool,
        singularity_class: SingularityClass,
        label: str,
    ) -> None:
        if dim < 1:
            raise DomainError(f"base dimension must be >= 1, got {dim}")
        if is_projective_space and singularity_class is not SingularityClass.SMOOTH:
            raise DomainError("a projective-space base is smooth")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "is_projective_space", is_projective_space)
        object.__setattr__(self, "singularity_class", singularity_class)
        object.__setattr__(self, "label", label)


def projective_space_base(dim: int) -> PolarizedBase:
    return PolarizedBase(
        dim=dim,
        is_projective_space=True,
        singularity_class=SingularityClass.SMOOTH,
        label=f"P^{dim}",
    )


class GeneralizedCone(Frozen):
    """C(Z, O_Z(m)) with vertex P^{vertex_rank - 1}."""

    __slots__ = ("base", "m", "vertex_rank")
    base: PolarizedBase
    m: int
    vertex_rank: int

    def __init__(self, base: PolarizedBase, m: int, vertex_rank: int) -> None:
        if not isinstance(m, int) or m < 1:
            raise DomainError(f"cone multiplier m must be a positive integer, got {m}")
        if not isinstance(vertex_rank, int) or vertex_rank < 1:
            raise DomainError(f"vertex rank must be a positive integer, got {vertex_rank}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "vertex_rank", vertex_rank)

    @property
    def dim(self) -> int:
        return self.base.dim + self.vertex_rank

    @property
    def is_smooth(self) -> bool:
        # The contraction is an isomorphism exactly in the trivial m=1
        # projective-space case, where the cone is P^dim itself.
        return self.m == 1 and self.base.is_projective_space

    @property
    def singularity_class(self) -> SingularityClass:
        if self.is_smooth:
            return SingularityClass.SMOOTH
        if self.base.is_projective_space or self.base.singularity_class is SingularityClass.KLT_FANO:
            # Cone over a klt Fano base w.r.t. an ample polarization is klt.
            return SingularityClass.KLT_FANO
        if self.base.singularity_class is SingularityClass.CALABI_YAU_LC:
            # Numerically trivial canonical class upgrades only to lc.
            return SingularityClass.CALABI_YAU_LC
        return SingularityClass.OTHER

    def resolution(self) -> BundleVariety:
        """The bundle P(O(m) + O^{r'}) over the base, when that base is P^k."""
        if not self.base.is_projective_space:
            raise DomainError("only cones over projective space have a bundle model here")
        return BundleVariety(base_dim=self.base.dim, m=self.m, b=(0,) * self.vertex_rank)

    def label(self) -> str:
        return f"C({self.base.label}, O({self.m})) with vertex P^{self.vertex_rank - 1}"


class WeightedProjectiveSpace(Frozen):
    """P(1, a_1, ..., a_n), weights ascending, gcd of the tail equal to 1."""

    __slots__ = ("weights",)
    weights: tuple[int, ...]

    def __init__(self, weights: Iterable[int]) -> None:
        w = tuple(weights)
        object.__setattr__(self, "weights", w)
        if len(w) < 2:
            raise DomainError("need at least two weights")
        if w[0] != 1:
            raise DomainError(f"first weight must be 1, got {w[0]}")
        for a in w:
            if not isinstance(a, int) or a < 1:
                raise DomainError(f"weights must be positive integers, got {a}")
        if any(w[i] > w[i + 1] for i in range(len(w) - 1)):
            raise DomainError(f"weights must be ascending, got {w}")
        if math.gcd(*w[1:]) != 1:
            raise DomainError(f"weights {w[1:]} have a common factor")

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    @property
    def is_smooth(self) -> bool:
        return all(a == 1 for a in self.weights)

    def label(self) -> str:
        return "P(" + ", ".join(str(a) for a in self.weights) + ")"


def projective_space(dim: int) -> WeightedProjectiveSpace:
    """P^dim as the all-weights-one case."""
    return WeightedProjectiveSpace(weights=(1,) * (dim + 1))


RankOneAmbient = GeneralizedCone | WeightedProjectiveSpace


class RankOneClass(Frozen):
    """The class s*H of a rank-one class group."""

    __slots__ = ("s",)
    s: Fraction

    def __init__(self, s: int | Fraction) -> None:
        object.__setattr__(self, "s", Fraction(s))

    def __neg__(self) -> RankOneClass:
        return RankOneClass(-self.s)

    def __str__(self) -> str:
        return f"({self.s})H"


def cartier_index(variety: RankOneAmbient) -> int:
    """Smallest positive multiple of H that is a Cartier divisor.

    For weighted projective space that is lcm of the weights.  For a
    generalized cone the local class group at a vertex point is cyclic of
    order m generated by the contraction of F, which is H/m, so H itself
    is Cartier and the index is 1.
    """
    if isinstance(variety, WeightedProjectiveSpace):
        return math.lcm(*variety.weights)
    if isinstance(variety, GeneralizedCone):
        return 1
    raise DomainError(f"no Cartier index for {variety!r}")


def seshadri_of_generator(variety: RankOneAmbient) -> Fraction:
    """Seshadri constant of H at a general (smooth) point.

    On P(1, a_1, ..., a_n) the minimal degree of a curve through a general
    point against H is 1/a_n.  On a generalized cone a general point lies
    off the vertex, where the ruling lines give H-degree exactly 1.
    """
    if isinstance(variety, WeightedProjectiveSpace):
        return Fraction(1, variety.weights[-1])
    if isinstance(variety, GeneralizedCone):
        return Fraction(1)
    raise DomainError(f"no Seshadri constant known for {variety!r}")


def rank_one_positivity(cls: RankOneClass) -> Positivity:
    """With a rank-one ample generator, all positivity is the sign of s."""
    s = cls.s
    return Positivity(pseff=s >= 0, big=s > 0, nef=s >= 0, ample=s > 0)


def pushforward_to_cone(resolution: BundleVariety, cls: Class2) -> RankOneClass:
    """Image of a class under contracting the sub-bundle divisor.

    mu_* L = H and mu_* F = H/m, so (beta, gamma) goes to
    (beta + gamma/m) H.  Only meaningful for the cone's resolution, so all
    b_i must vanish.
    """
    if any(bi != 0 for bi in resolution.b):
        raise DomainError("pushforward needs the trivial-summand bundle P(O(m) + O^r)")
    return RankOneClass(cls.beta + Fraction(cls.gamma, resolution.m))


def rank_one_invariants(variety: RankOneAmbient, s: Fraction) -> InvariantReport:
    """Invariants of the anticanonical class s*H.

    Integral classes are the integer multiples of H and ample Cartier
    witnesses the positive multiples of cartier_index(V)*H, so both
    index optimizations are solved by the smallest witness and the two
    indices coincide at s / cartier_index(V); they are absent unless
    s > 0.  The Seshadri value scales the generator's by s >= 0.
    """
    flags = rank_one_positivity(RankOneClass(s))
    gen = fano = None
    if s > 0:
        gen = fano = s / cartier_index(variety)
    sesh = s * seshadri_of_generator(variety) if s >= 0 else None
    return InvariantReport(
        gen_index=gen, fano_index=fano, seshadri_antican=sesh, positivity=flags
    )
