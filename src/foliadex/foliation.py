"""Foliation descriptors and the constructions that produce them.

A descriptor records the data the invariant machinery consumes: the
ambient variety, the rank, the algebraic rank (dimension of the maximal
algebraic subvariety through a general point tangent to the foliation),
a recipe saying how the foliation arises, a rational-connectedness
status for general leaf closures of the algebraic part, and a provenance
note distinguishing constructions carried out here from families whose
existence is asserted.

The canonical class K, in the ambient's class notation, is not an
argument: each recipe derives it from the ambient and its parameters,
and raises DomainError when it does not fit the ambient.  X is a
bundle, r' and m are a cone's vertex rank and multiplier, a_i are the
weights of P(1, a_1, ..., a_n), and s_base is the base foliation's K.

    fibration on a bundle           -relative_anticanonical(X)
    fibration on a polarized base   0, on a numerically-trivial-canonical base only
    pullback                        -relative_anticanonical(X) + (0, s_base)
    cone                            s_base/m - r'
    coordinate j                    -(sum of a_i over 1 <= i <= n, i != j)
    pn1 d                           d
    pn2 (d_f, d_g)                  d_f + d_g - n - 1, with d_f, d_g >= 1
    transcendental p                p

A pullback or cone descriptor inherits its leaf status from the base
foliation, and its rank and algebraic rank are the base's plus the
fiber rank of the bundle or the vertex rank of the cone.  A
contradicting status or rank is refused the same way, whether the
descriptor is constructed or read from a catalog.

Constructors cover: the fibration foliation of a projective bundle,
pullbacks of a base foliation to a bundle, the two-case catalog of
foliations on P^n realizing every admissible canonical degree, purely
transcendental rank-one foliations on P^k, coordinate-projection
foliations on weighted projective space, and foliations induced on a
generalized cone by a foliation on its base.
"""

from __future__ import annotations

import enum
from typing import ClassVar, Union

from .bundle import BundleVariety, relative_anticanonical
from .errors import DomainError
from .lattice import Class2
from .rankone import (
    GeneralizedCone,
    PolarizedBase,
    RankOneClass,
    SingularityClass,
    WeightedProjectiveSpace,
    projective_space,
)
from .value import Frozen, Value

Ambient = Union[BundleVariety, WeightedProjectiveSpace, GeneralizedCone, PolarizedBase]


class LeafStatus(enum.Enum):
    """Is the closure of a general leaf of the algebraic part rationally connected?"""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class _Recipe(Frozen):
    __slots__ = ()

    def linear_leaves(self, ambient: Ambient) -> bool:
        """Are the algebraic leaves linear, the only shape allowed at eps = r^a?"""
        return False


def _on_projective_space(ambient: Ambient, kind: str) -> None:
    if not (isinstance(ambient, WeightedProjectiveSpace) and ambient.is_smooth):
        raise DomainError(f"the {kind} recipe lives on a projective space")


class FibrationInduced(_Recipe):
    """Foliation by fibers of the bundle projection."""

    __slots__ = ()
    kind: ClassVar[str] = "fibration"

    def canonical(self, ambient: Ambient) -> Class2 | RankOneClass:
        if isinstance(ambient, BundleVariety):
            return -relative_anticanonical(ambient)
        if (
            isinstance(ambient, PolarizedBase)
            and ambient.singularity_class is SingularityClass.CALABI_YAU_LC
        ):
            return RankOneClass(0)
        raise DomainError(
            "the fibration recipe lives on a bundle or on a base with "
            "numerically trivial canonical class"
        )


class PullbackOverBundle(_Recipe):
    """Preimage of a base foliation under the bundle projection."""

    __slots__ = ("base",)
    base: FoliationDescriptor
    kind: ClassVar[str] = "pullback"

    def canonical(self, ambient: Ambient) -> Class2:
        if not isinstance(ambient, BundleVariety):
            raise DomainError("the pullback recipe lives on a bundle")
        base = self.base.ambient
        if not isinstance(base, WeightedProjectiveSpace) or not base.is_smooth:
            raise DomainError("base foliation must live on a projective space")
        if base.dim != ambient.base_dim:
            raise DomainError(
                f"base dimension mismatch: bundle over P^{ambient.base_dim}, "
                f"foliation on P^{base.dim}"
            )
        return -relative_anticanonical(ambient) + Class2(0, self.base.canonical.s)


class ConeInduced(_Recipe):
    """Preimage of a base foliation under the cone's ruling projection."""

    __slots__ = ("base",)
    base: FoliationDescriptor
    kind: ClassVar[str] = "cone"

    def canonical(self, ambient: Ambient) -> RankOneClass:
        if not isinstance(ambient, GeneralizedCone):
            raise DomainError("the cone recipe lives on a generalized cone")
        base_ambient = self.base.ambient
        if isinstance(base_ambient, WeightedProjectiveSpace):
            if not (base_ambient.is_smooth and ambient.base.is_projective_space):
                raise DomainError("base foliation ambient does not match the cone base")
            if base_ambient.dim != ambient.base.dim:
                raise DomainError(
                    f"cone base is {ambient.base.label}, foliation lives on "
                    f"{base_ambient.label()}"
                )
        elif isinstance(base_ambient, PolarizedBase):
            if base_ambient != ambient.base:
                raise DomainError("base foliation must live on the cone's own base")
        else:
            raise DomainError("cone base foliations live on the base, not on a bundle")
        return RankOneClass(self.base.canonical.s / ambient.m - ambient.vertex_rank)


class CoordinateProjection(_Recipe):
    """Fibers of [x_0 ^ a_j : x_j] on a weighted projective space."""

    __slots__ = ("j",)
    j: int
    kind: ClassVar[str] = "coordinate"

    def canonical(self, ambient: Ambient) -> RankOneClass:
        if not isinstance(ambient, WeightedProjectiveSpace):
            raise DomainError("the coordinate recipe lives on a weighted projective space")
        n = ambient.dim
        if not (1 <= self.j <= n):
            raise DomainError(f"coordinate index must satisfy 1 <= j <= {n}, got {self.j}")
        return RankOneClass(-sum(ambient.weights[i] for i in range(1, n + 1) if i != self.j))

    def linear_leaves(self, ambient: Ambient) -> bool:
        # a pencil of hyperplanes on an honest projective space
        return ambient.is_smooth


class PnCatalogCase1(_Recipe):
    """Linear-projection pullback of a transcendental rank-one foliation."""

    __slots__ = ("d",)
    d: int
    kind: ClassVar[str] = "pn1"

    def canonical(self, ambient: Ambient) -> RankOneClass:
        _on_projective_space(ambient, self.kind)
        return RankOneClass(self.d)

    def linear_leaves(self, ambient: Ambient) -> bool:
        # the fibers of a linear projection
        return True


class PnCatalogCase2(_Recipe):
    """Fibers of a pencil [f : g] of hypersurfaces of degrees (d_f, d_g)."""

    __slots__ = ("d_f", "d_g")
    d_f: int
    d_g: int
    kind: ClassVar[str] = "pn2"

    def canonical(self, ambient: Ambient) -> RankOneClass:
        _on_projective_space(ambient, self.kind)
        if self.d_f < 1 or self.d_g < 1:
            raise DomainError(f"pencil degrees must be positive, got ({self.d_f}, {self.d_g})")
        return RankOneClass(self.d_f + self.d_g - ambient.dim - 1)

    def linear_leaves(self, ambient: Ambient) -> bool:
        # a pencil of two hyperplanes
        return self.d_f == 1 and self.d_g == 1


class TranscendentalRankOne(_Recipe):
    """Rank-one foliation with no algebraic leaf through a general point."""

    __slots__ = ("p",)
    p: int
    kind: ClassVar[str] = "transcendental"

    def canonical(self, ambient: Ambient) -> RankOneClass:
        _on_projective_space(ambient, self.kind)
        return RankOneClass(self.p)


Recipe = Union[
    FibrationInduced,
    PullbackOverBundle,
    ConeInduced,
    CoordinateProjection,
    PnCatalogCase1,
    PnCatalogCase2,
    TranscendentalRankOne,
]


class FoliationDescriptor(Frozen):
    """A foliation on its ambient; the canonical class is derived from the recipe."""

    __slots__ = (
        "ambient", "rank", "algebraic_rank", "canonical", "recipe", "leaf_rc", "provenance",
    )
    ambient: Ambient
    rank: int
    algebraic_rank: int
    canonical: Class2 | RankOneClass
    recipe: Recipe
    leaf_rc: LeafStatus
    provenance: str

    def __init__(
        self,
        ambient: Ambient,
        rank: int,
        algebraic_rank: int,
        recipe: Recipe,
        leaf_rc: LeafStatus,
        provenance: str,
    ) -> None:
        n = ambient.dim
        if not (1 <= rank < n):
            raise DomainError(f"rank must satisfy 1 <= rank < dim = {n}, got {rank}")
        if not (0 <= algebraic_rank <= rank):
            raise DomainError(f"algebraic rank must lie in [0, rank], got {algebraic_rank}")
        canonical = recipe.canonical(ambient)
        if isinstance(recipe, (FibrationInduced, CoordinateProjection)):
            if algebraic_rank != rank:
                raise DomainError("fibration-type recipes are algebraically integrable")
        if isinstance(recipe, (PullbackOverBundle, ConeInduced)):
            stored = (rank, algebraic_rank, leaf_rc.value)
            inherited_rank, inherited_algebraic_rank, inherited_leaf_rc = _inherited(
                ambient, recipe.base
            )
            inherited = (inherited_rank, inherited_algebraic_rank, inherited_leaf_rc.value)
            if stored != inherited:
                raise DomainError(
                    f"(rank, algebraic_rank, leaf_rc) = {stored} contradicts "
                    f"{inherited}, inherited from the base foliation"
                )
        Value.__init__(self, ambient, rank, algebraic_rank, canonical, recipe, leaf_rc, provenance)

    @property
    def purely_transcendental(self) -> bool:
        return self.algebraic_rank == 0


def _inherited(ambient: Ambient, base: FoliationDescriptor) -> tuple[int, int, LeafStatus]:
    """Rank, algebraic rank and leaf status of a pullback or cone of base."""
    # The bundle fibers, or the cone's ruling subspaces, are algebraic and
    # add their dimension to both ranks of the base foliation.
    extra = ambient.fiber_rank if isinstance(ambient, BundleVariety) else ambient.vertex_rank
    # When the base foliation is purely transcendental, the algebraic part
    # upstairs is the fiber/ruling foliation, whose leaf closures are
    # projective spaces.  Otherwise leaf closures fiber over the base leaf
    # closures with rationally connected fibers, so the status transfers.
    leaf_rc = LeafStatus.TRUE if base.purely_transcendental else base.leaf_rc
    return base.rank + extra, base.algebraic_rank + extra, leaf_rc


def fibration_foliation(variety: BundleVariety) -> FoliationDescriptor:
    """The relative tangent foliation of the bundle projection.

    The leaves are the fibers, so rank and algebraic rank both equal the
    fiber dimension.
    """
    return FoliationDescriptor(
        ambient=variety,
        rank=variety.fiber_rank,
        algebraic_rank=variety.fiber_rank,
        recipe=FibrationInduced(),
        leaf_rc=LeafStatus.TRUE,
        provenance="constructed: relative tangent sheaf of the bundle projection",
    )


def pullback_over_bundle(
    variety: BundleVariety, base_foliation: FoliationDescriptor
) -> FoliationDescriptor:
    """Preimage of a foliation on the base P^k under the projection.

    Canonical classes add along the exact sequence relating the pullback
    to the relative tangent sheaf: K = K_{X/Z} + (deg K_base) F.
    """
    rank, algebraic_rank, leaf_rc = _inherited(variety, base_foliation)
    return FoliationDescriptor(
        ambient=variety,
        rank=rank,
        algebraic_rank=algebraic_rank,
        recipe=PullbackOverBundle(base_foliation),
        leaf_rc=leaf_rc,
        provenance="constructed: projection preimage of the base foliation",
    )


def pn_foliation(n: int, r: int, d: int) -> FoliationDescriptor:
    """A rank-(r or r+1) foliation on P^n with algebraic rank r and K = d*H.

    Requires 0 < r < n and d >= -r.  For r <= n-2 the foliation is the
    pullback, under the linear projection P^n -> P^{n-r}, of a purely
    transcendental rank-one foliation with canonical degree d + r >= 0;
    the algebraic part is the projection's fiber foliation.  For r = n-1
    it is the fibers of a pencil of hypersurfaces of degrees (d_f, d_g)
    with d_f + d_g = d + n + 1; the degrees are balanced deterministically
    and must both be positive, which d >= -r guarantees.
    """
    if not (0 < r < n):
        raise DomainError(f"need 0 < r < n, got r={r}, n={n}")
    if d < -r:
        raise DomainError(f"canonical degree must satisfy d >= -r, got d={d}, r={r}")
    ambient = projective_space(n)
    if r <= n - 2:
        return FoliationDescriptor(
            ambient=ambient,
            rank=r + 1,
            algebraic_rank=r,
            recipe=PnCatalogCase1(d),
            leaf_rc=LeafStatus.TRUE,
            provenance=(
                "constructed: linear-projection pullback; asserted-existence for the "
                f"transcendental rank-one factor of canonical degree {d + r}"
            ),
        )
    total = d + n + 1
    d_f = (total + 1) // 2
    d_g = total - d_f
    leaf_rc = LeafStatus.TRUE if d_f == d_g == 1 else LeafStatus.UNKNOWN
    return FoliationDescriptor(
        ambient=ambient,
        rank=n - 1,
        algebraic_rank=n - 1,
        recipe=PnCatalogCase2(d_f, d_g),
        leaf_rc=leaf_rc,
        provenance="constructed: pencil of hypersurfaces of degrees "
        f"({d_f}, {d_g})",
    )


def transcendental_rank1(k: int, p: int) -> FoliationDescriptor:
    """A rank-one foliation on P^k, K = p*H, with no algebraic leaves.

    Requires k >= 2 and p >= 1: degree p+1 >= 2 vector fields on P^k with
    purely transcendental leaves exist in every such degree.
    """
    if k < 2:
        raise DomainError(f"need k >= 2 for a transcendental rank-one foliation, got {k}")
    if p < 1:
        raise DomainError(f"need canonical degree p >= 1, got {p}")
    return FoliationDescriptor(
        ambient=projective_space(k),
        rank=1,
        algebraic_rank=0,
        recipe=TranscendentalRankOne(p),
        leaf_rc=LeafStatus.UNKNOWN,
        provenance=(
            f"asserted-existence: purely transcendental rank-one foliation of degree {p + 1}"
        ),
    )


def wps_coordinate_foliation(
    variety: WeightedProjectiveSpace, j: int
) -> FoliationDescriptor:
    """Fibers of the pencil spanned by x_0^{a_j} and x_j.

    Leaf closures are weighted hypersurfaces {x_j = c * x_0^{a_j}}; their
    rational connectedness is left unknown rather than guessed, since the
    invariant formulas never depend on it.
    """
    n = variety.dim
    if not (1 <= j <= n):
        # checked before the provenance reads a_j
        raise DomainError(f"coordinate index must satisfy 1 <= j <= {n}, got {j}")
    return FoliationDescriptor(
        ambient=variety,
        rank=n - 1,
        algebraic_rank=n - 1,
        recipe=CoordinateProjection(j),
        leaf_rc=LeafStatus.UNKNOWN,
        provenance=f"constructed: fibers of the pencil spanned by x_0^{variety.weights[j]} and x_{j}",
    )


def cone_foliation(
    cone: GeneralizedCone, base_foliation: FoliationDescriptor
) -> FoliationDescriptor:
    """Preimage of a base foliation under the cone's projection off the vertex.

    With d the canonical degree of the base foliation against the
    polarization, the induced foliation has K = (d/m - r') H: each ruling
    subspace contributes the vertex rank to the anticanonical degree and
    the base contributes d/m through the degree-m polarization.
    """
    rank, algebraic_rank, leaf_rc = _inherited(cone, base_foliation)
    return FoliationDescriptor(
        ambient=cone,
        rank=rank,
        algebraic_rank=algebraic_rank,
        recipe=ConeInduced(base_foliation),
        leaf_rc=leaf_rc,
        provenance="constructed: ruling-projection preimage of the base foliation",
    )
