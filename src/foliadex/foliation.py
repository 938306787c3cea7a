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
and raises DomainError when it does not fit the ambient.  Nor are the
fields listed after K below, nor the "constructed: ..." provenance of
the fibration on a bundle, pullback, cone and coordinate recipes: a
fixed field given anyway must agree, whether the descriptor is
constructed or read from a catalog, and a free one must be given.  X
is a bundle of fiber rank f and A its relative_anticanonical, r' and m
are a cone's vertex rank and multiplier, a_i are the weights of
P(1, a_1, ..., a_n), and s, r, r^a and rc are the base foliation's K,
ranks and leaf status.

    recipe                      K                          rank, r^a     leaf_rc
    fibration on a bundle       -A                         f, f          true
    fibration, polarized base   0, K_base num. trivial     r^a = rank
    pullback                    -A + (0, s)                r+f, r^a+f    rc, true if r^a = 0
    cone                        s/m - r'                   r+r', r^a+r'  rc, true if r^a = 0
    coordinate j                -(sum of a_i, i != 0, j)   n-1, n-1      unknown
    pn1 d                       d                                        true
    pn2 (d_f, d_g >= 1)         d_f + d_g - n - 1          n-1, n-1      true if d_f = d_g = 1
    transcendental p            p                          1, 0          unknown

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
from .jsontext import render
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


# the descriptor fields a recipe's fixed(ambient) returns, in this order,
# each None where the recipe leaves it free; fixed is called only on an
# ambient that the recipe's canonical(ambient) accepted
_FIXABLE = ("rank", "algebraic_rank", "leaf_rc", "provenance")


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

    def fixed(self, ambient: Ambient) -> tuple:
        if isinstance(ambient, PolarizedBase):
            return (None, None, None, None)
        # the leaves are the fibers, projective spaces
        provenance = "constructed: relative tangent sheaf of the bundle projection"
        return (ambient.fiber_rank, ambient.fiber_rank, LeafStatus.TRUE, provenance)


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

    def fixed(self, ambient: Ambient) -> tuple:
        return _inherited(self.base, ambient.fiber_rank, "projection")


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

    def fixed(self, ambient: Ambient) -> tuple:
        return _inherited(self.base, ambient.vertex_rank, "ruling-projection")


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

    def fixed(self, ambient: Ambient) -> tuple:
        # Leaf closures are weighted hypersurfaces {x_j = c * x_0^{a_j}};
        # their rational connectedness is left unknown rather than guessed,
        # since the invariant formulas never depend on it.
        n, j = ambient.dim, self.j
        provenance = (
            f"constructed: fibers of the pencil spanned by x_0^{ambient.weights[j]} and x_{j}"
        )
        return (n - 1, n - 1, LeafStatus.UNKNOWN, provenance)


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

    def fixed(self, ambient: Ambient) -> tuple:
        return (None, None, LeafStatus.TRUE, None)


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

    def fixed(self, ambient: Ambient) -> tuple:
        n = ambient.dim
        # the leaves of a pencil of hyperplanes are hyperplanes
        return (n - 1, n - 1, LeafStatus.TRUE if self.linear_leaves(ambient) else None, None)


class TranscendentalRankOne(_Recipe):
    """Rank-one foliation with no algebraic leaf through a general point."""

    __slots__ = ("p",)
    p: int
    kind: ClassVar[str] = "transcendental"

    def canonical(self, ambient: Ambient) -> RankOneClass:
        _on_projective_space(ambient, self.kind)
        return RankOneClass(self.p)

    def fixed(self, ambient: Ambient) -> tuple:
        return (1, 0, LeafStatus.UNKNOWN, None)


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
    """A foliation on its ambient; the recipe derives K and every other field it fixes."""

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
        recipe: Recipe,
        *,
        rank: int | None = None,
        algebraic_rank: int | None = None,
        leaf_rc: LeafStatus | None = None,
        provenance: str | None = None,
    ) -> None:
        canonical = recipe.canonical(ambient)
        given = (rank, algebraic_rank, leaf_rc, provenance)
        fields = []
        for name, value, fixed in zip(_FIXABLE, given, recipe.fixed(ambient)):
            if value is None:
                if fixed is None:
                    raise DomainError(f"no {name} given, and the {recipe.kind} recipe fixes none")
                value = fixed
            elif fixed is not None and fixed != value:
                raise DomainError(
                    f"{name} {_written(value)} differs from {_written(fixed)}, "
                    f"fixed by the {recipe.kind} recipe"
                )
            fields.append(value)
        rank, algebraic_rank, leaf_rc, provenance = fields
        n = ambient.dim
        if not (1 <= rank < n):
            raise DomainError(f"rank must satisfy 1 <= rank < dim = {n}, got {rank}")
        if not (0 <= algebraic_rank <= rank):
            raise DomainError(f"algebraic rank must lie in [0, rank], got {algebraic_rank}")
        if isinstance(recipe, FibrationInduced) and algebraic_rank != rank:
            raise DomainError("the fibration recipe is algebraically integrable")
        Value.__init__(self, ambient, rank, algebraic_rank, canonical, recipe, leaf_rc, provenance)

    @property
    def purely_transcendental(self) -> bool:
        return self.algebraic_rank == 0


def _written(value) -> str:
    """A field value as a catalog export writes it."""
    return render(value.value if isinstance(value, LeafStatus) else value)


def _inherited(base: FoliationDescriptor, extra: int, projection: str) -> tuple:
    """The fixed fields of a pullback or cone of base, whose fibers have dimension extra."""
    # The bundle fibers, or the cone's ruling subspaces, are algebraic and
    # add their dimension to both ranks of the base foliation.
    # When the base foliation is purely transcendental, the algebraic part
    # upstairs is the fiber/ruling foliation, whose leaf closures are
    # projective spaces.  Otherwise leaf closures fiber over the base leaf
    # closures with rationally connected fibers, so the status transfers.
    leaf_rc = LeafStatus.TRUE if base.purely_transcendental else base.leaf_rc
    provenance = f"constructed: {projection} preimage of the base foliation"
    return (base.rank + extra, base.algebraic_rank + extra, leaf_rc, provenance)


def fibration_foliation(variety: BundleVariety) -> FoliationDescriptor:
    """The relative tangent foliation of the bundle projection."""
    return FoliationDescriptor(variety, FibrationInduced())


def pullback_over_bundle(
    variety: BundleVariety, base_foliation: FoliationDescriptor
) -> FoliationDescriptor:
    """Preimage of a foliation on the base P^k under the projection.

    Canonical classes add along the exact sequence relating the pullback
    to the relative tangent sheaf: K = K_{X/Z} + (deg K_base) F.
    """
    return FoliationDescriptor(variety, PullbackOverBundle(base_foliation))


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
            ambient,
            PnCatalogCase1(d),
            rank=r + 1,
            algebraic_rank=r,
            provenance=(
                "constructed: linear-projection pullback; asserted-existence for the "
                f"transcendental rank-one factor of canonical degree {d + r}"
            ),
        )
    total = d + n + 1
    d_f = (total + 1) // 2
    d_g = total - d_f
    return FoliationDescriptor(
        ambient,
        PnCatalogCase2(d_f, d_g),
        # the recipe fixes the leaves of a pencil of hyperplanes
        leaf_rc=None if d_f == d_g == 1 else LeafStatus.UNKNOWN,
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
        projective_space(k),
        TranscendentalRankOne(p),
        provenance=(
            f"asserted-existence: purely transcendental rank-one foliation of degree {p + 1}"
        ),
    )


def wps_coordinate_foliation(
    variety: WeightedProjectiveSpace, j: int
) -> FoliationDescriptor:
    """Fibers of the pencil spanned by x_0^{a_j} and x_j."""
    return FoliationDescriptor(variety, CoordinateProjection(j))


def cone_foliation(
    cone: GeneralizedCone, base_foliation: FoliationDescriptor
) -> FoliationDescriptor:
    """Preimage of a base foliation under the cone's projection off the vertex.

    With d the canonical degree of the base foliation against the
    polarization, the induced foliation has K = (d/m - r') H: each ruling
    subspace contributes the vertex rank to the anticanonical degree and
    the base contributes d/m through the degree-m polarization.
    """
    return FoliationDescriptor(cone, ConeInduced(base_foliation))
