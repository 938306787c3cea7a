"""One entry point turning a foliation descriptor into exact invariants.

The anticanonical class -K lives either in a rank-2 bundle lattice or in
a rank-one class group, and the two cases have different index formulas;
this module dispatches on the ambient and assembles an InvariantReport
with every defined invariant filled in and the rest left absent.
"""

from __future__ import annotations

from .bundle import (
    BundleVariety,
    classify_divisor,
    fano_index,
    generalized_index,
    seshadri_constant,
)
from .errors import DomainError
from .foliation import Ambient, FoliationDescriptor
from .rankone import (
    GeneralizedCone,
    PolarizedBase,
    SingularityClass,
    WeightedProjectiveSpace,
    rank_one_invariants,
)
from .report import InvariantReport


def ambient_is_smooth(ambient: Ambient) -> bool:
    if isinstance(ambient, PolarizedBase):
        return ambient.singularity_class is SingularityClass.SMOOTH
    return ambient.is_smooth


def _bundle_invariants(variety: BundleVariety, fol: FoliationDescriptor) -> InvariantReport:
    antican = -fol.canonical
    flags = classify_divisor(variety, antican)
    gen = None
    if flags.big:
        gen, _ = generalized_index(variety, antican)
    fano = None
    if flags.ample and antican.is_integral:
        fano = fano_index(variety, antican)
    return InvariantReport(
        gen_index=gen,
        fano_index=fano,
        seshadri_antican=seshadri_constant(variety, antican),
        positivity=flags,
    )


def compute_invariants(fol: FoliationDescriptor) -> InvariantReport:
    """Exact (gen_index, fano_index, seshadri_antican, positivity) of -K.

    On a bundle, gen_index needs -K big, fano_index needs it integral and
    ample, and the Seshadri value is recorded only when -K sits on the
    distinguished polarization ray.  On a rank-one class group everything
    reduces to the sign of s and the Cartier index.
    """
    ambient = fol.ambient
    if isinstance(ambient, BundleVariety):
        return _bundle_invariants(ambient, fol)
    if isinstance(ambient, (GeneralizedCone, WeightedProjectiveSpace)):
        return rank_one_invariants(ambient, -fol.canonical.s)
    raise DomainError(
        "invariants are computed on bundles, cones and weighted projective "
        f"spaces, not on {type(ambient).__name__}"
    )
