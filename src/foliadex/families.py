"""Parametric example families, one builder per family table.

Each builder returns an ExampleRecord for one row of a family table,
its parameters are the table's parameter columns, and it raises
DomainError or UnsupportedRequest for an infeasible tuple.  The
Hirzebruch and case-1/case-2 bundle rows are synthesis requests.  The
weighted-hypersurface pencils in their four weight patterns, the cone
rows, the index-gap bundles, and the two boundary families whose leaves
are not rationally connected are built here and carry a family-formula
check comparing all three recomputed invariants against the closed
forms the family realizes.  A builder checks only the bounds that no
constructor it calls refuses already.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional

from .bundle import BundleVariety
from .errors import DomainError
from .foliation import (
    FibrationInduced,
    FoliationDescriptor,
    LeafStatus,
    PnCatalogCase2,
    cone_foliation,
    pn_foliation,
    pullback_over_bundle,
    wps_coordinate_foliation,
)
from .lattice import render_optional
from .rankone import (
    GeneralizedCone,
    PolarizedBase,
    SingularityClass,
    WeightedProjectiveSpace,
    projective_space,
    projective_space_base,
)
from .report import CheckOutcome, InvariantReport
from .synthesis import (
    FAMILY_FORMULA_CHECK,
    ExampleRecord,
    assemble_record,
    boundary_sharpness_check,
    cone_resolution_check,
    mixed_gap_check,
    oracle_agreement_check,
    passfail,
    positivity_check,
    record_id,
    synth_generalized_index,
    witness_check,
)


def family_formula_check(
    inv: InvariantReport,
    expected: tuple[Optional[Fraction], Optional[Fraction], Optional[Fraction]],
) -> CheckOutcome:
    actual = (inv.gen_index, inv.fano_index, inv.seshadri_antican)

    def render(triple: tuple[Optional[Fraction], ...]) -> str:
        return "(" + ", ".join(render_optional(v, "absent") for v in triple) + ")"

    detail = (
        f"(iota-hat, iota, eps) = {render(actual)}, closed form {render(expected)}"
    )
    return passfail(FAMILY_FORMULA_CHECK, actual == expected, detail)


def _family_record(
    family: str,
    params: dict[str, int],
    fol: FoliationDescriptor,
    expected: tuple[Optional[Fraction], Optional[Fraction], Optional[Fraction]],
    extra: Callable[[InvariantReport], tuple[CheckOutcome, ...]] = lambda inv: (),
) -> ExampleRecord:
    """The table row of family at params: the family-formula and ample
    checks, then extra(inv)."""
    return assemble_record(
        record_id("table", family, params),
        None,
        family,
        fol,
        lambda inv: (
            family_formula_check(inv, expected),
            positivity_check(inv, ample=True),
            *extra(inv),
        ),
    )


def hirzebruch_record(a: int) -> ExampleRecord:
    """Hirzebruch surface F_(a-1) with its ruling: iota-hat = 1 - 1/a."""
    if a < 2:
        raise DomainError("need a >= 2")
    return synth_generalized_index(2, 1, Fraction(a - 1, a))


def _lowest_terms(p: int, q: int) -> Fraction:
    if q < 1 or math.gcd(p, q) != 1:
        raise DomainError("p/q not in lowest terms")
    return Fraction(p, q)


def case1_record(n: int, r: int, p: int, q: int) -> ExampleRecord:
    """Fibration over a case-1 bundle: iota-hat = p/q, a non-integer in (1, r)."""
    c = _lowest_terms(p, q)
    if c <= 1 or c.denominator == 1:
        raise DomainError("case1 targets are non-integers in (1, r)")
    return synth_generalized_index(n, r, c)


def case2_record(n: int, r: int, p: int, q: int) -> ExampleRecord:
    """Pullback to a case-2 bundle: iota-hat = p/q in (0, 1)."""
    c = _lowest_terms(p, q)
    if not c < 1:
        raise DomainError("case2 targets lie in (0, 1)")
    return synth_generalized_index(n, r, c)


def wps1_record(n: int, m: int) -> ExampleRecord:
    """Weights (1, 1, 1, m, ..., m), pencil on the first coordinate."""
    if n < 3:
        raise DomainError(f"need n >= 3, got n={n}")
    variety = WeightedProjectiveSpace((1, 1, 1) + (m,) * (n - 2))
    fol = wps_coordinate_foliation(variety, 1)
    value = Fraction(m * (n - 2) + 1, m)
    return _family_record("wps1", {"n": n, "m": m}, fol, (value, value, value))


def wps2_record(n: int, mprime: int, m: int) -> ExampleRecord:
    """Weights (1, m', ..., m', m), pencil on the first coordinate."""
    if n < 3:
        raise DomainError(f"need n >= 3, got n={n}")
    variety = WeightedProjectiveSpace((1,) + (mprime,) * (n - 1) + (m,))
    fol = wps_coordinate_foliation(variety, 1)
    index = Fraction((n - 2) * mprime + m, mprime * m)
    eps = 1 + Fraction((n - 2) * mprime, m)
    return _family_record(
        "wps2", {"n": n, "mprime": mprime, "m": m}, fol, (index, index, eps)
    )


def wps3_record(a1: int, a2: int) -> ExampleRecord:
    """Weights (1, a1, a2), pencil on the first coordinate."""
    variety = WeightedProjectiveSpace((1, a1, a2))
    fol = wps_coordinate_foliation(variety, 1)
    index = Fraction(1, a1)
    return _family_record("wps3", {"a1": a1, "a2": a2}, fol, (index, index, Fraction(1)))


def wps4_record(a1: int, a2: int) -> ExampleRecord:
    """Weights (1, a1, a2), pencil on the second coordinate."""
    variety = WeightedProjectiveSpace((1, a1, a2))
    fol = wps_coordinate_foliation(variety, 2)
    index = Fraction(1, a2)
    return _family_record(
        "wps4", {"a1": a1, "a2": a2}, fol, (index, index, Fraction(a1, a2))
    )


def cone_table_record(base_dim: int, rprime: int, m: int, d: int) -> ExampleRecord:
    """Cone over the rank-one pencil foliation on P^k with K = d*H."""
    if not (0 <= d < m * rprime):
        raise DomainError(
            f"need 0 <= d < m*rprime = {m * rprime} for an ample record, got d={d}"
        )
    cone = GeneralizedCone(
        base=projective_space_base(base_dim), m=m, vertex_rank=rprime
    )
    fol = cone_foliation(cone, pn_foliation(base_dim, 1, d))
    value = rprime - Fraction(d, m)
    return _family_record(
        "cone",
        {"base_dim": base_dim, "rprime": rprime, "m": m, "d": d},
        fol,
        (value, value, value),
        lambda inv: (cone_resolution_check(fol),),
    )


def mixed_record(r: int) -> ExampleRecord:
    """Integer gap between the two indices: iota = 1 < iota-hat = r.

    The pullback of the rank-r catalog foliation with K = -r*H along a
    projectivized sum of line bundles tuned so the anticanonical class
    is ample and primitive while the generalized index stays at r.
    """
    if r < 2:
        raise DomainError(f"need r >= 2 for an index gap, got {r}")
    variety = BundleVariety(base_dim=r + 2, m=1, b=(r - 2,) * r)
    fol = pullback_over_bundle(variety, pn_foliation(r + 2, r, -r))
    return _family_record(
        "mixed",
        {"r": r},
        fol,
        (Fraction(r), Fraction(1), None),
        lambda inv: (
            witness_check(fol),
            oracle_agreement_check(fol, inv),
            mixed_gap_check(inv, r),
        ),
    )


def rc_genus_record(r: int, m: int) -> ExampleRecord:
    """Cone over a plane pencil of quartics whose general member has genus 3.

    The base foliation is the pencil spanned by a smooth quartic and four
    times a line, so its leaf closures are not rationally connected and
    the record sits strictly below the eps <= r^a - 1 boundary.
    """
    if not 2 < m * (r - 1):
        raise DomainError(
            f"need 2 < m*(r-1) for an ample record, got m={m}, r={r}"
        )
    base_fol = FoliationDescriptor(
        ambient=projective_space(2),
        recipe=PnCatalogCase2(d_f=4, d_g=1),
        leaf_rc=LeafStatus.FALSE,
        provenance=(
            "asserted-existence: pencil spanned by a smooth quartic and four "
            "times a line; the general member is a smooth plane quartic of "
            "genus 3, hence not rationally connected"
        ),
    )
    cone = GeneralizedCone(base=projective_space_base(2), m=m, vertex_rank=r - 1)
    fol = cone_foliation(cone, base_fol)
    value = (r - 1) - Fraction(2, m)
    return _family_record(
        "rc-genus",
        {"r": r, "m": m},
        fol,
        (value, value, value),
        lambda inv: (
            cone_resolution_check(fol),
            boundary_sharpness_check(inv, fol, at_equality=False),
        ),
    )


def rc_flat_record(n: int, r: int, m: int) -> ExampleRecord:
    """Cone over an elliptic fibration: eps equals r^a - 1 exactly.

    The base is a product of an elliptic curve with a factor of trivial
    canonical class, fibered over that factor; K of the base foliation
    vanishes, the leaves are elliptic curves, and the cone realizes the
    equality case of the Seshadri boundary with leaf_rc false.
    """
    base = PolarizedBase(
        dim=n - r + 1,
        is_projective_space=False,
        singularity_class=SingularityClass.CALABI_YAU_LC,
        label=(
            "product of an elliptic curve with a smooth factor of trivial "
            "canonical class"
        ),
    )
    base_fol = FoliationDescriptor(
        ambient=base,
        rank=1,
        algebraic_rank=1,
        recipe=FibrationInduced(),
        leaf_rc=LeafStatus.FALSE,
        provenance=(
            "asserted-existence: fibration of the product over its "
            "trivial-canonical factor with elliptic fibers"
        ),
    )
    cone = GeneralizedCone(base=base, m=m, vertex_rank=r - 1)
    fol = cone_foliation(cone, base_fol)
    value = Fraction(r - 1)
    return _family_record(
        "rc-flat",
        {"n": n, "r": r, "m": m},
        fol,
        (value, value, value),
        lambda inv: (
            cone_resolution_check(fol),
            boundary_sharpness_check(inv, fol, at_equality=True),
        ),
    )
