"""Constructive synthesis: a record realizing a prescribed invariant.

Given a kind (generalized index, Fano index, Seshadri constant of the
anticanonical class), a dimension n, an algebraic rank r and an exact
rational target c, the dispatcher either builds a (variety, foliation)
pair whose recomputed invariant equals c, or raises UnsupportedRequest
naming the bound that failed.  Nothing is copied from the request into
the result: every stored invariant is recomputed from the constructed
geometry, and every record carries construction-time check outcomes.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .bundle import (
    BundleVariety,
    generalized_index,
    relative_anticanonical,
    seshadri_polarization,
)
from .errors import DomainError, UnsupportedRequest
from .foliation import (
    Ambient,
    FoliationDescriptor,
    LeafStatus,
    cone_foliation,
    fibration_foliation,
    pn_foliation,
    pullback_over_bundle,
    transcendental_rank1,
    wps_coordinate_foliation,
)
from .invariants import compute_invariants
from .lattice import Class2, render_optional, render_rational
from .oracle import audited_index
from .rankone import (
    GeneralizedCone,
    WeightedProjectiveSpace,
    projective_space_base,
    pushforward_to_cone,
)
from .report import CheckOutcome, CheckStatus, InvariantReport
from .value import Frozen


class SynthKind(enum.Enum):
    GENERALIZED_INDEX = "generalized-index"
    FANO_INDEX = "fano-index"
    SESHADRI = "seshadri"

    @classmethod
    def from_text(cls, text: str) -> "SynthKind":
        normalized = text.strip().lower().replace("_", "-")
        for kind in cls:
            if kind.value == normalized:
                return kind
        raise DomainError(
            f"unknown kind {text!r}; expected one of "
            + ", ".join(k.value for k in cls)
        )


# Which InvariantReport field a request targets.
TARGET_FIELD = {
    SynthKind.GENERALIZED_INDEX: "gen_index",
    SynthKind.FANO_INDEX: "fano_index",
    SynthKind.SESHADRI: "seshadri_antican",
}


class SynthesisRequest(Frozen):
    __slots__ = ("kind", "n", "r", "c")
    kind: SynthKind
    n: int
    r: int
    c: Fraction

    def __init__(self, kind: SynthKind, n: int, r: int, c: int | Fraction) -> None:
        c = Fraction(c)
        if not isinstance(n, int) or n < 2:
            raise DomainError(f"need integer n >= 2, got {n}")
        if not isinstance(r, int) or not (0 < r < n):
            raise DomainError(f"need 0 < r < n, got r={r}, n={n}")
        if c <= 0:
            raise DomainError(f"target must be positive, got {c}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)


class CaseParameters(Frozen):
    """Auxiliary data of the fibration construction for targets in (1, r).

    The target is p/q; l is the twist scale, b_list the summand twists.
    Feasibility is the pair of inequalities re-verified in
    case1_constraints_check.
    """

    __slots__ = ("p", "q", "l", "b_list")
    p: int
    q: int
    l: int
    b_list: tuple[int, ...]

    def __init__(self, p: int, q: int, l: int, b_list: tuple[int, ...]) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "b_list", b_list)


class ExampleRecord(Frozen):
    __slots__ = ("id", "request", "branch", "foliation", "invariants", "checks")
    id: str
    request: Optional[SynthesisRequest]
    branch: str
    foliation: FoliationDescriptor
    invariants: InvariantReport
    checks: tuple[CheckOutcome, ...]

    def __init__(
        self,
        id: str,
        request: Optional[SynthesisRequest],
        branch: str,
        foliation: FoliationDescriptor,
        invariants: InvariantReport,
        checks: tuple[CheckOutcome, ...],
    ) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "request", request)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "foliation", foliation)
        object.__setattr__(self, "invariants", invariants)
        object.__setattr__(self, "checks", checks)

    @property
    def variety(self) -> Ambient:
        """The ambient of the record's foliation."""
        return self.foliation.ambient


# ---------------------------------------------------------------------------
# Construction-time checks.  These are stored in the record and re-audited
# by the verification module; a failing check is recorded, never raised,
# so a defective construction is visible rather than hidden.


def passfail(name: str, ok: bool, detail: str) -> CheckOutcome:
    status = CheckStatus.PASS if ok else CheckStatus.FAIL
    return CheckOutcome(name=name, status=status, detail=detail)


def skip(name: str, detail: str) -> CheckOutcome:
    return CheckOutcome(name=name, status=CheckStatus.SKIP, detail=detail)


def target_check(inv: InvariantReport, field: str, expected: Fraction) -> CheckOutcome:
    actual = getattr(inv, field)
    return passfail(
        "target-invariant-exact",
        actual == expected,
        f"{field} = {render_optional(actual, 'absent')}, target {render_rational(expected)}",
    )


def positivity_check(inv: InvariantReport, expect: str) -> CheckOutcome:
    flags = inv.positivity
    if expect == "ample":
        ok = flags.ample
    elif expect == "big-not-ample":
        ok = flags.big and not flags.ample
    else:
        raise DomainError(f"unknown positivity expectation {expect!r}")
    got = (
        f"pseff={flags.pseff} big={flags.big} nef={flags.nef} ample={flags.ample}"
    )
    return passfail("anticanonical-positivity", ok, f"expected {expect}; got {got}")


def witness_check(variety: BundleVariety, fol: FoliationDescriptor) -> CheckOutcome:
    antican = -fol.canonical
    value, witness = generalized_index(variety, antican)
    ok = witness.is_valid_for(variety, antican)
    detail = (
        f"-K = {value}*{witness.h} + {witness.p_e}*E + {witness.p_a}*F"
    )
    return passfail("index-witness-valid", ok, detail)


def oracle_agreement_check(
    variety: BundleVariety, fol: FoliationDescriptor, inv: InvariantReport
) -> CheckOutcome:
    value, rectangle = audited_index(variety, -fol.canonical)
    ok = value == inv.gen_index
    if inv.positivity.ample:
        # The closed form for ample classes is a derived extension of the
        # big-not-ample formula, so its oracle audit is named separately.
        name = "ample-regime-oracle-agreement"
        closed_form = "derived ample-regime closed form"
    else:
        name = "gen-index-oracle-agreement"
        closed_form = "closed form"
    detail = (
        f"{closed_form} {render_optional(inv.gen_index, 'absent')} vs {rectangle} = "
        f"{render_rational(value)}"
    )
    return passfail(name, ok, detail)


def seshadri_scaled_check(variety: BundleVariety, inv: InvariantReport) -> CheckOutcome:
    h0, eps_h0 = seshadri_polarization(variety)
    t = inv.gen_index
    if t is None:
        return skip("seshadri-scaled-polarization", "no generalized index on record")
    eps = t * eps_h0
    return passfail(
        "seshadri-scaled-polarization",
        eps == t,
        f"eps({render_rational(t)}*H0) = {render_rational(eps)} with H0 = {h0}",
    )


def case1_constraints_check(params: CaseParameters, r: int) -> CheckOutcome:
    p, q, l = params.p, params.q, params.l
    surplus = l * (p - q) + (p - q * r) + 1
    b1 = l * q - 1

    def feasible(candidate: int) -> bool:
        return (
            candidate * (p - q) + (p - q * r) + 1 > 0
            and candidate * (q * r - p) >= r - 1
        )

    ok = (
        feasible(l)
        and (l == 1 or not feasible(l - 1))
        and params.b_list[0] == b1
        and len(params.b_list) == r
        and all(0 <= entry <= b1 for entry in params.b_list)
        and sum(params.b_list[1:]) == surplus
    )
    detail = (
        f"l = {l}, p/q = {p}/{q}, b = {list(params.b_list)}, surplus = {surplus}"
    )
    return passfail("case1-constraints", ok, detail)


def cone_resolution_check(cone: GeneralizedCone, fol: FoliationDescriptor) -> CheckOutcome:
    if not cone.base.is_projective_space:
        return skip(
            "cone-resolution-consistency", "no bundle model for an abstract base"
        )
    base_fol = fol.recipe.base
    d = base_fol.canonical.s
    model = cone.resolution()
    upstairs = relative_anticanonical(model) - Class2(0, d)
    pushed = pushforward_to_cone(model, upstairs)
    ok = pushed.s == -fol.canonical.s
    detail = (
        f"pushforward of {upstairs} from {model.label()} gives "
        f"({render_rational(pushed.s)})H"
    )
    return passfail("cone-resolution-consistency", ok, detail)


def mixed_gap_check(inv: InvariantReport, r: int) -> CheckOutcome:
    ok = (
        inv.gen_index == r
        and inv.fano_index == 1
        and inv.fano_index < inv.gen_index
    )
    detail = (
        f"fano_index = {render_optional(inv.fano_index, 'absent')} < "
        f"gen_index = {render_optional(inv.gen_index, 'absent')}"
        f" with target gap 1 < {r}"
    )
    return passfail("mixed-index-gap", ok, detail)


def boundary_sharpness_check(
    inv: InvariantReport, fol: FoliationDescriptor, at_equality: bool
) -> CheckOutcome:
    ra = fol.algebraic_rank
    eps = inv.seshadri_antican
    if eps is None:
        return passfail("boundary-sharpness", False, "no Seshadri value on record")
    if at_equality:
        ok = eps == ra - 1 and fol.leaf_rc is LeafStatus.FALSE
        relation = f"eps = {render_rational(eps)} == r^a - 1 = {ra - 1}"
    else:
        ok = eps <= ra - 1 and fol.leaf_rc is LeafStatus.FALSE
        relation = f"eps = {render_rational(eps)} <= r^a - 1 = {ra - 1}"
    return passfail(
        "boundary-sharpness", ok, f"{relation}, leaf_rc = {fol.leaf_rc.value}"
    )


# ---------------------------------------------------------------------------
# Case-1 parameter search.


def case1_parameters(r: int, p: int, q: int) -> CaseParameters:
    """Minimal twist scale l and summand twists for the target p/q in (1, r).

    l must make the leftover twist budget positive while keeping p/q
    below the reachable bound (1 - 1/(ql))r + 1/(ql); both conditions are
    linear in l, so the minimal l is the larger of their two thresholds.
    The budget l(p-q) + (p-qr) + 1 is then spread greedily over b_2..b_r,
    each entry capped at b_1 = lq - 1; the cap inequality is implied by
    the second condition, so the greedy fill always lands exactly.
    """
    if not (isinstance(p, int) and isinstance(q, int)) or p < 1 or q < 1:
        raise DomainError(f"need positive integers, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"p/q must be in lowest terms, got {p}/{q}")
    if not (q < p < q * r):
        raise DomainError(f"need q < p < q*r, got p={p}, q={q}, r={r}")

    # The conditions read l*(p-q) > q*r - p - 1 >= 0 and
    # l*(q*r-p) >= r - 1; the least l meeting each is an integer quotient.
    l = max(1, (q * r - p - 1) // (p - q) + 1, -(-(r - 1) // (q * r - p)))

    b1 = l * q - 1
    surplus = l * (p - q) + (p - q * r) + 1
    tail = []
    remaining = surplus
    for _ in range(r - 1):
        take = min(remaining, b1)
        tail.append(take)
        remaining -= take
    if remaining != 0:
        raise RuntimeError(
            f"twist budget {surplus} does not fit in {r - 1} slots of size {b1}; "
            "unreachable when the feasibility conditions hold"
        )
    return CaseParameters(p=p, q=q, l=l, b_list=(b1, *tail))


# ---------------------------------------------------------------------------
# Record assembly.


def assemble_record(
    record_id: str,
    request: Optional[SynthesisRequest],
    branch: str,
    fol: FoliationDescriptor,
    checks: Callable[[InvariantReport], Iterable[CheckOutcome]],
) -> ExampleRecord:
    """The one place a foliation becomes a record, synth or table row.

    The invariants are computed once; checks maps them to the record's
    construction-check outcomes, in the order they are stored.
    """
    inv = compute_invariants(fol)
    return ExampleRecord(
        id=record_id,
        request=request,
        branch=branch,
        foliation=fol,
        invariants=inv,
        checks=tuple(checks(inv)),
    )


def _synth_record(
    request: SynthesisRequest,
    branch: str,
    fol: FoliationDescriptor,
    extra: tuple[CheckOutcome, ...] = (),
) -> ExampleRecord:
    """A synth record: the exact-target check, the positivity its branch
    promises (big but not ample on a bundle, with the index audits; ample
    elsewhere), then extra."""
    variety = fol.ambient

    def checks(inv: InvariantReport) -> Iterator[CheckOutcome]:
        yield target_check(inv, TARGET_FIELD[request.kind], request.c)
        if isinstance(variety, BundleVariety):
            yield positivity_check(inv, "big-not-ample")
            yield witness_check(variety, fol)
            yield oracle_agreement_check(variety, fol, inv)
            yield seshadri_scaled_check(variety, inv)
        else:
            yield positivity_check(inv, "ample")
        yield from extra

    record_id = (
        f"{request.kind.value}:{branch}:n={request.n}:r={request.r}"
        f":c={render_rational(request.c)}"
    )
    return assemble_record(record_id, request, branch, fol, checks)


def _pn_record(request: SynthesisRequest) -> ExampleRecord:
    c = int(request.c)
    fol = pn_foliation(request.n, request.r, -c)
    return _synth_record(request, "pn", fol)


def _cone_record(request: SynthesisRequest) -> ExampleRecord:
    n, r, c = request.n, request.r, request.c
    rprime = c.numerator // c.denominator + 1
    frac = rprime - c
    p, q = frac.numerator, frac.denominator
    cone = GeneralizedCone(
        base=projective_space_base(n - rprime), m=q, vertex_rank=rprime
    )
    if r > rprime:
        base_fol = pn_foliation(n - rprime, r - rprime, p)
    else:
        base_fol = transcendental_rank1(n - rprime, p)
    fol = cone_foliation(cone, base_fol)
    extra = (cone_resolution_check(cone, fol),)
    return _synth_record(request, "cone", fol, extra)


# ---------------------------------------------------------------------------
# Dispatch.


def _surface_open_question(c: Fraction) -> UnsupportedRequest:
    return UnsupportedRequest(
        "on surfaces the realized generalized indices below 1 are exactly "
        f"1 - 1/a; whether every rational number in (0, 1), such as "
        f"{render_rational(c)}, occurs is an open question"
    )


def _rank_open_question(n: int, c: Fraction) -> UnsupportedRequest:
    return UnsupportedRequest(
        f"for rank n-1 = {n - 1} the realized non-integer Fano indices above "
        f"n-2 = {n - 2} are exactly n-2 + 1/a; whether every rational c in "
        f"(n-2, n-1), such as {render_rational(c)}, occurs is an open question"
    )


def _synth_generalized_index(request: SynthesisRequest) -> ExampleRecord:
    n, r, c = request.n, request.r, request.c
    if c.denominator == 1:
        return _pn_record(request)
    if n == 2:
        if c.numerator == c.denominator - 1:
            a = c.denominator
            variety = BundleVariety(base_dim=1, m=a - 1, b=(0,))
            return _synth_record(request, "hirzebruch", fibration_foliation(variety))
        raise _surface_open_question(c)
    if c > 1:
        params = case1_parameters(r, c.numerator, c.denominator)
        variety = BundleVariety(base_dim=n - r, m=params.q, b=params.b_list)
        extra = (case1_constraints_check(params, r),)
        return _synth_record(request, "case1", fibration_foliation(variety), extra)
    p, q = c.numerator, c.denominator
    variety = BundleVariety(base_dim=n - 1, m=q, b=(q - 1,))
    d = 2 * (q - p) - 1
    if r >= 2:
        base_fol = pn_foliation(n - 1, r - 1, d)
    else:
        base_fol = transcendental_rank1(n - 1, d)
    fol = pullback_over_bundle(variety, base_fol)
    return _synth_record(request, "case2", fol)


def _synth_fano_index(request: SynthesisRequest) -> ExampleRecord:
    n, r, c = request.n, request.r, request.c
    if c.denominator == 1:
        return _pn_record(request)
    if c <= min(r, n - 2):
        return _cone_record(request)
    fractional = c - (n - 2)
    if r == n - 1 and 0 < fractional < 1 and fractional.numerator == 1:
        a = fractional.denominator
        if n >= 3:
            variety = WeightedProjectiveSpace((1, 1, 1) + (a,) * (n - 2))
            branch = "wps1"
        else:
            variety = WeightedProjectiveSpace((1, a, a + 1))
            branch = "wps3"
        fol = wps_coordinate_foliation(variety, 1)
        return _synth_record(request, branch, fol)
    raise _rank_open_question(n, c)


def _synth_seshadri(request: SynthesisRequest) -> ExampleRecord:
    n, r, c = request.n, request.r, request.c
    if c.denominator == 1:
        return _pn_record(request)
    if c <= min(r, n - 2):
        return _cone_record(request)
    if n == 2:
        variety = WeightedProjectiveSpace((1, c.numerator, c.denominator))
        fol = wps_coordinate_foliation(variety, 2)
        return _synth_record(request, "wps4", fol)
    if r == n - 1 and n - 2 < c < n - 1:
        ratio = (c - 1) / (n - 2)
        mprime, m = ratio.numerator, ratio.denominator
        variety = WeightedProjectiveSpace((1,) + (mprime,) * (n - 1) + (m,))
        fol = wps_coordinate_foliation(variety, 1)
        return _synth_record(request, "wps2", fol)
    raise UnsupportedRequest(
        f"no construction for a Seshadri target {render_rational(c)} with "
        f"n={n}, r={r}"
    )


_DISPATCH = {
    SynthKind.GENERALIZED_INDEX: _synth_generalized_index,
    SynthKind.FANO_INDEX: _synth_fano_index,
    SynthKind.SESHADRI: _synth_seshadri,
}


def synthesize(request: SynthesisRequest) -> ExampleRecord:
    """Build the record for a request, or raise UnsupportedRequest."""
    if request.c > request.r:
        raise UnsupportedRequest(
            f"target {render_rational(request.c)} exceeds the bound c <= r = "
            f"{request.r} forced by the algebraic-rank inequality r^a >= iota-hat"
        )
    return _DISPATCH[request.kind](request)


def synth_generalized_index(n: int, r: int, c: Fraction | int | str) -> ExampleRecord:
    return synthesize(
        SynthesisRequest(SynthKind.GENERALIZED_INDEX, n, r, Fraction(c))
    )


def synth_fano_index(n: int, r: int, c: Fraction | int | str) -> ExampleRecord:
    return synthesize(SynthesisRequest(SynthKind.FANO_INDEX, n, r, Fraction(c)))


def synth_seshadri(n: int, r: int, c: Fraction | int | str) -> ExampleRecord:
    return synthesize(SynthesisRequest(SynthKind.SESHADRI, n, r, Fraction(c)))
