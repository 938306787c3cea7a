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
import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .bundle import (
    BundleVariety,
    Positivity,
    generalized_index,
    relative_anticanonical,
    seshadri_constant,
    seshadri_polarization,
)
from .errors import DomainError, ParseError, UnsupportedRequest
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
from .lattice import Class2, parse_rational, render_optional, render_rational
from .oracle import audited_index
from .rankone import (
    GeneralizedCone,
    WeightedProjectiveSpace,
    projective_space_base,
    pushforward_to_cone,
)
from .report import CheckOutcome, CheckStatus, InvariantReport
from .value import Frozen, Value


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


# The largest dimension or rank of a synth request or table row.  A
# record's weights and twists, and so its time and memory, grow linearly
# with these; the README states run times near this ceiling.
MAX_DIMENSION = 1_000


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
        if n > MAX_DIMENSION:
            raise DomainError(
                f"n = {n} is too large: a dimension or rank may be at most {MAX_DIMENSION:,}"
            )
        if not isinstance(r, int) or not (0 < r < n):
            raise DomainError(f"need 0 < r < n, got r={r}, n={n}")
        if c <= 0:
            raise DomainError(f"target must be positive, got {c}")
        Value.__init__(self, kind, n, r, c)


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


class ExampleRecord(Frozen):
    __slots__ = ("id", "request", "branch", "foliation", "invariants", "checks")
    id: str
    request: Optional[SynthesisRequest]
    branch: str
    foliation: FoliationDescriptor
    invariants: InvariantReport
    checks: tuple[CheckOutcome, ...]

    @property
    def variety(self) -> Ambient:
        """The ambient of the record's foliation."""
        return self.foliation.ambient


# ---------------------------------------------------------------------------
# Construction-time checks.  These are stored in the record and re-audited
# by the verification module; a failing check is recorded, never raised,
# so a defective construction is visible rather than hidden.

# The certificates every record stores: a synth record its exact target, a
# table row its closed form, and both the positivity of the anticanonical class.
TARGET_CHECK = "target-invariant-exact"
FAMILY_FORMULA_CHECK = "family-formula"
POSITIVITY_CHECK = "anticanonical-positivity"


def passfail(name: str, ok: bool, detail: str) -> CheckOutcome:
    status = CheckStatus.PASS if ok else CheckStatus.FAIL
    return CheckOutcome(name, status, detail)


def skip(name: str, detail: str) -> CheckOutcome:
    return CheckOutcome(name, CheckStatus.SKIP, detail)


def target_check(inv: InvariantReport, field: str, expected: Fraction) -> CheckOutcome:
    actual = getattr(inv, field)
    return passfail(
        TARGET_CHECK,
        actual == expected,
        f"{field} = {render_optional(actual, 'absent')}, target {render_rational(expected)}",
    )


def render_positivity(flags: Positivity) -> str:
    return f"pseff={flags.pseff} big={flags.big} nef={flags.nef} ample={flags.ample}"


def positivity_check(inv: InvariantReport, ample: bool) -> CheckOutcome:
    """-K ample, or big and not ample."""
    flags = inv.positivity
    ok = flags.ample if ample else (flags.big and not flags.ample)
    expect = "ample" if ample else "big-not-ample"
    return passfail(POSITIVITY_CHECK, ok, f"expected {expect}; got {render_positivity(flags)}")


def witness_check(fol: FoliationDescriptor) -> CheckOutcome:
    variety = fol.ambient
    antican = -fol.canonical
    value, witness = generalized_index(variety, antican)
    ok = witness.is_valid_for(variety, antican)
    detail = (
        f"-K = {value}*{witness.h} + {witness.p_e}*E + {witness.p_a}*F"
    )
    return passfail("index-witness-valid", ok, detail)


def oracle_agreement_check(fol: FoliationDescriptor, inv: InvariantReport) -> CheckOutcome:
    value, rectangle = audited_index(fol.ambient, -fol.canonical)
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
    t = inv.gen_index
    if t is None:
        return skip("seshadri-scaled-polarization", "no generalized index on record")
    h0, _ = seshadri_polarization(variety)
    eps = seshadri_constant(variety, t * h0)
    return passfail(
        "seshadri-scaled-polarization",
        eps == t,
        f"eps({render_rational(t)}*H0) = {render_optional(eps, 'absent')} with H0 = {h0}",
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


def cone_resolution_check(fol: FoliationDescriptor) -> CheckOutcome:
    cone = fol.ambient
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
    return CaseParameters(p, q, l, (b1, *tail))


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
    return ExampleRecord(record_id, request, branch, fol, inv, tuple(checks(inv)))


# Parameter names an id writes otherwise.
_ID_NAMES = {"base_dim": "k"}


def record_id(head: str, branch: str, params: dict[str, int | Fraction]) -> str:
    """The id head:branch:name=value:..., the one format of a record id.

    head is the synth kind or "table", and params the construction's
    parameters in order; base_dim is written as k, and a value as
    render_rational writes it.
    """
    fields = (f"{_ID_NAMES.get(name, name)}={render_rational(v)}" for name, v in params.items())
    return ":".join((head, branch, *fields))


# The parameter each name of _ID_NAMES stands for.
_ID_PARAMS = {v: k for k, v in _ID_NAMES.items()}


def parse_record_id(text: str) -> tuple[str, str, dict[str, Fraction]]:
    """The (head, branch, params) that record_id writes as text, k read
    back as base_dim; ParseError if record_id writes no such text."""
    try:
        head, branch, *fields = text.split(":")
        pairs = [field.split("=") for field in fields]
        params = {_ID_PARAMS.get(name, name): parse_rational(value) for name, value in pairs}
        if record_id(head, branch, params) == text:
            return head, branch, params
    except ValueError:  # too few parts, a field not name=value, or a ParseError
        pass
    raise ParseError(f"{text!r} is not a record id")


def request_id(request: SynthesisRequest, branch: str) -> str:
    """The id of the record built for request on branch."""
    return record_id(
        request.kind.value, branch, {"n": request.n, "r": request.r, "c": request.c}
    )


# The standard catalog builds its 630 cone constructions once for the Fano
# index, then again for the Seshadri value, so the cache must hold them all.
@functools.lru_cache(maxsize=1024)
def _cone_construction(n: int, r: int, c: Fraction) -> tuple[FoliationDescriptor, CheckOutcome]:
    """The cone foliation realizing c and its cone-resolution check.

    Fano-index and Seshadri targets build the same cone for the same
    (n, r, c), so the two records of a pair share one descriptor.  Targets
    of other ranks or dimensions share the cone over P^k and the base
    foliation wherever these agree, and the rank-one report is shared by
    value, so each distinct piece is built once.
    """
    rprime = c.numerator // c.denominator + 1
    frac = rprime - c
    p, q = frac.numerator, frac.denominator
    base_fol = _pn_base_foliation(n - rprime, max(r - rprime, 0), p)
    fol = cone_foliation(_pn_cone(n - rprime, q, rprime), base_fol)
    return fol, cone_resolution_check(fol)


# The standard catalog's cones take 70 distinct (k, m, r') and their bases
# 98 distinct (k, rank, p).
@functools.lru_cache(maxsize=256)
def _pn_cone(k: int, m: int, rprime: int) -> GeneralizedCone:
    """The cone C(P^k, O(m)) with vertex P^{r'-1}."""
    return GeneralizedCone(base=projective_space_base(k), m=m, vertex_rank=rprime)


@functools.lru_cache(maxsize=256)
def _pn_base_foliation(k: int, rank: int, p: int) -> FoliationDescriptor:
    """The foliation on P^k with K = p*H and algebraic rank rank: a P^k
    foliation if rank > 0, else a transcendental rank-one one."""
    return pn_foliation(k, rank, p) if rank else transcendental_rank1(k, p)


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


# A construction: its branch, its foliation and the checks only it stores.
Construction = tuple[str, FoliationDescriptor, tuple[CheckOutcome, ...]]


def _synth_generalized_index(n: int, r: int, c: Fraction) -> Construction:
    if n == 2:
        if c.numerator == c.denominator - 1:
            a = c.denominator
            variety = BundleVariety(base_dim=1, m=a - 1, b=(0,))
            return "hirzebruch", fibration_foliation(variety), ()
        raise _surface_open_question(c)
    if c > 1:
        params = case1_parameters(r, c.numerator, c.denominator)
        variety = BundleVariety(base_dim=n - r, m=params.q, b=params.b_list)
        return "case1", fibration_foliation(variety), (case1_constraints_check(params, r),)
    p, q = c.numerator, c.denominator
    variety = BundleVariety(base_dim=n - 1, m=q, b=(q - 1,))
    d = 2 * (q - p) - 1
    if r >= 2:
        base_fol = pn_foliation(n - 1, r - 1, d)
    else:
        base_fol = transcendental_rank1(n - 1, d)
    return "case2", pullback_over_bundle(variety, base_fol), ()


def _synth_fano_index(n: int, r: int, c: Fraction) -> Construction:
    fractional = c - (n - 2)
    if r == n - 1 and 0 < fractional < 1 and fractional.numerator == 1:
        a = fractional.denominator
        if n >= 3:
            variety = WeightedProjectiveSpace((1, 1, 1) + (a,) * (n - 2))
            branch = "wps1"
        else:
            variety = WeightedProjectiveSpace((1, a, a + 1))
            branch = "wps3"
        return branch, wps_coordinate_foliation(variety, 1), ()
    raise _rank_open_question(n, c)


def _synth_seshadri(n: int, r: int, c: Fraction) -> Construction:
    if n == 2:
        variety = WeightedProjectiveSpace((1, c.numerator, c.denominator))
        return "wps4", wps_coordinate_foliation(variety, 2), ()
    if r == n - 1 and n - 2 < c < n - 1:
        ratio = (c - 1) / (n - 2)
        mprime, m = ratio.numerator, ratio.denominator
        variety = WeightedProjectiveSpace((1,) + (mprime,) * (n - 1) + (m,))
        return "wps2", wps_coordinate_foliation(variety, 1), ()
    raise UnsupportedRequest(
        f"no construction for a Seshadri target {render_rational(c)} with "
        f"n={n}, r={r}"
    )


# The construction per kind of a target that is neither an integer nor, for
# a Fano index or Seshadri value, in the cone range.
_DISPATCH = {
    SynthKind.GENERALIZED_INDEX: _synth_generalized_index,
    SynthKind.FANO_INDEX: _synth_fano_index,
    SynthKind.SESHADRI: _synth_seshadri,
}


def synthesize(request: SynthesisRequest) -> ExampleRecord:
    """Build the record for a request, or raise UnsupportedRequest.

    The one place a synth record is assembled.  An integer target is the
    P^n foliation for every kind; a Fano-index or Seshadri target in
    c <= min(r, n-2) is a cone.  The checks are the exact target, the
    positivity the branch promises (big but not ample on a bundle, with
    the index audits; ample elsewhere), then the construction's own.
    """
    n, r, c = request.n, request.r, request.c
    if c > r:
        raise UnsupportedRequest(
            f"target {render_rational(c)} exceeds the bound c <= r = "
            f"{r} forced by the algebraic-rank inequality r^a >= iota-hat"
        )
    if c.denominator == 1:
        branch, fol, own = "pn", pn_foliation(n, r, -int(c)), ()
    elif request.kind is not SynthKind.GENERALIZED_INDEX and c <= min(r, n - 2):
        fol, resolution = _cone_construction(n, r, c)
        branch, own = "cone", (resolution,)
    else:
        branch, fol, own = _DISPATCH[request.kind](n, r, c)
    variety = fol.ambient

    def checks(inv: InvariantReport) -> Iterator[CheckOutcome]:
        yield target_check(inv, TARGET_FIELD[request.kind], c)
        if isinstance(variety, BundleVariety):
            yield positivity_check(inv, ample=False)
            yield witness_check(fol)
            yield oracle_agreement_check(fol, inv)
            yield seshadri_scaled_check(variety, inv)
        else:
            yield positivity_check(inv, ample=True)
        yield from own

    return assemble_record(request_id(request, branch), request, branch, fol, checks)


def synth_generalized_index(n: int, r: int, c: Fraction | int | str) -> ExampleRecord:
    return synthesize(
        SynthesisRequest(SynthKind.GENERALIZED_INDEX, n, r, Fraction(c))
    )


def synth_fano_index(n: int, r: int, c: Fraction | int | str) -> ExampleRecord:
    return synthesize(SynthesisRequest(SynthKind.FANO_INDEX, n, r, Fraction(c)))


def synth_seshadri(n: int, r: int, c: Fraction | int | str) -> ExampleRecord:
    return synthesize(SynthesisRequest(SynthKind.SESHADRI, n, r, Fraction(c)))
