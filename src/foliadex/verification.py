"""Machine verification: per-record audits and parameter sweeps.

A record is audited on four layers, all graded on one recomputation of
its invariants from the geometry: the stored invariants are compared
with it, the general inequalities between the invariants are checked,
the closed-form generalized index is compared against the enumeration
oracle where a rank-two model exists, and the stored construction checks
are read for failures, with a synth record's exact-target check re-run
from its request.  Sweeps aggregate these audits over parameter grids
into a SweepReport.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .bundle import BundleVariety, classify_divisor, generalized_index
from .errors import DomainError, UnsupportedRequest
from .foliation import FoliationDescriptor, LeafStatus
from .invariants import ambient_is_smooth, compute_invariants
from .lattice import Class2, reduced_targets, render_rational
from .oracle import audited_index, oracle_generalized_index
from .report import CheckOutcome, CheckReport, CheckStatus, InvariantReport, SweepReport
from .synthesis import (
    TARGET_FIELD,
    ExampleRecord,
    SynthesisRequest,
    SynthKind,
    passfail,
    record_id,
    skip,
    synthesize,
    target_check,
)
from .value import Frozen


def check_record(record: ExampleRecord) -> CheckReport:
    """The six inequality and classification checks on the record's
    recomputed invariants, always in this order."""
    outcomes = _theorem_outcomes(record.foliation, compute_invariants(record.foliation))
    return CheckReport(record_id=record.id, outcomes=outcomes)


def _theorem_outcomes(fol: FoliationDescriptor, inv: InvariantReport) -> tuple[CheckOutcome, ...]:
    """The six checks of check_record, graded on inv."""
    ra = fol.algebraic_rank
    outcomes = []

    if inv.gen_index is None:
        outcomes.append(
            skip("kobayashi-ochiai-generalized", "no generalized index on record")
        )
    else:
        outcomes.append(
            passfail(
                "kobayashi-ochiai-generalized",
                ra >= inv.gen_index,
                f"r^a = {ra} >= iota-hat = {render_rational(inv.gen_index)}",
            )
        )

    if inv.fano_index is None:
        outcomes.append(skip("kobayashi-ochiai-fano", "no Fano index on record"))
    else:
        outcomes.append(
            passfail(
                "kobayashi-ochiai-fano",
                ra >= inv.fano_index,
                f"r^a = {ra} >= iota = {render_rational(inv.fano_index)}",
            )
        )

    if inv.fano_index is None or inv.gen_index is None:
        outcomes.append(skip("fano-le-generalized", "one of the indices is absent"))
    else:
        outcomes.append(
            passfail(
                "fano-le-generalized",
                inv.fano_index <= inv.gen_index,
                f"iota = {render_rational(inv.fano_index)} <= iota-hat = "
                f"{render_rational(inv.gen_index)}",
            )
        )

    eps = inv.seshadri_antican
    if eps is None:
        outcomes.append(skip("seshadri-bound", "no Seshadri value on record"))
    elif not inv.positivity.nef:
        outcomes.append(skip("seshadri-bound", "anticanonical class not nef"))
    else:
        outcomes.append(
            passfail(
                "seshadri-bound",
                ra >= eps,
                f"r^a = {ra} >= eps = {render_rational(eps)}",
            )
        )

    if eps is None or not (inv.positivity.nef and inv.positivity.big):
        outcomes.append(
            skip("rc-consistency", "needs a Seshadri value and a nef and big class")
        )
    else:
        triggered = eps > ra - 1
        ok = (not triggered) or fol.leaf_rc is not LeafStatus.FALSE
        detail = (
            f"eps = {render_rational(eps)} vs r^a - 1 = {ra - 1}; "
            f"leaf_rc = {fol.leaf_rc.value}"
        )
        outcomes.append(passfail("rc-consistency", ok, detail))

    if eps is None:
        outcomes.append(
            skip("maximal-seshadri-classification", "no Seshadri value on record")
        )
    elif not ambient_is_smooth(fol.ambient):
        outcomes.append(
            skip("maximal-seshadri-classification", "ambient space is singular")
        )
    else:
        at_max = eps == ra
        ok = (not at_max) or fol.recipe.linear_leaves(fol.ambient)
        detail = (
            f"eps = {render_rational(eps)}, r^a = {ra}, recipe = {fol.recipe.kind}"
        )
        outcomes.append(passfail("maximal-seshadri-classification", ok, detail))

    return tuple(outcomes)


def _recomputation_outcome(record: ExampleRecord, recomputed: InvariantReport) -> CheckOutcome:
    ok = recomputed == record.invariants
    detail = "recomputed invariants equal the stored ones" if ok else (
        f"stored {record.invariants} != recomputed {recomputed}"
    )
    return passfail("stored-invariants-match-recomputation", ok, detail)


def _oracle_outcome(record: ExampleRecord, recomputed: InvariantReport) -> CheckOutcome:
    """The recomputed closed form against the enumeration and the stored value.

    Whether -K is big is read from the recomputation, never from the
    stored invariants, so an edited record cannot hand the oracle a class
    that is not big.
    """
    name = "closed-form-vs-oracle"
    variety = record.variety
    if not isinstance(variety, BundleVariety):
        return skip(name, "enumeration oracle needs a rank-two lattice model")
    value = recomputed.gen_index
    if value is None:
        return skip(name, "anticanonical class not big")
    enumerated, rectangle = audited_index(variety, -record.foliation.canonical)
    ok = value == enumerated == record.invariants.gen_index
    detail = (
        f"closed form {render_rational(value)}, {rectangle} "
        f"{render_rational(enumerated)}, stored "
        f"{render_rational(record.invariants.gen_index)}"
    )
    return passfail(name, ok, detail)


def _stored_checks_outcome(record: ExampleRecord, recomputed: InvariantReport) -> CheckOutcome:
    """Fails on a stored check that failed, and on a synth record whose
    recomputed invariants miss its request's target."""
    failed = [c.name for c in record.checks if c.status is CheckStatus.FAIL]
    request = record.request
    if request is not None:
        rerun = target_check(recomputed, TARGET_FIELD[request.kind], request.c)
        if rerun.status is CheckStatus.FAIL:
            failed.append(f"{rerun.name} on re-run ({rerun.detail})")
    detail = (
        "failed: " + ", ".join(failed) if failed
        else f"{len(record.checks)} stored checks, none failed"
    )
    return passfail("stored-construction-checks", not failed, detail)


def _outcomes(
    record: ExampleRecord, recomputed: InvariantReport, theorems: tuple[CheckOutcome, ...]
) -> tuple[CheckOutcome, ...]:
    """Every outcome of one record, in report order; theorems are the six
    checks of check_record, graded on recomputed."""
    return (
        _recomputation_outcome(record, recomputed),
        *theorems,
        _oracle_outcome(record, recomputed),
        _stored_checks_outcome(record, recomputed),
    )


def verify_record(record: ExampleRecord) -> CheckReport:
    """Every check of one record, graded on one recomputation of its
    invariants; the stored ones are only compared with it."""
    recomputed = compute_invariants(record.foliation)
    theorems = _theorem_outcomes(record.foliation, recomputed)
    return CheckReport(record_id=record.id, outcomes=_outcomes(record, recomputed, theorems))


def verify_catalog(records) -> SweepReport:
    """verify_record over records, recomputing and grading the six theorems
    once per distinct descriptor object.

    Both depend on the descriptor alone, so records that share one (an
    import shares equal geometries) share them; the comparisons with the
    stored invariants and checks still run per record.  The table is keyed
    by id and holds the descriptor, so no id is reused during the call.
    """
    report = SweepReport()
    graded: dict[int, tuple[FoliationDescriptor, InvariantReport, tuple[CheckOutcome, ...]]] = {}
    for record in records:
        fol = record.foliation
        shared = graded.get(id(fol))
        if shared is None:
            recomputed = compute_invariants(fol)
            shared = graded[id(fol)] = (fol, recomputed, _theorem_outcomes(fol, recomputed))
        _, recomputed, theorems = shared
        for outcome in _outcomes(record, recomputed, theorems):
            report.add(record.id, outcome)
    return report


# ---------------------------------------------------------------------------
# Sweeps.


def _require_nonempty(name: str, bound: int, least: int) -> None:
    """Refuse a grid bound that leaves the sweep nothing to check."""
    if bound < least:
        raise DomainError(f"{name} must be at least {least}, got {bound}: the grid would be empty")


class OracleGrid(Frozen):
    """Every integral big-not-ample class on every small bundle.

    The sweep's cost is a function of these fields alone.  Write
    classes(m, b1) for the number of integral (beta, gamma) with
    1 <= beta <= coeff_max, |gamma| <= coeff_max and
    -m*beta < gamma <= b1*beta.  Then:

    - rows = k_max * sum over b-tails and m <= m_max of classes(m, b1);
      24,312 on the default grid;
    - kernel calls = one per distinct (m, b1, beta, gamma), that is
      sum over m <= m_max and b1 <= b1_max of classes(m, b1); 856 on the
      default grid;
    - each kernel call covers at most d_max * (c_max - b1) candidates.
    """

    __slots__ = ("m_max", "b1_max", "rprime_max", "k_max", "coeff_max", "d_max", "c_max")
    m_max: int
    b1_max: int
    rprime_max: int
    k_max: int
    coeff_max: int
    d_max: int
    c_max: int

    def __init__(
        self,
        m_max: int = 4,
        b1_max: int = 3,
        rprime_max: int = 3,
        k_max: int = 3,
        coeff_max: int = 6,
        d_max: int = 6,
        c_max: int = 40,
    ) -> None:
        object.__setattr__(self, "m_max", m_max)
        object.__setattr__(self, "b1_max", b1_max)
        object.__setattr__(self, "rprime_max", rprime_max)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "coeff_max", coeff_max)
        object.__setattr__(self, "d_max", d_max)
        object.__setattr__(self, "c_max", c_max)
        for name, least in (
            ("m_max", 1), ("b1_max", 0), ("rprime_max", 1), ("k_max", 1), ("coeff_max", 1),
            ("d_max", 1),
        ):
            _require_nonempty(name, getattr(self, name), least)
        if c_max < b1_max * d_max + 1:
            raise DomainError(
                f"c_max must be at least b1_max*d_max + 1 = {b1_max * d_max + 1}, got {c_max}: "
                "the oracle needs an ample class for every d <= d_max on every bundle"
            )


class SynthGrid(Frozen):
    """Every reduced target c = p/q with q <= q_max, 0 < c <= r, r < n <= n_max."""

    __slots__ = ("kind", "n_max", "q_max")
    kind: SynthKind
    n_max: int
    q_max: int

    def __init__(self, kind: SynthKind, n_max: int, q_max: int) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "q_max", q_max)
        _require_nonempty("n_max", n_max, 2)
        _require_nonempty("q_max", q_max, 1)


def _oracle_sweep(grid: OracleGrid) -> SweepReport:
    """One row per (variety, class), one audit per distinct (m, b1, class).

    The closed form and the enumeration depend on the bundle only through
    (m, b1), so every k and b-tail with the same (m, b1) reuses the audits
    of the first such bundle; a failing audit fails each of its rows.
    """
    report = SweepReport()
    audits: dict[tuple[int, int], list[tuple[str, CheckOutcome]]] = {}
    for rprime in range(1, grid.rprime_max + 1):
        for b_ascending in itertools.combinations_with_replacement(
            range(grid.b1_max + 1), rprime
        ):
            b = tuple(reversed(b_ascending))
            for m in range(1, grid.m_max + 1):
                for k in range(1, grid.k_max + 1):
                    variety = BundleVariety(base_dim=k, m=m, b=b)
                    key = (m, variety.b1)
                    if key not in audits:
                        audits[key] = _audit_classes(grid, variety)
                    prefix = f"oracle:k={k}:m={m}:b={','.join(str(e) for e in b)}"
                    for suffix, outcome in audits[key]:
                        report.add(f"{prefix}:{suffix}", outcome)
    return report


def _audit_classes(
    grid: OracleGrid, variety: BundleVariety
) -> list[tuple[str, CheckOutcome]]:
    """Audit every integral big-not-ample class of the grid on variety.

    Returns (record id suffix, outcome) pairs in the sweep's class order.
    """
    m, b1 = variety.m, variety.b1
    denom = m + b1 + 1
    audited = []
    for beta in range(1, grid.coeff_max + 1):
        for gamma in range(-grid.coeff_max, grid.coeff_max + 1):
            cls = Class2(beta, gamma)
            flags = classify_divisor(variety, cls)
            if not flags.big or flags.ample:
                continue
            value, _ = generalized_index(variety, cls)
            formula = Fraction(m * beta + gamma, denom)
            enumerated = oracle_generalized_index(variety, cls, grid.d_max, grid.c_max)
            ok = value == formula == enumerated
            detail = (
                f"closed form {render_rational(value)}, direct formula "
                f"{render_rational(formula)}, enumeration {render_rational(enumerated)}"
            )
            outcome = passfail("closed-form-vs-oracle", ok, detail)
            audited.append((f"beta={beta}:gamma={gamma}", outcome))
    return audited


def _synth_sweep(grid: SynthGrid) -> SweepReport:
    report = SweepReport()
    for n in range(2, grid.n_max + 1):
        for r in range(1, n):
            for c in reduced_targets(Fraction(r), grid.q_max):
                request = SynthesisRequest(grid.kind, n, r, c)
                try:
                    record = synthesize(request)
                except UnsupportedRequest as exc:
                    report.add(
                        record_id(request, "unsupported"), skip("synthesis-supported", str(exc))
                    )
                    continue
                for outcome in verify_record(record).outcomes:
                    report.add(record.id, outcome)
    return report


def run_sweep(grid) -> SweepReport:
    if isinstance(grid, OracleGrid):
        return _oracle_sweep(grid)
    if isinstance(grid, SynthGrid):
        return _synth_sweep(grid)
    raise TypeError(f"unknown grid {grid!r}")
