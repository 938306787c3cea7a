"""Machine verification: per-record audits and parameter sweeps.

A record is audited on four layers, all graded on one recomputation of
its invariants from the geometry: the stored invariants are compared
with it, the general inequalities between the invariants are checked,
the closed-form generalized index is compared against the enumeration
oracle where a rank-two model exists, and the stored construction checks
are read for failures and for missing certificates, with a synth
record's exact-target check re-run from its request.  Sweeps aggregate
these audits over parameter grids into a SweepReport.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .bundle import BundleVariety, Positivity, _classify, _closed_form_terms
from .errors import DomainError, UnsupportedRequest
from .foliation import FoliationDescriptor, LeafStatus
from .invariants import ambient_is_smooth, compute_invariants
from .lattice import Class2, reduced_targets, render_optional, render_rational
from .oracle import audited_index, oracle_generalized_index
from .report import CheckOutcome, CheckReport, CheckStatus, InvariantReport, SweepReport
from .synthesis import (
    FAMILY_FORMULA_CHECK,
    POSITIVITY_CHECK,
    TARGET_CHECK,
    TARGET_FIELD,
    ExampleRecord,
    SynthesisRequest,
    SynthKind,
    passfail,
    render_positivity,
    request_id,
    skip,
    synthesize,
    target_check,
)
from .value import Frozen, Value


def check_record(record: ExampleRecord) -> CheckReport:
    """The six inequality and classification checks on the record's
    recomputed invariants, always in this order."""
    outcomes = _theorem_outcomes(record.foliation, compute_invariants(record.foliation))
    return CheckReport(record.id, outcomes)


def _theorem_outcomes(fol: FoliationDescriptor, inv: InvariantReport) -> tuple[CheckOutcome, ...]:
    """The six checks of check_record, graded on inv."""
    ra = fol.algebraic_rank
    eps = inv.seshadri_antican

    def rank_bound(name: str, symbol: str, value, absent: str) -> CheckOutcome:
        # r^a >= value, skipped when the value is absent
        if value is None:
            return skip(name, absent)
        return passfail(name, ra >= value, f"r^a = {ra} >= {symbol} = {render_rational(value)}")

    if inv.fano_index is None or inv.gen_index is None:
        fano_le = skip("fano-le-generalized", "one of the indices is absent")
    else:
        fano_le = passfail(
            "fano-le-generalized",
            inv.fano_index <= inv.gen_index,
            f"iota = {render_rational(inv.fano_index)} <= iota-hat = "
            f"{render_rational(inv.gen_index)}",
        )
    if eps is not None and not inv.positivity.nef:
        seshadri = skip("seshadri-bound", "anticanonical class not nef")
    else:
        seshadri = rank_bound("seshadri-bound", "eps", eps, "no Seshadri value on record")
    if eps is None or not (inv.positivity.nef and inv.positivity.big):
        rc = skip("rc-consistency", "needs a Seshadri value and a nef and big class")
    else:
        rc = passfail(
            "rc-consistency",
            eps <= ra - 1 or fol.leaf_rc is not LeafStatus.FALSE,
            f"eps = {render_rational(eps)} vs r^a - 1 = {ra - 1}; leaf_rc = {fol.leaf_rc.value}",
        )
    if eps is None:
        maximal = skip("maximal-seshadri-classification", "no Seshadri value on record")
    elif not ambient_is_smooth(fol.ambient):
        maximal = skip("maximal-seshadri-classification", "ambient space is singular")
    else:
        maximal = passfail(
            "maximal-seshadri-classification",
            eps != ra or fol.recipe.linear_leaves(fol.ambient),
            f"eps = {render_rational(eps)}, r^a = {ra}, recipe = {fol.recipe.kind}",
        )
    return (
        rank_bound(
            "kobayashi-ochiai-generalized", "iota-hat", inv.gen_index,
            "no generalized index on record",
        ),
        rank_bound("kobayashi-ochiai-fano", "iota", inv.fano_index, "no Fano index on record"),
        fano_le,
        seshadri,
        rc,
        maximal,
    )


def _render_invariant(value: Fraction | Positivity | None) -> str:
    if isinstance(value, Positivity):
        return render_positivity(value)
    return render_optional(value, "absent")


def _recomputation_outcome(record: ExampleRecord, recomputed: InvariantReport) -> CheckOutcome:
    stored = record.invariants
    ok = recomputed == stored
    detail = "recomputed invariants equal the stored ones" if ok else "; ".join(
        f"{name}: stored {_render_invariant(getattr(stored, name))}, "
        f"recomputed {_render_invariant(getattr(recomputed, name))}"
        for name in InvariantReport.__slots__
        if getattr(stored, name) != getattr(recomputed, name)
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
        f"{render_optional(record.invariants.gen_index, 'absent')}"
    )
    return passfail(name, ok, detail)


def _stored_checks_outcome(record: ExampleRecord, recomputed: InvariantReport) -> CheckOutcome:
    """Fails on a stored check that failed, on a certificate that is missing
    or skipped (a synth record's target or a table row's closed form, and
    either's positivity), and on a synth record whose recomputed invariants
    miss its target."""
    failed = [c.name for c in record.checks if c.status is CheckStatus.FAIL]
    request = record.request
    if request is not None:
        rerun = target_check(recomputed, TARGET_FIELD[request.kind], request.c)
        if rerun.status is CheckStatus.FAIL:
            failed.append(f"{rerun.name} on re-run ({rerun.detail})")
    certificate = FAMILY_FORMULA_CHECK if request is None else TARGET_CHECK
    stored = {c.name for c in record.checks if c.status is not CheckStatus.SKIP}
    missing = [name for name in (certificate, POSITIVITY_CHECK) if name not in stored]
    problems = "; ".join(
        f"{what}: " + ", ".join(names)
        for what, names in (("failed", failed), ("missing", missing)) if names
    )
    detail = problems or f"{len(record.checks)} stored checks, none failed"
    return passfail("stored-construction-checks", not problems, detail)


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
    return CheckReport(record.id, _outcomes(record, recomputed, theorems))


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


# The largest oracle grid a sweep runs: its cost bounds (OracleGrid) may not
# exceed these.  The default grid's bounds are 31,824 rows and 299,520
# kernel candidates.
ORACLE_MAX_ROWS = 1_000_000
ORACLE_MAX_CANDIDATES = 20_000_000


class OracleGrid(Frozen):
    """Every integral big-not-ample class on every small bundle.

    The sweep's cost is a function of these fields alone.  Write
    classes(m, b1) for the number of integral (beta, gamma) with
    1 <= beta <= coeff_max, |gamma| <= coeff_max and
    -m*beta < gamma <= b1*beta, and b-tails for the
    C(b1_max + rprime_max + 1, rprime_max) - 1 non-increasing tuples of
    length at most rprime_max over 0..b1_max.  Then:

    - groups = b-tails * m_max, each adding its rows in one step;
    - rows = k_max * sum over groups of classes(m, b1); 24,312 on the
      default grid.  A failing audit fails each row of its class;
    - kernel calls = one per distinct (m, b1, beta, gamma), that is
      sum over m <= m_max and b1 <= b1_max of classes(m, b1); 856 on the
      default grid;
    - each kernel call covers at most d_max * (c_max - b1) candidates.

    With classes(m, b1) <= coeff_max * (2*coeff_max + 1) these give the
    bounds rows <= k_max * groups * that, and kernel candidates <=
    m_max * (b1_max + 1) * that * d_max * c_max.  A grid whose bounds
    exceed ORACLE_MAX_ROWS or ORACLE_MAX_CANDIDATES is refused.  The
    error names the first field, in field order, that takes the bounds
    over while the fields after it are held at the smaller of their
    value and their default.
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
        for name, bound, least in (
            ("m_max", m_max, 1), ("b1_max", b1_max, 0), ("rprime_max", rprime_max, 1),
            ("k_max", k_max, 1), ("coeff_max", coeff_max, 1), ("d_max", d_max, 1),
        ):
            _require_nonempty(name, bound, least)
        if c_max < b1_max * d_max + 1:
            raise DomainError(
                f"c_max must be at least b1_max*d_max + 1 = {b1_max * d_max + 1}, got {c_max}: "
                "the oracle needs an ample class for every d <= d_max on every bundle"
            )
        fields = (m_max, b1_max, rprime_max, k_max, coeff_max, d_max, c_max)
        _refuse_over_ceiling(
            self.__slots__, fields, OracleGrid.__init__.__defaults__, _over_ceiling,
            f"an oracle grid may have at most {ORACLE_MAX_ROWS:,} rows and "
            f"{ORACLE_MAX_CANDIDATES:,} kernel candidates",
        )
        Value.__init__(self, *fields)


def _refuse_over_ceiling(names, fields, defaults, over, ceiling: str) -> None:
    """Refuse a grid whose cost bounds are over its ceiling, naming the
    first field, in field order, that takes them over while the fields
    after it are held at the smaller of their value and their default."""
    if over(fields):
        # the bounds only grow along this walk from a grid no larger than
        # the default one to this grid, so some field takes them over
        held = [min(f, d) for f, d in zip(fields, defaults)]
        for i, name in enumerate(names):
            held[i] = fields[i]
            if over(held):
                raise DomainError(f"{name} = {fields[i]} is too large: {ceiling}")


def _cost_bounds(
    m_max: int, b1_max: int, rprime_max: int, k_max: int, coeff_max: int, d_max: int, c_max: int
) -> tuple[int, int]:
    """The (rows, kernel candidates) bounds of OracleGrid's docstring.

    The b-tails are C(n, j) - 1 with n = b1_max + rprime_max + 1 and
    j = min(rprime_max, b1_max + 1), reached through the increasing
    partial products C(n - j + i, i).  As n - j >= j, these grow at least
    as 2**i, and the count stops once it passes ORACLE_MAX_ROWS, which
    leaves the rows bound above that ceiling: a few dozen steps, whatever
    the fields.
    """
    classes = coeff_max * (2 * coeff_max + 1)
    n, j = b1_max + rprime_max + 1, min(rprime_max, b1_max + 1)
    tails = 1
    for i in range(1, j + 1):
        tails = tails * (n - j + i) // i
        if tails > ORACLE_MAX_ROWS + 1:
            break
    rows = k_max * (tails - 1) * m_max * classes
    return rows, m_max * (b1_max + 1) * classes * d_max * c_max


def _over_ceiling(fields) -> bool:
    rows, candidates = _cost_bounds(*fields)
    return rows > ORACLE_MAX_ROWS or candidates > ORACLE_MAX_CANDIDATES


# The most targets a synth sweep tries: its target-count bound (SynthGrid)
# may not exceed this.  The default grid's bound is 210 targets.
SYNTH_MAX_TARGETS = 50_000


class SynthGrid(Frozen):
    """Every reduced target c = p/q with q <= q_max, 0 < c <= r, r < n <= n_max.

    Rank r has at most r*q targets of denominator q, so the sweep tries at
    most (n_max + 1) * n_max * (n_max - 1) / 6 * q_max * (q_max + 1) / 2
    targets.  A grid whose bound exceeds SYNTH_MAX_TARGETS is refused,
    naming n_max or q_max as OracleGrid names its fields.
    """

    __slots__ = ("kind", "n_max", "q_max")
    kind: SynthKind
    n_max: int
    q_max: int

    def __init__(self, kind: SynthKind, n_max: int = 4, q_max: int = 6) -> None:
        _require_nonempty("n_max", n_max, 2)
        _require_nonempty("q_max", q_max, 1)
        _refuse_over_ceiling(
            ("n_max", "q_max"), (n_max, q_max), SynthGrid.__init__.__defaults__,
            lambda f: (f[0] + 1) * f[0] * (f[0] - 1) // 6 * f[1] * (f[1] + 1) // 2
            > SYNTH_MAX_TARGETS,
            f"a synth grid may have at most {SYNTH_MAX_TARGETS:,} targets",
        )
        Value.__init__(self, kind, n_max, q_max)


def _oracle_sweep(grid: OracleGrid) -> SweepReport:
    """One row per (variety, class), one audit per distinct (m, b1, class).

    The closed form and the enumeration depend on the bundle only through
    (m, b1), so every k and b-tail with the same (m, b1) repeats the
    audits of the first such bundle.  The rows of one (b-tail, m) group
    are added in one step, in the order of a loop over k and then over
    the classes: counted by multiplication, with an id built only for a
    failing row, so a failing audit fails each of its rows, and a group's
    k prefixes and b-tail text are built only when its audit failed.
    """
    report = SweepReport()
    audits: dict[tuple[int, int], SweepReport] = {}
    ks = range(1, grid.k_max + 1)
    for rprime in range(1, grid.rprime_max + 1):
        for b_ascending in itertools.combinations_with_replacement(
            range(grid.b1_max + 1), rprime
        ):
            b = tuple(reversed(b_ascending))
            for m in range(1, grid.m_max + 1):
                key = (m, b[0])
                if key not in audits:
                    audits[key] = _audit_classes(grid, BundleVariety(base_dim=1, m=m, b=b))
                rows = audits[key]
                prefixes = ks  # only counted: rows holds no failure to name
                if rows.failures:
                    tail = ",".join(str(e) for e in b)
                    prefixes = [f"oracle:k={k}:m={m}:b={tail}" for k in ks]
                report.add_under(prefixes, rows)
    return report


def _audit_classes(grid: OracleGrid, variety: BundleVariety) -> SweepReport:
    """Audit every integral big-not-ample class of the grid on variety.

    Returns one row per class, in the sweep's class order, with the
    record id suffix beta=...:gamma=....  Each class is classified once,
    on its integers by bundle._classify; a Class2 is built only for a
    class that passes the filter, to hand to the enumeration, whose own
    guard reads only the class's numerators.  The closed form, the direct formula and
    the enumeration are compared by cross-multiplying over their positive
    denominators, so a passing row is only counted; the Fractions, detail
    and outcome are built for a failing row alone.
    """
    m, b1 = variety.m, variety.b1
    denom = m + b1 + 1
    rows = SweepReport()
    passed = 0
    # each coordinate's Fraction is made once per audit, not once per class
    gammas = [(gamma, Fraction(gamma)) for gamma in range(-grid.coeff_max, grid.coeff_max + 1)]
    for beta in range(1, grid.coeff_max + 1):
        beta_q = Fraction(beta)
        for gamma, gamma_q in gammas:
            _, big, _, ample = _classify(m, b1, beta, gamma)
            if not big or ample:
                continue
            num, den = _closed_form_terms(m, b1, beta, gamma, 1)
            direct = m * beta + gamma
            enumerated = oracle_generalized_index(
                variety, Class2(beta_q, gamma_q), grid.d_max, grid.c_max
            )
            # num/den == direct/denom == enumerated
            if num * denom == direct * den and (
                num * enumerated.denominator == enumerated.numerator * den
            ):
                passed += 1
                continue
            detail = (
                f"closed form {render_rational(Fraction(num, den))}, direct formula "
                f"{render_rational(Fraction(direct, denom))}, enumeration "
                f"{render_rational(enumerated)}"
            )
            rows.add(f"beta={beta}:gamma={gamma}", passfail("closed-form-vs-oracle", False, detail))
    rows.total += passed
    rows.passed += passed
    return rows


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
                        request_id(request, "unsupported"), skip("synthesis-supported", str(exc))
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
