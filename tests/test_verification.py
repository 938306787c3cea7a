"""Machine verification: the oracle, the record checks, and the sweeps."""

import ast
import hashlib
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from foliadex import (
    SCHEMA_VERSION,
    BundleVariety,
    CheckOutcome,
    CheckStatus,
    Class2,
    DomainError,
    ExampleRecord,
    InvariantReport,
    OracleGrid,
    SweepReport,
    SynthGrid,
    SynthKind,
    check_record,
    export_catalog,
    generalized_index,
    import_catalog,
    mixed_record,
    oracle_generalized_index,
    rc_genus_record,
    record_to_json,
    render_rational,
    run_sweep,
    synth_fano_index,
    synth_generalized_index,
    verify_catalog,
    verify_record,
)
from foliadex import _kernels, bundle, catalog, oracle, synthesis, verification
from foliadex.lattice import reduced_targets
from foliadex.cli import main


def test_oracle_frozen_values():
    assert oracle_generalized_index(
        BundleVariety(1, 1, (0,)), Class2(2, -1), 3, 4
    ) == Fraction(1, 2)
    assert oracle_generalized_index(
        BundleVariety(1, 2, (1, 1)), Class2(3, 0), 4, 10
    ) == Fraction(3, 2)
    assert oracle_generalized_index(
        BundleVariety(5, 1, (1, 1, 1)), Class2(4, 5), 6, 40
    ) == 3


def test_oracle_rejects_bad_bounds_and_classes():
    x = BundleVariety(1, 2, (1, 1))
    with pytest.raises(DomainError):
        oracle_generalized_index(x, Class2(3, 0), 0, 10)
    with pytest.raises(DomainError):
        oracle_generalized_index(x, Class2(3, 0), 4, 2)  # c_max below b1*d_max + 1
    with pytest.raises(DomainError):
        oracle_generalized_index(x, Class2(0, 1), 3, 10)  # not big


@given(st.integers(1, 5), st.integers(0, 8), st.integers(0, 4), st.integers(0, 5))
@settings(max_examples=80)
def test_oracle_stable_under_bound_enlargement(beta, gamma_off, extra_d, extra_c):
    x = BundleVariety(2, 2, (1, 1))
    cls = Class2(beta, -2 * beta + 1 + gamma_off)  # big by construction
    base_d = 1
    base_c = x.b1 + 1
    small = oracle_generalized_index(x, cls, base_d, base_c)
    grown = oracle_generalized_index(
        x, cls, base_d + extra_d, x.b1 * (base_d + extra_d) + 1 + extra_c
    )
    assert grown == small


def _audited_classes(std_catalog):
    """Every (variety, class) the catalog audits, plus the case-1 targets (q+1)/q."""
    records = list(std_catalog.records)
    for r in range(2, 5):
        for q in range(2, 61):
            records.append(synth_generalized_index(r + 1, r, Fraction(q + 1, q)))
    return {
        (rec.variety, -rec.foliation.canonical)
        for rec in records
        if isinstance(rec.variety, BundleVariety) and rec.invariants.gen_index is not None
    }


def test_audit_window_agrees_with_the_rectangle(std_catalog):
    classes = _audited_classes(std_catalog)
    assert max(variety.b1 for variety, _ in classes) > 10_000
    for variety, cls in classes:
        value, window = oracle.audited_index(variety, cls)
        assert value == oracle_generalized_index(variety, cls, 3, 3 * variety.b1 + 6)
        assert window == "enumeration (d <= 3, 1 <= c - b1*d <= 6)"


@given(
    st.integers(1, 5),
    st.integers(0, 39),
    st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=7),
    st.fractions(min_value=Fraction(1, 7), max_value=400, max_denominator=7),
)
@settings(max_examples=150)
def test_audit_window_agrees_on_fractional_classes(m, b1, beta, offset):
    x = BundleVariety(1, m, (b1,))
    cls = Class2(beta, -m * beta + offset)  # big; ample once offset > (m + b1)*beta
    value, _ = oracle.audited_index(x, cls)
    assert value == oracle_generalized_index(x, cls, 3, 3 * b1 + 6)


def test_audit_window_is_stable_under_growth(std_catalog, monkeypatch):
    classes = _audited_classes(std_catalog)
    small = {key: oracle.audited_index(*key)[0] for key in classes}
    monkeypatch.setattr(oracle, "AUDIT_D_MAX", 6)
    monkeypatch.setattr(oracle, "AUDIT_C_SPAN", 12)
    assert {key: oracle.audited_index(*key)[0] for key in classes} == small


@pytest.mark.parametrize("q", [3, 320])
def test_case1_audit_sends_the_kernel_a_fixed_window(monkeypatch, q):
    honest = _kernels.best_index_bound
    calls = []

    def counting(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(_kernels, "best_index_bound", counting)
    rec = synth_generalized_index(5, 4, Fraction(q + 1, q))
    assert rec.branch == "case1" and rec.variety.b1 > q
    assert [args[4:] for args in calls] == [(0, 3, 6)]  # b1 = 0: 3 x 6 = 18 candidates


def test_check_record_order_and_results():
    rec = mixed_record(3)
    report = check_record(rec)
    names = [o.name for o in report.outcomes]
    assert names == [
        "kobayashi-ochiai-generalized",
        "kobayashi-ochiai-fano",
        "fano-le-generalized",
        "seshadri-bound",
        "rc-consistency",
        "maximal-seshadri-classification",
    ]
    assert not report.failures


def test_check_record_is_pure():
    rec = rc_genus_record(3, 2)
    assert check_record(rec) == check_record(rec)
    rc = next(o for o in check_record(rec).outcomes if o.name == "rc-consistency")
    # eps = r^a - 1 exactly, so the rational-leaf trigger must not fire
    assert rc.status is CheckStatus.PASS


def test_classification_check_accepts_linear_pullback():
    rec = synth_fano_index(5, 1, 1)  # P^5 with a degree-zero rank-one foliation
    report = check_record(rec)
    cls = next(o for o in report.outcomes if o.name == "maximal-seshadri-classification")
    assert cls.status is CheckStatus.PASS


def test_verify_record_recomputes_everything():
    rec = mixed_record(2)
    report = verify_record(rec)
    assert len(report.outcomes) == 9
    assert not report.failures
    names = {o.name for o in report.outcomes}
    assert "stored-invariants-match-recomputation" in names
    assert "closed-form-vs-oracle" in names
    assert "stored-construction-checks" in names


def _attribute_readers(tree, attr):
    """Names of the functions that read the attribute attr; "<module>" at top level."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_stored_invariants_are_read_only_where_compared():
    # Every other check grades the recomputation, so a stored claim can
    # fail its comparison but cannot decide another outcome.
    tree = ast.parse(Path(verification.__file__).read_text(encoding="utf-8"))
    assert _attribute_readers(tree, "invariants") == {
        "_recomputation_outcome",
        "_oracle_outcome",
    }


_COMPARED = ("stored-invariants-match-recomputation", "closed-form-vs-oracle")


@given(st.integers(0), st.integers(0))
@settings(max_examples=60, deadline=None)
def test_swapped_invariants_change_only_the_comparisons(std_catalog, honest, donor):
    # A record storing another record's invariants still decodes; only the
    # two checks that compare stored values with the recomputation may differ.
    records = std_catalog.records
    record = records[honest % len(records)]
    obj = record_to_json(record)
    obj["invariants"] = record_to_json(records[donor % len(records)])["invariants"]
    text = json.dumps({"schema_version": SCHEMA_VERSION, "metadata": {}, "records": [obj]})
    (swapped,) = import_catalog(text).records

    def graded(rec):
        return [o for o in verify_record(rec).outcomes if o.name not in _COMPARED]

    assert graded(swapped) == graded(record)


def test_small_oracle_sweep_is_clean():
    report = run_sweep(OracleGrid(m_max=2, b1_max=1, rprime_max=2, k_max=2, coeff_max=3))
    assert report.failed == 0
    assert report.total > 0


def _reference_failures(grid: OracleGrid) -> list[dict[str, str]]:
    """The failures of an oracle sweep that audits every row on its own."""
    failures = []
    for rprime in range(1, grid.rprime_max + 1):
        for b_ascending in itertools.combinations_with_replacement(
            range(grid.b1_max + 1), rprime
        ):
            b = tuple(reversed(b_ascending))
            for m in range(1, grid.m_max + 1):
                for k in range(1, grid.k_max + 1):
                    x = BundleVariety(base_dim=k, m=m, b=b)
                    for beta in range(1, grid.coeff_max + 1):
                        for gamma in range(-grid.coeff_max, grid.coeff_max + 1):
                            if not -m * beta < gamma <= b[0] * beta:
                                continue
                            cls = Class2(beta, gamma)
                            value, _ = generalized_index(x, cls)
                            formula = Fraction(m * beta + gamma, m + b[0] + 1)
                            enumerated = verification.oracle_generalized_index(
                                x, cls, grid.d_max, grid.c_max
                            )
                            if value == formula == enumerated:
                                continue
                            failures.append({
                                "record": f"oracle:k={k}:m={m}:b={','.join(map(str, b))}"
                                f":beta={beta}:gamma={gamma}",
                                "check": "closed-form-vs-oracle",
                                "detail": f"closed form {render_rational(value)}, "
                                f"direct formula {render_rational(formula)}, "
                                f"enumeration {render_rational(enumerated)}",
                            })
    return failures


def test_failure_fans_out_to_every_variety_sharing_the_class(monkeypatch):
    # The sweep audits each (m, b1, beta, gamma) once; a wrong enumeration
    # must still fail every (k, b-tail) row that shares the class.
    honest = verification.oracle_generalized_index

    def wrong_for_one_class(variety, cls, d_max, c_max):
        value = honest(variety, cls, d_max, c_max)
        if (variety.m, variety.b1, cls.beta, cls.gamma) == (2, 1, 2, 1):
            return value + 1
        return value

    monkeypatch.setattr(verification, "oracle_generalized_index", wrong_for_one_class)
    grid = OracleGrid(m_max=2, b1_max=1, rprime_max=2, k_max=2, coeff_max=3)
    report = run_sweep(grid)
    expected = _reference_failures(grid)
    # b-tails with b1 = 1: (1,), (1, 0), (1, 1); each at k = 1, 2
    assert len(expected) == 6
    assert report.failures == expected
    assert report.failed == 6


def test_sweep_calls_the_kernel_once_per_distinct_class(monkeypatch):
    honest = _kernels.best_index_bound
    calls = []

    def counting(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(_kernels, "best_index_bound", counting)
    report = run_sweep(OracleGrid())
    assert report.total == 24312
    assert len(calls) == 856
    assert len(set(calls)) == 856


# sha256 of `verify --grid oracle` stdout, taken before the sweep counted
# rows instead of adding them one by one.
_ORACLE_GRIDS = {
    "default": (),
    "coeff7": ("--coeff-max", "7", "--c-max", "41", "--d-max", "5"),
    "coeff5": ("--coeff-max", "5", "--c-max", "39", "--d-max", "7"),
    "failing": (
        "--m-max", "2", "--b1-max", "2", "--rprime-max", "2", "--k-max", "3",
        "--coeff-max", "3",
    ),
}
_PASS_CSV = "468b6e3b09e719b18798e5128453c59b0cf5306da3eafd1ae8c787ab16324f35"
_ORACLE_DIGESTS = {
    ("default", "json"): "a0bfdc567b127721d156bd6362e605b30027e0882be3f879e50a6eff51a35042",
    ("default", "table"): "c23d304f6464e0a42600f30e2fba5862f6517d70791866e1e481e6dc856038b4",
    ("default", "csv"): _PASS_CSV,
    ("coeff7", "json"): "e9fbc599f89330b6bd6ba06a955bdc28a7a687d2b28108a23a477a7be631d7d8",
    ("coeff7", "table"): "def55e78c49fcc5a373962f1e8f0307e6c31dcc819db21949c5775e755832438",
    ("coeff7", "csv"): _PASS_CSV,
    ("coeff5", "json"): "cb3161216a2a2c59b8f81c5dbc9894f0837046a99b30e77b68b60f3abb156713",
    ("coeff5", "table"): "3be491cdc4059ea4db99a72f873e87ad03959004289ec10f887a155f8fcf90e6",
    ("coeff5", "csv"): _PASS_CSV,
    ("failing", "json"): "d3546e2f7121eb4f4cb975aa6338c22571848162a02c8ec0b5eeb5c59d2b9bbd",
    ("failing", "table"): "5b1a0978e380adea2e3a39e7f0f1cd6e5906b0fa8433964c3fc02b21ecb60c2a",
    ("failing", "csv"): "83895886ceff10b4bcc39345da3f3a7252b46c80812f52279665b92ac43b0500",
}


@pytest.mark.parametrize("grid, fmt", sorted(_ORACLE_DIGESTS), ids="-".join)
def test_oracle_sweep_stdout_is_pinned(capsys, monkeypatch, grid, fmt):
    # The failing grid's enumeration is one too high for two classes:
    # (1, 0) is audited on every bundle, (2, 1) only where b1 >= 1, so the
    # pins hold failure ids and their order across (b-tail, m) groups.
    if grid == "failing":
        honest = verification.oracle_generalized_index
        wrong = {Class2(1, 0), Class2(2, 1)}

        def wrong_for_two_classes(variety, cls, d_max, c_max):
            value = honest(variety, cls, d_max, c_max)
            return value + 1 if cls in wrong else value

        monkeypatch.setattr(verification, "oracle_generalized_index", wrong_for_two_classes)
    code = main(["verify", "--grid", "oracle", *_ORACLE_GRIDS[grid], "--out", fmt])
    assert code == (1 if grid == "failing" else 0)
    data = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == _ORACLE_DIGESTS[grid, fmt]


# sha256 of every (record id, check, status, detail) that verify_record
# returns over the standard catalog, one tab-separated line each; taken
# before every synth record was assembled by synthesize.
_VERIFY_RECORD_DIGEST = "69cab1c0ea72896c3d4bac2530434a2face167f9c987a77e4c8d55a67a63e555"


def test_verify_record_outcomes_of_the_standard_catalog_are_pinned(std_catalog):
    # verify's reports print only failures, so this pins the details of
    # the passing and skipped checks too
    lines = [
        f"{record.id}\t{o.name}\t{o.status.value}\t{o.detail}\n"
        for record in std_catalog.records
        for o in verify_record(record).outcomes
    ]
    assert len(lines) == 16497
    data = "".join(lines).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == _VERIFY_RECORD_DIGEST


_OUTCOMES = st.builds(
    CheckOutcome,
    st.sampled_from(["a-check", "b-check"]),
    st.sampled_from(list(CheckStatus)),
    st.text("xy ", max_size=3),
)


@given(
    st.lists(st.tuples(st.text("ab=", max_size=3), _OUTCOMES), max_size=6),
    st.lists(st.text("pq:", max_size=3), max_size=4),
    st.lists(st.tuples(st.text("z", max_size=2), _OUTCOMES), max_size=3),
)
def test_adding_rows_under_prefixes_equals_adding_each_row(rows, prefixes, before):
    # before: rows already in the report, which the group must follow
    looped, grouped, unit = SweepReport(), SweepReport(), SweepReport()
    for record, outcome in before:
        looped.add(record, outcome)
        grouped.add(record, outcome)
    for prefix in prefixes:
        for record, outcome in rows:
            looped.add(f"{prefix}:{record}", outcome)
    for record, outcome in rows:
        unit.add(record, outcome)
    grouped.add_under(prefixes, unit)
    assert grouped.to_dict() == looped.to_dict()
    assert [list(f.items()) for f in grouped.failures] == [
        list(f.items()) for f in looped.failures
    ]


def test_sweep_classifies_each_class_once(monkeypatch):
    # 16 (m, b1) pairs times 78 classes (beta <= 6, |gamma| <= 6) are
    # classified on their integers by the sweep's filter and by nothing
    # else; the 856 big and not ample ones reach the kernel once each.
    honest_classify, honest_kernel = bundle._classify, _kernels.best_index_bound
    classified, kernel_calls = [], []

    def counting_classify(m, b1, beta_num, gamma_num):
        classified.append((m, b1, beta_num, gamma_num))
        return honest_classify(m, b1, beta_num, gamma_num)

    def counting_kernel(*args):
        kernel_calls.append(args)
        return honest_kernel(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("foliadex") and (
            getattr(module, "_classify", None) is honest_classify
        ):
            monkeypatch.setattr(module, "_classify", counting_classify)
    monkeypatch.setattr(_kernels, "best_index_bound", counting_kernel)
    report = run_sweep(OracleGrid())
    assert report.total == 24312
    assert len(classified) == len(set(classified)) == 1248
    assert len(kernel_calls) == 856


# (num, den) with den > 0 to a perturbed (num, den) with den > 0, for num > 0
_TERMS = {
    "honest": lambda num, den: (num, den),
    "plus-one": lambda num, den: (num + den, den),
    "unreduced": lambda num, den: (2 * num, 2 * den),
    "inverted": lambda num, den: (den, num),
    "halved": lambda num, den: (num, 2 * den),
}


@st.composite
def _big_not_ample(draw):
    """(m, b1, beta, gamma) with -m*beta < gamma <= b1*beta."""
    m, b1, beta = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    return m, b1, beta, draw(st.integers(-m * beta + 1, b1 * beta))


@settings(max_examples=150, deadline=None)
@given(_big_not_ample(), st.sampled_from(sorted(_TERMS)), st.sampled_from(sorted(_TERMS)))
def test_sweep_audit_on_integers_equals_its_fraction_reference(drawn, closed, enumerated):
    # The audit compares on integers; with the drawn class's closed form
    # and enumeration each honest or perturbed, a row passes iff the three
    # values are equal as Fractions, and a failing row has the id and
    # detail of the Fraction audit it replaced.
    m, b1, beta, gamma = drawn
    honest_terms, honest_kernel = verification._closed_form_terms, _kernels.best_index_bound
    assert Fraction(*honest_terms(m, b1, beta, gamma, 1)) == min(
        Fraction(beta), Fraction(m * beta + gamma, m + b1 + 1)
    )

    def closed_form_terms(*args):  # (m, b1, beta_num, gamma_num, den)
        terms = honest_terms(*args)
        return _TERMS[closed](*terms) if args == (m, b1, beta, gamma, 1) else terms

    def kernel(*args):  # (beta_num, gamma_num, scale, m, b1, d_max, c_max)
        num, den, d, c = honest_kernel(*args)
        if args[:5] == (beta, gamma, 1, m, b1):
            num, den = _TERMS[enumerated](num, den)
        return num, den, d, c

    grid = OracleGrid(
        m_max=m, b1_max=b1, rprime_max=1, k_max=1, coeff_max=max(beta, abs(gamma)),
        d_max=2, c_max=2 * b1 + 3,
    )
    variety = BundleVariety(base_dim=1, m=m, b=(b1,))
    expected, passed = [], 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "_closed_form_terms", closed_form_terms)
        patch.setattr(_kernels, "best_index_bound", kernel)
        rows = verification._audit_classes(grid, variety)
        for b in range(1, grid.coeff_max + 1):
            for g in range(-grid.coeff_max, grid.coeff_max + 1):
                if not -m * b < g <= b1 * b:
                    continue
                value = Fraction(*closed_form_terms(m, b1, b, g, 1))
                formula = Fraction(m * b + g, m + b1 + 1)
                found = oracle_generalized_index(variety, Class2(b, g), grid.d_max, grid.c_max)
                if value == formula == found:
                    passed += 1
                    continue
                expected.append({
                    "record": f"beta={b}:gamma={g}",
                    "check": "closed-form-vs-oracle",
                    "detail": f"closed form {render_rational(value)}, "
                    f"direct formula {render_rational(formula)}, "
                    f"enumeration {render_rational(found)}",
                })
    assert rows.failures == expected
    assert (rows.total, rows.passed, rows.failed, rows.skipped) == (
        passed + len(expected), passed, len(expected), 0
    )


def test_sweep_builds_row_text_only_for_a_failing_class(monkeypatch):
    # A passing row is only counted: the clean default sweep builds no
    # outcome, and the pinned failing grid one per failing distinct class,
    # however many (k, b-tail) rows share it.
    honest_passfail, honest_oracle = verification.passfail, verification.oracle_generalized_index
    calls = []

    def counting(name, ok, detail):
        calls.append((name, ok, detail))
        return honest_passfail(name, ok, detail)

    monkeypatch.setattr(verification, "passfail", counting)
    assert run_sweep(OracleGrid()).ok
    assert calls == []

    wrong = {Class2(1, 0), Class2(2, 1)}

    def wrong_for_two_classes(variety, cls, d_max, c_max):
        value = honest_oracle(variety, cls, d_max, c_max)
        return value + 1 if cls in wrong else value

    monkeypatch.setattr(verification, "oracle_generalized_index", wrong_for_two_classes)
    report = run_sweep(OracleGrid(m_max=2, b1_max=2, rprime_max=2, k_max=3, coeff_max=3))
    ids = [dict(p.split("=") for p in f["record"].split(":")[1:]) for f in report.failures]
    failing = {(i["m"], i["b"].split(",")[0], i["beta"], i["gamma"]) for i in ids}
    # (1, 0) on the six (m, b1), (2, 1) on the four with b1 >= 1
    assert len(calls) == len(failing) == 10
    assert report.failed == len(report.failures) > len(failing)


@pytest.mark.parametrize(
    "fields",
    [{}, {"m_max": 2, "b1_max": 1, "rprime_max": 2, "k_max": 2, "coeff_max": 3},
     {"b1_max": 0, "rprime_max": 5, "coeff_max": 2, "d_max": 2, "c_max": 7}],
    ids=["default", "small", "flat"],
)
def test_oracle_grid_cost_bounds_the_sweep(fields, monkeypatch):
    honest = _kernels.best_index_bound
    candidates = []

    def counting(beta_num, gamma_num, scale, m, b1, d_max, c_max):
        candidates.append(sum(c_max - b1 * d for d in range(1, d_max + 1)))
        return honest(beta_num, gamma_num, scale, m, b1, d_max, c_max)

    monkeypatch.setattr(_kernels, "best_index_bound", counting)
    grid = OracleGrid(**fields)
    rows, kernel = verification._cost_bounds(*(getattr(grid, n) for n in grid.__slots__))
    report = run_sweep(grid)
    assert report.total <= rows and sum(candidates) <= kernel
    if not fields:
        assert (rows, kernel) == (31824, 299520)


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"rprime_max": 12}, "rprime_max = 12"),
        ({"m_max": 20, "k_max": 20}, "k_max = 20"),
        ({"k_max": 20, "m_max": 20, "coeff_max": 1}, None),
        ({"coeff_max": 1, "k_max": 200}, None),
        ({"d_max": 3, "c_max": 10**6}, "c_max = 1000000"),
        ({"b1_max": 10**17, "rprime_max": 10**17, "d_max": 1, "c_max": 10**18},
         "b1_max = 100000000000000000"),
    ],
)
def test_oracle_grid_refuses_a_cost_over_its_ceiling(fields, named):
    # the field named is the first, in field order, that takes the bounds
    # over while the later ones are held at min(value, default)
    if named is None:
        OracleGrid(**fields)
        return
    with pytest.raises(DomainError, match=f"^{named} is too large: an oracle grid may have"):
        OracleGrid(**fields)


def test_synth_sweep_is_clean():
    report = run_sweep(SynthGrid(kind=SynthKind.GENERALIZED_INDEX, n_max=4, q_max=6))
    assert report.failed == 0
    assert report.total == 1032
    assert report.skipped >= 6  # unsupported corners show up as skips, not failures


@pytest.mark.parametrize(
    "n_max, q_max, named",
    [
        (3, 157, None),
        (66, 1, None),
        (3, 158, "q_max = 158"),
        (67, 1, "n_max = 67"),
        (10**21, 10**21, f"n_max = {10**21}"),
        (4, 10**21, f"q_max = {10**21}"),
    ],
)
def test_synth_grid_refuses_a_target_bound_over_its_ceiling(n_max, q_max, named):
    # the bound C(n_max + 1, 3) * q_max * (q_max + 1) / 2 is 49,612 and
    # 47,905 on the grids allowed, 50,244 and 50,116 on the first two refused
    if named is None:
        SynthGrid(SynthKind.SESHADRI, n_max, q_max)
        return
    refusal = f"{named} is too large: a synth grid may have at most 50,000 targets"
    with pytest.raises(DomainError, match=f"^{refusal}$"):
        SynthGrid(SynthKind.SESHADRI, n_max, q_max)


@pytest.mark.parametrize("n_max, q_max", [(4, 6), (2, 40), (9, 3)])
def test_synth_grid_target_bound_holds(n_max, q_max):
    targets = sum(
        len(reduced_targets(Fraction(r), q_max)) for n in range(2, n_max + 1) for r in range(1, n)
    )
    assert targets <= (n_max + 1) * n_max * (n_max - 1) // 6 * q_max * (q_max + 1) // 2


def test_unknown_grid_rejected():
    with pytest.raises(TypeError):
        run_sweep(object())


# ---------------------------------------------------------------------------
# One recomputation per distinct descriptor.


def _reference_report(records) -> SweepReport:
    """verify_catalog as a loop of verify_record, one recomputation per record."""
    report = SweepReport()
    for record in records:
        for outcome in verify_record(record).outcomes:
            report.add(record.id, outcome)
    return report


def test_verify_catalog_recomputes_each_distinct_descriptor_once(std_catalog, monkeypatch):
    assert len({id(r.foliation) for r in std_catalog.records}) == 1203
    records = import_catalog(export_catalog(std_catalog)).records
    honest = verification.compute_invariants
    calls = []

    def counting(fol):
        calls.append(fol)
        return honest(fol)

    monkeypatch.setattr(verification, "compute_invariants", counting)
    report = verify_catalog(records)
    assert len(calls) == 1104
    assert (report.total, report.failed) == (16497, 0)


def _tampered_pair(records):
    """records with the stored gen_index of one Fano-index cone record off
    by one, and that record's id; its Seshadri twin shares its descriptor."""
    by_id = {r.id: r for r in records}
    fano = next(r for r in records if r.id.startswith("fano-index:cone:"))
    assert fano.foliation is by_id[fano.id.replace("fano-index", "seshadri", 1)].foliation
    inv = fano.invariants
    edited = InvariantReport(
        inv.gen_index + 1, inv.fano_index, inv.seshadri_antican, inv.positivity
    )
    tampered = ExampleRecord(
        fano.id, fano.request, fano.branch, fano.foliation, edited, fano.checks
    )
    return [tampered if r is fano else r for r in records], fano.id


@pytest.mark.parametrize("tamper", [False, True], ids=["export", "one-of-a-pair"])
@pytest.mark.parametrize("source", ["imported", "built"])
def test_verify_catalog_equals_a_loop_of_verify_record(std_catalog, tamper, source):
    records = std_catalog.records
    if source == "imported":
        records = import_catalog(export_catalog(std_catalog)).records
    victim = None
    if tamper:
        records, victim = _tampered_pair(records)
    report = verify_catalog(records)
    assert report == _reference_report(records)
    failing = {(f["record"], f["check"]) for f in report.failures}
    expected = {(victim, "stored-invariants-match-recomputation")} if tamper else set()
    assert failing == expected


_CONTAINERS = ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter")


def _empty_container(node) -> bool:
    """Whether node builds a mutable container that starts empty."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (getattr(node, "keys", None) or getattr(node, "elts", None))
    return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in _CONTAINERS


def _memo_sites(tree) -> list[str]:
    """Where a module keeps state between calls: a module-level container
    that starts empty, a cache decorator, a global statement, or a function
    that stores into a module-level name."""
    module_names = set()
    sites = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            module_names.update(names)
            if node.value is not None and _empty_container(node.value):
                sites.append(f"<module>: {', '.join(names)} = {ast.unparse(node.value)}")
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in func.decorator_list:
            if "cache" in ast.unparse(decorator):
                sites.append(f"{func.name}: @{ast.unparse(decorator)}")
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                sites.append(f"{func.name}: global {', '.join(node.names)}")
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_names
            ) or (
                isinstance(node, ast.Attribute)
                and node.attr in ("setdefault", "update", "append", "add")
                and isinstance(node.value, ast.Name)
                and node.value.id in module_names
            ):
                sites.append(f"{func.name}: {ast.unparse(node)}")
    return sites


def test_decode_and_verify_tables_live_for_one_call():
    # The tables that share decodes and recomputations are locals, so
    # nothing a catalog held outlives its import or its verification.
    for module in (catalog, verification):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        assert _memo_sites(tree) == [], module.__name__


def test_build_cache_is_bounded():
    # A long-lived caller building catalog after catalog holds at most
    # maxsize entries in each of the package's caches.
    caches = [
        (path.name, decorator)
        for path in sorted(Path(synthesis.__file__).parent.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for decorator in func.decorator_list
        if "cache" in ast.unparse(decorator)
    ]
    assert {name for name, _ in caches} >= {"lattice.py", "rankone.py", "synthesis.py"}
    for name, decorator in caches:
        assert isinstance(decorator, ast.Call), (name, ast.unparse(decorator))
        assert ast.unparse(decorator.func) == "functools.lru_cache", name
        (maxsize,) = [k.value for k in decorator.keywords if k.arg == "maxsize"]
        assert isinstance(maxsize, ast.Constant) and type(maxsize.value) is int, name
        assert maxsize.value > 0, name
