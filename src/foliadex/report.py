"""Report containers shared by the geometry, synthesis and verification layers."""

from __future__ import annotations

import enum
from collections.abc import Sequence
from fractions import Fraction

from .bundle import Positivity
from .errors import DomainError
from .value import Frozen, Value


class InvariantReport(Frozen):
    """Numerical invariants of one foliation, exact and optional.

    A field is present only when the invariant is defined: gen_index needs
    the anticanonical class big, fano_index needs it ample, and
    seshadri_antican is recorded only for ambients where the Seshadri
    constant of the relevant polarization is actually known.
    """

    __slots__ = ("gen_index", "fano_index", "seshadri_antican", "positivity")
    gen_index: Fraction | None
    fano_index: Fraction | None
    seshadri_antican: Fraction | None
    positivity: Positivity

    def __init__(
        self,
        gen_index: Fraction | None,
        fano_index: Fraction | None,
        seshadri_antican: Fraction | None,
        positivity: Positivity,
    ) -> None:
        if gen_index is not None and not positivity.big:
            raise DomainError("gen_index recorded for a non-big anticanonical class")
        if fano_index is not None and not positivity.ample:
            raise DomainError("fano_index recorded for a non-ample anticanonical class")
        Value.__init__(self, gen_index, fano_index, seshadri_antican, positivity)


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIP = "skip"


class CheckOutcome(Frozen):
    __slots__ = ("name", "status", "detail")
    name: str
    status: CheckStatus
    detail: str

    @property
    def failed(self) -> bool:
        return self.status is CheckStatus.FAIL


class CheckReport(Frozen):
    """All check outcomes for one record, in a fixed order."""

    __slots__ = ("record_id", "outcomes")
    record_id: str
    outcomes: tuple[CheckOutcome, ...]

    @property
    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(o for o in self.outcomes if o.failed)


class SweepReport(Value):
    """Aggregated pass/fail/skip counts over many checks."""

    __slots__ = ("total", "passed", "failed", "skipped", "failures")
    total: int
    passed: int
    failed: int
    skipped: int
    failures: list[dict[str, str]]

    def __init__(
        self,
        total: int = 0,
        passed: int = 0,
        failed: int = 0,
        skipped: int = 0,
        failures: list[dict[str, str]] | None = None,
    ) -> None:
        Value.__init__(self, total, passed, failed, skipped, [] if failures is None else failures)

    def add(self, record_id: str, outcome: CheckOutcome) -> None:
        self.total += 1
        if outcome.status is CheckStatus.PASS:
            self.passed += 1
        elif outcome.status is CheckStatus.FAIL:
            self.failed += 1
            self.failures.append(
                {"record": record_id, "check": outcome.name, "detail": outcome.detail}
            )
        else:
            self.skipped += 1

    def add_under(self, prefixes: Sequence[str], rows: SweepReport) -> None:
        """Add every row of rows once under each prefix.

        The same as add(f"{prefix}:{record}", outcome) for each prefix in
        turn and each row in order, where rows was filled by add(record,
        outcome): the counts are added by multiplication, and an id is
        built only for a failing row.  So prefixes are read only when
        rows holds a failure; otherwise only their number counts.
        """
        times = len(prefixes)
        self.total += times * rows.total
        self.passed += times * rows.passed
        self.failed += times * rows.failed
        self.skipped += times * rows.skipped
        for prefix in prefixes:
            for failure in rows.failures:
                self.failures.append({**failure, "record": f"{prefix}:{failure['record']}"})

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "failures": list(self.failures),
        }
