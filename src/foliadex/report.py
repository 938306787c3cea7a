"""Report containers shared by the geometry, synthesis and verification layers."""

from __future__ import annotations

import enum
from fractions import Fraction

from .bundle import Positivity
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
            raise ValueError("gen_index recorded for a non-big anticanonical class")
        if fano_index is not None and not positivity.ample:
            raise ValueError("fano_index recorded for a non-ample anticanonical class")
        object.__setattr__(self, "gen_index", gen_index)
        object.__setattr__(self, "fano_index", fano_index)
        object.__setattr__(self, "seshadri_antican", seshadri_antican)
        object.__setattr__(self, "positivity", positivity)


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIP = "skip"


class CheckOutcome(Frozen):
    __slots__ = ("name", "status", "detail")
    name: str
    status: CheckStatus
    detail: str

    def __init__(self, name: str, status: CheckStatus, detail: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "detail", detail)

    @property
    def failed(self) -> bool:
        return self.status is CheckStatus.FAIL


class CheckReport(Frozen):
    """All check outcomes for one record, in a fixed order."""

    __slots__ = ("record_id", "outcomes")
    record_id: str
    outcomes: tuple[CheckOutcome, ...]

    def __init__(self, record_id: str, outcomes: tuple[CheckOutcome, ...]) -> None:
        object.__setattr__(self, "record_id", record_id)
        object.__setattr__(self, "outcomes", outcomes)

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
        self.total = total
        self.passed = passed
        self.failed = failed
        self.skipped = skipped
        self.failures = [] if failures is None else failures

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
