"""Report containers shared by the geometry, synthesis and verification layers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .bundle import Positivity


@dataclass(frozen=True)
class InvariantReport:
    """Numerical invariants of one foliation, exact and optional.

    A field is present only when the invariant is defined: gen_index needs
    the anticanonical class big, fano_index needs it ample, and
    seshadri_antican is recorded only for ambients where the Seshadri
    constant of the relevant polarization is actually known.
    """

    gen_index: Fraction | None
    fano_index: Fraction | None
    seshadri_antican: Fraction | None
    positivity: Positivity

    def __post_init__(self) -> None:
        if self.gen_index is not None and not self.positivity.big:
            raise ValueError("gen_index recorded for a non-big anticanonical class")
        if self.fano_index is not None and not self.positivity.ample:
            raise ValueError("fano_index recorded for a non-ample anticanonical class")


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIP = "skip"


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    status: CheckStatus
    detail: str

    @property
    def failed(self) -> bool:
        return self.status is CheckStatus.FAIL


@dataclass(frozen=True)
class CheckReport:
    """All check outcomes for one record, in a fixed order."""

    record_id: str
    outcomes: tuple[CheckOutcome, ...]

    @property
    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(o for o in self.outcomes if o.failed)


@dataclass
class SweepReport:
    """Aggregated pass/fail/skip counts over many checks."""

    total: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[dict[str, str]] = field(default_factory=list)

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
