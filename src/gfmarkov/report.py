"""Verification report containers shared by the check operations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    passed: bool
    residual: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "passed": bool(self.passed)}
        if self.residual is not None:
            d["residual"] = float(self.residual)
        if self.note:
            d["note"] = self.note
        return d


def _residual_check(name: str, gap, bound: float) -> CheckResult:
    """The check that max |gap| is at most bound, with that max as residual."""
    resid = float(np.abs(gap).max())
    return CheckResult(name, resid <= bound, resid)


@dataclass(frozen=True)
class VerificationReport:
    """A batch of checks; passes only if every member passed."""

    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
