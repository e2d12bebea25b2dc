"""Check results in a machine-greppable line format.

Each check renders as one line

    <check-id> <PASS|FAIL> [key=value ...]

so reports can be grepped for anchors like omega8_eval=-20160.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    details: tuple = ()

    def line(self) -> str:
        parts = [self.check_id, "PASS" if self.passed else "FAIL"]
        parts.extend(f"{k}={v}" for k, v in self.details)
        return " ".join(parts)


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def add(self, check_id: str, passed: bool, **details) -> None:
        self.checks.append(
            CheckResult(check_id, bool(passed), tuple(details.items()))
        )

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        return [c.line() for c in self.checks]
