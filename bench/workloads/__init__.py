"""The benchmark's workloads and the bookkeeping they share.

A workload module defines

    make_inputs(seed)          inputs, built by the benchmark from the seed
    prepare()                  work that must precede the pass (may be a no-op)
    run_pass(inputs, tracer)   the measured pass: spin9 calls only
    check(inputs, outputs)     a Tally of the pass's operations

An operation fails when it raises or when its output does not pass the
benchmark's check.  A problem is a defect of the run itself (a missing
result, a reference that cannot be trusted); it makes `correct` false.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Raised:
    """Stands in for the output of a call that raised."""

    error: str


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an operation that raises counts as failed
        return Raised(f"{type(exc).__name__}: {exc}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def op(self, name: str, ok) -> None:
        """Count one operation; `ok` is evaluated by the caller."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)

    def problem(self, text: str) -> None:
        self.problems.append(text)
