"""`spin9 verify` as shipped: all seven suites, default --samples, --jobs 1.

Every check line is one operation and a FAIL line is a failed one.  A
PASS line whose anchor values differ from the paper's counts as failed
too.  The traced pass calls the entry point once per suite, in one
process, to time the suites separately.
"""

from __future__ import annotations

import contextlib
import io

from . import Raised, Tally, attempt

SPIN9_DIM = 9 * 8 // 2  # dim spin(9): the pair products I_i I_j, i < j

# Anchors stated by the paper, each written as the identity that gives it.
ANCHORS = {
    "canonical.eight-form": {"omega8_eval": -20160, "omega8_terms": 702},
    "canonical.conjecture": {"verdict": "EQUAL"},
    "stabilizer.kernel": {"stabilizer_dim": SPIN9_DIM,
                          "system_rank": 16 * 16 - SPIN9_DIM},
    "bpt.defect": {"bpt_defect": 63 - 9 + 6 * 9, "t1": 63, "t2": -9},
    "bpt.materialized-form": {"terms": 870},
}


def make_inputs(seed: int) -> list:
    return ["verify", "--seed", str(seed), "--jobs", "1"]


def prepare() -> None:
    pass


def _call(argv):
    from spin9 import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = attempt(cli.main, argv)
    return code, out.getvalue()


def run_pass(argv, tracer):
    """[(exit code or Raised, printed text)], one entry per entry-point call."""
    if not tracer.enabled:
        return [_call(argv)]
    from spin9 import suites

    calls = []
    for name in suites.SUITE_NAMES:
        with tracer.span(f"suites.{name}"):
            calls.append(_call(argv + ["--suite", name]))
    tracer.add("cli.verify_lines",
               sum(len(text.splitlines()) for _, text in calls))
    return calls


def parse_line(line: str):
    """(check id, passed, {key: value}) of one `id PASS|FAIL k=v ...` line."""
    parts = line.split()
    if len(parts) < 2 or parts[1] not in ("PASS", "FAIL"):
        raise ValueError(f"not a check line: {line!r}")
    details = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
    return parts[0], parts[1] == "PASS", details


def check(argv, outputs) -> Tally:
    tally = Tally()
    seen = set()
    for code, text in outputs:
        if isinstance(code, Raised):
            tally.op("verify-raised", False)
            tally.problem(f"verify raised {code.error}")
            continue
        any_fail = False
        for line in text.splitlines():
            try:
                check_id, passed, details = parse_line(line)
            except ValueError as exc:
                tally.problem(str(exc))
                continue
            seen.add(check_id)
            expected = ANCHORS.get(check_id, {})
            anchors_ok = all(
                details.get(k) == str(v) for k, v in expected.items()
            )
            tally.op(check_id, passed and anchors_ok)
            any_fail = any_fail or not passed
        if code != (1 if any_fail else 0):
            tally.problem(f"exit code {code} does not match the FAIL lines")
    for check_id in sorted(set(ANCHORS) - seen):
        tally.problem(f"anchor line {check_id} missing")
    if not tally.attempted:
        tally.problem("verify printed no check line")
    return tally
