"""Command line entry point: verify, export, conjecture.

Exit codes: 0 all checks passed or verdict delivered, 1 check failure,
2 usage error, 3 I/O error.  All randomized behavior is reproducible
from (--seed, --samples); --jobs never changes any numeric output.

Timing is not a command: the benchmark in `bench/` times each layer,
for example `mkdir -p bench/out && python3 bench/run.py --workload all
--trace 1` from the repository root.
"""

import argparse
import ctypes
import os
import sys
from itertools import repeat

from .bpt import materialize_bpt_8form
from .canonical import (
    canonical_8form,
    canonical_8form_alt,
    conjecture_8form,
    conjecture_verdict,
    export_coefficients,
)
from .suites import SUITE_NAMES, RunConfig, run_suite

EXPORT_FORMS = {
    "omega8": canonical_8form,
    "omega8-alt": canonical_8form_alt,
    "conjecture-rhs": lambda: conjecture_8form("antisymmetric"),
    "bpt": materialize_bpt_8form,
}


def pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for `tasks` tasks: never more than CPUs or tasks."""
    return min(jobs, os.cpu_count() or 1, tasks)


def cmd_verify(args) -> int:
    config = RunConfig(seed=args.seed, samples=args.samples)
    workers = pool_size(args.jobs, len(SUITE_NAMES))
    if args.suite == "all" and workers > 1:
        # fan out per suite; output order stays fixed by suite name.  Only
        # here is the pool imported: it pulls in `logging` on import
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_suite, SUITE_NAMES, repeat(config)))
    else:
        reports = [run_suite(args.suite, config)]
    ok = True
    for report in reports:
        for line in report.lines():
            print(line)
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_export(args) -> int:
    form = EXPORT_FORMS[args.form]()
    data = export_coefficients(form, args.format)
    records = form.term_count()
    if args.out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        print(
            f"export {args.form}: records={records} bytes={len(data)}",
            file=sys.stderr,
        )
        return 0
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"export {args.form}: cannot write {args.out}: {exc}",
              file=sys.stderr)
        return 3
    print(
        f"export {args.form}: records={records} bytes={len(data)} "
        f"out={args.out}"
    )
    return 0


def _print_verdict(v) -> None:
    word = "EQUAL" if v.equal else "NOT-EQUAL"
    print(f"conjecture: {word} (convention={v.convention})")
    print(
        f"conjecture.detail lhs_terms={v.lhs_terms} rhs_terms={v.rhs_terms} "
        f"difference_terms={v.difference_terms}"
    )
    if not v.equal:
        for idx, coeff in v.sample_monomials:
            print(
                "conjecture.sample indices="
                + ",".join(str(i) for i in idx)
                + f" coefficient={coeff}"
            )


def cmd_conjecture(args) -> int:
    verdict = conjecture_verdict()
    _print_verdict(verdict)
    if verdict.alternative is not None:
        _print_verdict(verdict.alternative)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin9",
        description="Exact constructor and verifier for the invariant "
        "8-form on R^16 built from nine symmetric involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run an invariant suite and report one line per check"
    )
    p_verify.add_argument(
        "--suite", choices=("all",) + SUITE_NAMES, default="all"
    )
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized property checks")
    p_verify.add_argument("--samples", type=_positive_int, default=25,
                          help="sample count for randomized property checks")
    p_verify.add_argument("--jobs", type=_positive_int, default=1,
                          help="worker processes for `--suite all`, one per "
                          "suite, capped at the CPU count; never changes "
                          "numeric output")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser(
        "export", help="write a coefficient table, byte-stable across runs"
    )
    p_export.add_argument("form", choices=EXPORT_FORMS)
    p_export.add_argument("--format", choices=("json", "csv"),
                          default="json")
    p_export.add_argument("--out", default=None,
                          help="destination file (default: stdout)")
    p_export.set_defaults(func=cmd_export)

    p_conj = sub.add_parser(
        "conjecture",
        help="report whether the quarter sigma-sum equals the 8-form",
    )
    p_conj.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    # glibc raises its mmap threshold to the largest array freed and keeps up
    # to twice that free on the heap, so a run's peak memory would hang on the
    # heap layout.  Fixed at 1 MiB, larger arrays go back to the system when
    # freed, while the wedge kernel's 384 KiB chunk arrays reuse the heap.
    if sys.platform == "linux":
        ctypes.CDLL(None).mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD, fixed
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
