"""Command line entry point: verify, export, conjecture, bench.

Exit codes: 0 all checks passed or verdict delivered, 1 check failure,
2 usage error, 3 I/O error.  All randomized behavior is reproducible
from (--seed, --samples); --jobs never changes any numeric output.
"""

import argparse
import concurrent.futures
import ctypes
import math
import os
import random
import sys
import time
from fractions import Fraction
from itertools import combinations, product

from . import curvature
from .bpt import materialize_bpt_8form
from .canonical import (
    canonical_8form,
    canonical_8form_alt,
    conjecture_8form,
    conjecture_verdict,
    export_coefficients,
    omega2,
)
from .exterior import evaluate_table, pullback_table
from .operators import RationalCirclePoint, Vector16, rotation
from .stabilizer import stabilizer_system
from .suites import SUITE_NAMES, RunConfig, run_suite

EXPORT_FORMS = ("omega8", "omega8-alt", "conjecture-rhs", "bpt")
BENCH_KERNELS = (
    "wedge", "stabilizer-assembly", "bpt-materialize", "evaluate", "curvature",
    "pullback",
)


def _run_one(args):
    name, config = args
    return name, run_suite(name, config)


def pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for `tasks` tasks: never more than CPUs or tasks."""
    return min(jobs, os.cpu_count() or 1, tasks)


def cmd_verify(args) -> int:
    config = RunConfig(seed=args.seed, samples=args.samples)
    workers = pool_size(args.jobs, len(SUITE_NAMES))
    if args.suite == "all" and workers > 1:
        # fan out per suite; output order stays fixed by suite name
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers
        ) as pool:
            results = dict(
                pool.map(_run_one, [(s, config) for s in SUITE_NAMES])
            )
        reports = [results[s] for s in SUITE_NAMES]
    else:
        reports = [run_suite(args.suite, config)]
    ok = True
    for report in reports:
        for line in report.lines():
            print(line)
        ok = ok and report.passed
    return 0 if ok else 1


def _export_form(name):
    if name == "omega8":
        return canonical_8form()
    if name == "omega8-alt":
        return canonical_8form_alt()
    if name == "conjecture-rhs":
        return conjecture_8form("antisymmetric")
    return materialize_bpt_8form()


def cmd_export(args) -> int:
    form = _export_form(args.form)
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


def _wedge_chunk(pairs):
    ops = 0
    checksum = 0
    for (i, j), (k, l) in pairs:
        a = omega2(i, j)
        b = omega2(k, l)
        ops += a.term_count() * b.term_count()
        w = a.wedge(b)
        checksum += sum(v for _, v in w.items())
    return ops, checksum


def _bench_wedge():
    two_forms = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    pairs = [
        (two_forms[a], two_forms[b])
        for a in range(len(two_forms))
        for b in range(a, len(two_forms))
    ]
    t0 = time.perf_counter()
    ops, checksum = _wedge_chunk(pairs)
    elapsed = time.perf_counter() - t0
    print(
        f"bench wedge: products={len(pairs)} term_pairs={ops} "
        f"checksum={checksum}"
    )
    rate = ops / elapsed if elapsed > 0 else float("inf")
    print(f"bench wedge: time={elapsed:.3f}s term_pairs_per_s={rate:.0f}")


def _bench_stabilizer_assembly():
    form = canonical_8form()
    t0 = time.perf_counter()
    rows = stabilizer_system(form, 16)
    elapsed = time.perf_counter() - t0
    checksum = sum(abs(v) for row in rows for v in row.values())
    print(
        f"bench stabilizer-assembly: rows={math.comb(16, form.degree)} "
        f"cols=256 nonzero_rows={len(rows)} checksum={checksum}"
    )
    print(f"bench stabilizer-assembly: time={elapsed:.3f}s")


def _bench_bpt_materialize():
    t0 = time.perf_counter()
    form = materialize_bpt_8form.__wrapped__()
    elapsed = time.perf_counter() - t0
    checksum = sum(abs(v) for _, v in form.items())
    print(
        f"bench bpt-materialize: nonzero={form.term_count()} "
        f"checksum={checksum}"
    )
    print(f"bench bpt-materialize: time={elapsed:.3f}s")


def _bench_evaluate(seed, samples):
    """The BPT form (integer coefficients) on seeded integer 8-tuples, on
    the integer kernel as `AlternatingForm.evaluate` calls it."""
    form = materialize_bpt_8form()
    rng = random.Random(f"{seed}:bench-evaluate")
    tuples = [
        [Vector16.from_coords([rng.randint(-9, 9) for _ in range(16)])
         for _ in range(8)]
        for _ in range(samples)
    ]
    values = []
    products = 0
    modular = False
    t0 = time.perf_counter()
    for vs in tuples:
        value, n, moduli = evaluate_table(
            form._terms, [v.coords() for v in vs], form._laplace()
        )
        values.append(value)
        products += n
        modular = modular or bool(moduli)
    elapsed = time.perf_counter() - t0
    checksum = sum(abs(v) for v in values)
    print(
        f"bench evaluate: calls={samples} terms={form.term_count()} "
        f"products={products} path={'crt' if modular else 'int64'} "
        f"checksum={checksum}"
    )
    print(f"bench evaluate: time={elapsed:.3f}s")


def _bench_curvature(seed, samples):
    rng = random.Random(f"{seed}:bench-curvature")
    triples = [
        [Vector16.from_coords([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                               for _ in range(16)])
         for _ in range(3)]
        for _ in range(samples)
    ]
    exprs = (
        curvature.curvature_omega,
        curvature.curvature_brown_gray,
        curvature.curvature_prime_operator,
        curvature.curvature_prime_octonion,
    )
    t0 = time.perf_counter()
    values = [f(x, y, z, 4) for x, y, z in triples for f in exprs]
    elapsed = time.perf_counter() - t0
    checksum = sum(
        abs(v.numerator) + v.denominator for r in values for v in r.coords()
    )
    print(f"bench curvature: calls={len(values)} checksum={checksum}")
    print(f"bench curvature: time={elapsed:.3f}s")
    basis = [Vector16.basis(k) for k in range(16)]
    t0 = time.perf_counter()
    values = [f(x, y, z, 4) for x, y, z in product(basis, repeat=3) for f in exprs]
    elapsed = time.perf_counter() - t0
    print(f"bench curvature: basis_calls={len(values)} time={elapsed:.3f}s")


def _bench_pullback():
    """Omega (integer coefficients) pulled back along the 36 plane
    rotations at two circle points, on the integer kernel as
    `AlternatingForm.pullback` calls it."""
    # imported here: hashlib maps OpenSSL, 3.5 MiB every command would carry
    import hashlib

    form = canonical_8form()
    points = (
        RationalCirclePoint(Fraction(3, 5), Fraction(4, 5)),
        RationalCirclePoint(Fraction(5, 13), Fraction(12, 13)),
    )
    rotations = [
        rotation(k, l, p)
        for k, l in combinations(range(9), 2)
        for p in points
    ]
    digest = hashlib.sha256()
    leaves = 0
    modular = False
    t0 = time.perf_counter()
    for rot in rotations:
        terms, n, moduli = pullback_table(
            form._terms, form.degree, rot.integer_entries()[0]
        )
        leaves += n
        modular = modular or bool(moduli)
        digest.update(repr(sorted(terms.items())).encode())
    elapsed = time.perf_counter() - t0
    print(
        f"bench pullback: rotations={len(rotations)} leaves={leaves} "
        f"path={'crt' if modular else 'int64'} "
        f"checksum={digest.hexdigest()[:16]}"
    )
    print(f"bench pullback: time={elapsed:.3f}s")


def cmd_bench(args) -> int:
    if args.kernel == "wedge":
        _bench_wedge()
    elif args.kernel == "stabilizer-assembly":
        _bench_stabilizer_assembly()
    elif args.kernel == "evaluate":
        _bench_evaluate(args.seed, args.samples)
    elif args.kernel == "curvature":
        _bench_curvature(args.seed, args.samples)
    elif args.kernel == "pullback":
        _bench_pullback()
    else:
        _bench_bpt_materialize()
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_run_flags(parser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property checks")
    parser.add_argument("--samples", type=_positive_int, default=25,
                        help="sample count for randomized property checks")


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
    _add_run_flags(p_verify)
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

    p_bench = sub.add_parser(
        "bench", help="time one computational kernel (informational only)"
    )
    p_bench.add_argument("kernel", choices=BENCH_KERNELS)
    _add_run_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    # glibc raises its mmap threshold to the largest array freed and keeps up
    # to twice that free on the heap, so a run's peak memory would hang on the
    # heap layout.  Fixed at 1 MiB, larger arrays go back to the system when
    # freed, while the wedge kernel's 512 KiB chunk arrays reuse the heap.
    if sys.platform == "linux":
        ctypes.CDLL(None).mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD, fixed
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
