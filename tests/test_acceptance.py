"""The twelve acceptance criteria, each timed and reported on one line.

Every check is exact rational or integer arithmetic; the timing budgets
are asserted where the criterion states one.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import record_criterion
from helpers import rand_fraction_vector
from spin9 import cli, curvature
from spin9.bpt import (
    bpt_8form_full,
    bpt_8form_reduced,
    bpt_invariance_defect,
    materialize_bpt_8form,
    s8_star,
)
from spin9.canonical import (
    bianchi_cyclic_residual,
    canonical_8form,
    conjecture_verdict,
    export_coefficients,
    four_form_omega_sum,
    four_form_sigma_sum,
    friedrich_identities,
    rotation_fixes,
    w_tilde,
)
from spin9.octonion import Octonion
from spin9.operators import (
    Operator16,
    RationalCirclePoint,
    Vector16,
    build_involutions,
    clifford_product,
)
from spin9.stabilizer import (
    infinitesimal_stabilizer,
    lambda1_exclusion,
    lambda3_exclusion,
    sp4_certification,
    sp4_oracle_dimension,
    spans_involution_pairs,
    symplectic_form_r4,
)

FAM = build_involutions()
BASIS16 = [Vector16.basis(k) for k in range(16)]
FRAME8 = BASIS16[:8]
ZERO16 = Vector16.from_coords([0] * 16)
P1 = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
P2 = RationalCirclePoint(Fraction(5, 13), Fraction(12, 13))


def _record(num, ok, **kv):
    parts = [f"criterion-{num:02d}", "PASS" if ok else "FAIL"]
    parts.extend(f"{k}={v}" for k, v in kv.items())
    record_criterion(" ".join(parts))
    assert ok, f"criterion {num}: {kv}"


def test_criterion_01_anchor_value_and_build_time():
    t0 = time.perf_counter()
    fresh = canonical_8form.__wrapped__()
    elapsed = time.perf_counter() - t0
    value = fresh.evaluate(FRAME8)
    ok = value == -20160 and elapsed < 10.0 and fresh == canonical_8form()
    _record(1, ok, omega8_eval=value, build=f"{elapsed:.2f}s", budget="10s")


def test_criterion_02_term_count_and_byte_stable_export(omega8):
    count = omega8.term_count()
    stable = all(
        export_coefficients(omega8, fmt) == export_coefficients(omega8, fmt)
        for fmt in ("json", "csv")
    )
    records = len(export_coefficients(omega8, "json").decode().splitlines())
    ok = count == 702 and stable and records == 702
    _record(2, ok, omega8_terms=count, export_records=records)


def test_criterion_03_invariance(omega8):
    t0 = time.perf_counter()
    pairs_ok = all(
        not omega8.lie_derivative(clifford_product((k, l)))
        for k in range(9)
        for l in range(k + 1, 9)
    )
    rot_ok = all(
        rotation_fixes(omega8, k, l, pt)
        for k in range(9)
        for l in range(k + 1, 9)
        for pt in (P1, P2)
    )
    elapsed = time.perf_counter() - t0
    ok = pairs_ok and rot_ok and elapsed < 60.0
    _record(
        3, ok, pairs=36, rotations=72, time=f"{elapsed:.1f}s", budget="60s"
    )


def test_criterion_04_averaged_coefficient_anchors():
    u = Octonion.unit
    cases = (
        ((0, 0, 1, 1), -24),
        ((0, 0, 1, 2), -8),
        ((0, 1, 2, 3), -8),
        ((0, 1, 2, 4), -8),
    )
    ok = True
    worst = 0.0
    values = []
    for idx, want in cases:
        t0 = time.perf_counter()
        got = w_tilde(*(u(k) for k in idx))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        values.append(got)
        ok = ok and got == want and dt < 1.0
    _record(
        4,
        ok,
        w0011=values[0],
        w0012=values[1],
        w0123=values[2],
        w0124=values[3],
        worst=f"{worst:.2f}s",
        budget="1s each",
    )


def test_criterion_05_vanishing_corollaries():
    squares_ok = not four_form_omega_sum() and not four_form_sigma_sum()
    rng = random.Random(105)
    cyclic_ok = True
    from spin9.linalg import inner_product

    for _ in range(100):
        x, y, z, w = (rand_fraction_vector(rng) for _ in range(4))
        residual = bianchi_cyclic_residual(x, y, z)
        if inner_product(residual, w) != 0 or residual != ZERO16:
            cyclic_ok = False
    ok = squares_ok and cyclic_ok
    _record(5, ok, squared_sums="zero", cyclic_samples=100)


def test_criterion_06_stabilizer_kernel(omega8):
    t0 = time.perf_counter()
    result = infinitesimal_stabilizer(omega8)
    contained, spans = spans_involution_pairs(result)
    l1 = lambda1_exclusion(omega8)
    l3 = lambda3_exclusion(omega8)
    elapsed = time.perf_counter() - t0
    factor = dict(
        {c.check_id: dict(c.details) for c in l1.checks}[
            "stabilizer.lambda1.boost-scaling"
        ]
    )["factor"]
    ok = (
        result.kernel_dimension == 36
        and contained
        and spans
        and l1.passed
        and l3.passed
        and Fraction(factor) == Fraction(1, 256)
        and elapsed < 600.0
    )
    _record(
        6,
        ok,
        stabilizer_dim=result.kernel_dimension,
        system_rank=result.system_rank,
        boost_factor=factor,
        time=f"{elapsed:.1f}s",
        budget="600s",
    )


def test_criterion_07_curvature_equivalence():
    c = 4
    exprs = (
        curvature.curvature_omega,
        curvature.curvature_brown_gray,
        curvature.curvature_prime_operator,
        curvature.curvature_prime_octonion,
    )
    basis_ok = True
    for x, y, z in itertools.product(BASIS16, repeat=3):
        ref = exprs[0](x, y, z, c)
        if any(f(x, y, z, c) != ref for f in exprs[1:]):
            basis_ok = False

    rng = random.Random(107)
    random_ok = True
    bianchi_ok = True
    for _ in range(1000):
        x, y, z = (rand_fraction_vector(rng) for _ in range(3))
        ref = exprs[0](x, y, z, c)
        if any(f(x, y, z, c) != ref for f in exprs[1:]):
            random_ok = False
        if (
            ref
            + curvature.curvature_omega(y, z, x, c)
            + curvature.curvature_omega(z, x, y, c)
            != ZERO16
        ):
            bianchi_ok = False

    pair_ok = True
    for _ in range(200):
        x, y, z, w = (rand_fraction_vector(rng) for _ in range(4))
        if curvature.curvature_entry(x, y, z, w, c) != curvature.curvature_entry(
            z, w, x, y, c
        ):
            pair_ok = False

    averaging_ok = all(
        curvature.averaging_identity(
            rand_fraction_vector(rng),
            rand_fraction_vector(rng),
            rand_fraction_vector(rng),
            c,
        ).passed
        for _ in range(50)
    )

    operator_ok = True
    for k in range(9):
        for l in range(k + 1, 9):
            ikl = clifford_product((k, l))
            acc = Operator16.zero()
            for j in range(9):
                acc = acc + FAM[j] @ ikl @ FAM[j]
            if acc != ikl.scale(5):
                operator_ok = False

    ok = basis_ok and random_ok and bianchi_ok and pair_ok and averaging_ok and operator_ok
    _record(
        7,
        ok,
        basis_triples=4096,
        random_triples=1000,
        bianchi="ok" if bianchi_ok else "bad",
        pair_symmetry="ok" if pair_ok else "bad",
        averaging_samples=50,
        conjugation_pairs=36,
    )


def test_criterion_08_pinching():
    c = 4
    k_same = curvature.sectional_curvature(BASIS16[0], BASIS16[1], c)
    k_cross = curvature.sectional_curvature(BASIS16[0], BASIS16[8], c)
    rng = random.Random(108)
    planes = 0
    interval_ok = True
    while planes < 1000:
        v, w = rand_fraction_vector(rng), rand_fraction_vector(rng)
        try:
            k = curvature.sectional_curvature(v, w, c)
        except ValueError:
            continue
        planes += 1
        if not 1 <= k <= 4:
            interval_ok = False
    ok = k_same == 4 and k_cross == 1 and interval_ok
    _record(
        8,
        ok,
        planes=planes,
        lower=str(k_cross),
        upper=str(k_same),
        witnesses="e0^e8, e0^e1",
    )


def test_criterion_09_friedrich_identities():
    rng = random.Random(109)
    ok = all(
        friedrich_identities(rand_fraction_vector(rng), rand_fraction_vector(rng))
        for _ in range(100)
    )
    _record(9, ok, pairs=100)


def test_criterion_10_bpt_audit():
    t0 = time.perf_counter()
    defect = bpt_invariance_defect()
    census = len(s8_star())
    rng = random.Random(110)
    agree = True
    for _ in range(40):
        vs = [Vector16.basis(k) for k in rng.sample(range(16), 8)]
        if bpt_8form_full(vs) != bpt_8form_reduced(vs):
            agree = False
    for _ in range(10):
        vs = [
            Vector16.from_coords([rng.randint(-2, 2) for _ in range(16)])
            for _ in range(8)
        ]
        if bpt_8form_full(vs) != bpt_8form_reduced(vs):
            agree = False
    for _ in range(2):
        vs = [rand_fraction_vector(rng) for _ in range(8)]
        if bpt_8form_full(vs) != bpt_8form_reduced(vs):
            agree = False
    table = materialize_bpt_8form()
    for _ in range(25):
        idx = sorted(rng.sample(range(16), 8))
        if table.coefficient(tuple(idx)) != bpt_8form_reduced(
            [Vector16.basis(k) for k in idx]
        ):
            agree = False
    elapsed = time.perf_counter() - t0
    ok = (
        defect.terms == (63, -9, 9, 9, 9, 9, 9, 9)
        and defect.total == 108
        and census == 315
        and agree
        and elapsed < 30.0
    )
    _record(
        10,
        ok,
        bpt_defect=defect.total,
        defect_total=defect.total,
        t1=defect.terms[0],
        t2=defect.terms[1],
        census=census,
        time=f"{elapsed:.1f}s",
        budget="30s",
    )


def test_criterion_11_conjecture_resolution(capsys):
    verdicts = [conjecture_verdict() for _ in range(2)]
    outputs = []
    for _ in range(2):
        assert cli.main(["conjecture"]) == 0
        outputs.append(capsys.readouterr().out)
    ok = (
        all(v.equal and v.convention == "antisymmetric" for v in verdicts)
        and outputs[0] == outputs[1]
        and "conjecture: EQUAL (convention=antisymmetric)"
        in outputs[0].splitlines()
    )
    _record(
        11,
        ok,
        verdict="EQUAL" if verdicts[0].equal else "NOT-EQUAL",
        convention=verdicts[0].convention,
        reproducible=outputs[0] == outputs[1],
    )


def test_criterion_12_symplectic_oracle_anchor():
    oracle = sp4_oracle_dimension()
    solver = infinitesimal_stabilizer(symplectic_form_r4(), n=4)
    cert = sp4_certification()
    ok = oracle == 10 and solver.kernel_dimension == 10 and cert.passed
    _record(
        12,
        ok,
        oracle_dim=oracle,
        solver_dim=solver.kernel_dimension,
        certified=cert.passed,
    )
