"""Named verification suites behind the command-line interface.

Each suite re-derives its module's central identities and anchor values
from scratch and reports one line per check.  Randomized checks draw
from a generator seeded by the run configuration, so a (seed, samples)
pair fixes every verdict.  The heavyweight exhaustive sweeps (all 4096
basis triples, the 72 rotation pullbacks) live in the acceptance tests;
the suites run the same checks at sampled sizes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import bpt, canonical, curvature, stabilizer
from .exterior import AlternatingForm
from .linalg import inner_product
from .octonion import Octonion, apply_matrix8, automorphism_from_triple
from .operators import (
    Operator16,
    RationalCirclePoint,
    Vector16,
    build_involutions,
    clifford_product,
    commutator,
    lambda_basis,
    rotation,
)
from .report import VerificationReport


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    samples: int = 25

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")


def _rand_octonion(rng: random.Random) -> Octonion:
    return Octonion([rng.randint(-9, 9) for _ in range(8)])


def _rand_vector(rng: random.Random) -> Vector16:
    return Vector16.from_coords([rng.randint(-9, 9) for _ in range(16)])


def verify_octonion(config: RunConfig) -> VerificationReport:
    report = VerificationReport()
    rng = config.rng("octonion")
    u = Octonion.unit

    report.add(
        "octonion.doubling-anchors",
        u(1) * u(2) == u(3)
        and u(1) * u(4) == u(5)
        and u(2) * u(4) == u(6)
        and u(3) * u(4) == u(7),
    )

    ok = all(
        (u(a) * u(a)) * u(b) == u(a) * (u(a) * u(b))
        and (u(a) * u(b)) * u(b) == u(a) * (u(b) * u(b))
        for a in range(8)
        for b in range(8)
    )
    report.add("octonion.alternative-laws", ok, pairs=64)

    ok = True
    for _ in range(config.samples):
        x, y = _rand_octonion(rng), _rand_octonion(rng)
        xy = x * y
        if inner_product(xy, xy) != inner_product(x, x) * inner_product(y, y):
            ok = False
        if xy.conj() != y.conj() * x.conj():
            ok = False
    report.add(
        "octonion.composition-law", ok, samples=config.samples
    )

    ok = all(
        (u(a) * u(b)) * (u(c) * u(a)) == u(a) * ((u(b) * u(c)) * u(a))
        for a in range(1, 8)
        for b in range(1, 8)
        for c in range(1, 8)
    )
    report.add("octonion.moufang-identity", ok, triples=343)

    phi = automorphism_from_triple((1, 2), (1, 1), (1, 4))
    report.add(
        "octonion.automorphism-example",
        apply_matrix8(phi, Octonion.unit(3)) == Octonion.unit(3, -1),
    )
    return report


def verify_operators(config: RunConfig) -> VerificationReport:
    report = VerificationReport()
    fam = build_involutions()
    ident = Operator16.identity()

    ok = all(
        fam[i] @ fam[i] == ident and fam[i].is_symmetric() for i in range(9)
    )
    anti = all(
        clifford_product((i, j)) == -(fam[j] @ fam[i])
        for i in range(9)
        for j in range(i + 1, 9)
    )
    report.add("operators.involution-family", ok and anti, pairs=36)

    sizes = tuple(len(lambda_basis(r)) for r in (1, 2, 3, 4))
    prod_rank = stabilizer.pair_product_rank()
    report.add(
        "operators.clifford-grading",
        sizes == (9, 36, 84, 126) and prod_rank == 36,
        sizes=sizes,
        pair_rank=prod_rank,
    )

    ok = all(
        sum(
            (fam[j] @ clifford_product((k, l)) @ fam[j] for j in range(9)),
            Operator16.zero(),
        )
        == clifford_product((k, l)).scale(5)
        for k in range(9)
        for l in range(k + 1, 9)
    )
    report.add("operators.averaging-conjugation", ok, pairs=36)

    rng = config.rng("operators")
    ok = True
    for _ in range(min(config.samples, 10)):
        # k outside both triples, so both products lie in the degree-4 part
        k = rng.randrange(9)
        others = [i for i in range(9) if i != k]
        abc = tuple(sorted(rng.sample(others, 3)))
        defs = tuple(sorted(rng.sample(others, 3)))
        lhs = commutator(
            fam[k] @ clifford_product(abc),
            fam[k] @ clifford_product(defs),
        )
        rhs = -commutator(clifford_product(abc), clifford_product(defs))
        ok = ok and lhs == rhs
    report.add("operators.conjugated-commutators", ok)

    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    r = rotation(0, 1, p)
    report.add(
        "operators.rotation-orthogonal",
        r.transpose() @ r == ident and r.det() == 1,
    )
    return report


def verify_exterior(config: RunConfig) -> VerificationReport:
    report = VerificationReport()
    rng = config.rng("exterior")

    a = AlternatingForm.monomial((0, 1))
    b = AlternatingForm.monomial((2, 3))
    anchor = a.wedge(b) == AlternatingForm.monomial((0, 1, 2, 3))
    swap = AlternatingForm.monomial((1,)).wedge(
        AlternatingForm.monomial((0,))
    ) == AlternatingForm.monomial((0, 1), -1)
    report.add("exterior.wedge-conventions", anchor and swap)

    ok = True
    for _ in range(config.samples):
        deg_a, deg_b = rng.choice(((1, 2), (2, 2), (2, 3), (1, 3)))
        fa = _random_form(rng, deg_a)
        fb = _random_form(rng, deg_b)
        sign = -1 if (deg_a * deg_b) % 2 else 1
        if fa.wedge(fb) != fb.wedge(fa).scale(sign):
            ok = False
    report.add("exterior.graded-commutativity", ok, samples=config.samples)

    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    r01 = rotation(0, 1, p)
    c, s = p.c, p.s
    w02, w12 = canonical.omega2(0, 2), canonical.omega2(1, 2)
    report.add(
        "exterior.rotation-on-two-form",
        w02.pullback(r01) == w02.scale(c * c - s * s) + w12.scale(2 * c * s),
    )
    report.add(
        "exterior.derivative-of-rotation",
        w02.lie_derivative(clifford_product((0, 1)))
        == w12.scale(2),
    )

    q = RationalCirclePoint(Fraction(5, 13), Fraction(12, 13))
    r25 = rotation(2, 5, q)
    ok = True
    for _ in range(min(config.samples, 6)):
        form = _random_form(rng, 3)
        if form.pullback(r01 @ r25) != form.pullback(r25).pullback(r01):
            ok = False
    report.add("exterior.pullback-functoriality", ok)

    ok = True
    basis = [Vector16.basis(k) for k in range(16)]
    for _ in range(min(config.samples, 4)):
        form = _random_form(rng, 2)
        pulled = form.pullback(r01)
        for t in itertools.combinations(range(16), 2):
            if pulled.coefficient(t) != form.evaluate(
                [r01.apply(basis[t[0]]), r01.apply(basis[t[1]])]
            ):
                ok = False
    report.add("exterior.pullback-definitional", ok)
    return report


def _random_form(rng: random.Random, degree: int) -> AlternatingForm:
    terms = {}
    for _ in range(4):
        idx = tuple(sorted(rng.sample(range(16), degree)))
        terms[idx] = rng.randint(-5, 5)
    return AlternatingForm(degree, terms)


def verify_canonical(config: RunConfig) -> VerificationReport:
    report = VerificationReport()
    rng = config.rng("canonical")
    omega = canonical.canonical_8form()
    frame = [Vector16.basis(k) for k in range(8)]

    value = omega.evaluate(frame)
    count = omega.term_count()
    report.add(
        "canonical.eight-form",
        value == -20160 and count == 702,
        omega8_eval=value,
        omega8_terms=count,
    )

    report.add(
        "canonical.grouped-rebuild",
        canonical.canonical_8form_alt() == omega,
    )

    anchors = (
        canonical.w_tilde(*(Octonion.unit(k) for k in (0, 0, 1, 1))),
        canonical.w_tilde(*(Octonion.unit(k) for k in (0, 0, 1, 2))),
        canonical.w_tilde(*(Octonion.unit(k) for k in (0, 1, 2, 3))),
        canonical.w_tilde(*(Octonion.unit(k) for k in (0, 1, 2, 4))),
    )
    report.add(
        "canonical.averaged-coefficients",
        anchors == (-24, -8, -8, -8),
        w0011=anchors[0],
        w0012=anchors[1],
        w0123=anchors[2],
        w0124=anchors[3],
    )

    report.add(
        "canonical.vanishing-squares",
        not canonical.four_form_omega_sum()
        and not canonical.four_form_sigma_sum(),
    )

    ok = all(not omega.lie_derivative(p) for p in lambda_basis(2))
    report.add("canonical.infinitesimal-invariance", ok, pairs=36)

    p1 = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    p2 = RationalCirclePoint(Fraction(5, 13), Fraction(12, 13))
    ok = all(
        canonical.rotation_fixes(omega, k, l, pt)
        for (k, l) in ((0, 1), (7, 8))
        for pt in (p1, p2)
    )
    report.add("canonical.rotation-invariance", ok, planes=2, points=2)

    ok = all(
        canonical.sigma2(i, j, 8).restrict_low()
        == (-canonical.omega2(i, j)).restrict_low()
        for i in range(8)
        for j in range(i + 1, 8)
    ) and all(not canonical.omega2(i, 8).restrict_low() for i in range(8))
    report.add("canonical.block-restrictions", ok)

    ok = True
    for _ in range(config.samples):
        x, y, z, w = (_rand_vector(rng) for _ in range(4))
        residual = canonical.bianchi_cyclic_residual(x, y, z)
        # the paired four-vector statement, then the stronger vector form
        if inner_product(residual, w) != 0 or residual:
            ok = False
    report.add("canonical.cyclic-two-form-sum", ok, samples=config.samples)

    ok = True
    for _ in range(min(config.samples, 10)):
        x, y = _rand_vector(rng), _rand_vector(rng)
        if not canonical.friedrich_identities(x, y):
            ok = False
    report.add("canonical.friedrich-identities", ok)

    m = canonical.givens9(0, 4, p1)
    report.add("canonical.frame-independence", canonical.frame_change_fixes(m))

    verdict = canonical.conjecture_verdict()
    report.add(
        "canonical.conjecture",
        verdict.equal and verdict.convention == "antisymmetric",
        verdict="EQUAL" if verdict.equal else "NOT-EQUAL",
        convention=verdict.convention,
    )
    return report


def verify_curvature(config: RunConfig) -> VerificationReport:
    report = VerificationReport()
    rng = config.rng("curvature")
    basis = [Vector16.basis(k) for k in range(16)]
    c = 4

    omega, *others = (
        curvature.curvature_omega,
        curvature.curvature_brown_gray,
        curvature.curvature_prime_operator,
        curvature.curvature_prime_octonion,
    )
    ok = True
    for _ in range(config.samples):
        x, y, z = (_rand_vector(rng) for _ in range(3))
        ref = omega(x, y, z, c)
        ok &= all(f(x, y, z, c) == ref for f in others)
    report.add("curvature.four-expressions", ok, samples=config.samples)

    e0, s_op, s_oct = basis[0], curvature.s_prime_operator, curvature.s_prime_octonion
    op_val, oct_val = s_op(e0, e0, e0, c), s_oct(e0, e0, e0, c)
    sym_ok = True
    for _ in range(min(config.samples, 10)):
        x, y, z = (_rand_vector(rng) for _ in range(3))
        dxy = s_op(x, y, z, c) - s_oct(x, y, z, c)
        sym_ok &= dxy == s_op(y, x, z, c) - s_oct(y, x, z, c)
    report.add(
        "curvature.potential-variants",
        op_val == e0.scale(-4) and oct_val == e0.scale(-2) and sym_ok,
        termwise_equal=False,
        difference_symmetric=sym_ok,
    )

    ok = True
    for _ in range(min(config.samples, 10)):
        x, y, z = (_rand_vector(rng) for _ in range(3))
        if not curvature.averaging_identity(x, y, z, c).passed:
            ok = False
    report.add("curvature.averaging", ok)

    ok, entry = True, curvature.curvature_entry
    for _ in range(config.samples):
        x, y, z, w = (_rand_vector(rng) for _ in range(4))
        ok &= not omega(x, y, z, c) + omega(y, z, x, c) + omega(z, x, y, c)
        ok &= entry(x, y, z, w, c) == entry(z, w, x, y, c)
    report.add("curvature.bianchi-and-pair-symmetry", ok)

    # every pair {i, j} shares exactly one index with some plane (0, k), so
    # I_0 I_k anticommutes with I_i I_j: a wrong sign on any one omega_ij
    # term breaks equivariance in that plane
    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    x, y, z = (_rand_vector(rng) for _ in range(3))
    r = omega(x, y, z, c)
    report.add(
        "curvature.rotation-equivariance",
        all(
            omega(a.apply(x), a.apply(y), a.apply(z), c) == a.apply(r)
            for a in (rotation(0, k, p) for k in range(1, 9))
        ),
    )

    report.add(
        "curvature.scale-linearity",
        curvature.curvature_omega(x, y, z, 8)
        == curvature.curvature_omega(x, y, z, 4).scale(2),
    )

    counts = [
        sum(v * v for v in curvature.clifford_coefficients(2, basis[0], basis[m]))
        for m in range(1, 16)
    ]
    report.add(
        "curvature.plane-multiplicities",
        counts == [4] * 7 + [1] * 8,
        same_block=4,
        cross_block=1,
    )

    k_cross = curvature.sectional_curvature(basis[0], basis[8], c)
    k_same = curvature.sectional_curvature(basis[0], basis[1], c)
    ok = k_cross == 1 and k_same == 4
    for _ in range(config.samples):
        v, w = _rand_vector(rng), _rand_vector(rng)
        try:
            k = curvature.sectional_curvature(v, w, c)
        except ValueError:
            continue
        if not 1 <= k <= 4:
            ok = False
    report.add(
        "curvature.pinching",
        ok,
        lower=str(k_cross),
        upper=str(k_same),
        samples=config.samples,
    )
    return report


def verify_stabilizer(config: RunConfig) -> VerificationReport:
    report = VerificationReport()
    report.extend(stabilizer.sp4_certification())
    report.extend(stabilizer.decomposable_certification())

    omega = canonical.canonical_8form()
    result = stabilizer.infinitesimal_stabilizer(omega)
    contained, spans = stabilizer.spans_involution_pairs(result)
    report.add(
        "stabilizer.kernel",
        result.kernel_dimension == 36 and result.system_rank == 220 and contained,
        stabilizer_dim=result.kernel_dimension,
        system_rank=result.system_rank,
        contains_spin9=contained,
    )
    report.add("stabilizer.spin9-span", spans)
    report.extend(stabilizer.bracket_closure(result, "stabilizer.bracket-closure"))
    report.extend(stabilizer.lambda1_exclusion(omega))
    report.extend(stabilizer.lambda3_exclusion(omega))
    return report


def verify_bpt(config: RunConfig) -> VerificationReport:
    report = VerificationReport()
    rng = config.rng("bpt")

    # the 2^7 pair symmetries act freely on S_8, so 8!/2^7 = 315 distinct
    # permutations that meet the seven defining inequalities are all of S*_8
    reps = [perm for perm, _ in bpt.s8_star()]
    report.add(
        "bpt.representative-census",
        len(set(reps)) == len(reps) == 315 and all(
            sorted(p) == [*range(8)] and p[0] < p[1] and p[2] < p[3]
            and p[4] < p[5] and p[6] < p[7] and p[0] < p[2] and p[4] < p[6]
            and p[0] < p[4] for p in reps
        ),
        count=len(reps),
    )

    defect = bpt.bpt_invariance_defect()
    report.add(
        "bpt.defect",
        defect.terms == (63, -9, 9, 9, 9, 9, 9, 9) and defect.total == 108,
        bpt_defect=defect.total,
        defect_total=defect.total,
        t1=defect.terms[0],
        t2=defect.terms[1],
    )

    form = bpt.materialize_bpt_8form()
    report.add(
        "bpt.materialized-form",
        bool(form) and form.term_count() == 870,
        terms=form.term_count(),
    )

    ok = True
    for _ in range(min(config.samples, 20)):
        vs = [_rand_vector(rng) for _ in range(8)]
        full = bpt.bpt_8form_full(vs)
        if full != bpt.bpt_8form_reduced(vs) or full != form.evaluate(vs):
            ok = False
    report.add("bpt.full-vs-reduced", ok, samples=min(config.samples, 20))

    report.extend(bpt.bpt_square_check())
    report.extend(bpt.head_to_head(canonical.canonical_8form()))
    return report


_SUITES = {
    "octonion": verify_octonion,
    "operators": verify_operators,
    "exterior": verify_exterior,
    "canonical": verify_canonical,
    "curvature": verify_curvature,
    "stabilizer": verify_stabilizer,
    "bpt": verify_bpt,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, config: RunConfig) -> VerificationReport:
    if name == "all":
        report = VerificationReport()
        for suite in SUITE_NAMES:
            report.extend(_SUITES[suite](config))
        return report
    return _SUITES[name](config)
