"""Kernel of A -> L_A form: certified solve, oracles, exclusion witnesses."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    generator_image_oracle,
    lie_derivative_oracle,
    matmul_oracle,
    stabilizer_system_oracle,
)
from spin9 import stabilizer
from spin9.exterior import AlternatingForm
from spin9.linalg import int_echelon, rank, row_to_int
from spin9.operators import (
    Operator16,
    build_involutions,
    clifford_product,
    commutator,
)
from spin9.stabilizer import (
    bracket_closure,
    decomposable_certification,
    decomposable_form_low,
    in_kernel_span,
    infinitesimal_stabilizer,
    lambda1_exclusion,
    lambda3_exclusion,
    sp4_certification,
    sp4_oracle_dimension,
    spans_involution_pairs,
    stabilizer_system,
    symplectic_form_r4,
    operator_row,
    vec_to_operator,
)

FAM = build_involutions()


def _single_entry(r, c, n=16):
    rows = [[0] * 16 for _ in range(16)]
    rows[r][c] = 1
    return Operator16(rows)


def _random_form(rng, degree, nterms=4):
    terms = {}
    for _ in range(nterms):
        idx = tuple(sorted(rng.sample(range(16), degree)))
        terms[idx] = rng.randint(-3, 3)
    return AlternatingForm(degree, terms)


def test_generator_image_matches_lie_derivative(omega8):
    # the per-unit dict loop, the slotwise loop and the incidence kernel
    # agree on every matrix unit
    rng = random.Random(71)
    forms = [_random_form(rng, degree) for degree in (2, 3, 4) for _ in range(8)]
    cases = [(f, rng.randrange(16), rng.randrange(16)) for f in forms]
    cases += [(omega8, r, c) for r in range(16) for c in range(16)]
    for f, r, c in cases:
        unit = _single_entry(r, c)
        oracle = lie_derivative_oracle(f, unit)
        assert generator_image_oracle(f, r, c) == oracle._terms
        assert f.lie_derivative(unit) == oracle


def test_stabilizer_system_matches_the_per_unit_oracle(omega8):
    rng = random.Random(74)
    fraction_form = AlternatingForm(3, {
        tuple(sorted(rng.sample(range(16), 3))):
            Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for _ in range(6)
    })
    for form, n in (
        (omega8, 16),
        (decomposable_form_low(), 16),
        (symplectic_form_r4(), 4),
        (fraction_form, 16),
    ):
        rows = stabilizer_system(form, n)
        oracle = stabilizer_system_oracle(form, n)
        # equal rows with the same column order, in the same row order
        assert [list(r.items()) for r in rows] == [
            list(r.items()) for r in oracle
        ]


def test_distinct_rows_leave_the_echelon_unchanged(omega8):
    for form, n, kept in (
        (omega8, 16, 5982),
        (decomposable_form_low(), 16, None),
        (symplectic_form_r4(), 4, None),
    ):
        rows = stabilizer_system(form, n)
        distinct = stabilizer._distinct_rows(rows)
        assert int_echelon(distinct) == int_echelon(row_to_int(r) for r in rows)
        if kept is not None:
            assert (len(rows), len(distinct)) == (12030, kept)
    # rows compare as primitive integer rows: a row equal to an earlier
    # one up to sign or scale goes, one that differs in a single sign stays
    assert stabilizer._distinct_rows(
        [{0: 1, 3: -2}, {0: -1, 3: 2}, {0: 2, 3: -4}, {0: Fraction(1, 2), 3: 1}]
    ) == [{0: 1, 3: -2}, {0: 1, 3: 2}]


def test_stabilizer_system_rows_are_lie_coefficients():
    rng = random.Random(72)
    f = _random_form(rng, 2, nterms=3)
    rows = stabilizer_system(f, 16)
    # every equation must kill the corresponding monomial of L_A f for
    # the generators that appear in it
    ops = {}
    for row in rows[:20]:
        for col, coeff in row.items():
            r, c = divmod(col, 16)
            if (r, c) not in ops:
                ops[(r, c)] = f.lie_derivative(_single_entry(r, c))
    for row in rows[:20]:
        assert row


def test_vec_operator_round_trip():
    rng = random.Random(73)
    vec = tuple(rng.randint(-3, 3) for _ in range(256))
    # the entries include +-1, so the gcd scaling of the row is 1
    row = operator_row(vec_to_operator(vec, 16), 16)
    assert row == {i: v for i, v in enumerate(vec) if v}


def test_sp4_oracle_dimension():
    assert sp4_oracle_dimension() == 10


def test_sp4_certification_report():
    rep = sp4_certification()
    assert rep.passed
    ids = [c.check_id for c in rep.checks]
    assert "stabilizer.sp4.dimension" in ids
    assert "stabilizer.sp4.symplectic-condition" in ids


def test_symplectic_kernel_matches_oracle():
    result = infinitesimal_stabilizer(symplectic_form_r4(), n=4)
    assert result.kernel_dimension == 10
    assert result.kernel_dimension == sp4_oracle_dimension()
    assert result.system_rank + result.kernel_dimension == 16


def test_operators_outside_the_block_are_rejected():
    # E_{5,9} acts outside R^4; keeping only the 4 x 4 block would
    # report it in the span of the sp(4) kernel
    result = infinitesimal_stabilizer(symplectic_form_r4(), n=4)
    with pytest.raises(ValueError, match="outside the 4 x 4 block"):
        in_kernel_span(result, _single_entry(5, 9))
    with pytest.raises(ValueError, match="outside the 4 x 4 block"):
        operator_row(result.kernel_basis[0] + _single_entry(0, 4), 4)
    assert in_kernel_span(result, result.kernel_basis[0])


def test_decomposable_form_kernel():
    rep = decomposable_certification()
    assert rep.passed
    result = infinitesimal_stabilizer(decomposable_form_low(), n=16)
    assert result.kernel_dimension == 191


def test_eight_form_kernel_certificate(omega8):
    result = infinitesimal_stabilizer(omega8)
    assert result.kernel_dimension == 36
    assert result.system_rank == 220
    assert result.system_rank + result.kernel_dimension == 256
    assert result.contains_spin9
    # every kernel element annihilates the form, re-checked directly and
    # through the slotwise oracle
    for op in result.kernel_basis:
        assert not omega8.lie_derivative(op)
        assert not lie_derivative_oracle(omega8, op)


def test_truncated_system_fails_the_certificate(omega8, monkeypatch):
    # 100 of the equations leave a kernel far larger than spin(9); a
    # kernel vector outside the stabilizer must stop the solve
    system = stabilizer.stabilizer_system
    monkeypatch.setattr(
        stabilizer,
        "stabilizer_system",
        lambda form, n: system(form, n)[:100],
    )
    with pytest.raises(AssertionError, match="kernel vector moves the form"):
        infinitesimal_stabilizer(omega8)


def test_eight_form_kernel_spans_pairs(omega8):
    result = infinitesimal_stabilizer(omega8)
    assert spans_involution_pairs(result)
    for pair in ((0, 1), (3, 8), (6, 7)):
        op = clifford_product(pair)
        assert in_kernel_span(result, op)
    assert not in_kernel_span(result, FAM[0])
    assert not in_kernel_span(result, clifford_product((0, 1, 2)))
    assert not in_kernel_span(result, Operator16.identity())


def test_eight_form_kernel_closes_under_bracket(omega8):
    rep = bracket_closure(infinitesimal_stabilizer(omega8))
    assert rep.passed


def test_kernel_basis_products_match_dense_oracle(omega8):
    # the 630 commutators that bracket_closure forms, product by product
    basis = infinitesimal_stabilizer(omega8).kernel_basis
    assert len(basis) == 36
    for a, b in itertools.combinations(basis, 2):
        assert a @ b == matmul_oracle(a, b)
        assert commutator(a, b) == matmul_oracle(a, b) - matmul_oracle(b, a)


def test_kernel_dimension_bounds_are_sharp(omega8):
    # the 36 pair products are independent solutions, so 36 is attained
    rows = [
        operator_row(clifford_product((i, j)), 16)
        for i in range(9)
        for j in range(i + 1, 9)
    ]
    assert rank(rows) == 36


def test_lambda1_exclusion_witnesses(omega8):
    rep = lambda1_exclusion(omega8)
    assert rep.passed
    details = {c.check_id: dict(c.details) for c in rep.checks}
    scaling = details["stabilizer.lambda1.boost-scaling"]
    assert Fraction(scaling["factor"]) == Fraction(1, 256)


def test_lambda3_exclusion_witnesses(omega8):
    rep = lambda3_exclusion(omega8)
    assert rep.passed


def test_identity_scaling_excludes_lambda0(omega8):
    assert omega8.lie_derivative(Operator16.identity()) == omega8.scale(8)


def test_input_validation():
    with pytest.raises(ValueError):
        infinitesimal_stabilizer(symplectic_form_r4(), n=0)
    with pytest.raises(ValueError):
        infinitesimal_stabilizer(symplectic_form_r4(), n=17)
    with pytest.raises(ValueError):
        # degree exceeds the ambient dimension
        infinitesimal_stabilizer(AlternatingForm(3, {(0, 1, 2): 1}), n=2)
