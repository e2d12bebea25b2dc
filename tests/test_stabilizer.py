"""Kernel of A -> L_A form: certified solve, oracles, exclusion witnesses."""

import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    exact_terms,
    generator_image_oracle,
    int_echelon_oracle,
    lie_derivative_oracle,
    matmul_oracle,
    nullspace_oracle,
    rank,
    row_to_int,
    spy_dtypes,
    stabilizer_system_oracle,
)
from spin9 import stabilizer
from spin9.exterior import AlternatingForm, sign_characters
from spin9.linalg import INT64_LIMIT, int_echelon
from spin9.operators import (
    Operator16,
    build_involutions,
    clifford_product,
    commutator,
)
from spin9.stabilizer import (
    StabilizerResult,
    bracket_closure,
    decomposable_certification,
    decomposable_form_low,
    in_kernel_span,
    infinitesimal_stabilizer,
    lambda1_exclusion,
    lambda3_exclusion,
    operator_rows,
    sp4_certification,
    sp4_oracle_dimension,
    spans_involution_pairs,
    stabilizer_system,
    symplectic_form_r4,
)
from spin9.suites import RunConfig, run_suite

FAM = build_involutions()


def _single_entry(r, c, n=16):
    rows = [[0] * 16 for _ in range(16)]
    rows[r][c] = 1
    return Operator16(rows)


def _as_operator(row, n=16):
    """The operator on R^16 whose top-left n x n block holds the n*n
    entries of a kernel row, row by row, and is zero outside it."""
    rows = [[0] * 16 for _ in range(16)]
    for j, v in enumerate(row):
        rows[j // n][j % n] = v
    return Operator16(rows)


def _random_form(rng, degree, nterms=4, n=16, fractions=False):
    terms = {}
    for _ in range(nterms):
        idx = tuple(sorted(rng.sample(range(n), degree)))
        v = rng.randint(-3, 3)
        terms[idx] = Fraction(v, rng.randint(1, 4)) if fractions else v
    return AlternatingForm(degree, terms)


def _fraction_form():
    rng = random.Random(74)
    return AlternatingForm(3, {
        tuple(sorted(rng.sample(range(16), 3))):
            Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for _ in range(6)
    })


def _as_rows(blocks):
    """The blocks of `stabilizer_system` as dict rows {column: value}."""
    return [
        {u: v for u, v in zip(units.tolist(), row) if v}
        for units, rows in blocks
        for row in rows.tolist()
    ]


def _sorted_rows(rows):
    return sorted(sorted(row.items()) for row in rows)


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
        assert generator_image_oracle(f, r, c) == exact_terms(oracle)
        assert f.lie_derivative(unit) == oracle


def test_stabilizer_system_matches_the_per_unit_oracle(omega8):
    for form, n in (
        (omega8, 16),
        (decomposable_form_low(), 16),
        (symplectic_form_r4(), 4),
        (_fraction_form(), 16),
    ):
        blocks = stabilizer_system(form, n)
        oracle = stabilizer_system_oracle(form, n)
        # the same equations, with the coefficients cleared of the form's
        # common denominator d
        d = form.denominator
        assert _sorted_rows(_as_rows(blocks)) == _sorted_rows(
            {c: v * d for c, v in row.items()} for row in oracle
        )
        # every unit lies in exactly one block, and a block's units
        # increase, as do its first units from block to block
        units = [u.tolist() for u, _ in blocks]
        assert sorted(sum(units, [])) == list(range(n * n))
        assert all(u == sorted(u) for u in units)
        assert [u[0] for u in units] == sorted(u[0] for u in units)


def _oracle_solve(form, n):
    """(rows, rank, pivot columns, kernel basis) of the dict echelon oracle
    on the per-unit rows, the whole system at once."""
    rows = stabilizer_system_oracle(form, n)
    ech = int_echelon_oracle(row_to_int(r) for r in rows)
    kernel = nullspace_oracle([row for _, row in ech], n * n)
    return len(rows), len(ech), [c for c, _ in ech], kernel


def test_block_solve_matches_the_dict_echelon_oracle(omega8):
    rng = random.Random(75)
    cases = [
        (omega8, 16),
        (decomposable_form_low(), 16),
        (symplectic_form_r4(), 4),
        (_fraction_form(), 16),
    ]
    for k in range(20):
        n = rng.choice((5, 8, 12, 16))
        degree = rng.randint(1, min(n, 6))
        form = _random_form(rng, degree, rng.randint(1, 8), n, fractions=k % 3 == 0)
        if form:
            cases.append((form, n))
    assert len(cases) >= 24
    for form, n in cases:
        blocks = stabilizer_system(form, n)
        pivots = sorted(
            units[p]
            for units, rows in blocks
            for p in (int_echelon(rows) != 0).argmax(axis=1)
        )
        result = infinitesimal_stabilizer(form, n)
        nrows, oracle_rank, oracle_pivots, oracle_kernel = _oracle_solve(form, n)
        assert sum(len(rows) for _, rows in blocks) == nrows
        assert result.system_rank == oracle_rank == len(pivots)
        assert pivots == oracle_pivots
        # the same vectors, in the same order
        assert result.kernel.tolist() == oracle_kernel
    assert sum(len(rows) for _, rows in stabilizer_system(omega8, 16)) == 12030


def test_sign_blocks_of_the_eight_form(omega8):
    masks = list(omega8.numerators)
    generators, characters = sign_characters(masks, masks)
    assert len(generators) == 5 and not characters.any()
    # D is every sign mask that fixes each monomial, found by brute force
    signs = np.arange(1 << 16)
    moved = np.zeros(1 << 16, dtype=bool)
    for m in masks:
        moved |= np.bitwise_count(signs & m) % 2 == 1
    group = set(np.flatnonzero(~moved).tolist())
    spanned = {0}
    for g in generators:
        spanned |= {s ^ g for s in spanned}
    assert len(group) == 32 and spanned == group
    for g in generators:
        diag = [[0] * 16 for _ in range(16)]
        for i in range(16):
            diag[i][i] = -1 if g >> i & 1 else 1
        assert omega8.pullback(Operator16(diag)) == omega8

    blocks = stabilizer_system(omega8, 16)
    ranks = [len(int_echelon(rows)) for _, rows in blocks]
    assert [len(units) for units, _ in blocks] == [16] * 16
    assert sorted(16 - r for r in ranks) == [0] + [1] * 8 + [4] * 7
    assert sum(ranks) == 220
    sizes = sorted(len(u) for u, _ in stabilizer_system(decomposable_form_low(), 16))
    assert sizes == [2] * 120 + [16]


def test_eight_form_solve_stays_on_int64(omega8, monkeypatch):
    blocks = stabilizer_system(omega8, 16)
    assert {rows.dtype for _, rows in blocks} == {np.dtype(np.int64)}
    seen = spy_dtypes(monkeypatch)
    result = infinitesimal_stabilizer(omega8)
    assert bracket_closure(result, "closure").passed
    assert spans_involution_pairs(result) == (True, True)
    dtypes = seen.of("linalg")
    assert len(dtypes) > 100 and set(dtypes) == {np.dtype(np.int64)}


def test_huge_coefficients_solve_in_python_ints(monkeypatch):
    # a coefficient past 2**63 puts its system on Python ints from the
    # start; the kernel is the one of the scaled-down form, and its
    # echelon and closure read the same
    small = _random_form(random.Random(76), 3, 5)
    huge = small.scale(1 << 70)
    assert {r.dtype for _, r in stabilizer_system(huge, 16)} == {np.dtype(object)}
    seen = spy_dtypes(monkeypatch)
    a, b = infinitesimal_stabilizer(huge), infinitesimal_stabilizer(small)
    assert np.dtype(object) in seen.of("linalg")
    assert a.kernel.tolist() == b.kernel.tolist() and a.system_rank == b.system_rank
    assert a.echelon.tolist() == b.echelon.tolist()
    closures = [bracket_closure(r, "closure").lines() for r in (a, b)]
    assert closures[0] == closures[1]


def test_stabilizer_system_rows_are_lie_coefficients():
    rng = random.Random(72)
    f = _random_form(rng, 2, nterms=3)
    blocks = stabilizer_system(f, 16)
    # the column of unit E_rc holds the coefficients of L_{E_rc} f, one
    # per equation of the block, and nothing in the other blocks
    for units, rows in blocks:
        for j, u in enumerate(units.tolist()):
            image = f.lie_derivative(_single_entry(*divmod(u, 16)))
            column = [v for v in rows[:, j].tolist() if v]
            assert sorted(column) == sorted(image.numerators.values())
    # a random matrix A: the rows times A are the coefficients of L_A f
    a = [rng.randint(-3, 3) for _ in range(256)]
    values = [
        v for units, rows in blocks
        for v in (rows @ np.array(a)[units]).tolist() if v
    ]
    image = f.lie_derivative(Operator16.from_coords(a))
    assert sorted(values) == sorted(image.numerators.values())
    assert all(rows.any(axis=1).all() for _, rows in blocks)


def test_vec_operator_round_trip():
    rng = random.Random(73)
    vec = tuple(rng.randint(-3, 3) for _ in range(256))
    row = operator_rows([Operator16.from_coords(vec)], 16)
    assert row.tolist() == [list(vec)]
    # the public constructor still validates its entries
    with pytest.raises(ValueError):
        Operator16.from_coords((0.5,) + vec[1:])


def test_sp4_oracle_dimension():
    assert sp4_oracle_dimension() == 10


def test_sp4_certification_report():
    rep = sp4_certification()
    assert rep.passed
    ids = [c.check_id for c in rep.checks]
    assert "stabilizer.sp4.dimension" in ids
    assert "stabilizer.sp4.symplectic-condition" in ids
    assert "stabilizer.sp4.bracket-closure" in ids


def test_symplectic_kernel_matches_oracle():
    result = infinitesimal_stabilizer(symplectic_form_r4(), n=4)
    assert result.kernel_dimension == 10
    assert result.kernel_dimension == sp4_oracle_dimension()
    assert result.system_rank + result.kernel_dimension == 16


def test_operators_outside_the_block_are_rejected():
    # E_{5,9} acts outside R^4; keeping only the 4 x 4 block would
    # report it in the span of the sp(4) kernel
    result = infinitesimal_stabilizer(symplectic_form_r4(), n=4)
    first = _as_operator(result.kernel[0].tolist(), 4)
    with pytest.raises(ValueError, match="outside the 4 x 4 block"):
        in_kernel_span(result, [first, _single_entry(5, 9)])
    with pytest.raises(ValueError, match="outside the 4 x 4 block"):
        operator_rows([first + _single_entry(0, 4)], 4)
    assert in_kernel_span(result, [first])


def test_decomposable_form_kernel():
    rep = decomposable_certification()
    assert rep.passed
    result = infinitesimal_stabilizer(decomposable_form_low(), n=16)
    assert result.kernel_dimension == 191


def _doctor_kernels(monkeypatch, change):
    """Make every solve return its result with the kernel change(kernel),
    change taking a copy of the kernel and returning the doctored one."""
    solve = stabilizer.infinitesimal_stabilizer

    def doctored(form, n=16):
        result = solve(form, n)
        return dataclasses.replace(result, kernel=change(result.kernel.copy()))

    monkeypatch.setattr(stabilizer, "infinitesimal_stabilizer", doctored)


def test_symplectic_condition_fails_on_a_matrix_unit_row(monkeypatch):
    # the unit E_00 does not preserve dx0^dx1 + dx2^dx3; the count of ten
    # rows stays right, so only the condition itself can see it
    def unit(kernel):
        kernel[3] = 0
        kernel[3, 0] = 1
        return kernel

    _doctor_kernels(monkeypatch, unit)
    checks = {c.check_id: c.passed for c in sp4_certification().checks}
    assert checks["stabilizer.sp4.dimension"]
    assert not checks["stabilizer.sp4.symplectic-condition"]


@pytest.mark.parametrize("unit", [8, 0])
def test_block_structure_fails_on_a_doctored_row(monkeypatch, unit):
    # E_{0,8} lies outside the block triangle; E_00 leaves it inside but
    # puts 1 on the trace of the low block
    def add(kernel):
        kernel[5, unit] += 1
        return kernel

    _doctor_kernels(monkeypatch, add)
    checks = {c.check_id: c.passed for c in decomposable_certification().checks}
    assert checks["stabilizer.decomposable.dimension"]
    assert not checks["stabilizer.decomposable.block-structure"]


def test_kernel_lines_fail_when_a_pair_product_leaves_the_span(monkeypatch):
    # the stabilizer module reads a triple product in place of I_2 I_3:
    # it moves the 8-form, so it lies outside the certified kernel
    basis = stabilizer.lambda_basis

    def swapped(grade):
        ops = list(basis(grade))
        if grade == 2:
            ops[15] = clifford_product((0, 1, 2))
        return ops

    monkeypatch.setattr(stabilizer, "lambda_basis", swapped)
    lines = run_suite("stabilizer", RunConfig()).lines()
    assert (
        "stabilizer.kernel FAIL stabilizer_dim=36 system_rank=220 contains_spin9=False"
        in lines
    )
    assert "stabilizer.spin9-span FAIL" in lines


def test_certificate_rejects_a_perturbed_kernel_row(omega8, monkeypatch):
    # the first kernel vector of the first block that has one gains 1 in
    # its first unit before substitution
    solve = stabilizer.nullspace
    done = []

    def perturbed(rows):
        vecs = solve(rows)
        if vecs and not done:
            vecs[0][0] += 1
            done.append(True)
        return vecs

    monkeypatch.setattr(stabilizer, "nullspace", perturbed)
    with pytest.raises(AssertionError, match="kernel vector moves the form"):
        infinitesimal_stabilizer(omega8)
    assert done


def test_blocks_that_do_not_partition_the_units_are_rejected(monkeypatch):
    # E_01 leaves its block and block 0 takes a second copy of E_88: the
    # block sizes still sum to 256, and the solve would report dimension
    # 191 with a zero operator in its basis
    def broken(form, n):
        blocks = [(u.copy(), r.copy()) for u, r in stabilizer_system(form, n)]
        k = next(k for k, (u, _) in enumerate(blocks) if 1 in u.tolist())
        units, rows = blocks[k]
        blocks[k] = (units[units != 1], rows[:, units != 1])
        units, rows = blocks[0]
        j = units.tolist().index(8 * 16 + 8)
        blocks[0] = (np.append(units, units[j]), np.hstack((rows, rows[:, j:j + 1])))
        assert sum(len(u) for u, _ in blocks) == 256
        return blocks

    monkeypatch.setattr(stabilizer, "stabilizer_system", broken)
    with pytest.raises(AssertionError, match="partition"):
        infinitesimal_stabilizer(decomposable_form_low(), n=16)


def test_eight_form_kernel_certificate(omega8):
    result = infinitesimal_stabilizer(omega8)
    assert result.kernel_dimension == 36
    assert result.system_rank == 220
    assert result.system_rank + result.kernel_dimension == 256
    assert spans_involution_pairs(result)[0]
    # every kernel element annihilates the form, re-checked directly and
    # through the slotwise oracle
    for op in map(_as_operator, result.kernel.tolist()):
        assert not omega8.lie_derivative(op)
        assert not lie_derivative_oracle(omega8, op)


def test_certificate_takes_one_incidence_pass_per_block(omega8, monkeypatch):
    # the system takes the incidences of all 256 units in one pass and no
    # `lie_images` call; the certificate then takes one per block whose
    # kernel is not empty, 15 of Omega's 16, with that block's kernel rows
    images, incidences = stabilizer.lie_images, stabilizer.lie_incidences
    calls, passes = [], []

    def counted(table, rows, cols, vectors):
        assert table == omega8.numerators
        calls.append((len(rows), len(vectors)))
        return images(table, rows, cols, vectors)

    def passed(masks, rows, cols):
        assert masks == list(omega8.numerators)
        passes.append(len(rows))
        return incidences(masks, rows, cols)

    monkeypatch.setattr(stabilizer, "lie_images", counted)
    monkeypatch.setattr(stabilizer, "lie_incidences", passed)
    infinitesimal_stabilizer(omega8)
    assert passes == [256]
    assert sorted(calls) == [(16, 1)] * 8 + [(16, 4)] * 7


def test_truncated_system_fails_the_certificate(omega8, monkeypatch):
    # 6 equations per block, 96 in all, leave a kernel far larger than
    # spin(9); a kernel vector outside the stabilizer must stop the solve
    system = stabilizer.stabilizer_system
    monkeypatch.setattr(
        stabilizer,
        "stabilizer_system",
        lambda form, n: [(units, rows[:6]) for units, rows in system(form, n)],
    )
    with pytest.raises(AssertionError, match="kernel vector moves the form"):
        infinitesimal_stabilizer(omega8)


def test_eight_form_kernel_spans_pairs(omega8):
    result = infinitesimal_stabilizer(omega8)
    assert spans_involution_pairs(result) == (True, True)
    pairs = [clifford_product(pair) for pair in ((0, 1), (3, 8), (6, 7))]
    assert in_kernel_span(result, pairs)
    for op in pairs:
        assert in_kernel_span(result, [op])
    # one operator outside the span fails the whole batch
    for op in (FAM[0], clifford_product((0, 1, 2)), Operator16.identity()):
        assert not in_kernel_span(result, [op])
        assert not in_kernel_span(result, pairs + [op])


def test_eight_form_kernel_closes_under_bracket(omega8):
    rep = bracket_closure(infinitesimal_stabilizer(omega8), "closure")
    assert rep.passed


def test_bracket_closure_counts_the_pairs_that_leave_the_span():
    # [E_01, E_10] = E_00 - E_11 leaves span{E_01, E_10}; adding it closes
    # sl(2).  Scaled by 2**40 the batched product runs on Python ints.
    for scale in (1, 1 << 40):
        e, f = _single_entry(0, 1).scale(scale), _single_entry(1, 0).scale(scale)
        h = _single_entry(0, 0).scale(scale) - _single_entry(1, 1).scale(scale)
        for basis, pairs, failures in (((e, f), 1, 1), ((e, f, h), 3, 0)):
            result = StabilizerResult(operator_rows(basis), 0, 16)
            details = dict(bracket_closure(result, "closure").checks[0].details)
            assert (details["pairs"], details["failures"]) == (pairs, failures)


def test_bracket_closure_runs_on_python_ints_past_int64(monkeypatch):
    # scaled by 2**31, the certified sp(4) basis puts the commutator bound
    # 2 n max|A| max|B| past 2**63; its closure, and the one pair that
    # leaves the span once an element is dropped, read the same as unscaled
    result = infinitesimal_stabilizer(symplectic_form_r4(), n=4)
    seen = spy_dtypes(monkeypatch)
    for kernel, failures in ((result.kernel, 0), (result.kernel[1:], 1)):
        for scale in (1, 1 << 31):
            scaled = dataclasses.replace(result, kernel=kernel * scale)
            seen.clear()
            details = dict(bracket_closure(scaled, "closure").checks[0].details)
            (decision,) = [d for d in seen if d.module == "stabilizer"]
            assert (decision.bound >= INT64_LIMIT) == (scale > 1)
            assert decision.dtype == (object if scale > 1 else np.int64)
            pairs = len(kernel) * (len(kernel) - 1) // 2
            assert (details["pairs"], details["failures"]) == (pairs, failures)


def test_kernel_basis_products_match_dense_oracle(omega8):
    # the 630 commutators that bracket_closure forms, product by product
    basis = [_as_operator(row) for row in infinitesimal_stabilizer(omega8).kernel.tolist()]
    assert len(basis) == 36
    for a, b in itertools.combinations(basis, 2):
        assert a @ b == matmul_oracle(a, b)
        assert commutator(a, b) == matmul_oracle(a, b) - matmul_oracle(b, a)


def test_kernel_dimension_bounds_are_sharp(omega8):
    # the 36 pair products are independent solutions, so 36 is attained
    prods = [clifford_product((i, j)) for i in range(9) for j in range(i + 1, 9)]
    rows = operator_rows(prods)
    assert len(int_echelon(rows)) == 36
    assert rank([{c: v for c, v in enumerate(row) if v} for row in rows.tolist()]) == 36


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
