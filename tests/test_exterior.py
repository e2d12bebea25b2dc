"""Alternating forms: conventions, wedge, pullback, Lie derivative."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    _wedge_dicts,
    _wedge_dicts_into,
    det_oracle,
    evaluate_oracle,
    exact_terms,
    lie_derivative_oracle,
    np_tables_oracle,
    pullback_oracle,
    rand_fraction_vector,
    rand_vector,
    spy_dtypes,
    spy_plans,
    square_groups,
    squares_oracle,
)
from spin9 import exterior
from spin9.bpt import materialize_bpt_8form
from spin9.canonical import omega2
from spin9.exterior import (
    AlternatingForm,
    _expand_grids,
    _wedge_plan,
    evaluate_table,
    lie_images,
    lie_incidences,
    perm_sign,
    pullback_table,
    two_form_from_operator,
    wedge_sum,
)
from spin9.linalg import INT64_LIMIT, LIMBS, inner_product
from spin9.octonion import Octonion
from spin9.operators import (
    Operator16,
    RationalCirclePoint,
    Vector16,
    boost8,
    build_involutions,
    clifford_product,
    lambda_basis,
    rotation,
)
from spin9.stabilizer import operator_rows

FAM = build_involutions()


def _random_form(rng, degree, nterms=5, span=4):
    terms = {}
    for _ in range(nterms):
        idx = tuple(sorted(rng.sample(range(16), degree)))
        terms[idx] = rng.randint(-span, span)
    return AlternatingForm(degree, terms)


def _random_operator(rng, density=0.25, span=2):
    rows = [[rng.randint(-span, span) if rng.random() < density else 0
             for _ in range(16)] for _ in range(16)]
    for k in range(16):
        rows[k][k] = rng.randint(-span, span)
    return Operator16(rows)


def test_determinant_evaluation_convention():
    f = AlternatingForm(2, {(0, 1): 1})
    e0, e1 = Vector16.basis(0), Vector16.basis(1)
    assert f.evaluate([e0, e1]) == 1
    assert f.evaluate([e1, e0]) == -1
    assert f.evaluate([e0, e0]) == 0
    g = AlternatingForm(2, {(2, 3): 1})
    prod = f.wedge(g)
    assert prod.coefficient((0, 1, 2, 3)) == 1
    assert prod.evaluate([Vector16.basis(k) for k in (0, 1, 2, 3)]) == 1


def test_parity_tables_match_the_suffix_sum_construction():
    # bit folding against per-bit suffix sums, on all 2^16 masks
    p16, poppar = exterior._np_tables()
    q16, qpar = np_tables_oracle()
    assert p16.dtype == poppar.dtype == np.int64
    assert np.array_equal(p16, q16) and np.array_equal(poppar, qpar)


def test_monomial_sorting_sign():
    assert AlternatingForm.monomial((1, 0)) == AlternatingForm(2, {(0, 1): -1})
    assert AlternatingForm.monomial((2, 0, 1)) == AlternatingForm(
        3, {(0, 1, 2): 1}
    )
    assert not AlternatingForm.monomial((3, 3))


def test_perm_sign_matches_inversion_count_on_s5():
    for perm in permutations(range(5)):
        inversions = 0
        for a in range(5):
            for b in range(a + 1, 5):
                if perm[a] > perm[b]:
                    inversions += 1
        assert perm_sign(perm) == (-1) ** inversions
        # only the relative order counts, not the values
        assert perm_sign([3 * v + 7 for v in perm]) == perm_sign(perm)
    assert perm_sign(()) == perm_sign((4,)) == 1


def test_inexact_coefficients_and_scalars_rejected():
    with pytest.raises(ValueError):
        AlternatingForm(2, {(0, 1): 0.1})
    with pytest.raises(ValueError):
        AlternatingForm(2, {(0, 1): 1, (2, 3): 0.0})
    with pytest.raises(ValueError):
        AlternatingForm(1, {(4,): np.float64(2)})
    form = AlternatingForm(2, {(0, 1): Fraction(1, 3), (2, 3): 2})
    for t in (0.5, 0.0, 3.0, "2"):
        with pytest.raises(ValueError):
            form.scale(t)
    assert form.scale(Fraction(3, 2)) == AlternatingForm(
        2, {(0, 1): Fraction(1, 2), (2, 3): 3}
    )
    assert form.scale(0) == AlternatingForm.zero(2)
    # the internal constructor stays unchecked
    assert AlternatingForm._raw(2, {3: 0.5}).term_count() == 1


def test_degree_and_index_validation():
    with pytest.raises(ValueError):
        AlternatingForm(17, {})
    with pytest.raises(ValueError):
        AlternatingForm(2, {(0, 1, 2): 1})
    with pytest.raises(ValueError):
        AlternatingForm(2, {(0, 16): 1})
    with pytest.raises(ValueError):
        AlternatingForm(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        AlternatingForm(2, {(3, 1): 1})


def test_a_monomial_named_twice_is_rejected():
    # an int key and a one-tuple name the same monomial of a one-form
    with pytest.raises(ValueError):
        AlternatingForm(1, {1: 1, (1,): 2})
    assert AlternatingForm(1, {1: 1, (2,): 2}).term_count() == 2


def test_coefficient_takes_exactly_degree_indices():
    w = omega2(0, 1)
    for idx in ((0, 1, 2), (8,), ()):
        with pytest.raises(ValueError):
            w.coefficient(idx)
    idx, v = w.items()[0]
    assert w.coefficient(list(idx)) == v
    assert AlternatingForm.zero(0).coefficient(()) == 0


def test_wedge_graded_commutativity():
    rng = random.Random(41)
    for p, q in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        a = _random_form(rng, p)
        b = _random_form(rng, q)
        sign = -1 if (p * q) % 2 else 1
        assert a.wedge(b) == b.wedge(a).scale(sign)


def test_wedge_associativity_and_bilinearity():
    rng = random.Random(42)
    a, b, c = (_random_form(rng, d) for d in (2, 2, 3))
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
    assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)
    assert a.scale(3).wedge(c) == a.wedge(c).scale(3)


def _random_fraction_form(rng, degree, nterms=5):
    terms = {}
    for _ in range(nterms):
        idx = tuple(sorted(rng.sample(range(16), degree)))
        terms[idx] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return AlternatingForm(degree, terms)


def test_wedge_matches_dict_oracle_on_fraction_coefficients():
    rng = random.Random(50)
    for p, q in ((0, 0), (0, 3), (1, 1), (2, 2), (3, 4), (4, 4)):
        for _ in range(4):
            a = _random_fraction_form(rng, p, nterms=6)
            b = _random_fraction_form(rng, q, nterms=6)
            got = exact_terms(a.wedge(b))
            assert got == _wedge_dicts(exact_terms(a), exact_terms(b))
    # whole quotients come back as plain ints
    half = AlternatingForm(1, {(0,): Fraction(1, 2)})
    two = AlternatingForm(1, {(1,): Fraction(4, 3), (2,): 6})
    got = half.wedge(two)
    assert got == AlternatingForm(2, {(0, 1): Fraction(2, 3), (0, 2): 3})
    assert type(got.coefficient((0, 2))) is int


def test_wedge_with_degree_zero_forms():
    rng = random.Random(51)
    c = AlternatingForm(0, {(): Fraction(-3, 7)})
    f = _random_fraction_form(rng, 3)
    assert c.wedge(f) == f.wedge(c) == f.scale(Fraction(-3, 7))
    assert exact_terms(c.wedge(f)) == _wedge_dicts(exact_terms(c), exact_terms(f))
    assert c.wedge(c) == AlternatingForm(0, {(): Fraction(9, 49)})
    assert not AlternatingForm.zero(0).wedge(f)
    assert f.wedge(AlternatingForm.zero(2)) == AlternatingForm.zero(5)


def test_evaluate_multilinear_antisymmetric():
    rng = random.Random(43)
    f = _random_form(rng, 3)
    x, y, z, w = (rand_vector(rng) for _ in range(4))
    assert f.evaluate([x + w, y, z]) == f.evaluate([x, y, z]) + f.evaluate(
        [w, y, z]
    )
    assert f.evaluate([x, y, z]) == -f.evaluate([y, x, z])
    assert f.evaluate([x, x, z]) == 0


def test_evaluate_matches_oracle_on_the_eight_forms(omega8):
    # integer entries in -9..9 as in the verify suites: the int64 path
    rng = random.Random(70)
    for form in (materialize_bpt_8form(), omega8):
        for _ in range(2):
            vs = [rand_vector(rng, span=9) for _ in range(8)]
            value = form.evaluate(vs)
            assert type(value) is int
            assert value == evaluate_oracle(form, vs)
    vs = [rand_fraction_vector(rng) for _ in range(8)]
    assert omega8.evaluate(vs) == evaluate_oracle(omega8, vs)


def test_evaluate_fraction_coefficients_and_vectors():
    rng = random.Random(71)
    for degree in (2, 3, 5):
        form = AlternatingForm(degree, {
            tuple(sorted(rng.sample(range(16), degree))):
                Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            for _ in range(6)
        })
        for _ in range(3):
            vs = [rand_fraction_vector(rng) for _ in range(degree)]
            assert form.evaluate(vs) == evaluate_oracle(form, vs)
    half = AlternatingForm(2, {(0, 1): Fraction(1, 2)})
    e0, e1 = Vector16.basis(0), Vector16.basis(1)
    whole = half.evaluate([e0, e1.scale(2)])
    assert whole == 1 and type(whole) is int
    assert half.evaluate([e0.scale(Fraction(1, 3)), e1]) == Fraction(1, 6)


def test_evaluate_vanishes_on_dependent_vectors(omega8):
    rng = random.Random(72)
    vs = [rand_vector(rng, span=9) for _ in range(8)]
    assert omega8.evaluate(vs) != 0
    assert omega8.evaluate(vs[:7] + [vs[2]]) == 0
    combo = vs[0].scale(3) - vs[5] + vs[6].scale(Fraction(1, 2))
    assert omega8.evaluate(vs[:7] + [combo]) == 0
    assert omega8.evaluate(vs[:7] + [Vector16.basis(0).scale(0)]) == 0


def test_evaluate_degrees_zero_and_one():
    assert AlternatingForm(0, {(): 5}).evaluate([]) == 5
    assert AlternatingForm(0, {(): Fraction(5, 2)}).evaluate([]) == Fraction(5, 2)
    assert AlternatingForm.zero(0).evaluate([]) == 0
    flat = AlternatingForm(1, {(3,): 2, (7,): Fraction(1, 3)})
    v = Vector16.from_coords([Fraction(k, 4) for k in range(16)])
    assert flat.evaluate([v]) == 2 * Fraction(3, 4) + Fraction(7, 12)
    assert AlternatingForm.zero(1).evaluate([v]) == 0


def test_evaluate_runs_on_python_ints_for_large_entries(monkeypatch):
    # entries near 10**6 push the bound far past 2**63, and the 4-column
    # minors of the inner levels past it too: the whole recursion runs
    # once, on Python ints
    rng = random.Random(73)
    form = _random_form(rng, 8, nterms=40, span=9)
    vs = [
        Vector16.from_coords(
            [rng.randint(-10 ** 6, 10 ** 6) for _ in range(16)]
        )
        for _ in range(8)
    ]
    seen = spy_dtypes(monkeypatch)
    value = form.evaluate(vs)
    assert seen.of("exterior") == [object]
    assert value == evaluate_oracle(form, vs)
    assert abs(value) >= INT64_LIMIT
    inner = det_oracle([[v.coords()[i] for v in vs[:4]] for i in range(4)])
    assert abs(inner) >= INT64_LIMIT


def test_evaluate_rejects_wrong_count_and_inexact_entries(monkeypatch):
    form = AlternatingForm(2, {(0, 1): 1})
    e0, e1 = Vector16.basis(0), Vector16.basis(1)
    with pytest.raises(ValueError):
        form.evaluate([e0])
    with pytest.raises(ValueError):
        form.evaluate([e0, e1, e1])
    seen = spy_dtypes(monkeypatch)
    with pytest.raises(ValueError):
        form.evaluate([e0, Vector16.from_coords([0, 0.1] + [0] * 14)])
    # past the constructors, the kernel rejects what is not an int
    with pytest.raises(TypeError):
        form.evaluate([e0, Vector16._raw([0, 0.1] + [0] * 14)])
    with pytest.raises(ValueError):
        AlternatingForm(2, {(0, 1): 0.5}).evaluate([e0, e1])
    with pytest.raises(ValueError):
        AlternatingForm(0, {(): 0.5}).evaluate([])
    with pytest.raises(TypeError):
        AlternatingForm._raw(2, {0b11: 0.5}).evaluate([e0, e1])
    assert seen == []


def test_evaluate_takes_only_vectors():
    # an octonion holds 8 numerators, not 16: a TypeError, not an IndexError
    form = AlternatingForm(2, {(0, 1): 1})
    with pytest.raises(TypeError, match="Vector16"):
        form.evaluate([Octonion.unit(0), Octonion.unit(1)])
    with pytest.raises(TypeError, match="Vector16"):
        form.evaluate([Vector16.basis(0), [0, 1] + [0] * 14])
    assert form.evaluate([Vector16.basis(0), Vector16.basis(1)]) == 1


def test_evaluate_matches_oracle_in_every_degree():
    # odd degrees split into halves q = p // 2 and p - q of unequal size
    rng = random.Random(74)
    for degree in range(9):
        # supported on coordinates 0..11, so a column can vanish on it
        form = AlternatingForm(degree, {
            tuple(sorted(rng.sample(range(12), degree))):
                Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            for _ in range(6)
        })
        vs = [rand_fraction_vector(rng) for _ in range(degree)]
        assert form.evaluate(vs) == evaluate_oracle(form, vs)
        if not degree:
            continue
        off = Vector16.from_coords(
            [0] * 12 + [Fraction(rng.randint(1, 6), 7) for _ in range(4)]
        )
        for k in (0, degree - 1):  # in the left half, then the right half
            cut = vs[:k] + [off] + vs[k + 1:]
            assert form.evaluate(cut) == 0 == evaluate_oracle(form, cut)
        if degree > 1:
            combo = vs[0].scale(Fraction(2, 3)) - vs[-2]
            dependent = vs[:-1] + [combo]
            assert form.evaluate(dependent) == 0
            assert evaluate_oracle(form, dependent) == 0


def test_evaluate_matches_oracle_in_degrees_up_to_sixteen(monkeypatch):
    # the one Laplace level splits at q = p // 2 (q != p - q in odd
    # degrees) and each half's minors are peeled one column at a time; the
    # cleared Fraction entries take the Python-int path through every peel
    # step from degree 9 on, the entries in -1..1 stay on int64 up to
    # degree 16
    seen = spy_dtypes(monkeypatch)
    rng = random.Random(76)
    for degree in range(17):
        form = AlternatingForm(degree, {
            tuple(sorted(rng.sample(range(16), degree))):
                Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            for _ in range(3)
        })
        for vs, big in (
            ([rand_fraction_vector(rng) for _ in range(degree)], degree >= 9),
            ([rand_vector(rng, span=1) for _ in range(degree)], False),
        ):
            seen.clear()
            assert form.evaluate(vs) == evaluate_oracle(form, vs)
            assert seen.of("exterior") == [object if big else np.int64]
        basis = [Vector16.basis(k) for k in range(degree)]
        assert form.evaluate(basis) == form.coefficient(tuple(range(degree)))


def test_evaluate_caches_the_plan_on_the_form():
    # the plan depends on the form's masks alone: built once per form,
    # never shared with another form of the same degree, however its
    # object id was reused
    rng = random.Random(77)
    vs = [rand_vector(rng, span=5) for _ in range(4)]
    first = _random_form(rng, 4, nterms=8)
    assert first.evaluate(vs) == evaluate_oracle(first, vs)
    plan = first._laplace()
    assert first._laplace() is plan
    assert first.evaluate(vs) == evaluate_oracle(first, vs)
    for _ in range(20):
        other = _random_form(rng, 4, nterms=8)
        assert other.evaluate(vs) == evaluate_oracle(other, vs)
        del other
    negated = -first
    assert negated.evaluate(vs) == -first.evaluate(vs)
    assert first._laplace() is plan


def test_evaluate_gathers_on_python_ints_for_large_entries(monkeypatch):
    # entries near 10**6 put |L|_1 |R|_1 far past 2**63
    rng = random.Random(75)
    form = _random_form(rng, 8, nterms=40, span=9)
    vs = [
        Vector16.from_coords(
            [rng.randint(-10 ** 6, 10 ** 6) for _ in range(16)]
        )
        for _ in range(8)
    ]
    seen = spy_dtypes(monkeypatch)
    value = evaluate_table(form.numerators, [v.coords() for v in vs])
    assert seen.of("exterior") == [object]
    seen.clear()
    assert form.evaluate(vs) == value == evaluate_oracle(form, vs)
    assert seen.of("exterior") == [object]
    seen.clear()
    small = [rand_vector(rng, span=9) for _ in range(8)]
    assert form.evaluate(small) == evaluate_oracle(form, small)
    assert seen.of("exterior") == [np.int64]


def test_evaluate_table_at_the_int64_edge(monkeypatch):
    seen = spy_dtypes(monkeypatch)
    e1 = [0, 1] + [0] * 14
    # B = 2**63 - 1 is the largest bound the int64 gather takes
    big = [INT64_LIMIT - 1] + [0] * 15
    assert evaluate_table({0b11: 1}, [big, e1]) == INT64_LIMIT - 1
    assert seen == [("exterior", INT64_LIMIT - 1, np.int64)]
    # B = 2**63 goes to Python ints, and the minor itself does not fit int64
    seen.clear()
    half = [1 << 62] + [0] * 15
    minus_two = [-2 * x for x in e1]
    assert evaluate_table({0b11: 1}, [half, minus_two]) == -INT64_LIMIT
    assert seen == [("exterior", INT64_LIMIT, object)]
    # the swapped columns give the opposite minor, through the shuffle sign
    assert evaluate_table({0b11: 3}, [e1, big]) == -3 * (INT64_LIMIT - 1)


def test_evaluate_table_rejects_inexact_and_mismatched_input():
    e0, e1 = [1] + [0] * 15, [0, 1] + [0] * 14
    with pytest.raises(TypeError):
        evaluate_table({0b11: Fraction(1, 2)}, [e0, e1])
    with pytest.raises(TypeError):
        evaluate_table({0b11: 1}, [e0, [0.5] * 16])
    with pytest.raises(ValueError):
        evaluate_table({0b111: 1}, [e0, e1])
    assert evaluate_table({}, [e0, e1]) == 0


def test_pullback_matches_definition():
    # ground truth: (A* f)(v1..vp) = f(A v1, .., A vp), every degree
    rng = random.Random(44)
    for degree in (1, 2, 3, 4):
        f = _random_form(rng, degree)
        op = _random_operator(rng)
        pulled = f.pullback(op)
        for _ in range(6):
            vs = [rand_vector(rng, span=2) for _ in range(degree)]
            assert pulled.evaluate(vs) == f.evaluate([op.apply(v) for v in vs])
    # rank 1 (row 7 empty): past degree 1 every wedge of its one-forms
    # overlaps, so every state of the expansion drops out
    op = Operator16([[r - 7 if c == 3 else 0 for c in range(16)] for r in range(16)])
    for degree in (1, 2, 3):
        f = _random_form(rng, degree)
        pulled = f.pullback(op)
        assert bool(pulled) == (degree == 1)
        vs = [rand_vector(rng, span=2) for _ in range(degree)]
        assert pulled.evaluate(vs) == f.evaluate([op.apply(v) for v in vs])


def test_pullback_functoriality():
    rng = random.Random(45)
    f = _random_form(rng, 3)
    a = _random_operator(rng)
    b = _random_operator(rng)
    assert f.pullback(a @ b) == f.pullback(a).pullback(b)
    assert f.pullback(Operator16.identity()) == f


def test_pullback_distributes_over_wedge():
    rng = random.Random(46)
    a = _random_form(rng, 2)
    b = _random_form(rng, 2)
    op = _random_operator(rng)
    assert (a.wedge(b)).pullback(op) == a.pullback(op).wedge(b.pullback(op))


def test_rotation_pullback_on_two_forms():
    # the (0,1) rotation mixes omega_02 into omega_12 by the double angle
    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    rot = rotation(0, 1, p)
    c, s = p.c, p.s
    pulled = omega2(0, 2).pullback(rot)
    expected = omega2(0, 2).scale(c * c - s * s) + omega2(1, 2).scale(
        2 * c * s
    )
    assert pulled == expected


def _sparse_operator(rng, per_row, draw):
    """An operator with per_row nonzero entries draw() in every row."""
    rows = [[0] * 16 for _ in range(16)]
    for row in rows:
        for c in rng.sample(range(16), per_row):
            while not row[c]:
                row[c] = draw()
    return Operator16(rows)


def _signed_permutation(rng):
    perm = rng.sample(range(16), 16)
    return Operator16(
        [[rng.choice((-1, 1)) if c == perm[r] else 0 for c in range(16)]
         for r in range(16)]
    )


def test_pullback_matches_the_recursive_oracle():
    rng = random.Random(74)

    def integer():
        return rng.randint(-3, 3)

    def fraction():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    for degree in range(9):
        forms = (
            _random_form(rng, degree),
            _random_fraction_form(rng, degree, nterms=6),
            AlternatingForm.zero(degree),
        )
        ops = [
            _sparse_operator(rng, 3 if degree <= 5 else 2, integer),
            _sparse_operator(rng, 2, fraction),
            _signed_permutation(rng),
        ]
        if degree <= 3:
            ops.append(_dense_fraction_operator(rng))
        for f in forms:
            for op in ops:
                assert f.pullback(op) == pullback_oracle(f, op)
    # a constant pulls back to itself, even along the zero operator
    const = AlternatingForm(0, {(): Fraction(-7, 3)})
    assert const.pullback(Operator16.zero()) == const
    assert not _random_form(rng, 2).pullback(Operator16.zero())


def test_pullback_of_omega_matches_the_oracle(omega8):
    rot = rotation(7, 8, RationalCirclePoint(Fraction(5, 13), Fraction(12, 13)))
    boost = boost8(RationalCirclePoint(Fraction(5, 4), Fraction(3, 4)))
    for op in (rot, boost):
        assert omega8.pullback(op) == pullback_oracle(omega8, op)


def _past_int64_case(rng):
    # coefficients near 2**40 and entries near 2**8: leaves near 2**80;
    # an odd degree, so that a sign flipped at every step does not cancel
    f = _random_form(rng, 5, nterms=6, span=1 << 40)
    op = _sparse_operator(rng, 3, lambda: rng.randint(-(1 << 8), 1 << 8))
    return f, op


def test_pullback_runs_on_python_ints_past_int64(monkeypatch):
    f, op = _past_int64_case(random.Random(76))
    seen = spy_dtypes(monkeypatch)
    got = f.pullback(op)
    (decision,) = seen
    assert decision.module == "exterior" and decision.dtype == object
    assert decision.bound >= INT64_LIMIT
    assert got == pullback_oracle(f, op)
    assert max(abs(v) for _, v in got.items()) >= INT64_LIMIT


def test_pullback_at_the_int64_edge(monkeypatch):
    seen = spy_dtypes(monkeypatch)
    # B = 2**63 - 1 is the largest bound the int64 path takes
    assert pullback_table({1: INT64_LIMIT - 1}, 1, [(0, 0, 1)]) == {
        1: INT64_LIMIT - 1
    }
    assert seen == [("exterior", INT64_LIMIT - 1, np.int64)]
    # B = 2**63 goes to Python ints, and the result itself does not fit int64
    seen.clear()
    assert pullback_table({1: 1 << 62}, 1, [(0, 3, -2)]) == {8: -INT64_LIMIT}
    assert seen == [("exterior", INT64_LIMIT, object)]
    # repeated (row, col) entries add up
    seen.clear()
    assert pullback_table({0b1: 1}, 1, [(0, 2, 3), (0, 2, 4)]) == {4: 7}
    assert seen == [("exterior", 7, np.int64)]
    # a monomial that meets an empty row drops out before any arithmetic,
    # and so do the rows that no kept monomial meets: neither counts in B
    seen.clear()
    table = {0b11: 1 << 62, 0b101: 1}
    assert pullback_table(table, 2, [(0, 3, 8), (2, 4, 1)]) == {24: 8}
    assert pullback_table(table, 2, [(0, 3, 8), (2, 4, 1), (5, 5, 1 << 70)]) == {24: 8}
    assert seen == [("exterior", 8, np.int64)] * 2


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_pullback_chunks_agree_with_one_pass(monkeypatch, omega8, chunk):
    rot = rotation(2, 5, RationalCirclePoint(Fraction(5, 13), Fraction(12, 13)))
    f, op = _past_int64_case(random.Random(77))
    plans = spy_plans(monkeypatch)
    whole = f.pullback(op)
    assert whole == pullback_oracle(f, op)
    assert omega8.pullback(rot) == omega8
    # one grouped expansion per index position
    assert len(plans) == 5 + 8
    expected, plans[:] = plans[:], []
    monkeypatch.setattr(exterior, "WEDGE_CHUNK", chunk)
    assert f.pullback(op) == whole
    assert omega8.pullback(rot) == omega8
    # every step's states come out of the grouped sums whole, one term per
    # mask, so the blocks of the next step do not depend on the chunk either
    assert plans == expected


def test_pullback_rejects_inexact_coefficients():
    op = Operator16.identity()
    with pytest.raises(TypeError):
        pullback_table({0b11: Fraction(1, 2)}, 2, op.entries())
    with pytest.raises(TypeError):
        pullback_table({0b11: 1}, 2, [(0, 0, 0.5)])
    with pytest.raises(ValueError):
        pullback_table({0b11: 1}, 3, op.entries())
    # past the constructors, the kernel rejects what is not an int
    with pytest.raises(TypeError):
        AlternatingForm._raw(2, {0b11: 0.5}).pullback(op)
    with pytest.raises(TypeError):
        AlternatingForm(2, {(0, 1): 1}).pullback(
            Operator16._raw(((0.5,) * 16,) * 16)
        )


def test_pullback_takes_only_an_operator():
    # a vector's entries are pairs, not (row, col, value) triples
    form = AlternatingForm(2, {(0, 1): 1})
    for wrong in (Vector16.basis(0), Operator16.identity().entries()):
        with pytest.raises(TypeError, match="Operator16"):
            form.pullback(wrong)
    assert form.pullback(Operator16.identity()) == form


def test_lie_derivative_takes_only_an_operator():
    form = AlternatingForm(2, {(0, 1): 1})
    for wrong in (Vector16.basis(0), Operator16.identity().entries()):
        with pytest.raises(TypeError, match="Operator16"):
            form.lie_derivative(wrong)
    assert form.lie_derivative(Operator16.identity()) == form.scale(2)


def test_lie_derivative_leibniz_rule():
    rng = random.Random(47)
    a = _random_form(rng, 2)
    b = _random_form(rng, 2)
    op = _random_operator(rng)
    lab = a.wedge(b).lie_derivative(op)
    assert lab == a.lie_derivative(op).wedge(b) + a.wedge(
        b.lie_derivative(op)
    )


def _dense_fraction_operator(rng):
    return Operator16(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(16)]
         for _ in range(16)]
    )


def test_lie_derivative_matches_slotwise_oracle(omega8):
    rng = random.Random(52)
    for degree in range(5):
        for _ in range(3):
            f = _random_fraction_form(rng, degree, nterms=6)
            op = _dense_fraction_operator(rng)
            assert f.lie_derivative(op) == lie_derivative_oracle(f, op)
            sparse = _random_operator(rng)
            assert f.lie_derivative(sparse) == lie_derivative_oracle(f, sparse)
    op = _dense_fraction_operator(rng)
    assert omega8.lie_derivative(op) == lie_derivative_oracle(omega8, op)


def _diagonal_fraction_operator(rng):
    return Operator16(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if r == c else 0
          for c in range(16)] for r in range(16)]
    )


def test_lie_kernel_matches_slotwise_oracle_in_every_degree():
    rng = random.Random(53)
    for degree in range(9):
        forms = (
            _random_form(rng, degree, nterms=6),
            _random_fraction_form(rng, degree, nterms=6),
        )
        ops = (
            _dense_fraction_operator(rng),
            _diagonal_fraction_operator(rng),
            _random_operator(rng),
        )
        for f in forms:
            for op in ops:
                assert f.lie_derivative(op) == lie_derivative_oracle(f, op)


def _lie_terms(table, entries):
    """The nonzero images of one k = 1 `lie_images` call along the matrix
    entries (row, col, value)."""
    entries = list(entries)
    masks, images = lie_images(
        table,
        [r for r, _, _ in entries],
        [c for _, c, _ in entries],
        [[v for _, _, v in entries]],
    )
    return {m: v for m, v in zip(masks.tolist(), images[:, 0].tolist()) if v}


def test_lie_derivative_runs_on_python_ints_past_int64(monkeypatch):
    # coefficients near 2**40 and entries near 2**30: terms near 2**70
    rng = random.Random(54)
    f = _random_form(rng, 5, nterms=6, span=1 << 40)
    op = _sparse_operator(rng, 3, lambda: rng.randint(-(1 << 30), 1 << 30))
    seen = spy_dtypes(monkeypatch)
    terms = _lie_terms(f.numerators, op.entries())
    assert seen.of("exterior") == [object]
    oracle = lie_derivative_oracle(f, op)
    assert oracle.denominator == 1
    assert terms == oracle.numerators
    assert max(abs(v) for v in terms.values()) >= INT64_LIMIT
    assert f.lie_derivative(op) == oracle
    seen.clear()
    small = _random_operator(rng)
    terms = _lie_terms(f.numerators, small.entries())
    assert seen.of("exterior") == [np.int64]
    assert terms == lie_derivative_oracle(f, small).numerators


def test_lie_images_at_the_int64_edge(monkeypatch):
    # B = 2**63 - 1 stays in int64; B = 2**63 goes to Python ints
    seen = spy_dtypes(monkeypatch)
    assert _lie_terms({1: INT64_LIMIT - 1}, [(0, 0, 1)]) == {1: INT64_LIMIT - 1}
    assert seen == [("exterior", INT64_LIMIT - 1, np.int64)]
    seen.clear()
    assert _lie_terms({1: 1 << 62}, [(0, 3, -2)]) == {8: -INT64_LIMIT}
    assert seen == [("exterior", INT64_LIMIT, object)]
    # the bound takes the largest vector, not the sum over the vectors
    seen.clear()
    masks, images = lie_images({1: INT64_LIMIT - 1}, [0], [0], [[1], [-1]])
    assert masks.tolist() == [1]
    assert images.tolist() == [[INT64_LIMIT - 1, 1 - INT64_LIMIT]]
    assert seen == [("exterior", INT64_LIMIT - 1, np.int64)]
    # B = 0 sums nothing, however large the other factor
    seen.clear()
    assert _lie_terms({1: 1 << 70}, []) == _lie_terms({1: 1 << 70}, [(0, 3, 0)])
    assert _lie_terms({1: 1 << 70}, []) == {}
    masks, images = lie_images({1: 1 << 70}, [0, 0], [3, 5], [[0, 0], [0, 0]])
    assert masks.size == 0 and images.shape == (0, 2)
    assert seen == []
    with pytest.raises(TypeError):
        lie_images({3: Fraction(1, 2)}, [0], [0], [[1]])
    with pytest.raises(TypeError):
        lie_images({3: 1}, [0], [0], [[0.5]])


def test_lie_images_bound_reads_the_largest_coefficient(monkeypatch):
    # eight coefficients of size 2**60 - 1 along entries of total size 7:
    # sum |c| sum |x| passes 2**63 but max |c| sum |x| does not, since each
    # (output mask, unit) takes at most one term
    top = (1 << 60) - 1
    monomials = list(combinations(range(5), 3))[:8]
    f = AlternatingForm(3, {m: top if k % 3 else -top for k, m in enumerate(monomials)})
    rows = [[0] * 16 for _ in range(16)]
    for r, c, v in ((0, 5, 2), (1, 6, -1), (2, 2, 1), (3, 0, 1), (4, 1, -2)):
        rows[r][c] = v
    op = Operator16(rows)
    bound = top * 7
    assert sum(map(abs, f.numerators.values())) * 7 >= INT64_LIMIT > bound
    seen = spy_dtypes(monkeypatch)
    terms = _lie_terms(f.numerators, op.entries())
    assert seen == [("exterior", bound, np.int64)]
    assert terms == lie_derivative_oracle(f, op).numerators
    assert max(map(abs, terms.values())) == 2 * top


def test_each_lie_images_column_is_one_lie_derivative():
    # k = 3 operators at once over all 256 units, each column against the
    # slotwise oracle of its own operator
    rng = random.Random(56)
    rows, cols = np.divmod(np.arange(256), 16)
    for degree in range(6):
        f = _random_form(rng, degree, nterms=6)
        ops = [_random_operator(rng) for _ in range(3)]
        masks, images = lie_images(f.numerators, rows, cols, [op.numerators for op in ops])
        assert images.shape == (masks.size, 3)
        for op, column in zip(ops, images.T.tolist()):
            terms = {m: v for m, v in zip(masks.tolist(), column) if v}
            oracle = lie_derivative_oracle(f, op)
            assert oracle.denominator == 1 and terms == oracle.numerators


def test_lie_images_of_the_pair_products_vanish_on_omega(omega8):
    # the 36 products I_i I_j as 36 vectors over all 256 units, one call;
    # a triple product appended as a 37th vector moves the form alone
    rows, cols = np.divmod(np.arange(256), 16)
    vectors = operator_rows(lambda_basis(2)).tolist()
    masks, images = lie_images(omega8.numerators, rows, cols, vectors)
    assert images.shape == (masks.size, 36) and masks.size > 0
    assert not images.any()
    vectors.append(list(clifford_product((0, 1, 2)).numerators))
    masks, images = lie_images(omega8.numerators, rows, cols, vectors)
    assert not images[:, :36].any() and images[:, 36].any()


def test_lie_incidences_move_r_to_c_with_the_between_parity():
    # dx0 ^ dx2 under E_00, E_03, E_02, E_20, E_23, E_10
    out, odd, mon, unit = lie_incidences(
        [0b101], [0, 0, 0, 2, 2, 1], [0, 3, 2, 0, 3, 0]
    )
    assert unit.tolist() == [0, 1, 4] and mon.tolist() == [0, 0, 0]
    # E_03 gives dx3 ^ dx2 = -dx2 ^ dx3; E_23 gives dx0 ^ dx3
    assert out.tolist() == [0b101, 0b1100, 0b1001]
    assert odd.tolist() == [0, 1, 0]


def test_lie_derivative_of_generator_rotation():
    gen = clifford_product((0, 1))
    assert omega2(0, 2).lie_derivative(gen) == omega2(1, 2).scale(2)


def test_lie_derivative_matches_first_order_pullback():
    # d/dt (c Id + t A)* f at t=0, computed through exact linearization:
    # pullback by Id + tA has linear coefficient L_A f
    rng = random.Random(48)
    f = _random_form(rng, 2)
    op = _random_operator(rng)
    t = Fraction(1, 7)
    shifted = Operator16.identity() + op.scale(t)
    pulled = f.pullback(shifted)
    # subtract the t^0 and t^2 parts using three sample points
    minus = f.pullback(Operator16.identity() + op.scale(-t))
    linear_part = (pulled - minus).scale(Fraction(1, 2) / t)
    assert linear_part == f.lie_derivative(op)


def test_two_form_from_operator_convention():
    # the coefficient on (a, b), a < b, is <e_a, P e_b>: for a pair
    # product, and for a skew operator with Fraction entries that is no
    # signed permutation
    m = _random_operator(random.Random(71))
    m = Operator16([[Fraction(v, 3) for v in row] for row in m.rows])
    skew = m - m.transpose()
    assert any(abs(v) not in (0, 1) for _, _, v in skew.entries())
    basis = [Vector16.basis(k) for k in range(16)]
    for op in (clifford_product((0, 2)), skew):
        f = two_form_from_operator(op)
        for a, b in combinations(range(16), 2):
            assert f.coefficient((a, b)) == inner_product(basis[a], op.apply(basis[b]))


def test_two_form_from_operator_rejects_symmetric_parts():
    with pytest.raises(ValueError):
        two_form_from_operator(FAM[0])
    with pytest.raises(ValueError):
        two_form_from_operator(Operator16.identity())
    skew_plus_sym = clifford_product((0, 2)) + FAM[3]
    with pytest.raises(ValueError):
        two_form_from_operator(skew_plus_sym)


def test_restrict_low_drops_high_indices():
    f = AlternatingForm(2, {(0, 3): 2, (0, 8): 5, (9, 12): 1})
    low = f.restrict_low()
    assert low == AlternatingForm(2, {(0, 3): 2})


def test_numpy_wedge_kernel_matches_sparse_wedge():
    rng = random.Random(49)
    for _ in range(10):
        a = _random_form(rng, 2)
        b = _random_form(rng, 2)
        masks, coeffs, blocks, _ = _wedge_plan([a.numerators, b.numerators], [0], [1])
        acc = _expand_grids(masks, coeffs, blocks, np.int64)
        assert acc.dtype == np.int64 and acc.shape == (1 << 16,)
        nz = np.flatnonzero(acc)
        terms = dict(zip(nz.tolist(), acc[nz].tolist()))
        assert terms == _wedge_dicts(a.numerators, b.numerators)


def _table(form):
    return dict(form.numerators)


def _summed_wedges(pairs):
    total = {}
    for a, b in pairs:
        _wedge_dicts_into(total, a.numerators, b.numerators)
    return total


def test_wedge_sum_int64_path_matches_summed_wedges(monkeypatch):
    rng = random.Random(60)
    seen = spy_dtypes(monkeypatch)
    for p, q in ((1, 1), (2, 2), (2, 3), (4, 4)):
        pairs = [
            (_random_form(rng, p, nterms=8), _random_form(rng, q, nterms=8))
            for _ in range(6)
        ]
        pairs.append((pairs[0][0], pairs[1][1]))  # a table used twice
        got = wedge_sum((_table(a), _table(b)) for a, b in pairs)
        assert got == _summed_wedges(pairs)
    assert set(seen.of("exterior")) == {np.dtype(np.int64)}


def test_wedge_sum_python_int_path_matches_exact_ints(monkeypatch):
    # coefficients near 2**40: the bound passes 2**63 and so do results
    rng = random.Random(61)
    seen = spy_dtypes(monkeypatch)
    pairs = []
    for _ in range(8):
        a, b = (_random_form(rng, 2, nterms=6, span=1 << 40) for _ in "ab")
        pairs.append((a, b))
    bound = sum(
        sum(map(abs, a.numerators.values())) * sum(map(abs, b.numerators.values()))
        for a, b in pairs
    )
    assert bound >= INT64_LIMIT
    got = wedge_sum((_table(a), _table(b)) for a, b in pairs)
    assert seen == [("exterior", bound, object)]
    assert got == _summed_wedges(pairs)


def test_wedge_sum_at_the_int64_edge(monkeypatch):
    seen = spy_dtypes(monkeypatch)
    e01, e23 = 0b11, 0b1100
    # B = 2**63 - 1 is the largest bound the int64 path takes
    assert wedge_sum([({e01: INT64_LIMIT - 1}, {e23: 1})]) == {
        e01 | e23: INT64_LIMIT - 1
    }
    assert seen == [("exterior", INT64_LIMIT - 1, np.int64)]
    # B = 2**63 goes to Python ints, and the result itself does not fit int64
    seen.clear()
    assert wedge_sum([({e01: 1 << 62}, {e23: -2})]) == {
        e01 | e23: -INT64_LIMIT
    }
    assert seen == [("exterior", INT64_LIMIT, object)]
    # two pairs that only reach 2**63 together
    seen.clear()
    got = wedge_sum([({e01: 1 << 62}, {e23: 1}), ({e23: 1 << 62}, {e01: 1})])
    assert got == {e01 | e23: INT64_LIMIT}
    assert seen == [("exterior", INT64_LIMIT, object)]
    # a partner of zeros adds nothing to B_g, yet the bound covers the
    # coefficient it meets
    seen.clear()
    assert wedge_sum([({e01: 1 << 70}, {e23: 0})]) == {}
    assert seen == [("exterior", 1 << 70, object)]


def test_wedge_sum_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        wedge_sum([({3: Fraction(1, 2)}, {12: 1})])
    with pytest.raises(TypeError):
        wedge_sum([({3: 1}, {12: 0.5})])
    with pytest.raises(TypeError):
        square_groups([[({3: 1}, {12: 1})], [({3: 1}, {12: Fraction(2)})]])
    assert wedge_sum([({3: 1}, {})]) == {}


def _tables(pairs):
    return [(a.numerators, b.numerators) for a, b in pairs]


def test_square_sums_match_each_group_squared_alone():
    rng = random.Random(62)
    shared = _random_form(rng, 2, nterms=6)
    empty = AlternatingForm.zero(2)
    groups = [
        [(shared, _random_form(rng, 2, nterms=6)), (empty, shared)],
        [],
        [(_random_form(rng, 1), empty)],
        [(_random_form(rng, 3, nterms=7), shared), (shared, shared)],
        [(_random_form(rng, 1, nterms=3), _random_form(rng, 1, nterms=3))
         for _ in range(5)],
        [(shared, _random_form(rng, 4, nterms=8))],
    ]
    for g in groups:
        assert wedge_sum(_tables(g)) == _summed_wedges(g)
        assert square_groups([_tables(g)]) == squares_oracle([_tables(g)])
    got = square_groups(_tables(g) for g in groups)
    assert got == squares_oracle(_tables(g) for g in groups) != {}
    assert wedge_sum(_tables(groups[1])) == wedge_sum(_tables(groups[2])) == {}
    assert square_groups([]) == {} and square_groups([[]]) == {}


def test_wedge_of_a_table_with_itself_matches_the_pair_sum():
    # Q ^ Q is 2 sum_{i<j} for even degrees and vanishes for odd ones;
    # a degree-0 term is the one term whose own square is not 0.  The
    # wedge kernel expands every term pair of a square; only the square
    # step of `square_sums` takes the upper triangle
    rng = random.Random(63)
    for degree in (0, 1, 2, 3, 4):
        for _ in range(4):
            q = _random_form(rng, degree, nterms=9)
            got = wedge_sum([(q.numerators, q.numerators)])
            assert got == _summed_wedges([(q, q)])
            if degree % 2:
                assert got == {}
            # an equal copy that is not the same object sums the same
            assert wedge_sum([(q.numerators, dict(q.numerators))]) == got
    # tables with odd-degree terms, or a degree-0 term
    q = {0b1: 2, 0b110: -3, 0b11000: 5, 0b1100000: 1, 0b10000000: 7}
    for table in (q, {0: -4, **q}):
        total = {}
        _wedge_dicts_into(total, table, table)
        assert wedge_sum([(table, table)]) == total != {}


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_square_sums_do_not_depend_on_the_chunk(monkeypatch, chunk):
    rng = random.Random(64)
    # blocks of 4 x 20 and 20 x 20 pairs beside a 4 x 4 one, and squares
    # whose pair grids span many chunks: below 400 the 20 x 20 blocks and
    # every square are cut into slices, and the grouped sums carry from
    # slice to slice inside one group
    big = AlternatingForm(2, {
        ij: k + 1 for k, ij in enumerate(combinations(range(16), 2)) if k < 20
    })
    groups = [
        [(_random_form(rng, 2), big), (big, big)],
        [(_random_form(rng, 2), _random_form(rng, 3))],
        [(big, big)],
    ]
    huge = [[(_random_form(rng, 2, nterms=6, span=1 << 40),
              _random_form(rng, 2, nterms=6, span=1 << 40))
             for _ in range(3)] for _ in range(3)]
    plans = spy_plans(monkeypatch)
    expected = [square_groups(_tables(g) for g in gs) for gs in (groups, huge)]
    expected.append(wedge_sum(_tables(groups[0])))
    whole, plans[:] = plans[:], []
    monkeypatch.setattr(exterior, "WEDGE_CHUNK", chunk)
    seen = spy_dtypes(monkeypatch)
    got = [square_groups(_tables(g) for g in gs) for gs in (groups, huge)]
    got.append(wedge_sum(_tables(groups[0])))
    assert got == expected
    # every Q_g comes out of the grouped sums whole, one term per mask,
    # so the square blocks do not depend on the chunk either
    assert plans == whole
    # each square_sums decides its grouped expansion, then its squares
    assert seen.of("exterior") == [np.int64, np.int64, object, object, np.int64]
    for gs, squares in zip((groups, huge), expected):
        assert [wedge_sum(_tables(g)) for g in gs] == [_summed_wedges(g) for g in gs]
        assert squares == squares_oracle(_tables(g) for g in gs) != {}


def _grouped_tables(out, count):
    """The group tables {mask: int} of a grouped `_expand_grids` output."""
    sums, keys = out
    tables = [{} for _ in range(count)]
    for key, v in zip(keys.tolist(), sums.tolist()):
        if v:
            tables[key >> 16][key & 0xFFFF] = v
    return tables


def test_square_sums_python_int_path_aligns_the_keys_of_every_group(monkeypatch):
    # the first group pushes the bound to 2**63, so all groups sum on
    # Python ints under the keys group << 16 | mask; the second group's
    # first sum cancels and drops out of its keys
    e01, e23, e45 = 0b11, 0b1100, 0b110000
    seen = spy_dtypes(monkeypatch)
    steps = []
    expand = exterior._expand_grids

    def spy(*args, **kwargs):
        steps.append(expand(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(exterior, "_expand_grids", spy)
    groups = [
        [({e01: 1 << 62}, {e23: 2})],
        [({e01: 5}, {e45: 1}), ({e23: 1}, {e45: 3}), ({e45: -5}, {e01: 1})],
        [({e23: 10}, {e01: -1})],
    ]
    expected = [
        {e01 | e23: INT64_LIMIT},
        {e23 | e45: 3},
        {e01 | e23: -10},
    ]
    got = square_groups(groups)
    assert _grouped_tables(steps[0], 3) == expected
    square_bound = INT64_LIMIT**2 + 3**2 + 10**2
    assert seen == [
        ("exterior", INT64_LIMIT, object), ("exterior", square_bound, object)
    ]
    # each Q_g is one monomial, so its square vanishes
    assert got == squares_oracle(groups) == {}
    # the largest bound decides the path, wherever its group stands
    steps.clear()
    seen.clear()
    assert square_groups(groups[::-1]) == {}
    assert _grouped_tables(steps[0], 3) == expected[::-1]
    assert seen.of("exterior") == [object, object]


@pytest.mark.parametrize("scale", [1, 1 << 70])
def test_square_sums_merge_equal_tables_that_are_distinct_objects(
    monkeypatch, scale
):
    # a ^ b = b ^ a for two-forms: four groups of distinct tables, one Q;
    # scale 2**70 puts both steps on Python ints
    rng = random.Random(65)
    a, b, c = (_table(_random_form(rng, 2, nterms=6)) for _ in "abc")
    a, b = ({m: v * scale for m, v in t.items()} for t in (a, b))
    groups = [
        [(a, b)], [(dict(b), dict(a))], [(c, a)], [(dict(a), b)], [(b, dict(a))]
    ]
    seen = spy_dtypes(monkeypatch)
    plans = spy_plans(monkeypatch)
    got = square_groups(groups)
    _, square = plans
    dtype = np.int64 if scale == 1 else object
    assert seen.of("exterior") == [dtype, dtype]
    assert got == squares_oracle(groups) != {}
    assert sorted(block.weight >> block.triangle for block in square) == [1, 4]


@pytest.mark.parametrize("scale", [1, 1 << 70])
def test_square_sums_keep_tables_that_differ_in_one_coefficient(
    monkeypatch, scale
):
    # the third group adds 1 to one coefficient of the first group's Q:
    # the same masks, one value apart, on int64 and past 2**63
    e01, e23, e45, e67 = 0b11, 0b1100, 0b110000, 0b11000000
    a = {e01: 3 * scale, e23: -5 * scale}
    b = {e45: 7 * scale, e67: 2 * scale}
    groups = [[(a, b)], [(dict(a), dict(b))], [(a, b), ({e01: 1}, {e45: 1})]]
    q = [wedge_sum(g) for g in groups]
    assert q[2].keys() == q[0].keys() == q[1].keys()
    assert [m for m in q[0] if q[2][m] != q[0][m]] == [e01 | e45]
    seen = spy_dtypes(monkeypatch)
    plans = spy_plans(monkeypatch)
    got = square_groups(groups)
    _, square = plans
    dtype = np.int64 if scale == 1 else object
    assert seen.of("exterior") == [dtype, dtype]
    assert got == squares_oracle(groups) != {}
    assert [block.weight >> block.triangle for block in square] == [2, 1]


def test_square_sums_expand_every_pair_of_odd_or_degree_0_tables(monkeypatch):
    # a table with an odd-degree or a degree-0 term is no square: every
    # term pair expands, with the table's multiplicity as its weight
    one = {0: 1}
    q = {0b1: 2, 0b110: -3, 0b11000: 5, 0b1100000: 1, 0b10000000: 7}
    for table in (q, {0: -4, **q}, {0: 3}):
        groups = [[(table, one)], [(dict(table), one)], [({0b1: 1}, {0b10: 1})]]
        plans = spy_plans(monkeypatch)
        got = square_groups(groups)
        _, square = plans
        assert got == squares_oracle(groups) != {}
        # (even, multiplicity): the table twice, and the even monomial once
        assert sorted(
            (block.triangle, block.weight >> block.triangle) for block in square
        ) == [(0, 2), (1, 1)]


@pytest.mark.parametrize("width", ["int64", "limbs", "object"])
def test_square_step_is_exact_at_every_width(monkeypatch, width):
    # tables of mixed sizes and degrees 0..3, each group also as an equal
    # copy that is another object; the loud groups square degree-0 tables:
    # nine squares near 2**60 sum past 2**63 while every product, weights
    # included, stays below it (limbs), and a square of 2**66 is one
    # product past it (Python ints)
    rng = random.Random(66)
    groups = []
    for p, q in ((0, 0), (0, 2), (1, 1), (1, 2), (2, 2), (0, 3), (1, 3)):
        for nterms in (1, 4, 9):
            a, b = (_random_form(rng, d, nterms, span=1 << 8) for d in (p, q))
            groups.append([(a.numerators, b.numerators)])
            groups.append([(dict(a.numerators), dict(b.numerators))])
    loud = {
        "int64": [],
        "limbs": [[({0: 1 << 15}, {0: (1 << 15) + t})] for t in range(9)],
        "object": [[({0: 1 << 33}, {0: 1})]],
    }
    groups += loud[width]
    seen = spy_dtypes(monkeypatch)
    got = square_groups(groups)
    decided = {"int64": np.int64, "limbs": LIMBS, "object": object}[width]
    assert seen.of("exterior") == [np.int64, decided]
    assert got == squares_oracle(groups) != {}
    assert all(type(v) is int for v in got.values())
    assert (max(map(abs, got.values())) >= INT64_LIMIT) == (width != "int64")


def test_bounds_far_past_2_63_run_each_step_once_on_python_ints(monkeypatch):
    # coefficients and entries near 2**100 put every bound past 2**200,
    # far past int64
    rng = random.Random(79)
    huge = 1 << 100
    a, b, c = (_random_form(rng, 2, nterms=6, span=huge) for _ in "abc")
    pairs = [(a, b), (b, c), (c, c)]
    norms = [sum(map(abs, f.numerators.values())) for f in (a, b)]
    assert norms[0] * norms[1] >= 1 << 200
    seen = spy_dtypes(monkeypatch)
    assert wedge_sum(_tables(pairs)) == _summed_wedges(pairs)
    groups = [pairs, [(c, a)], [], [(a, a)]]
    got = square_groups(_tables(g) for g in groups)
    assert seen.of("exterior") == [object, object, object]
    assert got == squares_oracle(_tables(g) for g in groups)
    assert all(type(v) is int for v in got.values())

    f = _random_form(rng, 3, nterms=5, span=huge)
    op = _sparse_operator(rng, 2, lambda: rng.randint(-huge, huge))
    seen.clear()
    got = f.pullback(op)
    (decision,) = seen
    assert decision.module == "exterior" and decision.dtype == object
    assert decision.bound >= 1 << 200
    assert got == pullback_oracle(f, op)

    seen.clear()
    got = f.lie_derivative(op)
    assert seen.of("exterior") == [object]
    assert got == lie_derivative_oracle(f, op)

    form = _random_form(rng, 4, nterms=9, span=huge)
    vs = [
        Vector16.from_coords([rng.randint(-huge, huge) for _ in range(16)])
        for _ in range(4)
    ]
    seen.clear()
    assert form.evaluate(vs) == evaluate_oracle(form, vs)
    assert seen.of("exterior") == [object]


coeff_strategy = st.dictionaries(
    st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
        lambda t: t[0] < t[1]
    ),
    st.integers(-5, 5),
    max_size=6,
)


@given(coeff_strategy, coeff_strategy)
@settings(max_examples=50)
def test_wedge_square_of_two_form_symmetry(ta, tb):
    a = AlternatingForm(2, ta)
    b = AlternatingForm(2, tb)
    # even-degree forms commute; the polarization identity follows
    assert a.wedge(b) == b.wedge(a)
    assert (a + b).wedge(a + b) == a.wedge(a) + a.wedge(b).scale(2) + b.wedge(b)


def test_forms_are_kept_in_lowest_terms(omega8):
    quarter = AlternatingForm(2, {(0, 1): Fraction(2, 4), (2, 3): Fraction(3, 2)})
    paths = [
        quarter,
        AlternatingForm(2, {(0, 1): Fraction(1, 2), (2, 3): Fraction(3, 2)}),
        AlternatingForm(2, {(0, 1): 1, (2, 3): 3}).scale(Fraction(1, 2)),
        AlternatingForm._raw(2, {0b11: 5, 0b1100: 15}, 10),
        AlternatingForm(2, {(0, 1): 3, (2, 3): 9}).scale(Fraction(5, 6)).scale(
            Fraction(1, 5)
        ),
    ]
    for f in paths:
        assert (f.numerators, f.denominator) == ({0b11: 1, 0b1100: 3}, 2)
        assert f == quarter
    zero = quarter - quarter
    assert (zero.numerators, zero.denominator) == ({}, 1)
    assert zero == AlternatingForm.zero(2)
    # the denominators cancel in a sum, a wedge and a restriction
    assert (quarter + quarter).denominator == 1
    assert quarter.wedge(AlternatingForm(0, {(): 2})).denominator == 1
    mixed = AlternatingForm(2, {(0, 1): 4, (8, 9): Fraction(1, 3)})
    assert mixed.restrict_low() == AlternatingForm(2, {(0, 1): 4})
    assert mixed.restrict_low().denominator == 1
    # Omega pulled back by a rotation of denominator 5 comes back whole
    rot = rotation(0, 1, RationalCirclePoint(Fraction(3, 5), Fraction(4, 5)))
    pulled = omega8.pullback(rot)
    assert pulled.denominator == 1 and pulled == omega8


def test_items_come_in_lex_order_of_the_index_tuples():
    # items sort by the bit-reversed mask; the oracle sorts the tuples
    rng = random.Random(66)
    for degree in range(17):
        form = _random_form(rng, degree, nterms=40).scale(Fraction(1, 6))
        oracle = sorted(
            (idx, form.coefficient(idx))
            for idx in (
                tuple(i for i in range(16) if m >> i & 1) for m in form.numerators
            )
        )
        assert form.items() == oracle
    every = AlternatingForm(8, {idx: 1 for idx in combinations(range(16), 8)})
    assert [idx for idx, _ in every.items()] == list(combinations(range(16), 8))


def test_whole_coefficients_and_values_come_back_as_ints():
    f = AlternatingForm(2, {(0, 1): Fraction(1, 2), (2, 3): Fraction(6, 2)})
    assert f.denominator == 2
    assert type(f.coefficient((2, 3))) is int and f.coefficient((2, 3)) == 3
    assert type(f.coefficient((4, 5))) is int and f.coefficient((4, 5)) == 0
    assert f.coefficient((0, 1)) == Fraction(1, 2)
    assert [type(v) for _, v in f.items()] == [Fraction, int]
    e = [Vector16.basis(k) for k in range(4)]
    assert type(f.evaluate([e[2], e[3]])) is int
    two = Vector16.from_coords([2] + [0] * 15)
    assert f.evaluate([two, e[1]]) == 1 and type(f.evaluate([two, e[1]])) is int
    half = Vector16.from_coords([0, Fraction(1, 2)] + [0] * 14)
    assert f.evaluate([e[0], half]) == Fraction(1, 4)
