"""The competing cross-product 8-form: census, defect, and factorization."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    S4_SIGNED,
    bpt_cross_oracle,
    bpt_full_oracle,
    bpt_reduced_oracle,
    materialize_oracle,
    pair,
    rand_fraction_vector,
    rand_vector,
    s8_star_oracle,
    spy_dtypes,
)
from spin9 import bpt
from spin9.bpt import (
    bpt_8form_full,
    bpt_8form_reduced,
    bpt_invariance_defect,
    bpt_square_check,
    defect_vectors,
    head_to_head,
    materialize_bpt_4form,
    materialize_bpt_8form,
    s8_star,
)
from spin9.exterior import wedge_sum
from spin9.octonion import Octonion
from spin9.operators import Vector16, clifford_product


def test_permutation_census():
    perms = s8_star()
    assert len(perms) == 315
    seen = set()
    for perm, sign in perms:
        assert perm[0] == 0
        assert perm[0] < perm[1] and perm[2] < perm[3]
        assert perm[4] < perm[5] and perm[6] < perm[7]
        assert perm[0] < perm[2] and perm[4] < perm[6]
        assert perm[0] < perm[4]
        assert sign in (1, -1)
        assert perm not in seen
        seen.add(perm)


def test_census_against_direct_count():
    # generated from the pairings, equal to the S_8 filter tuple for
    # tuple and sign for sign, in the same lexicographic order
    assert s8_star() == s8_star_oracle()


def _crosses(vectors):
    """The crosses of the pairs i < j from one `bpt._crosses` call, as
    octonions in combinations order."""
    c, d = bpt._crosses(vectors)
    return [Octonion._raw(row, d * d) for row in c.tolist()]


def test_cross_on_pair_vectors():
    rng = random.Random(81)
    for _ in range(20):
        u, v = rand_vector(rng), rand_vector(rng)
        uv, uu, vu = _crosses([u, v, u])
        assert uv == bpt_cross_oracle(u, v)
        assert vu == -uv
        assert not uu


def test_cross_and_reduced_sum_on_rational_vectors_match_the_octonion_formula():
    # each vector on its own denominator, two of them whole: the crosses
    # read the numerators scaled to the lcm of the denominators
    rng = random.Random(89)
    vs = [
        Vector16.from_coords(
            [Fraction(rng.randint(-6, 6), d) for _ in range(15)] + [Fraction(1, d)]
        )
        for d in (1, 2, 3, 5, 7, 4, 9, 1)
    ]
    assert [v.denominator for v in vs] == [1, 2, 3, 5, 7, 4, 9, 1]
    assert _crosses(vs) == [
        bpt_cross_oracle(u, v) for u, v in itertools.combinations(vs, 2)
    ]
    value = bpt_8form_reduced(vs)
    assert value == bpt_reduced_oracle(vs, s8_star())
    assert Fraction(value).denominator > 1


def test_full_and_reduced_sums_agree_on_basis():
    rng = random.Random(82)
    for _ in range(15):
        vs = [Vector16.basis(k) for k in rng.sample(range(16), 8)]
        assert bpt_8form_full(vs) == bpt_8form_reduced(vs)


def test_full_and_reduced_sums_agree_on_random():
    rng = random.Random(83)
    for _ in range(6):
        vs = [rand_vector(rng, span=2) for _ in range(8)]
        assert bpt_8form_full(vs) == bpt_8form_reduced(vs)
    vs = [rand_fraction_vector(rng) for _ in range(8)]
    assert bpt_8form_full(vs) == bpt_8form_reduced(vs)


def test_full_sum_builds_each_block_sum_once(monkeypatch):
    # 28 crosses of two products each, 420 block products and the 70
    # split products, each set in one batched call
    rng = random.Random(84)
    vs = [rand_vector(rng, span=2) for _ in range(8)]
    expected = bpt_8form_reduced(vs)
    batched = []
    oct_mul = bpt.oct_mul

    def counting_batch(x, y):
        batched.append(x.size // 8)
        return oct_mul(x, y)

    monkeypatch.setattr(bpt, "oct_mul", counting_batch)
    assert bpt_8form_full(vs) == expected
    assert batched == [56, 420, 70]


def test_sums_match_the_octonion_oracles(monkeypatch):
    # int tuples, Fraction tuples, and entries near 2**30 that put the
    # cross stage itself past int64, so that every stage runs on Python ints
    rng = random.Random(86)
    cases = [[rand_vector(rng, span=9) for _ in range(8)] for _ in range(3)]
    cases.append([rand_fraction_vector(rng) for _ in range(8)])
    big = [
        Vector16.from_coords([rng.randint(-(1 << 30), 1 << 30) for _ in range(16)])
        for _ in range(8)
    ]
    seen = spy_dtypes(monkeypatch)
    for vs in cases:
        assert bpt_8form_full(vs) == bpt_full_oracle(vs)
        assert bpt_8form_reduced(vs) == bpt_reduced_oracle(vs, s8_star())
        assert bpt_8form_full(vs) == bpt_8form_reduced(vs)
    assert set(seen.of("bpt")) == {np.dtype(np.int64)}
    seen.clear()
    value = bpt_8form_full(big)
    assert seen.of("bpt") == [object, object]
    assert value == bpt_full_oracle(big) == bpt_8form_reduced(big)
    assert bpt_8form_reduced(big) == bpt_reduced_oracle(big, s8_star())
    assert abs(value) >= 1 << 63


def test_sums_far_past_int64_run_each_stage_once_on_python_ints(monkeypatch):
    # coordinates near 2**70: crosses near 2**140 and block products near
    # 2**280, far past int64
    rng = random.Random(88)
    vs = [
        Vector16.from_coords(
            [rng.randint(-(1 << 70), 1 << 70) for _ in range(16)]
        )
        for _ in range(8)
    ]
    seen = spy_dtypes(monkeypatch)
    full = bpt_8form_full(vs)
    assert seen.of("bpt") == [object, object]
    seen.clear()
    reduced = bpt_8form_reduced(vs)
    assert seen.of("bpt") == [object, object]
    assert full == bpt_full_oracle(vs) == reduced
    assert reduced == bpt_reduced_oracle(vs, s8_star())
    assert abs(full) >= 1 << 500


def test_four_form_reads_descending_pairs_as_negated_crosses():
    rng = random.Random(87)
    vs = [rand_vector(rng, span=3) for _ in range(4)]
    crosses = {
        (a, b): bpt_cross_oracle(vs[a], vs[b]) for a in range(4) for b in range(4)
    }
    expected = sum(
        sign * (crosses[p[0], p[1]] * crosses[p[2], p[3]]).coords()[0]
        for p, sign in S4_SIGNED
    )
    assert bpt_reduced_oracle(vs, S4_SIGNED) == expected
    assert crosses[1, 0] == -crosses[0, 1]


def test_materialized_form_matches_evaluator():
    form = materialize_bpt_8form()
    assert form.term_count() == 870
    assert form.coefficient((0, 1, 2, 3, 4, 5, 6, 7)) == -63
    rng = random.Random(84)
    for _ in range(25):
        idx = sorted(rng.sample(range(16), 8))
        vs = [Vector16.basis(k) for k in idx]
        assert form.coefficient(tuple(idx)) == bpt_8form_reduced(vs)
    for span in (2, 2, 2, 9):
        vs = [rand_vector(rng, span=span) for _ in range(8)]
        assert form.evaluate(vs) == bpt_8form_reduced(vs)


def test_alternating_under_argument_swap():
    rng = random.Random(85)
    vs = [rand_vector(rng, span=2) for _ in range(8)]
    swapped = [vs[1], vs[0]] + vs[2:]
    assert bpt_8form_reduced(swapped) == -bpt_8form_reduced(vs)
    assert bpt_8form_reduced([vs[0]] * 2 + vs[2:]) == 0


def test_invariance_defect_values():
    defect = bpt_invariance_defect()
    assert defect.terms == (63, -9, 9, 9, 9, 9, 9, 9)
    assert defect.total == 108
    assert sum(defect.terms) == defect.total


def test_defect_witness_vectors():
    vs = defect_vectors()
    zero = Octonion((0,) * 8)
    assert vs[0] == pair(zero, Octonion.unit(0))
    for k in range(7):
        assert vs[k + 1] == pair(Octonion.unit(k), zero)
    gen = clifford_product((7, 8))
    moved = gen.apply(vs[0])
    assert moved == pair(Octonion.unit(7), zero)


def test_square_factorization():
    rep = bpt_square_check()
    assert rep.passed
    details = {c.check_id: dict(c.details) for c in rep.checks}
    factor = details["bpt.square-factor"]["factor"]
    assert Fraction(factor) == Fraction(1, 128)


def test_square_factor_fails_on_one_wrong_real_part(monkeypatch):
    # the 4-form is built from the basis crosses, not from `_re_pair_table`,
    # so a wrong entry of the table moves the 8-form alone and the factor
    # check must fail
    table = bpt._re_pair_table().copy()
    assert table[3, 4, 9, 14]
    for a, b, c, d in ((3, 4, 9, 14), (9, 14, 3, 4)):
        for x, y in ((a, b), (b, a)):
            for z, w in ((c, d), (d, c)):
                table[x, y, z, w] = -table[x, y, z, w]
    builders = (materialize_bpt_8form, materialize_bpt_4form)
    for f in builders:
        f.cache_clear()
    monkeypatch.setattr(bpt, "_re_pair_table", lambda: table)
    try:
        checks = {c.check_id: c for c in bpt_square_check().checks}
    finally:
        for f in builders:
            f.cache_clear()
    assert not checks["bpt.square-factor"].passed
    assert checks["bpt.four-form-not-invariant"].passed


def test_four_form_is_one_wedge_sum_of_the_basis_crosses(monkeypatch):
    calls = []

    def counted(pairs):
        calls.append(1)
        return wedge_sum(pairs)

    def unread():
        raise AssertionError("the 4-form read the real-part table")

    expected = materialize_bpt_4form()
    monkeypatch.setattr(bpt, "wedge_sum", counted)
    monkeypatch.setattr(bpt, "_re_pair_table", unread)
    assert materialize_bpt_4form.__wrapped__() == expected
    assert len(calls) == 1


def test_four_form_materialization():
    # the scalar oracle on octonion objects does not read the basis crosses
    form = materialize_bpt_4form()
    basis = [Vector16.basis(k) for k in range(16)]
    for idx in itertools.combinations(range(16), 4):
        vs = [basis[k] for k in idx]
        assert form.coefficient(idx) == bpt_reduced_oracle(vs, S4_SIGNED)
    assert form.term_count() == 140


def test_materialized_forms_match_the_per_permutation_gather():
    # every coefficient, zero or not, against one 4-index gather per block
    table = bpt._re_pair_table()
    for k, form, perms in (
        (8, materialize_bpt_8form(), s8_star()),
        (4, materialize_bpt_4form(), S4_SIGNED),
    ):
        expected = materialize_oracle(k, perms, table)
        for idx in itertools.combinations(range(16), k):
            assert form.coefficient(idx) == expected.coefficient(idx)


def test_materialize_accumulates_in_the_dtype_of_the_term_count(monkeypatch):
    # every term is in {-1, 0, 1}, so the 315 terms of S*_8 bound each sum
    expected = materialize_bpt_8form()
    seen = spy_dtypes(monkeypatch)
    assert materialize_bpt_8form.__wrapped__() == expected
    assert seen == [("bpt", 315, np.int64)]


def test_basis_cross_premise_is_checked(monkeypatch):
    # the table lookups rest on every basis cross being a signed
    # imaginary unit; a doubled cross must raise, also under python -O
    crosses = bpt._crosses

    def doubled(vectors):
        table, d = crosses(vectors)
        return 2 * table, d

    bpt._basis_cross_units.cache_clear()
    monkeypatch.setattr(bpt, "_crosses", doubled)
    try:
        with pytest.raises(AssertionError, match="signed imaginary unit"):
            bpt._basis_cross_units()
    finally:
        bpt._basis_cross_units.cache_clear()


def test_head_to_head(omega8):
    rep = head_to_head(omega8)
    assert rep.passed
    ids = {c.check_id for c in rep.checks}
    assert "bpt.not-invariant" in ids
    assert "bpt.canonical-invariant" in ids
