"""Sparse integer elimination against a dense Fraction oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from helpers import dense_rank, det_oracle
from spin9.canonical import givens9, mat9_mul
from spin9.linalg import (
    clear_denominators,
    det,
    int_echelon,
    nullspace,
    rank,
    reduce_against,
    row_to_int,
)
from spin9.operators import (
    Operator16,
    RationalCirclePoint,
    rotation,
)


def _random_rows(rng, nrows, ncols, density=0.6, span=5):
    rows = []
    for _ in range(nrows):
        row = {c: rng.randint(-span, span) for c in range(ncols)
               if rng.random() < density}
        rows.append({c: v for c, v in row.items() if v})
    return rows


def test_rank_known_matrices():
    assert rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    assert rank([]) == 0
    assert rank([{}]) == 0


def test_row_to_int_clears_denominators():
    row = {0: Fraction(1, 2), 3: Fraction(-2, 3)}
    cleared = row_to_int(row)
    assert all(isinstance(v, int) for v in cleared.values())
    assert cleared[0] * Fraction(-2, 3) == cleared[3] * Fraction(1, 2)
    g = gcd(*(abs(v) for v in cleared.values()))
    assert g == 1


def test_nullspace_known_system():
    # x0 + x1 + x2 = 0, x0 - x1 = 0  ->  span{(1, 1, -2)}
    vecs = nullspace([{0: 1, 1: 1, 2: 1}, {0: 1, 1: -1}], 3)
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] == v[1] and v[2] == -2 * v[0]
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    assert g == 1


def test_nullspace_vectors_satisfy_system():
    rng = random.Random(31)
    for _ in range(20):
        rows = _random_rows(rng, 6, 8)
        for v in nullspace(rows, 8):
            assert any(v)
            for row in rows:
                assert sum(coef * v[c] for c, coef in row.items()) == 0


def test_rank_nullity_on_random_systems():
    rng = random.Random(32)
    for _ in range(20):
        rows = _random_rows(rng, 7, 9)
        r = rank(rows)
        n = len(nullspace(rows, 9))
        assert r + n == 9
        assert r == dense_rank(rows, 9)
        # the echelon rows have the kernel basis of the rows they came from
        assert nullspace([row for _, row in int_echelon(rows)], 9) == nullspace(rows, 9)


def test_reduce_against_detects_membership():
    rows = [{0: 1, 1: 2}, {2: 3, 3: 1}]
    ech = int_echelon(rows)
    assert not reduce_against(ech, {0: 2, 1: 4, 2: 3, 3: 1})
    assert reduce_against(ech, {0: 1, 1: 1})


def test_det_known_values():
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)


def test_det_singular_and_row_swaps():
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert det([[0, 0], [0, 0]]) == 0
    assert det([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 0
    # a zero leading pivot forces a swap; each swap flips the sign
    assert det([[0, 2, 0], [3, 0, 0], [0, 0, 5]]) == -30
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]) == -1
    assert det([]) == 1 and det([[7]]) == 7


def test_det_fraction_entries_and_rational_rotations():
    m = [[Fraction(1, 2), Fraction(2, 3), 1],
         [Fraction(-3, 4), 0, Fraction(5, 6)],
         [2, Fraction(1, 9), Fraction(-1, 5)]]
    assert det(m) == det_oracle(m)
    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    q = RationalCirclePoint(Fraction(5, 13), Fraction(12, 13))
    g = mat9_mul(givens9(0, 4, p), givens9(2, 7, q))
    assert det(g) == 1
    assert rotation(0, 1, p).det() == 1


def test_det_random_matrices_match_oracle():
    rng = random.Random(31)
    for n in (9, 9, 9, 5, 2):
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(m) == det_oracle(m)
    for _ in range(3):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.6
              else 0 for _ in range(9)] for _ in range(9)]
        assert det(m) == det_oracle(m)
    rows = [[rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(16)]
            for _ in range(16)]
    for k in range(16):
        rows[k][k] = rng.choice((-2, -1, 1, 2))
    assert Operator16(rows).det() == det_oracle(rows)


def test_det_rejects_inexact_and_non_square():
    with pytest.raises(ValueError):
        det([[1, 0.5], [0, 1]])
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        clear_denominators([1, Fraction(1, 2), "3"])
    assert clear_denominators([3, Fraction(1, 2), Fraction(-2, 3)]) == (
        [18, 3, -4], 6
    )


small_matrix = st.lists(
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    min_size=5,
    max_size=5,
)


@given(small_matrix)
@settings(max_examples=60)
def test_rank_matches_dense_oracle(mat):
    rows = [{c: v for c, v in enumerate(row) if v} for row in mat]
    assert rank(rows) == dense_rank(rows, 5)


@given(small_matrix)
@settings(max_examples=40)
def test_echelon_row_space_membership(mat):
    rows = [{c: v for c, v in enumerate(row) if v} for row in mat]
    ech = int_echelon(rows)
    for row in rows:
        assert not reduce_against(ech, dict(row))


def test_clear_denominators_all_int_fast_path():
    ints = [4, -7, 0, 1 << 70]
    out, d = clear_denominators(ints)
    assert (out, d) == (ints, 1)
    assert out is not ints
    out.append(5)
    assert ints == [4, -7, 0, 1 << 70]
    # a float after ints still takes the checked path and raises
    with pytest.raises(ValueError):
        clear_denominators([1, 2, 0.5])
    with pytest.raises(ValueError):
        clear_denominators(iter([1, 2, 0.5]))
    # Fractions with denominator 1 come back as plain ints
    out, d = clear_denominators([Fraction(6, 3), 5, Fraction(0)])
    assert (out, d) == ([2, 5, 0], 1)
    assert all(type(v) is int for v in out)
