"""Vectorized integer elimination against the dict-row and dense Fraction oracles."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dense_rank,
    dense_rows,
    det_oracle,
    int_echelon_oracle,
    mat9_mul,
    nullspace_oracle,
    rank,
    reduce_against_oracle,
    row_to_int,
    spy_dtypes,
)
from spin9.canonical import givens9
from spin9.linalg import (
    INT64_LIMIT,
    clear_denominators,
    det,
    int_array,
    int_dtype,
    int_echelon,
    nullspace,
    reduce_against,
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


def _pivots(ech):
    return [int(c) for c in (ech != 0).argmax(axis=1)]


def test_rank_known_matrices():
    for rows, ncols, expected in (
        ([{0: 1, 1: 2}, {0: 2, 1: 4}], 2, 1),
        ([{0: 1}, {1: 1}, {0: 1, 1: 1}], 2, 2),
        ([], 2, 0),
        ([{}], 2, 0),
    ):
        assert rank(rows) == expected
        dense = np.array(dense_rows(rows, ncols), dtype=np.int64).reshape(-1, ncols)
        assert len(int_echelon(dense)) == expected


def test_row_to_int_clears_denominators():
    row = {0: Fraction(1, 2), 3: Fraction(-2, 3)}
    cleared = row_to_int(row)
    assert all(isinstance(v, int) for v in cleared.values())
    assert cleared[0] * Fraction(-2, 3) == cleared[3] * Fraction(1, 2)
    g = gcd(*(abs(v) for v in cleared.values()))
    assert g == 1


def test_nullspace_known_system():
    # x0 + x1 + x2 = 0, x0 - x1 = 0  ->  span{(1, 1, -2)}
    vecs = nullspace([[1, 1, 1], [1, -1, 0]])
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] == v[1] and v[2] == -2 * v[0]
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    assert g == 1
    assert all(type(x) is int for x in v)
    assert vecs == nullspace_oracle([{0: 1, 1: 1, 2: 1}, {0: 1, 1: -1}], 3)


def test_nullspace_vectors_satisfy_system():
    rng = random.Random(31)
    for _ in range(20):
        rows = _random_rows(rng, 6, 8)
        vecs = nullspace(dense_rows(rows, 8))
        assert vecs == nullspace_oracle(rows, 8)
        for v in vecs:
            assert any(v)
            for row in rows:
                assert sum(coef * v[c] for c, coef in row.items()) == 0


def test_rank_nullity_on_random_systems():
    rng = random.Random(32)
    for _ in range(20):
        rows = _random_rows(rng, 7, 9)
        dense = dense_rows(rows, 9)
        ech = int_echelon(dense)
        n = len(nullspace(dense))
        assert len(ech) + n == 9
        assert len(ech) == dense_rank(rows, 9) == rank(rows)
        oracle = int_echelon_oracle(row_to_int(r) for r in rows)
        assert _pivots(ech) == [c for c, _ in oracle]
        # the echelon rows have the kernel basis of the rows they came from
        assert nullspace(ech) == nullspace(dense)
        assert int_echelon(ech).tolist() == ech.tolist()


def test_reduce_against_detects_membership():
    ech = int_echelon([[1, 2, 0, 0], [0, 0, 3, 1]])
    left = reduce_against(ech, [[2, 4, 3, 1], [1, 1, 0, 0], [0, 0, 0, 0]])
    assert left.any(axis=1).tolist() == [False, True, False]
    oracle = int_echelon_oracle([{0: 1, 1: 2}, {2: 3, 3: 1}])
    assert not reduce_against_oracle(oracle, {0: 2, 1: 4, 2: 3, 3: 1})
    assert reduce_against_oracle(oracle, {0: 1, 1: 1})


def test_echelon_is_the_primitive_reduced_form():
    # one row per pivot, primitive, positive pivot, zero in the other
    # pivot columns, whatever the order of the rows
    rng = random.Random(33)
    for _ in range(20):
        rows = dense_rows(_random_rows(rng, 6, 7), 7)
        ech = int_echelon(rows)
        pivots = _pivots(ech)
        assert pivots == sorted(set(pivots))
        for k, (p, row) in enumerate(zip(pivots, ech.tolist())):
            assert row[p] > 0 and gcd(*row) == 1
            assert all(ech[j, p] == 0 for j in range(len(ech)) if j != k)
        assert int_echelon(rows[::-1]).tolist() == ech.tolist()


def test_echelon_past_the_int64_bound_finishes_in_python_ints(monkeypatch):
    # entries near 2**20: the first steps fit in int64, the cross products
    # of later ones do not, so the loop moves to Python ints partway
    rng = random.Random(34)
    rows = [
        {c: rng.randint(1 << 19, 1 << 20) * rng.choice((-1, 1)) for c in range(6)}
        for _ in range(5)
    ]
    seen = spy_dtypes(monkeypatch)
    ech = int_echelon(dense_rows(rows, 6))
    dtypes = seen.of("linalg")
    assert dtypes[0] == np.int64 and dtypes[-1] == object
    assert ech.dtype == object and max(abs(x) for x in ech.ravel()) >= 1 << 63
    assert all(type(x) is int for x in ech.ravel())
    oracle = int_echelon_oracle(rows)
    assert _pivots(ech) == [c for c, _ in oracle]
    assert nullspace(dense_rows(rows, 6)) == nullspace_oracle(rows, 6)
    left = reduce_against(ech, dense_rows(rows, 6))
    assert not left.any()
    # entries past int64 from the start stay Python ints throughout
    big = [[(1 << 70) + 1, 3], [5, 1 << 65]]
    assert int_array(big).dtype == object
    # numpy alone reads 2**63 in a list as a float; it stays an exact int
    assert int_array([[1 << 63, 1]]).tolist() == [[1 << 63, 1]]
    assert len(int_echelon(big)) == 2
    assert nullspace([[1 << 70, -(1 << 71)]]) == [[2, 1]]


def test_a_step_whose_bound_reaches_2_63_runs_in_python_ints(monkeypatch):
    # rows (P, P, 1), (-(P + 1), P, 1): the first step's bound is
    # P (P + 1) + (P + 1) P, and the minor P^2 + (P + 1) P it produces
    # reaches it; at P = 2**31 that is past int64, at P = 2**30 not
    for p, dtype in ((1 << 31, object), (1 << 30, np.int64)):
        rows = [{0: p, 1: p, 2: 1}, {0: -(p + 1), 1: p, 2: 1}]
        seen = spy_dtypes(monkeypatch)
        vecs = nullspace(dense_rows(rows, 3))
        # the rows fit int64; the first step decides on its own bound
        assert seen[:2] == [
            ("linalg", p + 1, np.int64),
            ("linalg", 2 * p * (p + 1), dtype),
        ]
        assert vecs == nullspace_oracle(rows, 3)


def test_int_dtype_takes_int64_strictly_below_2_63():
    assert int_dtype(0) is np.int64
    assert int_dtype(INT64_LIMIT - 1) is np.int64
    assert int_dtype(INT64_LIMIT) is object
    assert int_dtype(1 << 200) is object


def test_int_array_takes_the_int_dtype_of_its_largest_entry():
    # -2**63 fits int64, but its absolute value is the bound: Python ints,
    # from a list and from an int64 array alike
    low, top = -INT64_LIMIT, INT64_LIMIT - 1
    for values in ([low, 1], np.array([low, 1], dtype=np.int64)):
        a = int_array(values)
        assert a.dtype == object and a.tolist() == [low, 1]
        assert all(type(x) is int for x in a)
    for values in ([top, -top], np.array([top, -top], dtype=np.int64)):
        a = int_array(values)
        assert a.dtype == np.int64 and a.tolist() == [top, -top]


def test_float_entries_are_rejected():
    for rows in ([[1.0, 2.0]], [[1, 0.5]], [[1, Fraction(1, 2)]], [[1 << 70, 0.5]]):
        with pytest.raises(ValueError):
            int_echelon(rows)
        with pytest.raises(ValueError):
            nullspace(rows)
        with pytest.raises(ValueError):
            reduce_against(int_echelon([[1, 0]]), rows)


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
    assert len(int_echelon(mat)) == rank(rows) == dense_rank(rows, 5)


@given(small_matrix)
@settings(max_examples=40)
def test_echelon_row_space_membership(mat):
    rows = [{c: v for c, v in enumerate(row) if v} for row in mat]
    assert not reduce_against(int_echelon(mat), mat).any()
    ech = int_echelon_oracle(row_to_int(r) for r in rows)
    for row in rows:
        assert not reduce_against_oracle(ech, dict(row))


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
