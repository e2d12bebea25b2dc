"""The nine involutions, the graded product basis, and exact isometries."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import (
    apply_oracle,
    matmul_oracle,
    rand_fraction_vector,
    rand_vector,
    rank,
)
from spin9 import operators
from spin9.linalg import inner_product
from spin9.octonion import Octonion
from spin9.operators import (
    Operator16,
    RationalCirclePoint,
    Vector16,
    boost8,
    build_involutions,
    clifford_product,
    commutator,
    lambda_basis,
    rotation,
)

FAM = build_involutions()
IDENT = Operator16.identity()


def _vec_rows(op):
    return {r * 16 + c: v for r, row in enumerate(op.rows)
            for c, v in enumerate(row) if v}


def test_involution_axioms():
    for k in range(9):
        ik = FAM[k]
        assert ik.is_symmetric()
        assert ik @ ik == IDENT
    for k in range(9):
        for l in range(k + 1, 9):
            assert FAM[k] @ FAM[l] == -(FAM[l] @ FAM[k])


def test_involutions_are_isometries():
    rng = random.Random(21)
    for k in range(9):
        for _ in range(5):
            x, y = rand_vector(rng), rand_vector(rng)
            assert inner_product(FAM[k].apply(x), FAM[k].apply(y)) == inner_product(x, y)


def test_graded_counts_and_independence():
    sizes = []
    for r in range(1, 5):
        ops = lambda_basis(r)
        sizes.append(len(ops))
        assert rank([_vec_rows(op) for op in ops]) == len(ops)
    assert sizes == [9, 36, 84, 126]


def test_pair_products_are_skew():
    for i in range(9):
        for j in range(i + 1, 9):
            assert clifford_product((i, j)).is_skew()


def test_averaging_conjugation_identity():
    # sum_j I_j I_kl I_j = 5 I_kl for every pair
    for k in range(9):
        for l in range(k + 1, 9):
            ikl = clifford_product((k, l))
            acc = Operator16.zero()
            for j in range(9):
                acc = acc + FAM[j] @ ikl @ FAM[j]
            assert acc == ikl.scale(5)


def test_triple_product_outside_pair_span():
    pairs = [_vec_rows(clifford_product((i, j)))
             for i in range(9) for j in range(i + 1, 9)]
    assert rank(pairs) == 36
    witness = _vec_rows(clifford_product((0, 1, 2)))
    assert rank(pairs + [witness]) == 37


def test_pair_commutators_close():
    # [I_ij, I_kl] lies in span{I_pq}: reconstruct via trace projection,
    # using tr(A^T B) with each I_pq of squared norm 16
    pair_ops = [clifford_product((i, j))
                for i in range(9) for j in range(i + 1, 9)]
    rng = random.Random(22)
    sample = rng.sample(list(itertools.combinations(pair_ops, 2)), 60)
    for a, b in sample:
        br = commutator(a, b)
        rebuilt = Operator16.zero()
        for p in pair_ops:
            coeff = Fraction(inner_product(p, br), 16)
            if coeff:
                rebuilt = rebuilt + p.scale(coeff)
        assert rebuilt == br


def test_conjugated_commutators_disjoint_index():
    # [I_k A, I_k B] = -[A, B] exactly when k avoids both triples
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randrange(9)
        others = [i for i in range(9) if i != k]
        abc = tuple(sorted(rng.sample(others, 3)))
        defs = tuple(sorted(rng.sample(others, 3)))
        lhs = commutator(FAM[k] @ clifford_product(abc),
                         FAM[k] @ clifford_product(defs))
        assert lhs == -commutator(clifford_product(abc),
                                  clifford_product(defs))


def test_conjugated_commutators_need_disjointness():
    a = clifford_product((1, 2, 3))
    b = clifford_product((4, 5, 6))
    c = clifford_product((1, 4, 5))
    # k inside one triple: the minus-sign form fails
    assert (commutator(FAM[1] @ a, FAM[1] @ b)
            != -commutator(a, b))
    # k inside both triples: the sign flips to plus
    assert (commutator(FAM[1] @ a, FAM[1] @ c)
            == commutator(a, c))


def test_clifford_product_validation():
    with pytest.raises(ValueError):
        clifford_product((2, 1))
    with pytest.raises(ValueError):
        clifford_product((1, 1))
    with pytest.raises(ValueError):
        clifford_product((0, 9))
    assert clifford_product((3,)) == FAM[3]
    assert clifford_product((0, 1)) @ clifford_product((0, 1)) == -IDENT
    assert clifford_product([0, 1]) is clifford_product((0, 1))


def test_products_are_cached_per_tuple_on_their_prefix(monkeypatch):
    operators._product.cache_clear()
    calls = []
    matmul = Operator16.__matmul__

    def counted(a, b):
        calls.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Operator16, "__matmul__", counted)
    for r in (4, 3, 2, 1, 4):
        lambda_basis(r)
    # one product per tuple of length 2..4, each on its cached prefix
    assert len(calls) == 36 + 84 + 126
    assert calls[0] == (FAM[0], FAM[1])
    assert all(b in FAM.ops for _, b in calls)
    assert operators._product.cache_info().currsize == 255


def test_quadruple_from_commutator():
    # 2 I_{abcd} = [I_a, I_bcd] for distinct indices
    quad = clifford_product((0, 2, 5, 7))
    assert quad.scale(2) == commutator(FAM[0], clifford_product((2, 5, 7)))


circle_params = st.tuples(st.integers(-9, 9), st.integers(1, 9))


@given(circle_params)
def test_rotation_is_orthogonal(param):
    # rational circle points from the tangent half-angle parametrization
    num, den = param
    c = Fraction(den * den - num * num, den * den + num * num)
    s = Fraction(2 * num * den, den * den + num * num)
    p = RationalCirclePoint(c, s)
    rot = rotation(1, 4, p)
    assert rot.transpose() @ rot == IDENT


def test_rotation_validation():
    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    with pytest.raises(ValueError):
        rotation(4, 1, p)
    with pytest.raises(ValueError):
        rotation(1, 1, p)
    boost_pt = RationalCirclePoint(Fraction(5, 4), Fraction(3, 4))
    with pytest.raises(ValueError):
        rotation(1, 4, boost_pt)
    with pytest.raises(ValueError):
        boost8(p)


def test_circle_point_validation():
    RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    RationalCirclePoint(Fraction(5, 4), Fraction(3, 4))
    RationalCirclePoint(1, 0)
    with pytest.raises(ValueError):
        RationalCirclePoint(1, 1)
    with pytest.raises(ValueError):
        RationalCirclePoint(Fraction(-5, 4), Fraction(3, 4))


def test_constructors_reject_inexact_input():
    # (0.6, 0.8) means (3/5, 4/5) but is not exact: rejected as a float,
    # not misreported as a point off the circle
    with pytest.raises(ValueError, match="exact int or Fraction"):
        RationalCirclePoint(0.6, 0.8)
    with pytest.raises(ValueError, match="exact int or Fraction"):
        RationalCirclePoint(1, 0.0)
    with pytest.raises(ValueError, match="exact int or Fraction"):
        RationalCirclePoint(1.0, 0)
    coords = [0] * 15 + [0.5]
    with pytest.raises(ValueError, match="exact int or Fraction"):
        Vector16.from_coords(coords)
    with pytest.raises(ValueError, match="exact int or Fraction"):
        Vector16.from_coords([1.0] + [0] * 15)
    rows = [[0] * 16 for _ in range(16)]
    rows[3][7] = 0.25
    with pytest.raises(ValueError, match="exact int or Fraction"):
        Operator16(rows)
    with pytest.raises(ValueError, match="exact int or Fraction"):
        Operator16.identity(1.0)
    with pytest.raises(ValueError, match="exact int or Fraction"):
        Vector16.basis(3).scale(0.5)
    with pytest.raises(ValueError, match="exact int or Fraction"):
        0.5 * Vector16.basis(3)
    with pytest.raises(ValueError, match="exact int or Fraction"):
        Operator16.identity().scale(0.5)
    with pytest.raises(ValueError, match="exact int or Fraction"):
        0.5 * Operator16.identity()
    rows[3][7] = Fraction(1, 4)
    assert Operator16(rows).rows[3][7] == Fraction(1, 4)


def test_boost_preserves_quadratic_form():
    # c Id + s I_8 rescales the two octonion lines by reciprocal factors
    p = RationalCirclePoint(Fraction(5, 4), Fraction(3, 4))
    b = boost8(p)
    lo = b.apply(Vector16.basis(0))
    hi = b.apply(Vector16.basis(8))
    assert lo == Vector16.basis(0).scale(p.c - p.s)
    assert hi == Vector16.basis(8).scale(p.c + p.s)
    assert (p.c + p.s) * (p.c - p.s) == 1


def _rand_dense_operator(rng):
    return Operator16(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(16)]
         for _ in range(16)]
    )


def test_entries_round_trip():
    rng = random.Random(24)
    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    for op in (clifford_product((2, 6)), rotation(1, 4, p),
               _rand_dense_operator(rng), Operator16.zero()):
        entries = op.entries()
        assert entries is op.entries()
        dense = [[0] * 16 for _ in range(16)]
        for r, c, v in entries:
            assert v and type(v) is int
            dense[r][c] = v
        assert [x for row in dense for x in row] == list(op.numerators)
        d = op.denominator
        assert op.rows == tuple(tuple(Fraction(x, d) for x in row) for row in dense)
        assert [rc[:2] for rc in entries] == sorted(rc[:2] for rc in entries)
        for _ in range(5):
            v = rand_vector(rng).coords()
            by_rows = tuple(sum(a * b for a, b in zip(row, v)) for row in op.rows)
            assert op.apply(Vector16.from_coords(v)).coords() == by_rows


def _vector_entries_oracle(v):
    return tuple((k, x) for k, x in enumerate(v.numerators) if x)


def test_vector_entries_list_the_nonzero_numerators_once():
    rng = random.Random(28)
    sparse = [0] * 16
    sparse[2], sparse[9], sparse[15] = Fraction(-3, 4), 5, Fraction(1, 6)
    vectors = [
        Vector16.basis(0),
        Vector16.basis(15),
        Vector16.from_coords([0] * 16),
        Vector16.from_coords(sparse),
        rand_vector(rng),
        rand_fraction_vector(rng),
    ]
    for v in vectors:
        entries = v.entries()
        assert entries is v.entries()
        assert entries == _vector_entries_oracle(v)
        # index order, no zeros, integer numerators over the one denominator
        assert [k for k, _ in entries] == sorted({k for k, _ in entries})
        assert all(type(x) is int and x for _, x in entries)
        assert all(v.coords()[k] == Fraction(x, v.denominator) for k, x in entries)
    assert Vector16.from_coords([0] * 16).entries() == ()
    assert vectors[3].entries() == ((2, -9), (9, 60), (15, 2))
    assert vectors[3].denominator == 12


def test_vector_entries_leave_the_vector_immutable_and_its_value_alone():
    rng = random.Random(29)
    x = rand_fraction_vector(rng)
    twin = Vector16.from_coords(x.coords())
    assert twin == x and hash(twin) == hash(x)
    x.entries()
    # a filled cache does not change equality or the hash
    assert twin == x and x == twin and hash(twin) == hash(x)
    twin.entries()
    assert twin == x and hash(twin) == hash(x)
    for name in ("numerators", "denominator", "_entry_cache", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, ())
    assert x.entries() is x.entries() and x == twin


def test_vector_entries_agree_across_constructors_and_arithmetic():
    rng = random.Random(30)
    for k in range(16):
        coords = [int(t == k) for t in range(16)]
        made = (
            Vector16.basis(k),
            Vector16.from_coords(coords),
            Vector16._raw(coords),
            Vector16._raw([7 * t for t in coords], 7),
            Vector16(coords),
        )
        assert all(v.entries() == ((k, 1),) for v in made)
    for _ in range(5):
        x, y = rand_fraction_vector(rng), rand_vector(rng)
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        for v in (x + y, x - y, -x, x.scale(t), t * y, FAM[rng.randrange(9)].apply(x)):
            assert v.entries() == _vector_entries_oracle(v)
            assert v.entries() == Vector16.from_coords(v.coords()).entries()


def test_apply_with_fraction_entries_matches_the_per_entry_oracle():
    rng = random.Random(26)
    ops = (
        rotation(0, 1, RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))),
        rotation(2, 7, RationalCirclePoint(Fraction(-5, 13), Fraction(12, 13))),
        boost8(RationalCirclePoint(Fraction(5, 4), Fraction(3, 4))),
        _rand_dense_operator(rng),
    )
    vectors = [Vector16.basis(3), Vector16.from_coords([260] * 16)]
    vectors += [rand_vector(rng) for _ in range(3)]
    vectors += [rand_fraction_vector(rng) for _ in range(3)]
    for op in ops:
        entries, d = op.entries(), op.denominator
        assert d > 1 and entries is op.entries()
        assert all(type(x) is int for _, _, x in entries)
        for v in vectors:
            out = op.apply(v).coords()
            assert list(out) == apply_oracle(op, v)
            # whole results come back as ints, the others as Fractions
            assert all(
                type(x) is (int if Fraction(x).denominator == 1 else Fraction)
                for x in out
            )
    # denominators 5, 13 and 4 all divide 260: every coordinate is an int
    for op in ops[:3]:
        assert all(type(x) is int for x in op.apply(vectors[1]).coords())


def test_matmul_matches_dense_oracle():
    rng = random.Random(25)
    dense = [_rand_dense_operator(rng) for _ in range(3)]
    for a, b in itertools.product(dense, repeat=2):
        assert a @ b == matmul_oracle(a, b)
    for ops in (FAM.ops, lambda_basis(2)):
        few = ops[::5]
        for a, b in itertools.chain(itertools.product(ops, few),
                                    itertools.product(few, ops)):
            assert a @ b == matmul_oracle(a, b)
        for a in ops[::4]:
            assert a @ dense[0] == matmul_oracle(a, dense[0])
            assert dense[0] @ a == matmul_oracle(dense[0], a)


def test_pair_products_are_the_lex_pairs():
    pairs = list(itertools.combinations(range(9), 2))
    assert lambda_basis(2) == tuple(
        matmul_oracle(FAM[i], FAM[j]) for i, j in pairs
    )


def test_clifford_product_matches_oracle_on_every_index_tuple():
    count = 0
    for r in range(1, 5):
        for idx in itertools.combinations(range(9), r):
            expected = FAM[idx[0]]
            for i in idx[1:]:
                expected = matmul_oracle(expected, FAM[i])
            assert clifford_product(idx) == expected
            count += 1
    assert count == 255


def test_skew_and_symmetric_read_the_numerators_against_their_transpose():
    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    rot = rotation(1, 6, p)  # 3/5 Id + 4/5 I_1 I_6: neither skew nor symmetric
    boost = boost8(RationalCirclePoint(Fraction(5, 4), Fraction(3, 4)))
    pair = clifford_product((2, 7))
    rows = [list(row) for row in pair.rows]
    rows[4][9] += Fraction(1, 3)  # one entry off its mirror image
    off = Operator16(rows)
    cases = [
        (rot, False, False),
        (rot - rot.transpose(), True, False),
        (boost, False, True),
        (pair, True, False),
        (pair @ pair, False, True),  # = -Id
        (off, False, False),
        (off - off.transpose(), True, False),
        (Operator16.zero(), True, True),
    ]
    for op, skew, symmetric in cases:
        assert op.is_skew() is skew == (op == -op.transpose())
        assert op.is_symmetric() is symmetric == (op == op.transpose())
    assert off.denominator == 3 and rot.denominator == 5


def test_vectors_and_operators_are_kept_in_lowest_terms():
    half = [Fraction(2, 4)] + [Fraction(k, 2) for k in range(2, 17)]
    first = Vector16.from_coords(half)
    paths = [
        first,
        Vector16.from_coords([Fraction(1, 2)] + half[1:]),
        Vector16.from_coords(range(1, 17)).scale(Fraction(1, 2)),
        Vector16._raw([3 * k for k in range(1, 17)], 6),
        Vector16(first.coords()),
    ]
    for v in paths:
        assert (v.numerators, v.denominator) == (tuple(range(1, 17)), 2)
        assert v == paths[0] and hash(v) == hash(paths[0])
    x = rand_fraction_vector(random.Random(27))
    zero = x - x
    assert (zero.numerators, zero.denominator) == ((0,) * 16, 1)
    assert zero == Vector16.from_coords([0] * 16) and hash(zero) == hash(
        Vector16.from_coords([0] * 16)
    )

    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    rot = rotation(0, 3, p)
    assert rot.denominator == 5
    whole = rot.scale(5)
    ints = Operator16.identity(3) + clifford_product((0, 3)).scale(4)
    assert whole.denominator == ints.denominator == 1
    assert whole.numerators == ints.numerators and hash(whole) == hash(ints)
    assert rot == ints.scale(Fraction(2, 10)) and hash(rot) == hash(
        ints.scale(Fraction(1, 5))
    )
    gone = rot - rot
    assert gone == Operator16.zero() and gone.denominator == 1
    assert hash(gone) == hash(Operator16.zero())


def test_whole_values_come_back_as_ints():
    v = Vector16.from_coords(
        [Fraction(1, 2), 3] + [Fraction(k, 4) for k in range(14)]
    )
    coords = v.coords()
    assert type(coords[1]) is int and coords[1] == 3
    assert type(coords[2]) is int and coords[2] == 0
    assert coords[0] == Fraction(1, 2)
    w = Vector16.from_coords([Fraction(3, 2)] + [Fraction(1, 2)] * 3 + [0] * 12)
    assert type(inner_product(w, w)) is int and inner_product(w, w) == 3
    assert inner_product(w, Vector16.basis(1)) == Fraction(1, 2)
    boost = boost8(RationalCirclePoint(Fraction(5, 4), Fraction(3, 4)))
    assert boost.denominator == 2  # entries 5/4 -+ 3/4
    assert type(inner_product(IDENT, boost)) is int and inner_product(IDENT, boost) == 20
    assert boost.rows[0][0] == Fraction(1, 2) and type(boost.rows[8][8]) is int
    rot = rotation(0, 3, RationalCirclePoint(Fraction(3, 5), Fraction(4, 5)))
    assert inner_product(IDENT, rot) == Fraction(48, 5)
    assert type(inner_product(IDENT, rot.scale(5))) is int
    # a denominator of 1 hands out the stored numerators, cut into rows
    assert IDENT.coords() is IDENT.numerators
    assert IDENT.rows == tuple(IDENT.numerators[k:k + 16] for k in range(0, 256, 16))
    assert all(type(x) is int for row in IDENT.rows for x in row)


def test_operator_truth_is_any_nonzero_entry():
    assert not Operator16.zero() and not IDENT - IDENT
    one = [[0] * 16 for _ in range(16)]
    one[15][3] = Fraction(1, 7)
    assert Operator16(one) and IDENT and FAM[8]
    assert not Vector16.from_coords([0] * 16) and not Octonion((0,) * 8)


def test_one_inner_product_serves_octonions_vectors_and_operators():
    x, y = Vector16.basis(3).scale(Fraction(1, 2)), Vector16.basis(3).scale(6)
    u, w = Octonion.unit(3, Fraction(1, 2)), Octonion.unit(3, 6)
    assert inner_product(x, y) == 3 and inner_product(u, w) == 3
    # on operators it is the trace of a^T b
    a, b = rotation(1, 2, RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))), FAM[4]
    assert inner_product(a, b) == sum((a.transpose() @ b).rows[k][k] for k in range(16))
    assert inner_product(IDENT, IDENT) == 16


def test_tuples_of_two_types_do_not_combine():
    # zip would cut the longer tuple short: a vector plus an octonion
    # would keep 8 numerators, an operator plus a vector 16
    v, o = Vector16.basis(3), Octonion.unit(3)
    for x, y in ((v, o), (o, v), (IDENT, v), (v, IDENT), (IDENT, o)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y
        with pytest.raises(TypeError):
            inner_product(x, y)
    assert v + v == v.scale(2) and inner_product(v, v) == 1
