"""Octonion arithmetic against an independent dense-quaternion oracle."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import associator, cross_oct, oct_mul_oracle, rand_octonion, unit_conj
from spin9.linalg import inner_product
from spin9.octonion import (
    SIGN,
    Octonion,
    apply_matrix8,
    automorphism_from_triple,
    oct_mul,
    term_mul,
    unit_mul,
)

UNITS = [Octonion.unit(k) for k in range(8)]

small_coeffs = st.lists(st.integers(-4, 4), min_size=8, max_size=8)
small_oct = small_coeffs.map(Octonion)


def test_unit_table_matches_doubling_oracle():
    for a, b in itertools.product(range(8), repeat=2):
        got = (UNITS[a] * UNITS[b]).coords()
        want = oct_mul_oracle(UNITS[a].coords(), UNITS[b].coords())
        assert got == tuple(want)


def test_unit_products_are_indexed_by_xor():
    for a, b in itertools.product(range(8), repeat=2):
        ua, ub = UNITS[a].coords(), UNITS[b].coords()
        assert oct_mul_oracle(ua, ub) == Octonion.unit(a ^ b, SIGN[a][b]).coords()
        assert (Octonion(ua) * Octonion(ub)).coords() == oct_mul_oracle(ua, ub)
    rng = random.Random(31)
    zero = (Fraction(0),) * 8
    samples = [zero, (0,) * 8]
    for _ in range(20):
        density = rng.random()
        samples.append(tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            if rng.random() < density else 0
            for _ in range(8)
        ))
    for x, y in itertools.product(samples, repeat=2):
        assert (Octonion(x) * Octonion(y)).coords() == oct_mul_oracle(x, y)
        assert (Octonion(list(x)) * Octonion(list(y))).coords() == oct_mul_oracle(x, y)
    for x in samples:
        assert Octonion(x).conj().coords() == (x[0],) + tuple(-a for a in x[1:])


def test_term_product_matches_the_oracle_on_nonzero_terms():
    # terms in, nonzero terms out in index order; an empty factor gives
    # no terms, and cancellation leaves a coefficient out
    rng = random.Random(33)
    samples = [(0,) * 8, (1,) + (0,) * 7, (0, 0, 0, 0, 0, -3, 0, 0)]
    for _ in range(20):
        density = rng.random()
        samples.append(tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            if rng.random() < density else 0
            for _ in range(8)
        ))
    for x, y in itertools.product(samples, repeat=2):
        xs = [(a, v) for a, v in enumerate(x) if v]
        ys = [(b, v) for b, v in enumerate(y) if v]
        want = oct_mul_oracle(x, y)
        assert term_mul(xs, ys) == [(k, v) for k, v in enumerate(want) if v]
    one = [(1, 1), (2, 1)]
    # (i + j)(i - j) = -1 - ij + ji + 1 = -2 ij and (i + j)^2 = -2: each
    # leaves out the coefficient that cancels
    assert term_mul(one, [(1, 1), (2, -1)]) == [(3, -2)]
    assert term_mul(one, one) == [(0, -2)]
    assert term_mul([], one) == term_mul(one, []) == []


def test_batched_product_matches_the_scalar_loop_and_the_oracle():
    rng = np.random.default_rng(32)
    x = rng.integers(-(1 << 20), 1 << 20, size=(5, 3, 8))
    y = rng.integers(-(1 << 20), 1 << 20, size=(5, 3, 8))
    x[0, 0] = 0  # a zero factor
    y[1, :, 1:] = 0  # real right factors
    out = oct_mul(x, y)
    assert out.shape == (5, 3, 8) and out.dtype == np.int64
    # on Python ints the products pass 2**63 and stay exact
    big_x, big_y = x.astype(object) << 50, y.astype(object) << 60
    big = oct_mul(big_x, big_y)
    assert big.dtype == object and max(abs(v) for v in big.flat) >= 1 << 63
    for k in np.ndindex(5, 3):
        a, b = x[k].tolist(), y[k].tolist()
        scalar = (Octonion(a) * Octonion(b)).coords()
        assert tuple(out[k].tolist()) == scalar == oct_mul_oracle(a, b)
        a, b = big_x[k].tolist(), big_y[k].tolist()
        scalar = (Octonion(a) * Octonion(b)).coords()
        assert tuple(big[k].tolist()) == scalar == oct_mul_oracle(a, b)
    units = np.eye(8, dtype=np.int64)
    for a, b in itertools.product(range(8), repeat=2):
        assert oct_mul(units[a], units[b])[a ^ b] == SIGN[a][b]


def test_hand_checked_products():
    # quaternion block, doubling products, and the e-block sign
    assert UNITS[1] * UNITS[2] == UNITS[3]
    assert UNITS[2] * UNITS[1] == -UNITS[3]
    assert UNITS[1] * UNITS[4] == UNITS[5]
    assert UNITS[2] * UNITS[4] == UNITS[6]
    assert UNITS[3] * UNITS[4] == UNITS[7]
    assert UNITS[4] * UNITS[4] == -UNITS[0]
    assert UNITS[5] * UNITS[1] == UNITS[4]
    for k in range(1, 8):
        assert UNITS[k] * UNITS[k] == -UNITS[0]


@given(small_oct, small_oct)
def test_dense_product_matches_oracle(x, y):
    assert (x * y).coords() == oct_mul_oracle(x.coords(), y.coords())


def test_unit_mul_signed_pairs():
    for a in range(8):
        for b in range(8):
            prod = oct_mul_oracle(UNITS[a].coords(), UNITS[b].coords())
            (k, s), = [(k, s) for k, s in enumerate(prod) if s]
            assert unit_mul((1, a), (1, b)) == (s, k)
            assert unit_mul((-1, a), (1, b)) == (-s, k)
    assert unit_conj((1, 0)) == (1, 0)
    assert unit_conj((1, 3)) == (-1, 3)


def test_anticommuting_imaginary_units():
    for a in range(1, 8):
        for b in range(1, 8):
            if a != b:
                assert UNITS[a] * UNITS[b] == -(UNITS[b] * UNITS[a])


def test_associator_alternates_on_all_basis_triples():
    # 512 triples: the associator vanishes whenever two slots coincide
    # and is totally antisymmetric in its arguments
    for a, b, c in itertools.product(UNITS, repeat=3):
        t = associator(a, b, c)
        assert associator(b, a, c) == -t
        assert associator(a, c, b) == -t
    for a, b in itertools.product(UNITS, repeat=2):
        assert not associator(a, a, b)
        assert not associator(a, b, b)
        assert not associator(a, b, a)


@given(small_oct, small_oct)
def test_alternative_laws(x, y):
    assert (x * x) * y == x * (x * y)
    assert (x * y) * y == x * (y * y)
    assert (x * y) * x == x * (y * x)


@given(small_oct, small_oct)
def test_norm_composition(x, y):
    assert inner_product(x * y, x * y) == inner_product(x, x) * inner_product(y, y)


@given(small_oct, small_oct)
def test_conjugation_reverses_products(x, y):
    assert (x * y).conj() == y.conj() * x.conj()


@given(small_oct)
def test_conjugation_norm_form(x):
    n = inner_product(x, x)
    assert x * x.conj() == Octonion.unit(0, n)
    assert x.conj() * x == Octonion.unit(0, n)


def test_moufang_identity_sampled():
    rng = random.Random(11)
    for _ in range(60):
        x, y, z = (rand_octonion(rng) for _ in range(3))
        assert (x * y) * (z * x) == x * ((y * z) * x)


def test_inner_product_associativity_rules():
    rng = random.Random(12)
    for _ in range(40):
        a, b, c = (rand_octonion(rng) for _ in range(3))
        assert inner_product(a * b, c) == inner_product(b, a.conj() * c)
        assert inner_product(a * b, c) == inner_product(a, c * b.conj())
        assert inner_product(a, b) == inner_product(a.conj(), b.conj())


def test_cross_product_of_units():
    # cross(u, v) = Im(conj(v) u); conj(u2) u1 = -u2 u1 = u3
    assert cross_oct(UNITS[1], UNITS[2]) == UNITS[3]
    assert not cross_oct(UNITS[1], UNITS[1])
    rng = random.Random(13)
    for _ in range(30):
        u, v = rand_octonion(rng), rand_octonion(rng)
        assert cross_oct(u, v) == (v.conj() * u - u.conj() * v).scale(Fraction(1, 2))
        assert not cross_oct(u, u)


def test_cross_product_skew():
    rng = random.Random(14)
    for _ in range(30):
        u, v = rand_octonion(rng), rand_octonion(rng)
        assert cross_oct(u, v) == -cross_oct(v, u)


def test_scalar_and_fraction_coefficients():
    x = Octonion([Fraction(1, 2)] + [0] * 7)
    y = Octonion([0, Fraction(2, 3)] + [0] * 6)
    assert x * y == Octonion([0, Fraction(1, 3)] + [0] * 6)
    assert (x + y) - y == x
    assert x.scale(4) == Octonion([2] + [0] * 7)


def test_arithmetic_matches_fractions_on_mixed_denominators():
    # each octonion holds its coefficients over one common denominator in
    # lowest terms; every result equals the validated octonion of the same
    # Fraction sums, so a result left unreduced fails the equality
    rng = random.Random(35)

    def fractions():
        return tuple(
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 6, 7)))
            for _ in range(8)
        )

    for _ in range(40):
        x, y = fractions(), fractions()
        a, b = Octonion(x), Octonion(y)
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert a + b == Octonion(p + q for p, q in zip(x, y))
        assert a - b == Octonion(p - q for p, q in zip(x, y))
        assert -a == Octonion(-p for p in x)
        assert a.scale(t) == t * a == a * t == Octonion(t * p for p in x)
        assert a * b == Octonion(oct_mul_oracle(x, y))
        assert a.conj() == Octonion((x[0],) + tuple(-p for p in x[1:]))
        assert inner_product(a, b) == sum(p * q for p, q in zip(x, y))
    # the real part of a - a is a whole 0, and (3/2) u0 + (3/2) u0 is 3
    a = Octonion.unit(0, Fraction(3, 2))
    assert type((a - a).coords()[0]) is int and type((a + a).coords()[0]) is int
    assert (a + a).denominator == 1 and inner_product(a, a) == Fraction(9, 4)


def test_automorphism_identity_triple():
    rows = automorphism_from_triple((1, 1), (1, 2), (1, 4))
    for k in range(8):
        assert apply_matrix8(rows, UNITS[k]) == UNITS[k]


def test_automorphism_worked_example():
    rows = automorphism_from_triple((1, 2), (1, 1), (1, 4))
    assert apply_matrix8(rows, UNITS[1]) == UNITS[2]
    assert apply_matrix8(rows, UNITS[2]) == UNITS[1]
    assert apply_matrix8(rows, UNITS[4]) == UNITS[4]
    assert apply_matrix8(rows, UNITS[3]) == -UNITS[3]


@pytest.mark.parametrize(
    "triple",
    [
        ((1, 1), (1, 2), (1, 4)),
        ((1, 2), (1, 1), (1, 4)),
        ((-1, 3), (1, 5), (1, 1)),
        ((1, 6), (-1, 2), (1, 5)),
    ],
)
def test_automorphism_preserves_products(triple):
    rows = automorphism_from_triple(*triple)
    for a, b in itertools.product(UNITS, repeat=2):
        fa = apply_matrix8(rows, a)
        fb = apply_matrix8(rows, b)
        assert apply_matrix8(rows, a * b) == fa * fb


def test_automorphism_rejects_bad_triples():
    with pytest.raises(ValueError):
        automorphism_from_triple((1, 0), (1, 2), (1, 4))
    with pytest.raises(ValueError):
        automorphism_from_triple((2, 1), (1, 2), (1, 4))
    with pytest.raises(ValueError):
        automorphism_from_triple((1, 1), (1, 1), (1, 4))
    with pytest.raises(ValueError):
        automorphism_from_triple((1, 1), (-1, 1), (1, 4))
    with pytest.raises(ValueError):
        # third unit must avoid the quaternion algebra of the first two
        automorphism_from_triple((1, 1), (1, 2), (1, 3))


def test_octonion_immutability_and_validation():
    with pytest.raises(ValueError):
        Octonion([1, 2, 3])
    x = Octonion.unit(3)
    with pytest.raises(AttributeError):
        x.numerators = ()
    with pytest.raises(ValueError):
        Octonion.unit(8)


def test_octonion_rejects_inexact_coefficients():
    for bad in (0.5, 1.0, np.float64(2), "1"):
        with pytest.raises(ValueError, match="exact int or Fraction"):
            Octonion([bad] + [0] * 7)
        with pytest.raises(ValueError, match="exact int or Fraction"):
            Octonion.unit(2, bad)
        with pytest.raises(ValueError, match="exact int or Fraction"):
            Octonion.unit(1).scale(bad)
        with pytest.raises(ValueError, match="exact int or Fraction"):
            Octonion.unit(1) * bad
        with pytest.raises(ValueError, match="exact int or Fraction"):
            bad * Octonion.unit(1)
    x = Octonion([Fraction(1, 2), True, 0, 0, 0, 0, 0, -3])
    assert x.coords() == (Fraction(1, 2), 1, 0, 0, 0, 0, 0, -3)
