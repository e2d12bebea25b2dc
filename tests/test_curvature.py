"""Four curvature expressions, their symmetries, and the pinching bounds."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import curvature_oracle, rand_fraction_vector, rand_vector
from spin9.curvature import (
    averaging_identity,
    clifford_coefficients,
    curvature_brown_gray,
    curvature_entry,
    curvature_omega,
    curvature_prime_octonion,
    curvature_prime_operator,
    s_prime_octonion,
    s_prime_operator,
    sectional_curvature,
)
from spin9.linalg import inner_product
from spin9.operators import (
    Operator16,
    RationalCirclePoint,
    Vector16,
    build_involutions,
    clifford_product,
    lambda_basis,
    rotation,
)

FAM = build_involutions()
BASIS = [Vector16.basis(k) for k in range(16)]
C = 4
EXPRS = (
    curvature_omega,
    curvature_brown_gray,
    curvature_prime_operator,
    curvature_prime_octonion,
)


def test_four_expressions_agree_on_random_triples():
    rng = random.Random(61)
    for _ in range(40):
        x, y, z = (rand_vector(rng) for _ in range(3))
        ref = curvature_omega(x, y, z, C)
        for f in EXPRS[1:]:
            assert f(x, y, z, C) == ref
    for _ in range(5):
        x, y, z = (rand_fraction_vector(rng) for _ in range(3))
        ref = curvature_omega(x, y, z, C)
        for f in EXPRS[1:]:
            assert f(x, y, z, C) == ref


def test_four_expressions_agree_on_all_basis_triples():
    for x, y, z in itertools.product(BASIS, repeat=3):
        ref = curvature_omega(x, y, z, C)
        for f in EXPRS[1:]:
            assert f(x, y, z, C) == ref


@pytest.mark.parametrize("c", (4, Fraction(1, 2)))
def test_ricci_trace_pins_the_sign(c):
    # sum_a <R(e_a, e_j) e_k, e_a> = -9c delta_jk: Ric = 9c g with R_XY
    # the negative of the commutator curvature (-36 at c = 4)
    for f in EXPRS:
        for j, k in itertools.product(range(16), repeat=2):
            trace = sum(
                f(BASIS[a], BASIS[j], BASIS[k], c).coords()[a] for a in range(16)
            )
            assert trace == (-9 * c if j == k else 0)


def test_four_expressions_agree_on_basis_sample():
    rng = random.Random(62)
    for _ in range(60):
        x, y, z = (BASIS[rng.randrange(16)] for _ in range(3))
        ref = curvature_omega(x, y, z, C)
        for f in EXPRS[1:]:
            assert f(x, y, z, C) == ref


def test_potential_terms_differ_termwise():
    # the operator-style and octonion-style potentials disagree termwise;
    # the counterexample at X = Y = Z = e0 is pinned exactly
    e0 = BASIS[0]
    assert s_prime_operator(e0, e0, e0, C) == e0.scale(-4)
    assert s_prime_octonion(e0, e0, e0, C) == e0.scale(-2)


def test_potential_difference_is_symmetric():
    # the termwise defect cancels in X wedge Y antisymmetrization
    rng = random.Random(63)
    for _ in range(15):
        x, y, z = (rand_vector(rng) for _ in range(3))
        dxy = s_prime_operator(x, y, z, C) - s_prime_octonion(x, y, z, C)
        dyx = s_prime_operator(y, x, z, C) - s_prime_octonion(y, x, z, C)
        assert dxy == dyx


def test_first_bianchi_identity():
    rng = random.Random(64)
    zero = Vector16.from_coords([0] * 16)
    for _ in range(25):
        x, y, z = (rand_vector(rng) for _ in range(3))
        acc = (
            curvature_omega(x, y, z, C)
            + curvature_omega(y, z, x, C)
            + curvature_omega(z, x, y, C)
        )
        assert acc == zero


def test_skew_and_pair_symmetries():
    rng = random.Random(65)
    for _ in range(20):
        x, y, z, w = (rand_vector(rng) for _ in range(4))
        assert curvature_entry(x, y, z, w, C) == -curvature_entry(
            y, x, z, w, C
        )
        assert curvature_entry(x, y, z, w, C) == -curvature_entry(
            x, y, w, z, C
        )
        assert curvature_entry(x, y, z, w, C) == curvature_entry(
            z, w, x, y, C
        )


def test_rotation_equivariance():
    rng = random.Random(66)
    p = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
    for pair in ((0, 1), (4, 8)):
        a = rotation(pair[0], pair[1], p)
        for _ in range(5):
            x, y, z = (rand_vector(rng) for _ in range(3))
            assert curvature_omega(
                a.apply(x), a.apply(y), a.apply(z), C
            ) == a.apply(curvature_omega(x, y, z, C))


def test_scale_linearity_in_c():
    rng = random.Random(67)
    x, y, z = (rand_vector(rng) for _ in range(3))
    assert curvature_omega(x, y, z, 8) == curvature_omega(x, y, z, 4).scale(2)
    assert curvature_omega(x, y, z, Fraction(1, 2)) == curvature_omega(
        x, y, z, 1
    ).scale(Fraction(1, 2))
    with pytest.raises(ValueError):
        curvature_omega(x, y, z, 0)


def test_averaging_identity_random():
    rng = random.Random(68)
    for _ in range(10):
        x, y, z = (rand_vector(rng) for _ in range(3))
        assert averaging_identity(x, y, z, C).passed


def test_conjugation_average_of_pairs():
    for k, l in ((0, 1), (2, 8), (5, 6)):
        ikl = clifford_product((k, l))
        acc = Operator16.zero()
        for j in range(9):
            acc = acc + FAM[j] @ ikl @ FAM[j]
        assert acc == ikl.scale(5)


def test_plane_multiplicity_counts():
    # sum over pairs of omega_ij(e0, e_m)^2: 4 within the octonion line,
    # 1 across the two lines
    for m in range(1, 16):
        total = 0
        for i in range(9):
            for j in range(i + 1, 9):
                v = inner_product(
                    BASIS[0], clifford_product((i, j)).apply(BASIS[m])
                )
                total += v * v
        assert total == (4 if m < 8 else 1)


@pytest.mark.parametrize("grade", [1, 2, 3, 4])
def test_clifford_coefficients_match_applied_products(grade):
    # numerators of <x, P y> over d_x d_y, in the order of lambda_basis
    rng = random.Random(70 + grade)
    pairs = [(rand_vector(rng), rand_vector(rng)) for _ in range(3)]
    pairs += [(rand_fraction_vector(rng), rand_fraction_vector(rng)) for _ in range(3)]
    pairs += [(BASIS[3], BASIS[12]), (rand_vector(rng), Vector16.from_coords([0] * 16))]
    for x, y in pairs:
        got = clifford_coefficients(grade, x, y)
        assert all(type(c) is int for c in got)
        d = x.denominator * y.denominator
        want = [inner_product(x, p.apply(y)) for p in lambda_basis(grade)]
        assert [Fraction(c, d) for c in got] == want


def test_pinching_endpoints():
    assert sectional_curvature(BASIS[0], BASIS[1], C) == 4
    assert sectional_curvature(BASIS[0], BASIS[8], C) == 1


def test_pinching_interval_random_planes():
    rng = random.Random(69)
    seen = 0
    for _ in range(200):
        v, w = rand_vector(rng), rand_vector(rng)
        try:
            k = sectional_curvature(v, w, C)
        except ValueError:
            continue
        seen += 1
        assert 1 <= k <= 4
    assert seen > 150


def test_sectional_rejects_dependent_planes():
    with pytest.raises(ValueError):
        sectional_curvature(BASIS[0], BASIS[0].scale(3), C)


def test_curvature_zero_on_degenerate_inputs():
    zero = Vector16.from_coords([0] * 16)
    x = BASIS[2]
    assert curvature_omega(x, x, BASIS[5], C) == zero
    assert curvature_omega(x, zero, BASIS[5], C) == zero


# integer-cleared expressions against the Fraction-throughout oracle --------

SCALES = (4, 8, Fraction(1, 2), Fraction(-3, 7))


def _coprime_vector(rng):
    return Vector16.from_coords(
        [Fraction(rng.randint(-20, 20), rng.choice((7, 9, 11, 13)))
         for _ in range(16)]
    )


def _one_denominator_vector(rng, d):
    return Vector16.from_coords(
        [Fraction(rng.randint(-20, 20), d) for _ in range(16)]
    )


def _mixed_vector(rng):
    return Vector16.from_coords(
        [rng.randint(-5, 5) if rng.random() < 0.5
         else Fraction(rng.randint(-5, 5), rng.randint(1, 6))
         for _ in range(16)]
    )


def _sparse_vector(rng):
    """1-3 nonzero Fraction coordinates with mixed denominators."""
    coords = [0] * 16
    for k in rng.sample(range(16), rng.randint(1, 3)):
        coords[k] = Fraction(rng.choice((-5, -3, -1, 1, 2, 7)), rng.randint(1, 9))
    return Vector16.from_coords(coords)


def _big_vector(rng):
    return Vector16.from_coords(
        [rng.randint(-(1 << 40), 1 << 40) for _ in range(16)]
    )


def _oracle_quadruples():
    rng = random.Random(70)
    zero = Vector16.from_coords([0] * 16)
    quads = [tuple(_coprime_vector(rng) for _ in range(4)) for _ in range(3)]
    quads.append(tuple(_one_denominator_vector(rng, d) for d in (7, 9, 11, 13)))
    quads += [tuple(_mixed_vector(rng) for _ in range(4)) for _ in range(3)]
    quads += [tuple(_big_vector(rng) for _ in range(4)) for _ in range(2)]
    quads += [tuple(_sparse_vector(rng) for _ in range(4)) for _ in range(6)]
    quads += [(_sparse_vector(rng), _coprime_vector(rng), _sparse_vector(rng),
               _mixed_vector(rng)) for _ in range(2)]
    x, y = _mixed_vector(rng), _coprime_vector(rng)
    z, w = rand_vector(rng), _big_vector(rng)
    quads += [(zero, y, z, w), (x, zero, z, w), (x, y, zero, w), (zero,) * 4]
    quads.append(tuple(rand_fraction_vector(rng) for _ in range(4)))
    return quads


@pytest.mark.parametrize("c", SCALES)
def test_expressions_match_fraction_oracle(c):
    for x, y, z, w in _oracle_quadruples():
        ref = curvature_oracle(x, y, z, c)
        for f in EXPRS:
            assert f(x, y, z, c) == ref
        assert s_prime_operator(x, y, z, c) - s_prime_operator(y, x, z, c) == ref
        assert s_prime_octonion(x, y, z, c) - s_prime_octonion(y, x, z, c) == ref
        assert curvature_entry(x, y, z, w, c) == inner_product(ref, w)


BLOCK_SHAPES = ("low", "high", "one")


def _block_vector(rng, shape):
    """Nonzero Fraction coordinates on the low octonion half only, the
    high half only, or one coordinate."""
    if shape == "one":
        support = [rng.randrange(16)]
    else:
        support = range(8) if shape == "low" else range(8, 16)
    coords = [0] * 16
    for k in support:
        coords[k] = Fraction(rng.choice((-5, -3, -1, 1, 2, 7)), rng.randint(1, 6))
    return Vector16.from_coords(coords)


@pytest.mark.parametrize("c", SCALES)
def test_expressions_match_fraction_oracle_on_block_supported_inputs(c):
    # the octonion expressions skip every product with an empty factor, so
    # all 27 combinations of low-only, high-only and one-coordinate X, Y
    # and Z are checked
    rng = random.Random(72)
    w = rand_fraction_vector(rng)
    nonzero = 0
    for shapes in itertools.product(BLOCK_SHAPES, repeat=3):
        x, y, z = (_block_vector(rng, shape) for shape in shapes)
        ref = curvature_oracle(x, y, z, c)
        nonzero += bool(ref)
        for f in EXPRS:
            assert f(x, y, z, c) == ref, (f.__name__, shapes)
        assert s_prime_operator(x, y, z, c) - s_prime_operator(y, x, z, c) == ref
        assert s_prime_octonion(x, y, z, c) - s_prime_octonion(y, x, z, c) == ref
        assert curvature_entry(x, y, z, w, c) == inner_product(ref, w)
    assert nonzero >= 20


@pytest.mark.parametrize("c", SCALES)
def test_sectional_curvature_matches_fraction_oracle(c):
    seen = 0
    for v, w, _, _ in _oracle_quadruples():
        gram = inner_product(v, v) * inner_product(w, w) - inner_product(v, w) ** 2
        if not gram:
            continue
        seen += 1
        expected = Fraction(inner_product(curvature_oracle(v, w, v, c), w)) / gram
        assert sectional_curvature(v, w, c) == expected
    assert seen >= 9


def test_integer_inputs_at_c4_give_plain_ints():
    rng = random.Random(71)
    x, y, z = (rand_vector(rng) for _ in range(3))
    for f in EXPRS + (s_prime_operator, s_prime_octonion):
        assert all(type(v) is int for v in f(x, y, z, C).coords())
    assert type(curvature_entry(x, y, z, x, C)) is int


BAD_INPUTS = ("c-float", "c-zero", "x-float", "y-float", "z-float")


@pytest.mark.parametrize("kind", BAD_INPUTS)
def test_expressions_reject_inexact_input_and_zero_scale(kind):
    x, y, z = BASIS[0], BASIS[1], BASIS[9]
    c = {"c-float": 0.3, "c-zero": 0}.get(kind, C)
    if not kind.startswith("c-"):
        # no vector holds a float: the vector constructor rejects it
        coords = [0] * 16
        coords[3] = 0.5
        with pytest.raises(ValueError):
            Vector16(coords)
        return
    for f in EXPRS + (s_prime_operator, s_prime_octonion):
        with pytest.raises(ValueError):
            f(x, y, z, c)
    with pytest.raises(ValueError):
        averaging_identity(x, y, z, c)
    with pytest.raises(ValueError):
        curvature_entry(x, y, z, BASIS[2], c)
    with pytest.raises(ValueError):
        sectional_curvature(x, y, c)


def test_entry_rejects_inexact_fourth_vector():
    with pytest.raises(ValueError):
        Vector16([0.25] + [0] * 15)


def test_float_scale_with_zero_value_is_rejected():
    with pytest.raises(ValueError):
        curvature_omega(BASIS[0], BASIS[1], BASIS[0], 0.0)
    with pytest.raises(ValueError):
        sectional_curvature(BASIS[0], BASIS[1], 4.0)
