"""The canonical 8-form: anchors, symmetries, corollaries, conventions."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    alt_grouping_oracle,
    mat9_mul,
    quadruple_sum_oracle,
    rand_fraction_vector,
    rand_octonion,
    rand_vector,
    spy_dtypes,
    spy_plans,
    w_tilde_oracle,
)
from spin9 import exterior
from spin9.canonical import (
    build_8form_from_two_forms,
    canonical_8form,
    canonical_8form_alt,
    conjecture_8form,
    conjecture_verdict,
    export_coefficients,
    flat,
    four_form_omega_sum,
    four_form_sigma_sum,
    frame_change_fixes,
    friedrich_identities,
    givens9,
    omega2,
    rotation_fixes,
    sigma2,
    w_tilde,
)
from spin9.exterior import AlternatingForm, wedge_sum
from spin9.linalg import LIMBS, inner_product
from spin9.octonion import Octonion
from spin9.operators import (
    Operator16,
    RationalCirclePoint,
    Vector16,
    clifford_product,
)
from spin9 import canonical
from spin9.canonical import bianchi_cyclic_residual

FRAME8 = [Vector16.basis(k) for k in range(8)]
P1 = RationalCirclePoint(Fraction(3, 5), Fraction(4, 5))
P2 = RationalCirclePoint(Fraction(5, 13), Fraction(12, 13))


def test_eight_form_anchor_value(omega8):
    assert omega8.evaluate(FRAME8) == -20160
    assert -20160 == -14 * 1440


def test_eight_form_term_count(omega8):
    assert omega8.term_count() == 702
    assert all(v for _, v in omega8.items())


def test_eight_form_coefficient_census(omega8):
    # the coefficients of Omega, all whole: -20160 on dx_0..7 and 20160 on
    # dx_8..15, and 126 terms of each sign of 2880, 224 of each sign of 1440
    assert omega8.denominator == 1
    assert Counter(omega8.numerators.values()) == {
        20160: 1, -20160: 1, 2880: 126, -2880: 126, 1440: 224, -1440: 224
    }


def test_grouped_rebuild_agrees(omega8):
    assert canonical_8form_alt() == omega8


def test_alt_grouping_reduction_matches_the_literal_sum(monkeypatch):
    # a random skew family has none of Omega's coincidences, so only the
    # symmetries of D itself can make the 1296-group sum agree
    rng = random.Random(93)
    family = {}
    for i, j in itertools.combinations(range(9), 2):
        t = {}
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(16), 2)
            t[(1 << a) | (1 << b)] = rng.choice((-1, 1)) * rng.randint(1, 9)
        family[(i, j)] = t
        family[(j, i)] = {m: -c for m, c in t.items()}

    def w(i, j):
        return family[(i, j)]

    def table(idx, signed=True):
        return family.get(idx, {})  # empty on a repeated index

    groups = []
    squares = canonical.square_sums

    def spy(tables, a, b, group):
        groups.append(np.unique(group).size)
        return squares(tables, a, b, group)

    monkeypatch.setattr(canonical, "_two_form_table", table)
    monkeypatch.setattr(canonical, "square_sums", spy)
    oracle = alt_grouping_oracle(w)
    assert len(oracle) > 100
    form = canonical_8form_alt.__wrapped__()
    assert form.numerators == oracle and form.denominator == 1
    assert groups == [1296]


@pytest.mark.parametrize(
    "build, groups, distinct",
    [
        (canonical_8form.__wrapped__, 81, 45),
        (canonical_8form_alt.__wrapped__, 1296, 666),
        (lambda: canonical._conjecture_build.__wrapped__("antisymmetric"), 81, 45),
        (lambda: canonical._conjecture_build.__wrapped__("unsigned"), 81, 45),
    ],
    ids=["omega8", "omega8-alt", "antisymmetric", "unsigned"],
)
def test_square_stage_expands_each_distinct_four_form_once(
    monkeypatch, build, groups, distinct
):
    # two-forms commute, so Q_jj' = Q_j'j and D_(ii'),(jj') = D_(jj'),(ii'):
    # the square stage finds the equal four-forms in the computed tables
    # and expands each once, weighted by how many groups share it
    plans = spy_plans(monkeypatch)
    build()
    _, square = plans
    assert len(square) == distinct
    assert sum(block.weight >> block.triangle for block in square) == groups
    assert all(block.triangle for block in square)  # every four-form is a square


def test_two_form_conventions():
    # omega_ij(X, Y) = <X, I_i I_j Y>; basis pins for two pairs
    ij = clifford_product((0, 1))
    x, y = Vector16.basis(0), Vector16.basis(1)
    rng = random.Random(51)
    for i, j in ((0, 1), (2, 7), (3, 8)):
        f = omega2(i, j)
        op = clifford_product((i, j))
        for _ in range(5):
            u, v = rand_vector(rng), rand_vector(rng)
            assert f.evaluate([u, v]) == inner_product(u, op.apply(v))
    assert omega2(1, 0) == -omega2(0, 1)
    assert not omega2(4, 4)


def test_sigma_two_form_convention():
    rng = random.Random(52)
    for i, j, k in ((0, 1, 2), (1, 4, 8), (2, 3, 7)):
        f = sigma2(i, j, k)
        op = clifford_product((i, j, k))
        for _ in range(5):
            u, v = rand_vector(rng), rand_vector(rng)
            assert f.evaluate([u, v]) == inner_product(u, op.apply(v))
    with pytest.raises(ValueError):
        sigma2(1, 1, 2)


def test_w_tilde_anchors():
    u = Octonion.unit
    assert w_tilde(u(0), u(0), u(1), u(1)) == -24
    assert w_tilde(u(0), u(0), u(1), u(2)) == -8
    assert w_tilde(u(0), u(1), u(2), u(3)) == -8
    assert w_tilde(u(0), u(1), u(2), u(4)) == -8


def test_w_tilde_reaches_the_wedge_kernel(monkeypatch):
    # w~ is the top coefficient of a wedge of four two-forms, taken on the
    # one wedge kernel: three wedges, (b1 ^ b2) ^ (b3 ^ b4)
    calls = []

    def counted(pairs):
        calls.append(1)
        return wedge_sum(pairs)

    monkeypatch.setattr(exterior, "wedge_sum", counted)
    u = Octonion.unit
    assert w_tilde(u(0), u(0), u(1), u(1)) == -24
    assert len(calls) == 3


def test_w_tilde_matches_the_literal_s8_sum():
    # the wedge of the skew Gram factors against one term per permutation,
    # on integer and Fraction octonions with zero coordinates and zero
    # arguments among them
    rng = random.Random(57)
    zero = Octonion([0] * 8)

    def fraction_octonion():
        return Octonion(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8)]
        )

    cases = [[rand_octonion(rng, span=2) for _ in range(4)] for _ in range(3)]
    cases.append([fraction_octonion() for _ in range(4)])
    cases.append([rand_octonion(rng), fraction_octonion(), *(
        Octonion([rng.choice((0, 0, 1, -2)) for _ in range(8)]) for _ in "ww"
    )])
    cases.append([rand_octonion(rng), zero, rand_octonion(rng), rand_octonion(rng)])
    for args in cases:
        assert w_tilde(*args) == w_tilde_oracle(*args)
    assert w_tilde_oracle(*cases[0]) != 0
    assert type(w_tilde(*cases[3])) is Fraction
    assert w_tilde(*cases[-1]) == 0


def test_w_tilde_pair_symmetries():
    rng = random.Random(53)
    for _ in range(5):
        v, vp, w, wp = (rand_octonion(rng, span=2) for _ in range(4))
        # swapping within a pair or swapping the pairs preserves the sum
        assert w_tilde(v, vp, w, wp) == w_tilde(vp, v, w, wp)
        assert w_tilde(v, vp, w, wp) == w_tilde(v, vp, wp, w)
        assert w_tilde(v, vp, w, wp) == w_tilde(w, wp, v, vp)


def test_vanishing_squared_sums():
    assert not four_form_omega_sum()
    assert not four_form_sigma_sum()


def test_block_restrictions():
    for i in range(8):
        assert not omega2(i, 8).restrict_low()
        for j in range(i + 1, 8):
            assert sigma2(i, j, 8).restrict_low() == (
                -omega2(i, j)
            ).restrict_low()


def test_infinitesimal_invariance_sample(omega8):
    for pair in ((0, 1), (3, 7), (2, 8), (5, 6)):
        assert not omega8.lie_derivative(clifford_product(pair))


def test_rotation_invariance_sample(omega8):
    assert rotation_fixes(omega8, 0, 1, P1)
    assert rotation_fixes(omega8, 7, 8, P2)


def test_cyclic_two_form_identity():
    rng = random.Random(55)
    zero = Vector16.from_coords([0] * 16)
    for _ in range(30):
        x, y, z = (rand_vector(rng) for _ in range(3))
        residual = bianchi_cyclic_residual(x, y, z)
        assert residual == zero
    for _ in range(5):
        x, y, z = (rand_fraction_vector(rng) for _ in range(3))
        assert bianchi_cyclic_residual(x, y, z) == zero


def test_friedrich_identities_random_pairs():
    rng = random.Random(56)
    for _ in range(10):
        x, y = rand_vector(rng), rand_vector(rng)
        assert friedrich_identities(x, y)
    x, y = rand_fraction_vector(rng), rand_fraction_vector(rng)
    assert friedrich_identities(x, y)


def test_friedrich_identities_make_two_wedge_sums(monkeypatch):
    # one wedge_sum per left-hand side; 18 applies give the nine (I_l x, I_l y)
    calls = {"wedge_sum": 0, "wedge": 0, "apply": 0}

    def counted(name, f):
        def spy(*args):
            calls[name] += 1
            return f(*args)

        return spy

    for owner, name in ((canonical, "wedge_sum"), (AlternatingForm, "wedge"),
                        (Operator16, "apply")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    rng = random.Random(58)
    assert friedrich_identities(rand_fraction_vector(rng), rand_vector(rng))
    assert calls == {"wedge_sum": 2, "wedge": 0, "apply": 18}


def test_flat_one_form():
    x = Vector16.from_coords(list(range(16)))
    f = flat(x)
    assert f.degree == 1
    assert f.coefficient((3,)) == 3
    assert f.coefficient((0,)) == 0
    rng = random.Random(57)
    v, w = rand_vector(rng), rand_vector(rng)
    assert flat(v).evaluate([w]) == inner_product(v, w)


def test_frame_independence_three_matrices():
    m1 = givens9(0, 4, P1)
    m2 = givens9(2, 7, P2)
    # overlapping planes mix three involutions and push the scaling to 25
    m3 = mat9_mul(givens9(0, 4, P1), givens9(4, 8, P1))
    assert frame_change_fixes(m1)
    assert frame_change_fixes(m2)
    assert frame_change_fixes(m3)


def test_frame_independence_d85_runs_on_int64_limbs(omega8, monkeypatch):
    # (13, 84, 85): the rebuilt coefficients need 66 bits, past int64, but
    # each product of the square stage fits in 58; the four-forms are
    # built in int64 first, then squared once on two int64 limbs and
    # recombined exactly
    seen = spy_dtypes(monkeypatch)
    m = givens9(2, 7, RationalCirclePoint(Fraction(13, 85), Fraction(84, 85)))
    assert frame_change_fixes(m)
    assert seen.of("exterior") == [np.int64, LIMBS]
    assert seen[-1].module == "exterior" and seen[-1].bound >= 1 << 63


def test_frame_independence_d25_stays_on_int64(omega8, monkeypatch):
    # (7, 24, 25): the squares' bound is about 2**62, still int64
    seen = spy_dtypes(monkeypatch)
    m = givens9(2, 7, RationalCirclePoint(Fraction(7, 25), Fraction(24, 25)))
    assert frame_change_fixes(m)
    assert seen.of("exterior") == [np.int64, np.int64]


def test_frame_change_rejects_non_orthogonal():
    bad = tuple(
        tuple(Fraction(2) if r == c else Fraction(0) for c in range(9))
        for r in range(9)
    )
    with pytest.raises(ValueError):
        frame_change_fixes(bad)
    # over denominator 5: a Givens rotation with one entry's sign flipped,
    # and twice a rotation, whose columns are orthogonal but of length 2,
    # which a check of the off-diagonal entries of E^T E alone would pass
    flipped = [list(row) for row in givens9(0, 4, P1)]
    flipped[0][4] = -flipped[0][4]
    doubled = [[2 * v for v in row] for row in givens9(0, 4, P1)]
    for frame in (flipped, doubled):
        with pytest.raises(ValueError, match="not orthogonal"):
            frame_change_fixes(frame)


def test_frame_change_checks_shape_and_entries():
    ident = [[int(r == c) for c in range(9)] for r in range(9)]
    as_float = [[float(v) for v in row] for row in ident]
    givens_float = [[float(v) for v in row] for row in givens9(0, 4, P1)]
    with pytest.raises(ValueError, match="exact int or Fraction"):
        frame_change_fixes(as_float)
    with pytest.raises(ValueError, match="exact int or Fraction"):
        frame_change_fixes(givens_float)
    for n in (8, 10):
        square = [[int(r == c) for c in range(n)] for r in range(n)]
        with pytest.raises(ValueError, match="9 x 9"):
            frame_change_fixes(square)
    with pytest.raises(ValueError, match="9 x 9"):
        frame_change_fixes([row[:8] for row in ident])
    assert frame_change_fixes(ident)


def test_conjecture_antisymmetric_convention(omega8):
    rhs = conjecture_8form("antisymmetric")
    assert rhs == omega8
    verdict = conjecture_verdict()
    assert verdict.equal
    assert verdict.convention == "antisymmetric"
    assert verdict.difference_terms == 0
    assert verdict.alternative is None


def test_conjecture_unsigned_convention(omega8):
    rhs = conjecture_8form("unsigned")
    assert rhs != omega8
    assert rhs.term_count() == 766
    assert rhs.evaluate(FRAME8) == -11200
    diff = omega8 - rhs
    assert diff.term_count() == 766
    assert diff.evaluate(FRAME8) == -8960
    with pytest.raises(ValueError):
        conjecture_8form("bogus")


def test_export_json_shape(omega8):
    data = export_coefficients(omega8, "json")
    lines = data.decode().splitlines()
    assert len(lines) == 702
    first = json.loads(lines[0])
    assert first["indices"] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert first["num"] == "-20160"
    assert first["den"] == "1"
    tuples = [tuple(json.loads(l)["indices"]) for l in lines]
    assert tuples == sorted(tuples)


def test_export_csv_shape(omega8):
    data = export_coefficients(omega8, "csv")
    lines = data.decode().splitlines()
    assert lines[0] == "i1,i2,i3,i4,i5,i6,i7,i8,num,den"
    assert len(lines) == 703
    assert lines[1] == "0,1,2,3,4,5,6,7,-20160,1"


def test_export_byte_stability(omega8):
    for fmt in ("json", "csv"):
        assert export_coefficients(omega8, fmt) == export_coefficients(
            omega8, fmt
        )


def test_export_round_trip(omega8):
    data = export_coefficients(omega8, "json")
    rebuilt = {}
    for line in data.decode().splitlines():
        rec = json.loads(line)
        rebuilt[tuple(rec["indices"])] = Fraction(
            int(rec["num"]), int(rec["den"])
        )
    assert rebuilt == {idx: Fraction(v) for idx, v in omega8.items()}


def test_rebuild_from_two_form_dictionary(omega8):
    # feeding the literal omega_ij coefficient dictionaries back through
    # the quadruple-sum kernel reproduces the canonical coefficients and
    # the pure-python oracle
    w2 = {}
    for i in range(9):
        for j in range(9):
            if i != j:
                w2[(i, j)] = {
                    (1 << a) | (1 << b): v
                    for (a, b), v in omega2(i, j).items()
                }
    rebuilt = build_8form_from_two_forms(w2)
    assert rebuilt == quadruple_sum_oracle(w2)
    assert rebuilt == {
        sum(1 << i for i in idx): v for idx, v in omega8.items()
    }


def test_rebuild_with_huge_coefficients_matches_oracle(monkeypatch):
    # sparse random tables with 40-bit entries push both stages past
    # 2**63, so each runs once on Python ints
    rng = random.Random(58)
    w2 = {}
    for i in range(9):
        for j in range(9):
            if i != j:
                w2[(i, j)] = {
                    (1 << a) | (1 << b): rng.choice((-1, 1))
                    * rng.randint(1 << 39, 1 << 40)
                    for a, b in (sorted(rng.sample(range(16), 2))
                                 for _ in range(2))
                }
    seen = spy_dtypes(monkeypatch)
    rebuilt = build_8form_from_two_forms(w2)
    assert seen.of("exterior") == [object, object]
    assert rebuilt == quadruple_sum_oracle(w2)
    assert max(abs(v) for v in rebuilt.values()) >= 1 << 63
