"""Curvature operator of the rank-one model space built on the involutions.

Four equivalent expressions for the curvature with scale c:

  * the two-form expansion  R_XY Z = -(c/4) sum_{i<j} omega_ij(X, Y) I_i I_j Z,
  * the octonion-pair formula of Brown-Gray, R = S_XY - S_YX,
  * its operator rewriting through S'_XY Z = -(c/4)(3 g(Y,Z) X + sum_i g(I_i Y, Z) I_i X),
  * the octonion form of S'.

The module also provides the averaging identity 5 R_XY = sum_j I_j R_XY I_j
and exact sectional curvature, pinched between c/4 and c on the nose.

Sign convention: R_XY is minus the commutator curvature
[nabla_X, nabla_Y] - nabla_[X,Y], so the sectional curvature is
K(v, w) = <R_vw v, w> / |v ^ w|^2, and the Ricci trace is

    sum_a <R(e_a, Y) Z, e_a> = -9c <Y, Z>,

which is Ric = 9c g in the commutator sign (-36 at c = 4).

Each expression is trilinear in (X, Y, Z): it runs its own formula on
the integer entries of its arguments, read from the cached
`Vector16.entries()`, and puts its 16 outputs over the factor
-c / (4 d_X d_Y d_Z), a pair of coprime ints, once at the end.  Its cost
scales with the nonzero coordinates of its arguments.  The operator
expressions read the operators by column at those coordinates only; their
sweep of <X, P_i Y> over a grade's products P_i, `clifford_coefficients`,
is the one that `canonical.friedrich_identities` and the plane
multiplicities of `suites` read too.  The octonion expressions split each
argument into the nonzero terms of its two halves and their conjugates
once per call, shared by both orderings of the antisymmetrization, and
multiply term lists with `term_mul`, which skips a product with an empty
factor.  Outputs are exact int or Fraction values; int inputs at c = 4
give plain ints.  Only int and Fraction scales are accepted, and a vector
holds integers by construction.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from .linalg import Num, inner_product, require_exact
from .octonion import term_mul
from .operators import Vector16, build_involutions, lambda_basis
from .report import VerificationReport


def _factor(x: Vector16, y: Vector16, z: Vector16, c: Num) -> tuple:
    """-c / (4 d_x d_y d_z) as coprime ints (n, d), d > 0: the factor that
    every expression, trilinear in (X, Y, Z), puts its numerators over."""
    if not require_exact(c):
        raise ValueError("curvature scale c must be nonzero")
    n = -c.numerator
    d = 4 * c.denominator * x.denominator * y.denominator * z.denominator
    g = gcd(n, d)
    return n // g, d // g


def _rescaled(total, factor: tuple) -> Vector16:
    """n * total / d for the factor (n, d), in lowest terms."""
    n, d = factor
    return Vector16._raw([n * t for t in total], d)


@functools.cache
def _columns(grade: int) -> tuple:
    """(n, cols) for the n products P_i of lambda_basis(grade), by column.

    cols[k] lists the nonzero entries of column k of every operator as
    (i, r, v), v being entry (r, k) of P_i.
    """
    ops = lambda_basis(grade)
    cols = [[] for _ in range(16)]
    for i, op in enumerate(ops):
        for r, k, v in op.entries():
            cols[k].append((i, r, v))
    return len(ops), tuple(map(tuple, cols))


def clifford_coefficients(grade: int, x: Vector16, y: Vector16) -> list:
    """The numerators of <x, P_i y> over d_x d_y for the products P_i of
    lambda_basis(grade), in that order; visits y's nonzero entries only."""
    n, cols = _columns(grade)
    a, coeff = x.numerators, [0] * n
    for k, t in y.entries():
        for i, r, v in cols[k]:
            coeff[i] += v * a[r] * t
    return coeff


def _expand(grade: int, x: Vector16, y: Vector16, z: Vector16, total: list) -> list:
    """total + sum_i <x, P_i y> P_i z over the products P_i of one grade, in
    numerators; visits the nonzero coordinates of y and z only."""
    coeff, cols = clifford_coefficients(grade, x, y), _columns(grade)[1]
    for k, t in z.entries():
        for i, r, v in cols[k]:
            total[r] += coeff[i] * v * t
    return total


def curvature_omega(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    """R_XY Z via the two-form expansion over the 36 involution pairs."""
    factor = _factor(x, y, z, c)
    total = _expand(2, x, y, z, [0] * 16)
    return _rescaled(total, factor)


def _antisymmetrized(s, x, y, z, factor: tuple) -> Vector16:
    """The factor times s(X, Y, Z) - s(Y, X, Z), both on the same arguments."""
    return _rescaled([a - b for a, b in zip(s(x, y, z), s(y, x, z))], factor)


def _halves(v: Vector16) -> tuple:
    """(x1, x2, conj x1, conj x2): the nonzero terms (k, numerator), k in
    0..7, of the two octonion halves of v and of their conjugates."""
    x1, x2, c1, c2 = [], [], [], []
    for k, t in v.entries():
        if k < 8:
            x1.append((k, t))
            c1.append((k, -t if k else t))
        else:
            x2.append((k - 8, t))
            c2.append((k - 8, -t if k > 8 else t))
    return x1, x2, c1, c2


def _dot(a: list, b: list) -> int:
    """The inner product of two octonions given by their terms."""
    if not (a and b):
        return 0
    b = dict(b)
    return sum(t * b.get(k, 0) for k, t in a)


def _pair(first: list, second: list) -> list:
    """The 16 numerators of the octonion pair whose halves are the sums of
    the terms in first and in second."""
    out = [0] * 16
    for k, t in first:
        out[k] += t
    for k, t in second:
        out[k + 8] += t
    return out


def _brown_gray_s(x: tuple, y: tuple, z: tuple) -> list:
    """S_XY Z / (-c/4) in octonion pairs, on the `_halves` of X, Y, Z; the
    curvature is its antisymmetrization."""
    (x1, x2, x1c, x2c), (y1, y2, _, _), (z1, z2, z1c, z2c) = x, y, z
    g1, g2 = 4 * _dot(y1, z1), 4 * _dot(y2, z2)
    first = term_mul(term_mul(z1, y2), x2c) + term_mul(term_mul(x1, y2), z2c)
    second = term_mul(x1c, term_mul(y1, z2)) + term_mul(z1c, term_mul(y1, x2))
    return _pair(
        [(k, g1 * t) for k, t in x1] + first, [(k, g2 * t) for k, t in x2] + second
    )


def curvature_brown_gray(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    factor = _factor(x, y, z, c)
    return _antisymmetrized(_brown_gray_s, _halves(x), _halves(y), _halves(z), factor)


def _s_prime_operator(x: Vector16, y: Vector16, z: Vector16) -> list:
    """S'_XY Z / (-c/4) = 3 g(Y,Z) X + sum_i g(I_i Y, Z) I_i X."""
    g = sum(t * z.numerators[k] for k, t in y.entries())
    return _expand(1, z, y, x, [3 * g * v for v in x.numerators])


def s_prime_operator(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    """S'_XY Z = -(c/4)(3 g(Y,Z) X + sum_i g(I_i Y, Z) I_i X)."""
    factor = _factor(x, y, z, c)
    return _rescaled(_s_prime_operator(x, y, z), factor)


def _s_prime_octonion(x: tuple, y: tuple, z: tuple) -> list:
    """S'_XY Z / (-c/4) written through octonion products, on the
    `_halves` of X, Y, Z."""
    (x1, x2, x1c, x2c), (y1, y2, y1c, y2c), (z1, z2, z1c, z2c) = x, y, z
    return _pair(
        term_mul(term_mul(x1, y1c), z1) + term_mul(term_mul(x1, y2), z2c)
        + term_mul(term_mul(z1, y1c), x1) + term_mul(term_mul(z1, y2), x2c),
        term_mul(z1c, term_mul(y1, x2)) + term_mul(z2, term_mul(y2c, x2))
        + term_mul(x2, term_mul(y2c, z2)) + term_mul(x1c, term_mul(y1, z2)),
    )


def s_prime_octonion(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    """The same S' written through octonion products."""
    factor = _factor(x, y, z, c)
    return _rescaled(_s_prime_octonion(_halves(x), _halves(y), _halves(z)), factor)


def curvature_prime_operator(x, y, z, c: Num) -> Vector16:
    """S'_XY Z - S'_YX Z, both potentials on the same integer entries."""
    return _antisymmetrized(_s_prime_operator, x, y, z, _factor(x, y, z, c))


def curvature_prime_octonion(x, y, z, c: Num) -> Vector16:
    """The octonion S'_XY Z - S'_YX Z, both potentials on the same halves."""
    factor = _factor(x, y, z, c)
    halves = _halves(x), _halves(y), _halves(z)
    return _antisymmetrized(_s_prime_octonion, *halves, factor)


def averaging_identity(x: Vector16, y: Vector16, z: Vector16, c: Num) -> VerificationReport:
    """Check 5 R_XY Z = sum_j I_j R_XY (I_j Z) for the given arguments.

    The left side is the two-form expansion and the right side's terms are
    `curvature_prime_operator`, which reads the grade-1 sweep only, so a
    wrong sign in the grade-2 sweep breaks the identity."""
    lhs = 5 * curvature_omega(x, y, z, c)
    ops = build_involutions().ops
    terms = (
        op.apply(curvature_prime_operator(x, y, op.apply(z), c)) for op in ops
    )
    rhs = functools.reduce(Vector16.__add__, terms)
    rep = VerificationReport()
    rep.add("curvature.averaging", lhs == rhs)
    return rep


def curvature_entry(x, y, z, w, c: Num) -> Num:
    """The (4,0) tensor R_XYZW = <R_XY Z, W>."""
    return inner_product(curvature_omega(x, y, z, c), w)


def sectional_curvature(v: Vector16, w: Vector16, c: Num) -> Fraction:
    """K(v, w) = R_vwvw / (|v|^2 |w|^2 - <v,w>^2) for independent v, w."""
    gram = inner_product(v, v) * inner_product(w, w) - inner_product(v, w) ** 2
    if not gram:
        raise ValueError("vectors are linearly dependent")
    return Fraction(curvature_entry(v, w, v, w, c)) / gram
