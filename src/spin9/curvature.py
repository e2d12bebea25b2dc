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
the integer numerators of its arguments and puts its 16 outputs over
-c / (4 d_X d_Y d_Z) once, at the end, with no clearing per call.  The
octonion expressions split each list into its two octonion halves and
use `coeff_mul` and `coeff_conj` on them, with no Octonion objects in
between.  The operator expressions read the operators by column and
visit only the nonzero coordinates of their vector arguments, so a
basis triple costs a few entries per operator; a dense vector visits
all 16.  Outputs are exact int or Fraction values; int inputs at c = 4
give plain ints.  Only int and Fraction scales are accepted, and a
vector holds integers by construction.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .linalg import Num, require_exact
from .octonion import coeff_conj, coeff_mul
from .operators import Vector16, build_involutions, inner16, lambda_basis
from .report import VerificationReport


def _require_scale(c: Num) -> Num:
    if not require_exact(c):
        raise ValueError("curvature scale c must be nonzero")
    return c


def _numerators(x: Vector16, y: Vector16, z: Vector16, c: Num) -> tuple:
    """The integer numerators of x, y, z and the factor -c / (4 d_x d_y d_z).

    Every expression below is trilinear in (X, Y, Z), so it runs on the
    numerators and is put over the factor once at the end.
    """
    c = _require_scale(c)
    d = 4 * x.denominator * y.denominator * z.denominator
    return x.numerators, y.numerators, z.numerators, Fraction(-c, d)


def _rescaled(total, factor: Fraction) -> Vector16:
    """factor * total, in lowest terms."""
    return Vector16._raw([factor.numerator * t for t in total], factor.denominator)


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


def _expand(grade: int, a: list, b: list, d: list, total: list) -> list:
    """total + sum_i <a, P_i b> P_i d over the products P_i of one grade.

    The first loop visits the nonzero coordinates of b only, the second
    those of d only; a dense vector has all 16.
    """
    n, cols = _columns(grade)
    coeff = [0] * n
    for k, t in enumerate(b):
        if t:
            for i, r, v in cols[k]:
                coeff[i] += v * a[r] * t
    for k, t in enumerate(d):
        if t:
            for i, r, v in cols[k]:
                total[r] += coeff[i] * v * t
    return total


def curvature_omega(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    """R_XY Z via the two-form expansion over the 36 involution pairs."""
    cx, cy, cz, factor = _numerators(x, y, z, c)
    return _rescaled(_expand(2, cx, cy, cz, [0] * 16), factor)


def _antisymmetrized(s, x, y, z, c: Num) -> Vector16:
    """-(c/4)(s(X, Y, Z) - s(Y, X, Z)), s run on the same integer coordinates."""
    cx, cy, cz, factor = _numerators(x, y, z, c)
    return _rescaled([a - b for a, b in zip(s(cx, cy, cz), s(cy, cx, cz))], factor)


def _brown_gray_s(x: list, y: list, z: list) -> list:
    """S_XY Z / (-c/4) in octonion pairs; the curvature is its antisymmetrization."""
    x1, x2, y1, y2, z1, z2 = x[:8], x[8:], y[:8], y[8:], z[:8], z[8:]
    g1 = 4 * sum(p * q for p, q in zip(y1, z1))
    g2 = 4 * sum(p * q for p, q in zip(y2, z2))
    first = zip(
        [g1 * a for a in x1],
        coeff_mul(coeff_mul(z1, y2), coeff_conj(x2)),
        coeff_mul(coeff_mul(x1, y2), coeff_conj(z2)),
    )
    second = zip(
        [g2 * a for a in x2],
        coeff_mul(coeff_conj(x1), coeff_mul(y1, z2)),
        coeff_mul(coeff_conj(z1), coeff_mul(y1, x2)),
    )
    return [sum(t) for t in first] + [sum(t) for t in second]


def curvature_brown_gray(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    return _antisymmetrized(_brown_gray_s, x, y, z, c)


def _s_prime_operator(cx, cy, cz) -> list:
    """S'_XY Z / (-c/4) = 3 g(Y,Z) X + sum_i g(I_i Y, Z) I_i X."""
    g = sum(p * q for p, q in zip(cy, cz))
    return _expand(1, cz, cy, cx, [3 * g * v for v in cx])


def s_prime_operator(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    """S'_XY Z = -(c/4)(3 g(Y,Z) X + sum_i g(I_i Y, Z) I_i X)."""
    cx, cy, cz, factor = _numerators(x, y, z, c)
    return _rescaled(_s_prime_operator(cx, cy, cz), factor)


def _s_prime_octonion(x: list, y: list, z: list) -> list:
    """S'_XY Z / (-c/4) written through octonion products."""
    x1, x2, y1, y2, z1, z2 = x[:8], x[8:], y[:8], y[8:], z[:8], z[8:]
    y1c, y2c = coeff_conj(y1), coeff_conj(y2)
    first = zip(
        coeff_mul(coeff_mul(x1, y1c), z1),
        coeff_mul(coeff_mul(x1, y2), coeff_conj(z2)),
        coeff_mul(coeff_mul(z1, y1c), x1),
        coeff_mul(coeff_mul(z1, y2), coeff_conj(x2)),
    )
    second = zip(
        coeff_mul(coeff_conj(z1), coeff_mul(y1, x2)),
        coeff_mul(z2, coeff_mul(y2c, x2)),
        coeff_mul(x2, coeff_mul(y2c, z2)),
        coeff_mul(coeff_conj(x1), coeff_mul(y1, z2)),
    )
    return [sum(t) for t in first] + [sum(t) for t in second]


def s_prime_octonion(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    """The same S' written through octonion products."""
    cx, cy, cz, factor = _numerators(x, y, z, c)
    return _rescaled(_s_prime_octonion(cx, cy, cz), factor)


def curvature_prime_operator(x, y, z, c: Num) -> Vector16:
    """S'_XY Z - S'_YX Z, both potentials on the same integer coordinates."""
    return _antisymmetrized(_s_prime_operator, x, y, z, c)


def curvature_prime_octonion(x, y, z, c: Num) -> Vector16:
    """The octonion S'_XY Z - S'_YX Z on the same integer coordinates."""
    return _antisymmetrized(_s_prime_octonion, x, y, z, c)


def averaging_identity(x: Vector16, y: Vector16, z: Vector16, c: Num) -> VerificationReport:
    """Check 5 R_XY Z = sum_j I_j R_XY (I_j Z) for the given arguments."""
    lhs = 5 * curvature_omega(x, y, z, c)
    rhs = functools.reduce(
        Vector16.__add__,
        (
            op.apply(curvature_omega(x, y, op.apply(z), c))
            for op in build_involutions().ops
        ),
    )
    rep = VerificationReport()
    rep.add("curvature.averaging", lhs == rhs)
    return rep


def curvature_entry(x, y, z, w, c: Num) -> Num:
    """The (4,0) tensor R_XYZW = <R_XY Z, W>."""
    return inner16(curvature_omega(x, y, z, c), w)


def sectional_curvature(v: Vector16, w: Vector16, c: Num) -> Fraction:
    """K(v, w) = R_vwvw / (|v|^2 |w|^2 - <v,w>^2) for independent v, w."""
    _require_scale(c)
    gram = inner16(v, v) * inner16(w, w) - inner16(v, w) ** 2
    if not gram:
        raise ValueError("vectors are linearly dependent")
    return Fraction(curvature_entry(v, w, v, w, c)) / gram
