"""Curvature operator of the rank-one model space built on the involutions.

Four equivalent expressions for the curvature with scale c:

  * the two-form expansion  R_XY Z = -(c/4) sum_{i<j} omega_ij(X, Y) I_i I_j Z,
  * the octonion-pair formula of Brown-Gray, R = S_XY - S_YX,
  * its operator rewriting through S'_XY Z = -(c/4)(3 g(Y,Z) X + sum_i g(I_i Y, Z) I_i X),
  * the octonion form of S'.

The module also provides the averaging identity 5 R_XY = sum_j I_j R_XY I_j
and exact sectional curvature, pinched between c/4 and c on the nose.

Each expression is trilinear in (X, Y, Z): it clears the denominators of
its arguments once, runs its own formula on Python ints, and multiplies
its 16 outputs by -c / (4 d_X d_Y d_Z) at the end.  Outputs are exact
int or Fraction values; int inputs at c = 4 give plain ints.  Only int
and Fraction arguments and scales are accepted.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Union

from .linalg import clear_denominators, exact_ratio, require_exact
from .octonion import inner_oct
from .operators import Vector16, build_involutions, inner16, pair_products
from .report import VerificationReport

Num = Union[int, Fraction]


def _require_scale(c: Num) -> Num:
    if not require_exact(c):
        raise ValueError("curvature scale c must be nonzero")
    return c


def _cleared(x: Vector16, y: Vector16, z: Vector16, c: Num) -> tuple:
    """Integer coordinates of x, y, z and the factor -c / (4 d_x d_y d_z).

    Every expression below is trilinear in (X, Y, Z), so it runs on the
    integer coordinates and is multiplied by the factor once at the end.
    Entries that are not int or Fraction raise ValueError here, before
    any curvature arithmetic.
    """
    c = _require_scale(c)
    cx, dx = clear_denominators(x.coords())
    cy, dy = clear_denominators(y.coords())
    cz, dz = clear_denominators(z.coords())
    return cx, cy, cz, Fraction(-c, 4 * dx * dy * dz)


def _rescaled(total, factor: Fraction) -> Vector16:
    """factor * total; plain ints when the factor is whole."""
    if factor.denominator == 1:
        f = factor.numerator
        return Vector16._raw([f * t for t in total])
    return Vector16._raw([factor * t for t in total])


def curvature_omega(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    """R_XY Z via the two-form expansion over the 36 involution pairs."""
    cx, cy, cz, factor = _cleared(x, y, z, c)
    total = [0] * 16
    for op in pair_products():
        entries = op.entries()
        coeff = sum(v * cx[r] * cy[k] for r, k, v in entries)  # <x, P y>
        if coeff:
            for r, k, v in entries:
                total[r] += coeff * v * cz[k]
    return _rescaled(total, factor)


def _brown_gray_s(x: Vector16, y: Vector16, z: Vector16) -> Vector16:
    """S_XY Z / (-c/4) in octonion pairs; the curvature is its antisymmetrization."""
    x1, x2 = x.x1, x.x2
    y1, y2 = y.x1, y.x2
    z1, z2 = z.x1, z.x2
    first = (
        x1.scale(4 * inner_oct(y1, z1))
        + (z1 * y2) * x2.conj()
        + (x1 * y2) * z2.conj()
    )
    second = (
        x2.scale(4 * inner_oct(y2, z2))
        + x1.conj() * (y1 * z2)
        + z1.conj() * (y1 * x2)
    )
    return Vector16(first, second)


def curvature_brown_gray(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    cx, cy, cz, factor = _cleared(x, y, z, c)
    x, y, z = (Vector16._raw(v) for v in (cx, cy, cz))
    total = _brown_gray_s(x, y, z) - _brown_gray_s(y, x, z)
    return _rescaled(total.coords(), factor)


def _s_prime_operator(cx, cy, cz) -> list:
    """S'_XY Z / (-c/4) = 3 g(Y,Z) X + sum_i g(I_i Y, Z) I_i X."""
    g = sum(p * q for p, q in zip(cy, cz))
    total = [3 * g * v for v in cx]
    for op in build_involutions().ops:
        entries = op.entries()
        coeff = sum(v * cz[r] * cy[k] for r, k, v in entries)  # <I Y, Z>
        if coeff:
            for r, k, v in entries:
                total[r] += coeff * v * cx[k]
    return total


def s_prime_operator(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    """S'_XY Z = -(c/4)(3 g(Y,Z) X + sum_i g(I_i Y, Z) I_i X)."""
    cx, cy, cz, factor = _cleared(x, y, z, c)
    return _rescaled(_s_prime_operator(cx, cy, cz), factor)


def _s_prime_octonion(x: Vector16, y: Vector16, z: Vector16) -> Vector16:
    """S'_XY Z / (-c/4) written through octonion products."""
    x1, x2 = x.x1, x.x2
    y1, y2 = y.x1, y.x2
    z1, z2 = z.x1, z.x2
    first = (
        (x1 * y1.conj()) * z1
        + (x1 * y2) * z2.conj()
        + (z1 * y1.conj()) * x1
        + (z1 * y2) * x2.conj()
    )
    second = (
        z1.conj() * (y1 * x2)
        + z2 * (y2.conj() * x2)
        + x2 * (y2.conj() * z2)
        + x1.conj() * (y1 * z2)
    )
    return Vector16(first, second)


def s_prime_octonion(x: Vector16, y: Vector16, z: Vector16, c: Num) -> Vector16:
    """The same S' written through octonion products."""
    cx, cy, cz, factor = _cleared(x, y, z, c)
    x, y, z = (Vector16._raw(v) for v in (cx, cy, cz))
    return _rescaled(_s_prime_octonion(x, y, z).coords(), factor)


def curvature_prime_operator(x, y, z, c: Num) -> Vector16:
    """S'_XY Z - S'_YX Z, both potentials on the same integer coordinates."""
    cx, cy, cz, factor = _cleared(x, y, z, c)
    total = [
        a - b
        for a, b in zip(_s_prime_operator(cx, cy, cz), _s_prime_operator(cy, cx, cz))
    ]
    return _rescaled(total, factor)


def curvature_prime_octonion(x, y, z, c: Num) -> Vector16:
    """The octonion S'_XY Z - S'_YX Z on the same integer coordinates."""
    cx, cy, cz, factor = _cleared(x, y, z, c)
    x, y, z = (Vector16._raw(v) for v in (cx, cy, cz))
    total = _s_prime_octonion(x, y, z) - _s_prime_octonion(y, x, z)
    return _rescaled(total.coords(), factor)


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
    cw, dw = clear_denominators(w.coords())
    r = curvature_omega(x, y, z, c).coords()
    total = sum(p * q for p, q in zip(r, cw))
    return exact_ratio(total, dw)


def sectional_curvature(v: Vector16, w: Vector16, c: Num) -> Fraction:
    """K(v, w) = R_vwvw / (|v|^2 |w|^2 - <v,w>^2) for independent v, w.

    Both R_vwvw and the Gram determinant are of degree two in v and in w,
    so K is computed on v and w cleared to integer vectors.
    """
    _require_scale(c)
    v, w = (Vector16._raw(clear_denominators(u.coords())[0]) for u in (v, w))
    gram = inner16(v, v) * inner16(w, w) - inner16(v, w) ** 2
    if not gram:
        raise ValueError("vectors are linearly dependent")
    return Fraction(curvature_entry(v, w, v, w, c), gram)
