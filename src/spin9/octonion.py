"""Exact octonion arithmetic over the doubled quaternion basis.

The eight basis units are indexed 0..7 in the order

    u0 = 1, u1 = i, u2 = j, u3 = ij, u4 = e, u5 = ie, u6 = je, u7 = (ij)e,

so an octonion is a quaternion pair q1 + q2 e.  The multiplication table
is generated from the quaternion relations together with the doubling
rules

    q1 (q2 e) = (q2 q1) e,
    (q1 e) q2 = (q1 conj(q2)) e,
    (q1 e)(q2 e) = -conj(q2) q1.

In this basis every unit product is u_a u_b = +-u_{a xor b}, which is
checked at import, so the table reduces to its signs SIGN[a][b].  Two
products read it: `_product`, the one scalar loop, on lists of nonzero
terms (index, coefficient) of ints or Fractions, and `oct_mul`, the same
sum batched over integer arrays for the exact array stages of the BPT
audit.  `term_mul` wraps the loop for term lists, and `Octonion.__mul__`
for the nonzero numerators of two octonions, over the product of their
denominators.

`Octonion` is the `linalg.ExactTuple` of size 8: integer numerators over
one positive denominator, in lowest terms, with the arithmetic it shares
with `Vector16`; `coords()` gives the exact coefficients, ints or
fractions.Fraction, never floats.  All objects here are immutable, so
values can be shared freely across threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import ExactTuple, Num

BASIS_NAMES = ("1", "i", "j", "ij", "e", "ie", "je", "(ij)e")

# A signed basis unit is a pair (sign, index) with sign in {+1, -1}.
SignedUnit = tuple


def _quaternion_unit_mul(a: int, b: int) -> tuple[int, int]:
    """Product of quaternion units 1, i, j, k indexed 0..3, as (sign, index)."""
    if a == 0:
        return (1, b)
    if b == 0:
        return (1, a)
    if a == b:
        return (-1, 0)
    c = 6 - a - b
    # cyclic (1,2), (2,3), (3,1) carry +1
    sign = 1 if (a, b) in ((1, 2), (2, 3), (3, 1)) else -1
    return (sign, c)


def _build_signs() -> tuple:
    """SIGN[a][b] = sign with u_a u_b = sign * u_{a ^ b}; the index a ^ b of
    every unit product and the doubling anchors are checked, not assumed."""
    table = []
    for a in range(8):
        al, ah = a % 4, a // 4
        row = []
        for b in range(8):
            bl, bh = b % 4, b // 4
            if ah == 0 and bh == 0:
                s, k = _quaternion_unit_mul(al, bl)
            elif ah == 0 and bh == 1:
                # q1 (q2 e) = (q2 q1) e
                s, k = _quaternion_unit_mul(bl, al)
                k += 4
            elif ah == 1 and bh == 0:
                # (q1 e) q2 = (q1 conj(q2)) e
                s, k = _quaternion_unit_mul(al, bl)
                if bl != 0:
                    s = -s
                k += 4
            else:
                # (q1 e)(q2 e) = -conj(q2) q1
                s, k = _quaternion_unit_mul(bl, al)
                if bl != 0:
                    s = -s
                s = -s
            if k != a ^ b:
                raise AssertionError("unit products are not indexed by a xor b")
            row.append(s)
        table.append(tuple(row))
    # consistency of the doubling: u5 = u1 u4, u6 = u2 u4, u7 = u3 u4
    if table[1][4] != 1 or table[2][4] != 1 or table[3][4] != 1:
        raise AssertionError("Cayley-Dickson doubling is inconsistent")
    return tuple(table)


SIGN = _build_signs()


def _product(x: Sequence[tuple], y: Sequence[tuple]) -> list:
    """The 8 coefficients of the product of two octonions given by their
    nonzero terms (a, x_a): the one scalar loop, adding SIGN[a][b] x_a y_b
    to coefficient a ^ b, so it costs the product of the term counts."""
    out = [0] * 8
    for a, ca in x:
        row = SIGN[a]
        for b, cb in y:
            out[a ^ b] += row[b] * ca * cb
    return out


def term_mul(x: Sequence[tuple], y: Sequence[tuple]) -> list:
    """The nonzero terms, in index order, of the product of two octonions
    given by their nonzero terms; a factor with no terms costs nothing."""
    if not (x and y):
        return []
    return [term for term in enumerate(_product(x, y)) if term[1]]


# XOR[a, k] = a ^ k, XOR_SIGN[a, k] = SIGN[a][a ^ k]: the terms of coefficient k
XOR = np.bitwise_xor.outer(np.arange(8), np.arange(8))
XOR_SIGN = np.array(SIGN, dtype=np.int64)[np.arange(8)[:, None], XOR]


def oct_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sum of `_product` batched over the last axis of two dense
    integer coefficient arrays: exact on Python ints (dtype=object), and
    in int64 while it holds the products and sums, which the caller
    bounds first.
    """
    terms = x[..., :, None] * y[..., XOR]
    return (terms * XOR_SIGN).sum(axis=-2)


def unit_mul(a: SignedUnit, b: SignedUnit) -> SignedUnit:
    """Product of two signed basis units, as a signed basis unit."""
    return (a[0] * b[0] * SIGN[a[1]][b[1]], a[1] ^ b[1])


class Octonion(ExactTuple):
    """An octonion: 8 integer `numerators` on u0..u7 over one positive
    `denominator`, in lowest terms; `coords()` gives the exact coefficients."""

    __slots__ = ()
    size = 8

    @classmethod
    def unit(cls, k: int, sign: Num = 1) -> "Octonion":
        if not 0 <= k <= 7:
            raise ValueError("basis index out of range 0..7")
        return cls(tuple(sign if t == k else 0 for t in range(8)))

    def __mul__(self, other):
        # the terms are filtered inline, not cached by `entries()`: a
        # product is a fresh value, mostly multiplied only once
        if not isinstance(other, Octonion):
            return self.scale(other)
        return Octonion._raw(
            _product(
                [term for term in enumerate(self.numerators) if term[1]],
                [term for term in enumerate(other.numerators) if term[1]],
            ),
            self.denominator * other.denominator,
        )

    def conj(self) -> "Octonion":
        n = self.numerators
        return Octonion._raw([n[0]] + [-a for a in n[1:]], self.denominator)

    def __repr__(self) -> str:
        parts = []
        for k, c in enumerate(self.coords()):
            if c:
                parts.append(f"{c}*{BASIS_NAMES[k]}" if k else f"{c}")
        return "Octonion<" + (" + ".join(parts) if parts else "0") + ">"


def apply_matrix8(rows: Sequence[Sequence[Num]], a: Octonion) -> Octonion:
    """Apply an 8x8 matrix (tuple of rows) to the coefficient vector."""
    c = a.coords()
    return Octonion(tuple(sum(r[k] * c[k] for k in range(8) if c[k]) for r in rows))


def _require_imaginary_unit(x: SignedUnit, name: str) -> None:
    if (
        not isinstance(x, tuple)
        or len(x) != 2
        or x[0] not in (1, -1)
        or not isinstance(x[1], int)
    ):
        raise ValueError(f"{name} must be a signed basis unit (sign, index)")
    if not 1 <= x[1] <= 7:
        raise ValueError(f"{name} must be imaginary: index in 1..7, got {x[1]}")


def automorphism_from_triple(ip: SignedUnit, jp: SignedUnit, ep: SignedUnit):
    """The algebra automorphism sending the basic triple (ip, jp, ep) to (u1, u2, u4).

    Arguments are signed imaginary basis units (sign, index).  jp must not
    be +-ip, and ep must avoid the quaternion triple +-ip, +-jp, +-(ip jp);
    under those conditions the triple generates the full basis and the map
    extends uniquely.  Returns the automorphism as an 8x8 matrix, a tuple
    of rows.  Multiplicativity is asserted on all 64 basis pairs rather
    than assumed.
    """
    _require_imaginary_unit(ip, "ip")
    _require_imaginary_unit(jp, "jp")
    _require_imaginary_unit(ep, "ep")
    if jp[1] == ip[1]:
        raise ValueError("jp must not lie in {+ip, -ip}")
    kp = unit_mul(ip, jp)
    if ep[1] in (ip[1], jp[1], kp[1]):
        raise ValueError("ep must avoid {+-ip, +-jp, +-(ip jp)}")

    # images of u0..u7 under the inverse map psi: standard basis -> triple basis
    images = [None] * 8
    images[0] = (1, 0)
    images[1] = ip
    images[2] = jp
    images[4] = ep
    images[3] = unit_mul(images[1], images[2])
    images[5] = unit_mul(images[1], images[4])
    images[6] = unit_mul(images[2], images[4])
    images[7] = unit_mul(images[3], images[4])

    occupied = {im[1] for im in images}
    if len(occupied) != 8:
        raise ValueError("triple does not generate the basis")
    for a in range(8):
        for b in range(8):
            lhs = unit_mul(images[a], images[b])
            k = a ^ b
            rhs = (SIGN[a][b] * images[k][0], images[k][1])
            if lhs != rhs:
                raise ValueError("triple does not extend to an automorphism")

    # psi as a matrix has column k equal to images[k]; the answer is its
    # inverse, which for a signed permutation is the transpose.
    rows = [[0] * 8 for _ in range(8)]
    for k, (s, p) in enumerate(images):
        rows[k][p] = s
    return tuple(tuple(r) for r in rows)
