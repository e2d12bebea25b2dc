"""Exact octonion arithmetic over the doubled quaternion basis.

The eight basis units are indexed 0..7 in the order

    u0 = 1, u1 = i, u2 = j, u3 = ij, u4 = e, u5 = ie, u6 = je, u7 = (ij)e,

so an octonion is a quaternion pair q1 + q2 e, and a quaternion a complex
pair in the same way.  The multiplication table comes from one doubling
rule, applied from the reals up with the high bit of an index as its e
part,

    (p + q e)(r + s e) = (p r - conj(s) q) + (s p + q conj(r)) e.

On units it gives u_a u_b = +-u_{a xor b}, so the table reduces to its
signs SIGN[a][b]; the doubling anchors u1 u2 = u3, u5 = u1 u4,
u6 = u2 u4, u7 = u3 u4 are checked at import.  Two products read it:
`_product`, the one scalar loop, on lists of nonzero terms (index,
coefficient) of ints or Fractions, and `oct_mul`, the same sum batched
over integer arrays for the exact array stages of the BPT audit.
`term_mul` wraps the loop for term lists, and `Octonion.__mul__` for
the nonzero numerators of two octonions, over the product of their
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


def _unit_sign(a: int, b: int, half: int = 4) -> int:
    """The sign s of u_a u_b = s u_{a ^ b}, by the doubling rule

        (p + q e)(r + s e) = (p r - conj(s) q) + (s p + q conj(r)) e

    on units, bit `half` of an index being its e part, down to the reals:
    the product of the halves swaps when b has an e part, conj(r) or
    conj(s) flips the sign of an imaginary unit, and e e = -1."""
    if not half:
        return 1
    low = half - 1
    x, y = (b & low, a & low) if b & half else (a & low, b & low)
    sign = _unit_sign(x, y, half >> 1)
    if a & half and b & low:
        sign = -sign
    return -sign if a & half and b & half else sign


SIGN = tuple(tuple(_unit_sign(a, b) for b in range(8)) for a in range(8))
# the doubling anchors: u1 u2 = u3, u5 = u1 u4, u6 = u2 u4, u7 = u3 u4
if (SIGN[1][2], SIGN[1][4], SIGN[2][4], SIGN[3][4]) != (1, 1, 1, 1):
    raise AssertionError("Cayley-Dickson doubling is inconsistent")


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


def _require_imaginary_unit(x: tuple, name: str) -> None:
    if (
        not isinstance(x, tuple)
        or len(x) != 2
        or x[0] not in (1, -1)
        or not isinstance(x[1], int)
    ):
        raise ValueError(f"{name} must be a signed basis unit (sign, index)")
    if not 1 <= x[1] <= 7:
        raise ValueError(f"{name} must be imaginary: index in 1..7, got {x[1]}")


def automorphism_from_triple(ip: tuple, jp: tuple, ep: tuple):
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
    if ep[1] in (ip[1], jp[1], ip[1] ^ jp[1]):
        raise ValueError("ep must avoid {+-ip, +-jp, +-(ip jp)}")

    # images of u0..u7 under the inverse map psi: standard basis -> triple
    # basis, u3 = u1 u2 and u_{k+4} = u_k u4
    images = [Octonion.unit(0)] * 8
    for k, (sign, index) in zip((1, 2, 4), (ip, jp, ep)):
        images[k] = Octonion.unit(index, sign)
    for k in (3, 5, 6, 7):
        top = 4 if k & 4 else 2
        images[k] = images[k - top] * images[top]
    for a in range(8):
        for b in range(8):
            if images[a] * images[b] != SIGN[a][b] * images[a ^ b]:
                raise ValueError("triple does not extend to an automorphism")

    # psi as a matrix has column k equal to images[k]; the answer is its
    # inverse, which for a signed permutation is the transpose.
    return tuple(image.coords() for image in images)
