"""Nine anticommuting symmetric involutions on R^16 and their products.

R^16 is identified with pairs of octonions; the basis is e_k = (u_k, 0)
for k = 0..7 and e_{k+8} = (0, u_k).  The involutions act by

    I_i (x1, x2) = (u_i conj(x2), conj(x1) u_i)   for i = 0..7,
    I_8 (x1, x2) = (-x1, x2),

and satisfy I_i I_j + I_j I_i = 2 delta_ij, I_i symmetric, trace zero.
Products of distinct I_i are signed permutations of the basis, so they
have one nonzero entry per row.  `Vector16`, `Operator16` and `Octonion`
are `linalg.ExactTuple`s, of sizes 16, 256 and 8: integer numerators
over one positive denominator in lowest terms, with one arithmetic.  An
operator's numerators are its matrix row-major, entry (r, c) at
16 r + c; a vector's are its 16 coordinates, the octonion pair (x1, x2)
in order.  Exact values appear only at the edge (`coords`, `rows`,
`linalg.inner_product`).  Vectors and operators list their nonzero
integer entries once (`entries()`, the one cache of `ExactTuple`): operator
products and `apply` run over an operator's, the curvature expressions
over a vector's, so a signed permutation costs 16 entries and a basis
vector one, and there is no second format.

`clifford_product` is the one source of the products I_{i1} ... I_{ir}
(increasing indices, r = 1..4): each is cached per index tuple and built
from its cached prefix by one product, so the 255 of them cost 246
products in all, and only when first asked for.  The family is fixed:
no function takes the involutions as an argument.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .linalg import ExactTuple, Num, det, require_exact
from .octonion import Octonion


class Vector16(ExactTuple):
    """A point of R^16 as an octonion pair: 16 integer `numerators` (a
    tuple) over one positive `denominator`, in lowest terms; `entries()`
    lists the nonzero ones as (k, numerator), computed at most once."""

    __slots__ = ()
    size = 16

    @classmethod
    def basis(cls, k: int) -> "Vector16":
        if not 0 <= k <= 15:
            raise ValueError("basis index out of range 0..15")
        return cls._raw([int(t == k) for t in range(16)])

    def __repr__(self) -> str:
        return f"Vector16({self.coords()!r})"


class Operator16(ExactTuple):
    """A linear operator on R^16: its 16x16 matrix as 256 integer
    `numerators`, row-major (entry (r, c) at 16 r + c, so the diagonal
    is every 17th), over one positive `denominator`, in lowest terms.

    `entries()` lists the nonzero integer entries (row, col, numerator),
    computed at most once per instance; `rows` gives the exact entries.
    """

    __slots__ = ()
    size = 256

    def __init__(self, rows):
        r = [tuple(row) for row in rows]
        if len(r) != 16 or any(len(row) != 16 for row in r):
            raise ValueError("need a 16x16 matrix")
        super().__init__(x for row in r for x in row)

    @property
    def rows(self) -> tuple:
        """The exact entries by row; whole ones are ints."""
        c = self.coords()
        return tuple(c[k:k + 16] for k in range(0, 256, 16))

    @classmethod
    def identity(cls, scale: Num = 1) -> "Operator16":
        return cls._raw([int(k % 17 == 0) for k in range(256)]).scale(scale)

    @classmethod
    def zero(cls) -> "Operator16":
        return cls._raw((0,) * 256)

    def _nonzero(self) -> tuple:
        """The nonzero integer entries (row, col, numerator), row-major."""
        return tuple((k // 16, k % 16, x) for k, x in enumerate(self.numerators) if x)

    def __matmul__(self, other: "Operator16") -> "Operator16":
        """self other, summed over the nonzero entries of both factors and
        put over the product of the two denominators."""
        by_row = [[] for _ in range(16)]
        for k, c, y in other.entries():
            by_row[k].append((c, y))
        out = [0] * 256
        for r, k, x in self.entries():
            row = 16 * r
            for c, y in by_row[k]:
                out[row + c] += x * y
        return Operator16._raw(out, self.denominator * other.denominator)

    def transpose(self) -> "Operator16":
        columns = (self.numerators[c::16] for c in range(16))
        return Operator16._raw(list(chain.from_iterable(columns)), self.denominator)

    def is_symmetric(self) -> bool:
        """Entry (c, r) equals entry (r, c) at every nonzero (r, c); a zero
        facing a nonzero entry fails at the nonzero one."""
        n = self.numerators
        return all(n[16 * c + r] == x for r, c, x in self.entries())

    def is_skew(self) -> bool:
        """Entry (c, r) is minus entry (r, c) at every nonzero (r, c)."""
        n = self.numerators
        return all(n[16 * c + r] == -x for r, c, x in self.entries())

    def apply(self, v: Vector16) -> Vector16:
        """self v, summed over the integer entries and numerators and put
        over the product of the two denominators."""
        c = v.numerators
        out = [0] * 16
        for r, k, x in self.entries():
            out[r] += x * c[k]
        return Vector16._raw(out, self.denominator * v.denominator)

    def det(self) -> Fraction:
        return det(self.rows)

    def __repr__(self) -> str:
        return f"Operator16({self.rows!r})"


def commutator(a: Operator16, b: Operator16) -> Operator16:
    return a @ b - b @ a


@dataclass(frozen=True)
class InvolutionFamily:
    """The nine involutions I_0, ..., I_8 as operators."""

    ops: tuple

    def __getitem__(self, i: int) -> Operator16:
        return self.ops[i]


@functools.cache
def build_involutions() -> InvolutionFamily:
    ops = []
    for i in range(8):
        ui = Octonion.unit(i)
        rows = [[0] * 16 for _ in range(16)]
        for b in range(8):
            ub = Octonion.unit(b).conj()
            # I_i e_b = (0, conj(u_b) u_i) and I_i e_{b+8} = (u_i conj(u_b), 0)
            for t, v in enumerate((ub * ui).coords()):
                rows[t + 8][b] = v
            for t, v in enumerate((ui * ub).coords()):
                rows[t][b + 8] = v
        ops.append(Operator16(rows))
    ops.append(
        Operator16(
            tuple(
                tuple((1 if a >= 8 else -1) if a == b else 0 for b in range(16))
                for a in range(16)
            )
        )
    )
    return InvolutionFamily(ops=tuple(ops))


def _validate_indices(indices) -> tuple:
    idx = tuple(indices)
    if not 1 <= len(idx) <= 4:
        raise ValueError("index tuple length must be 1..4")
    if any(not isinstance(i, int) or not 0 <= i <= 8 for i in idx):
        raise ValueError("indices must be integers in 0..8")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    return idx


def clifford_product(indices) -> Operator16:
    """The product I_{i1} ... I_{ir} for a strictly increasing index tuple.

    The one source of Clifford products: the indices are checked, then the
    product comes from a cache filled on first use.
    """
    return _product(_validate_indices(indices))


@functools.cache
def _product(idx: tuple) -> Operator16:
    """The left fold clifford_product(idx[:-1]) @ I_{idx[-1]}, cached."""
    last = build_involutions()[idx[-1]]
    return _product(idx[:-1]) @ last if len(idx) > 1 else last


def lambda_basis(r: int) -> tuple:
    """All products over strictly increasing r-tuples from 0..8, in lex order."""
    if not 1 <= r <= 4:
        raise ValueError("grade r must be in 1..4")
    return tuple(clifford_product(c) for c in combinations(range(9), r))


@dataclass(frozen=True)
class RationalCirclePoint:
    """Exact point (c, s) on the circle c^2 + s^2 = 1 or the hyperbola c^2 - s^2 = 1."""

    c: Fraction
    s: Fraction

    def __init__(self, c, s):
        object.__setattr__(self, "c", Fraction(require_exact(c)))
        object.__setattr__(self, "s", Fraction(require_exact(s)))
        if not (self.is_rotation or self.is_boost):
            raise ValueError(
                "point satisfies neither c^2 + s^2 = 1 nor (c^2 - s^2 = 1, c >= 1)"
            )

    @property
    def is_rotation(self) -> bool:
        return self.c * self.c + self.s * self.s == 1

    @property
    def is_boost(self) -> bool:
        return self.c * self.c - self.s * self.s == 1 and self.c >= 1


def rotation(k: int, l: int, p: RationalCirclePoint) -> Operator16:
    """The rotation c * Id + s * I_k I_l in the plane of the pair (k, l)."""
    if not (isinstance(k, int) and isinstance(l, int) and 0 <= k < l <= 8):
        raise ValueError("need 0 <= k < l <= 8")
    if not p.is_rotation:
        raise ValueError("rotation needs a circle point with c^2 + s^2 = 1")
    return Operator16.identity(p.c) + clifford_product((k, l)).scale(p.s)


def boost8(p: RationalCirclePoint) -> Operator16:
    """The boost c * Id + s * I_8, diagonal on the two octonion blocks."""
    if not p.is_boost:
        raise ValueError("boost needs a hyperbola point with c^2 - s^2 = 1, c >= 1")
    return Operator16.identity(p.c) + build_involutions()[8].scale(p.s)

