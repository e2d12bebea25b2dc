"""Nine anticommuting symmetric involutions on R^16 and their products.

R^16 is identified with pairs of octonions; the basis is e_k = (u_k, 0)
for k = 0..7 and e_{k+8} = (0, u_k).  The involutions act by

    I_i (x1, x2) = (u_i conj(x2), conj(x1) u_i)   for i = 0..7,
    I_8 (x1, x2) = (-x1, x2),

and satisfy I_i I_j + I_j I_i = 2 delta_ij, I_i symmetric, trace zero.
Products of distinct I_i are signed permutations of the basis, so they
have one nonzero entry per row.  `Operator16` keeps its dense rows and
lists its nonzero entries once; products and `apply` run over those, so
a signed permutation costs 16 entries, and there is no second format.

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
from itertools import combinations
from typing import Sequence, Union

from .linalg import clear_denominators, det, exact_ratio, require_exact
from .octonion import Octonion, inner_oct

Num = Union[int, Fraction]


class Vector16:
    """A point of R^16 as an octonion pair."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1: Octonion, x2: Octonion):
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    def __setattr__(self, name, value):
        raise AttributeError("Vector16 is immutable")

    @classmethod
    def basis(cls, k: int) -> "Vector16":
        if not 0 <= k <= 15:
            raise ValueError("basis index out of range 0..15")
        if k < 8:
            return cls(Octonion.unit(k), Octonion.zero())
        return cls(Octonion.zero(), Octonion.unit(k - 8))

    @classmethod
    def from_coords(cls, coords: Sequence[Num]) -> "Vector16":
        c = tuple(coords)
        if len(c) != 16:
            raise ValueError("need 16 coordinates")
        return cls(Octonion(c[:8]), Octonion(c[8:]))

    @classmethod
    def _raw(cls, coords: Sequence[Num]) -> "Vector16":
        """Unchecked constructor for 16 coordinates computed internally."""
        return cls(Octonion._raw(coords[:8]), Octonion._raw(coords[8:]))

    def coords(self) -> tuple:
        return self.x1.coeffs + self.x2.coeffs

    def __add__(self, other: "Vector16") -> "Vector16":
        return Vector16(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vector16") -> "Vector16":
        return Vector16(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Vector16":
        return Vector16(-self.x1, -self.x2)

    def scale(self, t: Num) -> "Vector16":
        return Vector16(self.x1.scale(t), self.x2.scale(t))

    def __rmul__(self, t) -> "Vector16":
        return self.scale(t)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector16)
            and self.x1 == other.x1
            and self.x2 == other.x2
        )

    def __hash__(self) -> int:
        return hash((self.x1, self.x2))

    def __bool__(self) -> bool:
        return bool(self.x1) or bool(self.x2)

    def __repr__(self) -> str:
        return f"Vector16({self.x1!r}, {self.x2!r})"


def inner16(x: Vector16, y: Vector16) -> Num:
    return inner_oct(x.x1, y.x1) + inner_oct(x.x2, y.x2)


class Operator16:
    """A linear operator on R^16 as a dense 16x16 exact matrix.

    `entries()` lists the nonzero entries and `integer_entries()` the
    same entries with their denominators cleared, each computed at most
    once per instance; equality and hashing use the rows alone.
    """

    __slots__ = ("rows", "_entries", "_integer_entries")

    def __init__(self, rows):
        r = tuple(tuple(map(require_exact, row)) for row in rows)
        if len(r) != 16 or any(len(row) != 16 for row in r):
            raise ValueError("need a 16x16 matrix")
        object.__setattr__(self, "rows", r)

    def __setattr__(self, name, value):
        raise AttributeError("Operator16 is immutable")

    @classmethod
    def _raw(cls, rows: tuple) -> "Operator16":
        """Unchecked constructor for arithmetic results (tuple rows)."""
        op = cls.__new__(cls)
        object.__setattr__(op, "rows", rows)
        return op

    @classmethod
    def identity(cls, scale: Num = 1) -> "Operator16":
        return cls(
            tuple(
                tuple(scale if a == b else 0 for b in range(16)) for a in range(16)
            )
        )

    @classmethod
    def zero(cls) -> "Operator16":
        return cls(((0,) * 16,) * 16)

    def __add__(self, other: "Operator16") -> "Operator16":
        return Operator16._raw(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Operator16") -> "Operator16":
        return Operator16._raw(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "Operator16":
        return Operator16._raw(
            tuple(tuple(-a for a in row) for row in self.rows)
        )

    def scale(self, t: Num) -> "Operator16":
        t = require_exact(t)
        return Operator16._raw(
            tuple(tuple(t * a for a in row) for row in self.rows)
        )

    def __rmul__(self, t) -> "Operator16":
        return self.scale(t)

    def entries(self) -> tuple:
        """The nonzero entries (row, col, value) in row-major order."""
        try:
            return self._entries
        except AttributeError:
            e = tuple(
                (r, c, x)
                for r, row in enumerate(self.rows)
                for c, x in enumerate(row)
                if x
            )
            object.__setattr__(self, "_entries", e)
            return e

    def integer_entries(self) -> tuple:
        """(entries, d): the nonzero entries of d * self as (row, col, int),
        d the lcm of the entries' denominators."""
        try:
            return self._integer_entries
        except AttributeError:
            ints, d = clear_denominators(x for _, _, x in self.entries())
            e = tuple((r, c, x) for (r, c, _), x in zip(self.entries(), ints)), d
            object.__setattr__(self, "_integer_entries", e)
            return e

    def __matmul__(self, other: "Operator16") -> "Operator16":
        out = [[0] * 16 for _ in range(16)]
        brows = other.rows
        for r, k, x in self.entries():
            out[r] = [a + x * y for a, y in zip(out[r], brows[k])]
        return Operator16._raw(tuple(map(tuple, out)))

    def transpose(self) -> "Operator16":
        return Operator16._raw(tuple(zip(*self.rows)))

    def trace(self) -> Num:
        return sum(self.rows[a][a] for a in range(16))

    def is_symmetric(self) -> bool:
        return self.rows == self.transpose().rows

    def is_skew(self) -> bool:
        return self.rows == (-self).transpose().rows

    def apply(self, v: Vector16) -> Vector16:
        """self v; with fractional entries, summed over the cleared integer
        entries and coordinates and divided once, so whole results are ints."""
        entries, d = self.integer_entries()
        c = v.coords()
        if d != 1:
            c, dv = clear_denominators(c)
            d *= dv
        out = [0] * 16
        for r, k, x in entries:
            out[r] += x * c[k]
        return Vector16._raw(out if d == 1 else [exact_ratio(x, d) for x in out])

    def det(self) -> Fraction:
        return det(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Operator16) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

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
            for t, v in enumerate((ub * ui).coeffs):
                rows[t + 8][b] = v
            for t, v in enumerate((ui * ub).coeffs):
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

