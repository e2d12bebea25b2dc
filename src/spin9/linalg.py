"""Exact integer and rational linear algebra.

Every exact kernel of the package bounds its entries, products and
partial sums by B before any arithmetic and takes its dtype from
`int_dtype(B)`: int64 when B < 2**63, else Python ints (dtype=object).
A sum whose single products stay in int64 may run between the two, on
two int64 limbs (`sum_dtype`).  No float enters either way, and there
is no modular step.  Integer systems are dense arrays (`int_array`, B
their largest |entry|).  `int_echelon` is the one elimination: a
fraction-free reduced echelon, column by column.  Each step
cross-multiplies every row holding an entry in the pivot column against
the pivot row and divides each row by the gcd of its entries
(`_eliminate`), so no rational appears.  Each step in int64 bounds its
result from the maxima of the arrays first and moves the matrix to
Python ints when the rule says so.

The echelon is the primitive integer multiple of the reduced row echelon
form, so it depends only on the row space: `nullspace` reads one kernel
vector per free column off it, and `reduce_against` takes rows to zero
exactly when they lie in its row space.

`Exact` is the one exact representation of octonions, vectors, operators
and forms: integer numerators over one positive denominator, in lowest
terms by `lowest_terms`; `clear_denominators` takes exact input there
once.  `ExactTuple` is its fixed-size flat tuple, with the one
arithmetic of octonions, vectors and operators (an operator's matrix
row-major), the one cache of nonzero entries (`entries()`) and, in
`inner_product`, the one Euclidean inner product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

import numpy as np

INT64_LIMIT = 1 << 63

Num = Union[int, Fraction]


def int_dtype(bound: int):
    """np.int64 for a kernel whose entries, products and partial sums all
    lie within +-bound when bound < 2**63, else object (Python ints)."""
    return np.int64 if bound < INT64_LIMIT else object


# a sum held in two int64 limbs, v >> 32 and v & 0xFFFFFFFF, summed apart
LIMBS = np.dtype([("hi", np.int64), ("lo", np.int64)])


def sum_dtype(bound: int, product: int, count: int):
    """The width of a sum of at most `count` products, each within
    +-product, whose partial sums lie within +-bound: `int_dtype(bound)`
    when that is int64.  Else LIMBS when every product and count * 2**32
    fit int64: a product's high limb lies in [-2**31, 2**31) and its low
    limb in [0, 2**32), so neither limb's sum leaves int64.  Else object.
    """
    dtype = int_dtype(bound)
    if dtype is object and int_dtype(max(product, count << 32)) is np.int64:
        return LIMBS
    return dtype


def int_array(values) -> np.ndarray:
    """values as an integer array in the `int_dtype` of its largest
    |entry|.  Any entry that is not an integer raises ValueError, so a
    float never enters a kernel."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        # numpy reads ints past int64 as floats: take the entries as given
        a = np.array(values, dtype=object)
        if not all(isinstance(x, (int, np.integer)) for x in a.flat):
            raise ValueError("integer entries expected")
    if a.dtype != np.int64:
        a = np.array([int(x) for x in a.flat], dtype=object).reshape(a.shape)
    peak = max(-int(a.min(initial=0)), int(a.max(initial=0)))
    return a.astype(int_dtype(peak), copy=False)


def _peak(a) -> int:
    """The largest absolute entry of an int64 array or scalar, as an int."""
    return int(np.abs(a).max(initial=0))


def _eliminate(m: np.ndarray, targets, piv: np.ndarray, col: int) -> np.ndarray:
    """m with each row t of targets replaced by piv[col] * m[t] - m[t, col]
    * piv, then divided by the gcd of its entries.

    In int64 the step first bounds its largest entry by
    |piv[col]| max|m[t]| + max|m[t, col]| max|piv|; when `int_dtype` puts
    that on Python ints, m and piv move there and the step runs there.
    Returns m, which is a new array after such a move.
    """
    sub = m[targets]
    if m.dtype == object or piv.dtype == object or int_dtype(
        _peak(piv[col]) * _peak(sub) + _peak(sub[:, col]) * _peak(piv)
    ) is object:
        m, piv = m.astype(object, copy=False), piv.astype(object, copy=False)
        sub = m[targets]
    new = piv[col] * sub - sub[:, col:col + 1] * piv
    g = np.gcd.reduce(new, axis=1)
    m[targets] = new // np.where(g == 0, 1, g)[:, None]
    return m


def int_echelon(rows) -> np.ndarray:
    """Fraction-free reduced row echelon of an integer matrix.

    Columns are taken left to right.  The pivot of a column is the first
    unused row with an entry there; every other row with an entry in the
    column is eliminated against it by `_eliminate`.  Returns one row per
    pivot, in increasing pivot column: each primitive, with a positive
    pivot entry and zeros in every other pivot column.  That is the
    primitive integer multiple of each row of the reduced row echelon
    form, so it depends only on the row space.
    """
    m = int_array(rows)
    if m.ndim != 2:
        raise ValueError("int_echelon needs a 2-D array of rows")
    m = m.copy()
    done = 0
    for col in range(m.shape[1]):
        if done == m.shape[0]:
            break
        cand = np.flatnonzero(m[done:, col])
        if not cand.size:
            continue
        p = done + cand[0]
        m[[done, p]] = m[[p, done]]
        piv = m[done]
        g = np.gcd.reduce(piv)
        m[done] = piv // (g if piv[col] > 0 else -g)
        targets = np.flatnonzero(m[:, col])
        targets = targets[targets != done]
        if targets.size:
            m = _eliminate(m, targets, m[done], col)
        done += 1
    return m[:done]


def reduce_against(echelon: np.ndarray, rows) -> np.ndarray:
    """rows reduced by every row of an `int_echelon` result, in the same
    `_eliminate` steps; a row comes out zero exactly when it lies in the
    echelon's row space."""
    m = int_array(rows).copy()
    for piv in echelon:
        col = int(np.flatnonzero(piv)[0])
        targets = np.flatnonzero(m[:, col])
        if targets.size:
            m = _eliminate(m, targets, piv, col)
    return m


def nullspace(rows) -> list:
    """Primitive integer kernel basis of the system {row . x = 0}.

    One basis vector per free column, in increasing free-column order: the
    vector whose free coordinates are zero except a positive entry in that
    column, scaled to primitive integers.  On the reduced echelon a pivot
    row d x_p + v x_f = 0 gives x_p = -v x_f / d directly, with no
    back-substitution; entries are Python ints.
    """
    ech = int_echelon(rows)
    pivots = (ech != 0).argmax(axis=1).tolist()
    taken, ech_rows = set(pivots), ech.tolist()
    basis = []
    for f in range(ech.shape[1]):
        if f in taken:
            continue
        hits = [(p, row[p], row[f]) for p, row in zip(pivots, ech_rows) if row[f]]
        scale = lcm(*(d for _, d, _ in hits))
        vec = [0] * ech.shape[1]
        vec[f] = scale
        for p, d, v in hits:
            vec[p] = -v * (scale // d)
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def require_exact(x):
    """x itself when it is an int or Fraction; anything else raises ValueError."""
    if not isinstance(x, (int, Fraction)):
        raise ValueError(f"exact int or Fraction expected, got {type(x).__name__}")
    return x


def clear_denominators(values) -> tuple:
    """(ints, d) with values[k] == ints[k] / d and d the lcm of denominators.

    Only int and Fraction are exact; any other entry raises ValueError
    before any arithmetic, so a float never passes as a huge fraction.
    All-int values come back as a new list with d = 1.
    """
    values = list(values)
    if all(type(x) is int for x in values):
        return values, 1
    values = [require_exact(x) for x in values]
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


class Exact:
    """An immutable exact value: integer `numerators` over one positive
    `denominator`, in lowest terms; each subclass shapes its numerators."""

    __slots__ = ("numerators", "denominator")

    def _set(self, numerators, denominator: int) -> None:
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __sub__(self, other):
        return self + -other

    def __rmul__(self, t):
        return self.scale(t)


def lowest_terms(numerators, d: int) -> tuple:
    """(numerators, d) divided by the gcd of d and every numerator, for a
    positive d; d = 1 and a gcd of 1 give the numerators back as passed."""
    g = gcd(d, *numerators) if d != 1 else 1
    return (numerators, d) if g == 1 else ([x // g for x in numerators], d // g)


def exact_ratio(n, d):
    """n / d as an int when whole, else as a Fraction."""
    if type(n) is int and type(d) is int and not n % d:
        return n // d
    q = Fraction(n, d)
    return q.numerator if q.denominator == 1 else q


class ExactTuple(Exact):
    """A tuple of `size` integer `numerators` over one positive
    `denominator`, in lowest terms; `entries()` lists the nonzero ones as
    `_nonzero` gives them, computed at most once: the one cache of
    entries."""

    __slots__ = ("_entry_cache",)
    size = 0

    def __init__(self, values):
        c = tuple(values)
        if len(c) != self.size:
            raise ValueError(f"{type(self).__name__} needs {self.size} values")
        ints, d = clear_denominators(c)
        self._set(tuple(ints), d)

    @classmethod
    def from_coords(cls, coords):
        """The value with these `size` exact coordinates, checked as
        `ExactTuple.__init__` checks them, whatever the subclass takes."""
        v = cls.__new__(cls)
        ExactTuple.__init__(v, coords)
        return v

    @classmethod
    def _raw(cls, numerators, denominator: int = 1):
        """Unchecked constructor for `size` integer numerators computed internally."""
        v = cls.__new__(cls)
        numerators, denominator = lowest_terms(numerators, denominator)
        v._set(tuple(numerators), denominator)
        return v

    def _nonzero(self) -> tuple:
        """The nonzero integer entries (k, numerator), in index order."""
        return tuple((k, x) for k, x in enumerate(self.numerators) if x)

    def entries(self) -> tuple:
        """The nonzero integer entries, as `_nonzero` lists them."""
        try:
            return self._entry_cache
        except AttributeError:
            e = self._nonzero()
            object.__setattr__(self, "_entry_cache", e)
            return e

    def coords(self) -> tuple:
        """The exact values; whole ones are ints."""
        d = self.denominator
        if d == 1:
            return self.numerators
        return tuple(exact_ratio(x, d) for x in self.numerators)

    def __add__(self, other):
        _require_same_type(self, other)
        da, db = self.denominator, other.denominator
        return self._raw(
            [a * db + b * da for a, b in zip(self.numerators, other.numerators)],
            da * db,
        )

    def __neg__(self):
        return self._raw([-a for a in self.numerators], self.denominator)

    def scale(self, t: Num):
        t = require_exact(t)
        return self._raw(
            [t.numerator * a for a in self.numerators], self.denominator * t.denominator
        )

    def __bool__(self) -> bool:
        return any(self.numerators)


def _require_same_type(x, y) -> None:
    """TypeError unless x and y are of one type: tuples of two types
    (an octonion and a vector, say) never combine."""
    if type(x) is not type(y):
        raise TypeError(f"{type(x).__name__} and {type(y).__name__} do not combine")


def inner_product(x: ExactTuple, y: ExactTuple) -> Num:
    """The Euclidean inner product of two `ExactTuple`s of one type; for
    octonions it agrees with Re(x conj(y)) in the basis of `octonion`."""
    _require_same_type(x, y)
    total = sum(a * b for a, b in zip(x.numerators, y.numerators))
    return exact_ratio(total, x.denominator * y.denominator)


def det(rows) -> Fraction:
    """Determinant of a small dense square matrix, fraction-free (Bareiss).

    Each row is first scaled to integers by the lcm of its denominators.
    Step k replaces every entry below and right of the pivot by the 2x2
    cross product divided by the previous pivot; the division is exact,
    as the entries stay minors of the integer matrix, so the last pivot
    is the integer determinant.  The row scales are divided out once.
    """
    m, scale = [], 1
    for row in rows:
        ints, d = clear_denominators(row)
        m.append(ints)
        scale *= d
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det needs a square matrix")
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        pk = top[k]
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (pk * row[j] - a * top[j]) // prev
        prev = pk
    return Fraction(sign * prev, scale)
