"""Exact integer and rational linear algebra for sparse systems.

Rows are dicts mapping column index to a nonzero value.  Elimination is
fraction-free over the integers: a row update is the cross-multiplied
difference, then the row is divided by the gcd of its entries, so no
rationals appear until back-substitution.  Pivots follow a fixed order
(rows in the order given, pivot on each row's least column), making every
result deterministic.

There is no modular step: tall systems are eliminated exactly, row by
row, and a row in the span of the pivots reduces to the empty dict.  An
echelon fed back to `nullspace` passes through the elimination unchanged,
so it costs almost nothing and gives the same kernel basis as the rows it
came from.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def row_to_int(row: dict) -> dict:
    """Scale a rational row to integers and divide out the gcd."""
    ints, _ = clear_denominators(row.values())
    return _normalize({c: v for c, v in zip(row, ints) if v})


def _normalize(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def int_echelon(rows) -> list:
    """Fraction-free row echelon of integer rows.

    Returns a list of (pivot_col, row_dict) sorted by pivot column; each
    row is gcd-reduced with a positive pivot entry.
    """
    pivots = {}  # pivot_col -> row dict
    for raw in rows:
        row = _reduce(dict(raw), pivots)
        if row:
            lead = min(row)
            if row[lead] < 0:
                row = {c: -v for c, v in row.items()}
            pivots[lead] = _normalize(row)
    return sorted(pivots.items())


def reduce_against(echelon, raw: dict) -> dict:
    """Reduce a row against an echelon list; empty dict means dependent."""
    return _reduce(row_to_int(raw), dict(echelon))


def _reduce(row: dict, pivots: dict) -> dict:
    """Eliminate the lead column of row until no pivot row holds it.

    One step replaces row by a*row - b*pivot, with a and b the two lead
    entries, and divides out the gcd; the result is empty when the row
    lies in the span of the pivots.
    """
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            break
        a, b = piv[lead], row[lead]
        new = {}
        for c, v in row.items():
            w = a * v - b * piv.get(c, 0)
            if w:
                new[c] = w
        for c, v in piv.items():
            if c not in row:
                w = -b * v
                if w:
                    new[c] = w
        row = _normalize(new)
    return row


def rank(rows) -> int:
    return len(int_echelon(row_to_int(r) for r in rows))


def nullspace(rows, ncols: int) -> list:
    """Primitive integer kernel basis of the system {row . x = 0}.

    One basis vector per free column, in increasing free-column order:
    the vector whose free coordinates are zero except a one in that
    column, scaled to primitive integers with positive entry there.
    """
    ech = int_echelon(row_to_int(r) for r in rows)
    pivot_cols = [c for c, _ in ech]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        x = {f: Fraction(1)}
        # rows are in increasing pivot order; solve bottom-up
        for c, row in reversed(ech):
            s = Fraction(0)
            for col, v in row.items():
                if col == c:
                    continue
                xv = x.get(col)
                if xv:
                    s += v * xv
            if s:
                x[c] = -s / row[c]
        row = row_to_int(x)
        sign = 1 if row[f] > 0 else -1
        vec = [0] * ncols
        for c, v in row.items():
            vec[c] = sign * v
        basis.append(vec)
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


def exact_ratio(n, d):
    """n / d as an int when whole, else as a Fraction."""
    if type(n) is int and type(d) is int and not n % d:
        return n // d
    q = Fraction(n, d)
    return q.numerator if q.denominator == 1 else q


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
