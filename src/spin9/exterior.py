"""Sparse alternating forms on R^16 with exact coefficients.

A form of degree p is a finite map from strictly increasing p-tuples of
indices 0..15 to nonzero rationals; the tuple (i1 < ... < ip) stands for
dx_{i1} ^ ... ^ dx_{ip}.  Internally a tuple is packed into a 16-bit
mask, and the sign bookkeeping of a wedge is a popcount parity.  A form
holds an integer table {mask: int} over one denominator (`linalg.Exact`),
which the kernels read as it is.

Conventions (the determinant convention):

    (dx_{i1} ^ ... ^ dx_{ip})(X_1, ..., X_p) = det [dx_{ia}(X_b)],
    (alpha ^ beta)(X_1, ..., X_{p+q})
        = 1/(p! q!) sum_sigma eps(sigma) alpha(X_sigma(1..p)) beta(...),

so evaluation of a monomial on the matching basis vectors gives exactly
1, and wedge is the coefficient-level shuffle product with no extra
factorials.

One sign rule serves the whole module: reordering a sequence of distinct
indices into increasing order costs the parity of its inversions,
`perm_sign`.  With masks, moving one index past a set of others costs
the popcount parity of those others; that is how the matrix unit E_rc,
which turns index r into c, picks up the parity of the monomial's
indices strictly between r and c (`lie_incidences`), and how the wedge
kernel (`_products`, for every wedge and pullback) and the Laplace
gather sign each incoming factor.

Forms are immutable.  One planner, `_wedge_plan`, takes a list of
integer coefficient tables {mask: int} and the pairs as index arrays
(table a, table b, group) and makes one block per pair, and one
expander, `_expand_grids`, runs blocks: each expands a cached grid of
term pairs (`_pair_grid`), in chunks of WEDGE_CHUNK candidate pairs and
one array pass each (`_products`); overlapping masks drop out and the
sign is a popcount parity.  `wedge_sum` sums a ^ b over a list of pairs
of tables (`AlternatingForm.wedge` among them) into a dense 2**16
accumulator.  `square_sums` sums Q_g ^ Q_g over groups g, Q_g the sum of
a ^ b over the group's pairs: the expander builds every Q_g by
`np.unique` on the keys group << 16 | mask, and then squares each
distinct Q_g as one block of itself.  Only those blocks use that a
square Q ^ Q, every term of Q of even positive degree, is 2 sum_{i<j}:
they expand the triangle i < j of their grid at twice the weight.
`pullback_table` wedges the row one-forms of every monomial there too,
one grouped expansion per index position.

Every kernel bounds its sums by B before any arithmetic (the wedge by
the largest B_g = sum |a|_1 |b|_1, the squares of `square_sums` by
sum_g |Q_g|_1^2, the pullback by sum_m |c_m| prod_t |row m_t|_1),
picks the dtype `linalg.int_dtype(B)` gives, int64 when B < 2**63,
which then holds every product and partial sum, else Python ints, and
runs once in it.  The squares ask `linalg.sum_dtype`
instead, which adds a third width: when B passes 2**63 but every single
product (max|c|^2 times the largest weight) and the pair count times
2**32 stay below it, the expander sums v >> 32 and v & 0xFFFFFFFF into
two int64 accumulators, which `square_sums` recombines as Python ints
on the nonzero masks.  The other kernels:

- `evaluate_table` behind `AlternatingForm.evaluate` is one Laplace
  level: each monomial's minor is the shuffle-signed sum of L[A] R[m - A]
  over the halves A of its indices, on a plan of places and signs cached
  on the form; L and R are the minors of each half of the columns on
  every mask, peeled one column at a time (`_peel`, `_column_minors`),
  under B = prod_b |w_b|_1 over the vectors' numerators.
- `lie_images` behind `AlternatingForm.lie_derivative` sums every
  (monomial, matrix unit) incidence, found in one array pass and weighted
  by k vectors of entries at once, by output mask under B = max_m |c_m|
  max_j sum |entry|; the stabilizer certifies its kernel on it, block by
  block over `sign_characters`, and reads its equation blocks straight
  off the incidences.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Mapping

import numpy as np

from .linalg import (
    Exact,
    Num,
    clear_denominators,
    exact_ratio,
    LIMBS,
    int_dtype,
    lowest_terms,
    require_exact,
    sum_dtype,
)
from .operators import Operator16, Vector16


def _mask_of(indices: tuple, degree: int) -> int:
    if len(indices) != degree:
        raise ValueError("index tuple length must equal the degree")
    m = 0
    for i in indices:
        if not isinstance(i, int) or not 0 <= i <= 15:
            raise ValueError("indices must be integers in 0..15")
        if m >> i:  # an earlier index is i or above
            raise ValueError("indices must be strictly increasing")
        m |= 1 << i
    return m


def perm_sign(seq) -> int:
    """Sign of the permutation sorting distinct entries: inversion parity."""
    seq = tuple(seq)
    inversions = sum(a > b for k, a in enumerate(seq) for b in seq[k + 1:])
    return -1 if inversions & 1 else 1


class AlternatingForm(Exact):
    """An exact alternating form: an integer table `numerators` {mask: int}
    with no zero entries over one positive `denominator`, in lowest terms."""

    __slots__ = ("degree", "_plan")

    def __init__(self, degree: int, terms: Mapping = ()):
        if not 0 <= degree <= 16:
            raise ValueError("degree must be in 0..16")
        terms = dict(terms)
        keys = ((k,) if isinstance(k, int) else tuple(k) for k in terms)
        masks = [_mask_of(idx, degree) for idx in keys]
        if len(set(masks)) < len(masks):
            raise ValueError("a monomial is named twice")
        ints, d = clear_denominators(terms.values())
        self._set(degree, {m: v for m, v in zip(masks, ints) if v}, d)

    def _set(self, degree: int, numerators: dict, denominator: int) -> None:
        object.__setattr__(self, "degree", degree)
        super()._set(numerators, denominator)

    @classmethod
    def _raw(cls, degree: int, numerators: dict, d: int = 1) -> "AlternatingForm":
        """Unchecked constructor for an integer table with no zero entries
        over d, brought to lowest terms."""
        f = cls.__new__(cls)
        if d != 1:
            ints, d = lowest_terms(list(numerators.values()), d)
            numerators = dict(zip(numerators, ints))
        f._set(degree, numerators, d)
        return f

    @classmethod
    def zero(cls, degree: int) -> "AlternatingForm":
        return cls(degree, {})

    @classmethod
    def monomial(cls, indices, coeff: Num = 1) -> "AlternatingForm":
        """dx over arbitrary distinct indices, sorted with the sign it costs."""
        idx = tuple(indices)
        if len(set(idx)) != len(idx):
            return cls.zero(len(idx))
        return cls(len(idx), {tuple(sorted(idx)): perm_sign(idx) * coeff})

    def items(self):
        """Sorted (index_tuple, coefficient) pairs; whole coefficients are ints.

        The index tuples are the rows of `_positions`, ordered by
        `np.lexsort` with the first index as the primary key; the masks
        come last in priority, only so that degree 0 has a key (no two
        rows tie).
        """
        d, table = self.denominator, self.numerators
        masks = np.fromiter(table, dtype=np.int64, count=len(table))
        pos = _positions(masks, self.degree)
        keys, values = pos.tolist(), list(table.values())
        return [
            (tuple(keys[k]), values[k] if d == 1 else exact_ratio(values[k], d))
            for k in np.lexsort((masks, *pos.T[::-1])).tolist()
        ]

    def coefficient(self, indices) -> Num:
        m = _mask_of(tuple(indices), self.degree)
        return exact_ratio(self.numerators.get(m, 0), self.denominator)

    def term_count(self) -> int:
        return len(self.numerators)

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.degree == other.degree

    def __add__(self, other: "AlternatingForm") -> "AlternatingForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        da, db = self.denominator, other.denominator
        out = {m: v * db for m, v in self.numerators.items()}
        for m, v in other.numerators.items():
            w = out.get(m, 0) + v * da
            if w:
                out[m] = w
            else:
                out.pop(m, None)
        return AlternatingForm._raw(self.degree, out, da * db)

    def __neg__(self) -> "AlternatingForm":
        return AlternatingForm._raw(
            self.degree, {m: -v for m, v in self.numerators.items()}, self.denominator
        )

    def scale(self, t: Num) -> "AlternatingForm":
        if not require_exact(t):
            return AlternatingForm.zero(self.degree)
        return AlternatingForm._raw(
            self.degree,
            {m: t.numerator * v for m, v in self.numerators.items()},
            self.denominator * t.denominator,
        )

    def __repr__(self) -> str:
        return (
            f"AlternatingForm(degree={self.degree}, "
            f"terms={len(self.numerators)})"
        )

    def wedge(self, other: "AlternatingForm") -> "AlternatingForm":
        """self ^ other on `wedge_sum`: a / d_a ^ b / d_b = (a ^ b) / (d_a d_b)."""
        if self.degree + other.degree > 16:
            raise ValueError("wedge degree exceeds 16")
        return AlternatingForm._raw(
            self.degree + other.degree,
            wedge_sum([(self.numerators, other.numerators)]),
            self.denominator * other.denominator,
        )

    def evaluate(self, vectors: Iterable[Vector16]) -> Num:
        """self(v1, ..., vp): with v_k = w_k / d_k for integer vectors w_k,
        the coefficient of mask m in w_1 ^ ... ^ w_p is the minor
        det[w_b[i_a]], so the value is sum_m c_m minor_m / (d prod d_k),
        which `evaluate_table` sums exactly.
        """
        vs = list(vectors)
        if not all(isinstance(v, Vector16) for v in vs):
            raise TypeError("evaluate takes Vector16 arguments")
        if len(vs) != self.degree:
            raise ValueError(
                f"form of degree {self.degree} takes {self.degree} vectors"
            )
        columns = [v.numerators for v in vs]
        value = evaluate_table(self.numerators, columns, self._laplace())
        d = math.prod((v.denominator for v in vs), start=self.denominator)
        return exact_ratio(value, d)

    def _laplace(self) -> tuple:
        """The `_laplace_plan` of the form's masks, built on first use."""
        try:
            return self._plan
        except AttributeError:
            plan = _laplace_plan(self.numerators, self.degree)
            object.__setattr__(self, "_plan", plan)
            return plan

    def pullback(self, op: Operator16) -> "AlternatingForm":
        """The form X -> self(op X1, ..., op Xp), on `pullback_table`.

        With op = A / d_op and coefficients a / d_a for integer A and a,
        the pullback is (A* a) / (d_a d_op^p).
        """
        if not isinstance(op, Operator16):
            raise TypeError("pullback takes an Operator16")
        terms = pullback_table(self.numerators, self.degree, op.entries())
        d = self.denominator * op.denominator**self.degree
        return AlternatingForm._raw(self.degree, terms, d)

    def lie_derivative(self, op: Operator16) -> "AlternatingForm":
        """Derivative of the pullback along exp(t op) at t = 0, on `lie_images`.

        Linear in op and in the form: with op = A / d_op and coefficients
        a / d_a for integer A and a, it is (L_A a) / (d_a d_op).
        """
        if not isinstance(op, Operator16):
            raise TypeError("lie_derivative takes an Operator16")
        rows, cols, vals = np.array(op.entries(), dtype=object).reshape(-1, 3).T
        masks, images = lie_images(self.numerators, rows, cols, [vals])
        terms = {m: v for m, v in zip(masks.tolist(), images[:, 0].tolist()) if v}
        d = self.denominator * op.denominator
        return AlternatingForm._raw(self.degree, terms, d)

    def restrict_low(self) -> "AlternatingForm":
        """Keep only monomials supported on the first octonion block 0..7."""
        return AlternatingForm._raw(
            self.degree,
            {m: v for m, v in self.numerators.items() if m < 256},
            self.denominator,
        )


def two_form_from_operator(op: Operator16) -> AlternatingForm:
    """The two-form (X, Y) -> <X, op Y> of a skew operator.

    Coefficient on (a, b) with a < b is the matrix entry op[a][b].
    Symmetric parts have no alternating shadow, so they are rejected
    rather than silently dropped.
    """
    if not op.is_skew():
        raise ValueError("operator has a nonzero symmetric part")
    return AlternatingForm._raw(
        2, {1 << a | 1 << b: v for a, b, v in op.entries() if a < b}, op.denominator
    )


# exact wedge-sum kernel -----------------------------------------------------


@functools.cache
def _np_tables():
    """Parity tables over all 16-bit masks m, as int64 arrays: P16[m] bit b
    is the parity of popcount(m >> (b+1)), POPPAR[m] that of popcount(m).
    Folding p = m >> 1 onto itself shifted by 1, 2, 4 and 8 leaves in bit
    b the XOR of bits b..15 of m >> 1; bit 0 XOR m's bit 0 is POPPAR[m]."""
    m = np.arange(1 << 16, dtype=np.int64)
    p16 = m >> 1
    for s in (1, 2, 4, 8):
        p16 ^= p16 >> s
    return p16, p16 & 1 ^ m & 1


def _require_int(name: str, *groups) -> None:
    """TypeError unless every value of every group is an `int`."""
    if not all(type(v) is int for group in groups for v in group):
        raise TypeError(f"{name} takes integer coefficients only")


def _nonzero(acc: np.ndarray) -> tuple:
    """(masks, values) lists of a dense 2**16 accumulator's nonzero entries,
    so that a large table {mask: int} is built after it is freed."""
    masks = np.flatnonzero(acc != 0)  # scans bool far faster than int64
    return masks.tolist(), acc[masks].tolist()


# candidate term pairs expanded at once; bounds the memory: the 3 x 2**14 int64
# of a chunk stay below the 1 MiB mmap threshold that `cli.main` fixes
WEDGE_CHUNK = 1 << 14


def wedge_sum(pairs) -> dict:
    """Exact sum of a ^ b over pairs of integer tables {mask: int}, with
    no zero entries.

    B = sum |a|_1 |b|_1 bounds every product and partial sum, and the
    pairs expand in its `int_dtype` (see `_wedge_plan`).
    """
    tables = [t for pair in pairs for t in pair]
    a = np.arange(0, len(tables), 2)
    masks, coeffs, blocks, bound = _wedge_plan(tables, a, a + 1)
    if not bound:
        return {}
    return dict(zip(*_nonzero(_expand_grids(masks, coeffs, blocks, int_dtype(bound)))))


def square_sums(tables, a, b, group) -> dict:
    """Exact sum over groups g of Q_g ^ Q_g, Q_g the sum of
    tables[a[k]] ^ tables[b[k]] over the pairs k of group g, for integer
    tables {mask: int}; no zero entries.  group is nondecreasing.

    The first expansion builds every Q_g at once under the largest
    B_g = sum |a|_1 |b|_1, one segment of its sorted arrays per nonzero
    Q_g.  Segments equal in masks and values (compared as bytes, or as
    values on Python ints) are one table of multiplicity k, which the
    second expansion squares once: one block of the segment with itself,
    a triangle of weight 2k when every term has even positive degree,
    else the whole grid of weight k (`_pair_grid`), the blocks sorted by
    size.  Its sums lie within B = sum_g |Q_g|_1^2 and its products
    within max|c|^2 max weight, and `sum_dtype` picks its width from both
    and the number of candidate pairs.  On LIMBS the accumulator's two
    rows are recombined as Python ints on the nonzero masks.
    """
    masks, coeffs, blocks, bound = _wedge_plan(tables, a, b, group)
    if not bound:
        return {}
    sums, keys = _expand_grids(masks, coeffs, blocks, int_dtype(bound), grouped=True)
    nz = np.flatnonzero(sums != 0)
    sums, masks = sums[nz], keys[nz] & 0xFFFF
    starts = np.flatnonzero(np.diff(keys[nz] >> 16, prepend=-1))
    if not starts.size:
        return {}
    spans = zip(starts.tolist(), np.diff(starts, append=nz.size).tolist())
    distinct: dict = {}  # (masks, values) -> [start, length, even, count]
    for (at, n), even in zip(spans, _even(masks, starts).tolist()):
        values = sums[at:at + n]
        values = tuple(values) if sums.dtype == object else values.tobytes()
        key = masks[at:at + n].tobytes(), values
        distinct.setdefault(key, [at, n, even, 0])[3] += 1
    squares = sorted(distinct.values(), key=lambda s: s[1:3])  # by (size, even)
    at, n, even, k = np.array(squares, dtype=np.int64).T
    weight = k << even
    blocks = np.array((at, at, n, n, even, weight, 0 * k)).T
    bound = sum(x * x for x in np.add.reduceat(np.abs(sums), starts).tolist())
    peak = max(-int(sums.min()), int(sums.max()))
    count = int(_grid_sizes(n, n, even).sum())
    dtype = sum_dtype(bound, peak**2 * int(weight.max()), count)
    acc = _expand_grids(masks, sums, blocks, dtype)
    if dtype is not LIMBS:
        return dict(zip(*_nonzero(acc)))
    out = np.flatnonzero((acc != 0).any(axis=0))
    high, low = acc[:, out].tolist()
    totals = ((m, (h << 32) + v) for m, h, v in zip(out.tolist(), high, low))
    return {m: v for m, v in totals if v}


def _even(masks: np.ndarray, starts) -> np.ndarray:
    """Whether every mask of each segment, from its start to the next
    one, has even positive degree."""
    _, poppar = _np_tables()
    return np.maximum.reduceat(poppar[masks] | (masks == 0), starts) == 0


def _wedge_plan(tables, a, b, group=None) -> tuple:
    """(masks, coeffs, blocks, B) for `_expand_grids` over the pairs
    tables[a[k]] ^ tables[b[k]], with group (nondecreasing, else 0) in
    the blocks; B is 0 when no pair has two nonempty tables.

    The masks and coefficients are those of every table in turn.  Each
    pair with two nonempty tables is one block of weight 1: the spans of
    its tables, their sizes, and the whole grid of term pairs.  The
    norms |t|_1 and bounds come from the tables and the index arrays:
    B_g = sum |a|_1 |b|_1 over the pairs of group g, in Python ints, and
    B is the largest B_g, or the largest |t|_1 if more, so that it covers
    a coefficient whose partner table holds only zeros.
    """
    sizes = np.array([len(t) for t in tables], dtype=np.int64)
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    group = np.zeros_like(a) if group is None else np.asarray(group, dtype=np.int64)
    keep = np.flatnonzero((sizes[a] > 0) & (sizes[b] > 0))
    if not keep.size:
        return None, None, None, 0
    a, b, group = a[keep], b[keep], group[keep]
    norms = np.array([sum(map(abs, t.values())) for t in tables], dtype=object)
    # a coefficient that is not an int makes its table's norm none either
    _require_int("the wedge kernel", norms.tolist())
    starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    bounds = np.add.reduceat(norms[a] * norms[b], starts)
    spans = np.cumsum(sizes) - sizes
    masks = np.fromiter(
        itertools.chain.from_iterable(tables), dtype=np.int64, count=int(sizes.sum())
    )
    coeffs = [v for t in tables for v in t.values()]
    ones = np.ones_like(a)
    blocks = np.array((spans[a], spans[b], sizes[a], sizes[b], 0 * ones, ones, group))
    return masks, coeffs, blocks.T, max(*bounds.tolist(), *norms.tolist())


def _grid_sizes(n, m, triangle) -> np.ndarray:
    """How many term pairs the blocks expand (`_pair_grid`): n m, or
    n (n - 1) / 2 for a triangle (m = n)."""
    return n * (2 * m - triangle * (n + 1)) // 2


@functools.lru_cache(maxsize=16)
def _pair_grid(n: int, m: int, triangle: bool, lo: int, hi: int) -> tuple:
    """The term pairs (i, j) number lo to hi, row by row, of an n x m
    grid, or of its upper triangle i < j when triangle (m = n).

    A square Q ^ Q whose every term has even positive degree is
    2 sum_{i<j} c_i c_j m_i ^ m_j, since m ^ m = 0 and the terms commute:
    the triangle, whose row i starts at pair i n - i (i + 1) / 2.  A slice
    holds at most WEDGE_CHUNK pairs, so the cache stays small.
    """
    k = np.arange(lo, hi)
    if triangle:
        rows = np.arange(n)
        starts = rows * n - rows * (rows + 1) // 2
        i = np.searchsorted(starts, k, "right") - 1
        grid = i, k - starts[i] + i + 1
    else:
        grid = np.divmod(k, m)
    for half in grid:
        half.flags.writeable = False  # every caller shares the cached grid
    return grid


def _expand_grids(masks, coeffs, blocks, dtype, grouped=False):
    """The weighted sum of every block's term pairs in dtype: a dense
    2**16 accumulator, two of them on LIMBS, or grouped (sums, keys).

    A block (left span, right span, n, m, triangle, weight, group)
    expands the `_pair_grid` of its n terms from the left span against
    its m terms from the right span, each pair c_i c_j m_i ^ m_j times
    the weight.  The blocks run in order, in chunks of at most
    WEDGE_CHUNK candidate pairs (a block with more is a chunk alone, cut
    into slices); inside a chunk the blocks of one shape (n, m,
    triangle) gather together from one grid and expand in one
    `_products` pass.  Dense, the pairs sum into an accumulator whose
    index is the mask; on LIMBS each product v is split into v >> 32 and
    v & 0xFFFFFFFF, each summed into an int64 accumulator of its own.
    Grouped, they sum by `np.unique` on the keys group << 16 | mask; the
    blocks run group by group, so only the last group of a chunk carries
    into the next.
    """
    limbs = dtype is LIMBS
    c = np.asarray(coeffs, dtype=np.int64 if limbs else dtype)
    left, right, n, m, triangle, weight, group = blocks.T
    sizes = _grid_sizes(n, m, triangle)
    shape = n << 32 | m << 1 | triangle
    ends = np.add.accumulate(sizes)
    weighted = np.maximum.reduce(weight, initial=1) > 1  # every weight is at least 1
    parts, keys, sums = [], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype)
    if not grouped:
        acc = np.zeros((1 + limbs, 1 << 16), dtype=c.dtype)
    lo, before = 0, 0
    while lo < len(blocks):
        hi = max(lo + 1, int(np.searchsorted(ends, before + WEDGE_CHUNK, "right")))
        # the chunk's blocks sorted by shape, cut into runs of one shape
        order, runs = np.arange(lo, hi), [0, hi - lo]
        if hi > lo + 1 and (shape[lo + 1:hi] != shape[lo]).any():
            order = lo + np.argsort(shape[lo:hi], kind="stable")
            runs[1:1] = (1 + np.flatnonzero(np.diff(shape[order]))).tolist()
        # a chunk of several blocks takes their whole grids, a lone block slices
        for cut in range(0, int(sizes[lo]), WEDGE_CHUNK) if hi == lo + 1 else [0]:
            found = [(keys, sums)]
            for which in (order[a:b] for a, b in itertools.pairwise(runs)):
                t = which[0]
                i, j = _pair_grid(
                    int(n[t]), int(m[t]), bool(triangle[t]),
                    cut, min(cut + WEDGE_CHUNK, int(sizes[t])),
                )
                pairs = (left[which, None] + i).ravel(), (right[which, None] + j).ravel()
                out, vals, kept = _products(masks, c, *pairs)
                owner = which[kept // max(i.size, 1)]
                if weighted:
                    vals *= weight[owner]
                if grouped:
                    found.append((group[owner] << 16 | out, vals))
                    continue
                split = (vals >> 32, vals & 0xFFFFFFFF) if limbs else [vals]
                for row, part in zip(acc, split):
                    np.add.at(row, out, part)
            if grouped:
                found = [np.concatenate(x) for x in zip(*found)]
                keys, inverse = np.unique(found[0], return_inverse=True)
                total = np.zeros(keys.size, dtype=dtype)
                np.add.at(total, inverse, found[1])
                # the keys of the chunk's last group carry into the next chunk
                carry = np.searchsorted(keys, group[hi - 1] << 16)
                parts.append((total[:carry], keys[:carry]))
                keys, sums = keys[carry:], total[carry:]
        lo, before = hi, int(ends[hi - 1])
    if not grouped:
        return acc if limbs else acc[0]
    parts.append((sums, keys))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _products(masks, c, left, right) -> tuple:
    """(out, vals, kept) of the candidate term pairs (left, right) of the
    masks and coefficients c: kept lists the pairs of disjoint masks, out
    their union, vals c_left c_right with the sign of moving each index
    of the right mask left past the indices of the left mask above it,
    one flip each."""
    p16, poppar = _np_tables()
    kept = np.flatnonzero((masks[left] & masks[right]) == 0)
    left, right = left[kept], right[kept]
    ml, mr = masks[left], masks[right]
    vals = c[left] * c[right]
    vals *= 1 - 2 * poppar[p16[ml] & mr]
    return ml | mr, vals, kept


# exact pullback kernel ------------------------------------------------------


def pullback_table(table: dict, degree: int, entries) -> dict:
    """Exact pullback of an integer table {mask: int} of the given degree
    along integer matrix entries (row, col, value), which add up where
    repeated, as an integer table.

    Monomial m becomes the wedge, over its indices t in increasing order,
    of the one-forms sum_c A[t][c] dx_c.  A monomial that meets an empty
    row drops out first, so every row met has norm at least 1 and
    B = sum_m |c_m| prod_t |row t|_1 bounds every product and partial sum,
    which run in `int_dtype(B)`.  The states are the grouped sums of
    `_expand_grids`, keyed group << 16 | mask: monomial m starts as group m
    (the indices still to pull back), mask 0 (the columns wedged so far).
    Each of the degree steps expands every state of group s, one block
    each, against the one-form of s's lowest index into group s & (s - 1),
    where monomials that share their remaining indices merge.
    """
    rows: list = [[] for _ in range(16)]
    for r, c, v in entries:
        rows[r].append((c, v))
    _require_int("pullback_table", table.values(), (v for row in rows for _, v in row))
    masks = np.fromiter(table, dtype=np.int64, count=len(table))
    idx = _positions(masks, degree)

    # object arrays keep the bound in exact Python integers
    norms = np.array([sum(abs(v) for _, v in row) for row in rows], dtype=object)
    coeffs = np.array(list(table.values()), dtype=object)
    sizes = np.abs(coeffs) * np.prod(norms[idx], axis=1)
    keep = np.flatnonzero(sizes)  # a monomial meeting an empty row drops out
    if not keep.size:
        return {}
    dtype = int_dtype(int(sizes.sum()))
    keys, sums = masks[keep] << 16, coeffs[keep].astype(dtype)
    met = int(np.bitwise_or.reduce(masks[keep]))  # B bounds only the rows met
    rows = [row if met >> r & 1 else [] for r, row in enumerate(rows)]
    nnz = np.array([len(row) for row in rows], dtype=np.int64)
    spans = np.cumsum(nnz) - nnz
    forms = np.array([1 << c for row in rows for c, _ in row], dtype=np.int64)
    values = np.array([v for row in rows for _, v in row], dtype=dtype)
    for _ in range(degree):
        s = keys >> 16
        t = np.searchsorted(1 << np.arange(16), s & -s)  # the lowest index of s
        into = s & (s - 1)
        ones = np.ones_like(s)
        blocks = np.array(
            (np.arange(s.size), s.size + spans[t], ones, nnz[t], 0 * ones, ones, into)
        )
        sums, keys = _expand_grids(
            np.concatenate((keys & 0xFFFF, forms)),
            np.concatenate((sums, values)),
            blocks.T[np.argsort(into, kind="stable")],  # run group by group
            dtype,
            grouped=True,
        )
    return {m: v for m, v in zip(keys.tolist(), sums.tolist()) if v}


# exact evaluation kernel ----------------------------------------------------


@functools.cache
def _subset_positions(p: int, q: int) -> np.ndarray:
    """The q-subsets of positions 0..p-1, one per row, in combinations order."""
    subsets = list(itertools.combinations(range(p), q))
    return np.array(subsets, dtype=np.int64).reshape(len(subsets), q)


def _positions(masks: np.ndarray, degree: int) -> np.ndarray:
    """The indices of each mask in increasing order, one row per mask."""
    bits = (masks[:, None] >> np.arange(16) & 1) == 1  # bool scans far faster
    if (bits.sum(axis=1) != degree).any():
        raise ValueError(f"every mask must hold {degree} indices")
    return (np.flatnonzero(bits) & 15).reshape(masks.size, degree)


@functools.cache
def _peel(k: int) -> tuple:
    """(masks, indices, places, signs) of the masks of k indices, in
    increasing order: each mask's indices in increasing order, the place
    among the (k - 1)-masks of the mask left when index t drops out, as
    uint16, and signs[t] = (-1)**(k - 1 - t), the sign that row t of the
    last column carries when a minor is expanded along that column."""
    count = np.zeros(1, dtype=np.int8)
    for _ in range(16):  # count[m] = popcount(m), one bit more per pass
        count = np.concatenate((count, count + 1))
    masks, below = np.flatnonzero(count == k), np.flatnonzero(count == k - 1)
    indices = _positions(masks, k)
    places = np.searchsorted(below, masks[:, None] ^ 1 << indices).astype(np.uint16)
    return masks, indices, places, (1 - 2 * (k - 1 - np.arange(k) & 1)).astype(np.int8)


def _column_minors(cols: np.ndarray) -> np.ndarray:
    """The minors det[w_b[i_a]] of the k columns w_b of cols on every
    k-mask, in `_peel(k)` order and the columns' dtype: step j expands
    the minor of the first j columns along column j - 1, each entry
    times the (j - 1)-minor of its mask without its index."""
    minors = np.ones(1, dtype=cols.dtype)
    for k, w in enumerate(cols, 1):
        _, indices, places, signs = _peel(k)
        minors = (w[indices] * minors[places] * signs).sum(axis=1)
    return minors


def evaluate_table(table: dict, columns, plan=None) -> int:
    """sum_m c_m det[w_b[i_a]] for an integer table {mask: int} of degree p
    and p integer columns w_b.

    One Laplace level on `plan`, the table's `_laplace_plan` (built if
    None; `AlternatingForm.evaluate` caches it on the form): each minor
    is sum_A eps(A, m - A) L[A] R[m - A] over the q-subsets A of m,
    q = p // 2, L and R the `_column_minors` of the first q and the last
    p - q columns, cut to the table's support.  Every peel step, product
    L[A] R[m - A] and partial sum is a signed sum of distinct products
    of one entry per column, so B = prod_b |w_b|_1 bounds them all.
    """
    _require_int("evaluate_table", table.values(), *columns)
    masks, a, b, sign = plan or _laplace_plan(table, len(columns))
    support = int(np.bitwise_or.reduce(masks))
    cut = [[x if support >> i & 1 else 0 for i, x in enumerate(w)] for w in columns]
    bound = math.prod(sum(map(abs, w)) for w in cut)
    if not bound:
        return 0
    cols = np.array(cut, dtype=int_dtype(bound)).reshape(len(cut), 16)
    q = len(cut) // 2
    left, right = _column_minors(cols[:q]), _column_minors(cols[q:])
    minors = (left[a] * right[b] * sign).sum(axis=1)
    nz = np.flatnonzero(minors != 0)
    coeffs = list(table.values())
    return sum(coeffs[k] * x for k, x in zip(nz.tolist(), minors[nz].tolist()))


def _laplace_plan(table: dict, degree: int) -> tuple:
    """(masks, a, b, sign) of the table's masks m: for every q-subset A
    of m's indices (q = degree // 2), one column each, the places of A
    and of m - A among the masks of their size (`_peel`) as uint16, and
    eps(A, m - A), the parity of moving m - A left past A, as int8."""
    q = degree // 2
    masks = np.fromiter(table, dtype=np.int64, count=len(table))
    pos = _positions(masks, degree)
    a = np.zeros((masks.size, math.comb(degree, q)), dtype=np.int64)
    for position in _subset_positions(degree, q).T:
        a |= 1 << pos[:, position]
    b = masks[:, None] ^ a
    p16, poppar = _np_tables()
    halves = ((q, a), (degree - q, b))
    places = (np.searchsorted(_peel(j)[0], x).astype(np.uint16) for j, x in halves)
    return masks, *places, 1 - 2 * poppar[p16[a] & b].astype(np.int8)


# exact Lie-derivative kernel ------------------------------------------------


def sign_characters(support, masks) -> tuple:
    """(generators, characters) of D, the diagonal sign matrices that fix
    every monomial of `support`, a list of monomial masks.

    A sign mask g (the matrix that is -1 on the coordinates in g) scales
    dx_m by the popcount parity of g & m, so D is the GF(2) kernel of the
    incidence matrix of `support`.  The generators are one per bit outside
    the pivots of the reduced GF(2) echelon of the support, in increasing
    bit order.  The character of a mask x is the sign D puts on dx_x, as
    the integer whose bit i is the parity of generators[i] & x; two masks
    share it exactly when their XOR lies in the GF(2) span of the support.
    """
    pivots = {}  # pivot bit -> reduced basis mask holding no other pivot bit
    for m in support:
        for bit, row in pivots.items():
            if m >> bit & 1:
                m ^= row
        if m:
            top = m.bit_length() - 1
            for bit, row in pivots.items():
                if row >> top & 1:
                    pivots[bit] = row ^ m
            pivots[top] = m
    generators = tuple(
        1 << f | sum(1 << bit for bit, row in pivots.items() if row >> f & 1)
        for f in range(16)
        if f not in pivots
    )
    masks = np.asarray(masks, dtype=np.int64)
    _, poppar = _np_tables()
    characters = np.zeros(masks.shape, dtype=np.int64)
    for i, g in enumerate(generators):
        characters |= poppar[masks & g] << i
    return generators, characters


def lie_incidences(masks, rows, cols) -> tuple:
    """Every (monomial, matrix unit) pair that moves: (out, odd, mon, unit).

    The matrix unit E_rc with r = rows[unit], c = cols[unit] turns the
    index r into c in every monomial masks[mon] that holds r and not c;
    moving c to its sorted place passes the monomial's indices strictly
    between r and c, one sign flip each, so odd is the popcount parity of
    those.  The diagonal unit E_rr keeps each monomial holding r, unsigned.
    Distinct monomials have distinct images under one unit.
    """
    masks = np.asarray(masks, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(16) & 1).astype(bool)
    mon, unit = np.nonzero(bits[:, rows] & (~bits[:, cols] | (rows == cols)))
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    between = np.where(rows == cols, 0, (1 << hi) - (2 << lo))
    m, r, c = masks[mon], rows[unit], cols[unit]
    _, poppar = _np_tables()
    return m ^ (1 << r) ^ (1 << c), poppar[m & between[unit]], mon, unit


def lie_images(table: dict, rows, cols, vectors) -> tuple:
    """Lie derivatives of an integer table {mask: int} along k integer
    matrices at once: (masks, images), images[i, j] the coefficient of
    masks[i] in L_{A_j} table, A_j = sum_u vectors[j][u] E_{rows[u], cols[u]}.

    Distinct monomials have distinct images under one unit, so each
    (mask, unit) takes at most one term, and B = max_m |c_m| *
    max_j sum_u |vectors[j][u]| bounds every product and partial sum.
    B = 0 leaves nothing to sum, else the weighted incidences of
    `lie_incidences` are summed by output mask (`np.unique`, masks
    sorted) in `int_dtype(B)`; an image is 0 where its terms cancel.
    """
    coeffs, vectors = list(table.values()), [list(v) for v in vectors]
    _require_int("lie_images", coeffs, *vectors)
    k, peak = len(vectors), max((sum(map(abs, v)) for v in vectors), default=0)
    bound = max(map(abs, coeffs), default=0) * peak
    if not bound:
        return np.zeros(0, dtype=np.int64), np.zeros((0, k), dtype=np.int64)
    out, odd, mon, unit = lie_incidences(list(table), rows, cols)
    dtype = int_dtype(bound)
    terms = np.array(coeffs, dtype=dtype)[mon] * (1 - 2 * odd)
    weighted = terms[:, None] * np.array(vectors, dtype=dtype).T[unit]
    masks, at = np.unique(out, return_inverse=True)
    images = np.zeros(masks.size * k, dtype=dtype)  # flat: a 1-d np.add.at is faster
    np.add.at(images, (k * at[:, None] + np.arange(k)).ravel(), weighted.ravel())
    return masks, images.reshape(-1, k)
