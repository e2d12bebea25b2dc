"""Shared random generators and small independent oracles for the tests."""

import functools
import importlib
import pkgutil
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

import numpy as np

import spin9
from spin9 import exterior, linalg
from spin9.exterior import AlternatingForm, perm_sign, wedge_sum
from spin9.linalg import clear_denominators, exact_ratio
from spin9.octonion import Octonion
from spin9.operators import (
    Operator16,
    Vector16,
    clifford_product,
)


def halves(v):
    """The octonion pair (x1, x2) of a `Vector16`, from its coordinates."""
    c = v.coords()
    return Octonion(c[:8]), Octonion(c[8:])


def pair(x1, x2):
    """The `Vector16` of the octonion pair (x1, x2)."""
    return Vector16(x1.coords() + x2.coords())


def rand_octonion(rng, span=3):
    return Octonion([rng.randint(-span, span) for _ in range(8)])


def rand_vector(rng, span=3):
    return Vector16.from_coords([rng.randint(-span, span) for _ in range(16)])


def rand_fraction_vector(rng):
    return Vector16.from_coords(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(16)]
    )


def matmul_oracle(a, b):
    """The dense row-by-column product of two `Operator16`s, by definition."""
    bcols = tuple(zip(*b.rows))
    return Operator16(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col) if x) for col in bcols)
            for row in a.rows
        )
    )


@functools.cache
def _pair_rows():
    """The rows of the 36 products I_i I_j, i < j, read once per session."""
    return tuple(clifford_product(ij).rows for ij in combinations(range(9), 2))


def curvature_oracle(x, y, z, c):
    """R_XY Z = -(c/4) sum_{i<j} omega_ij(X, Y) I_i I_j Z on Fraction throughout.

    The two-form expansion with no clearing of denominators: the slow
    differential oracle of the integer-cleared curvature expressions.
    """

    def apply(rows, coords):
        return [sum(p * q for p, q in zip(row, coords)) for row in rows]

    cx, cy, cz = x.coords(), y.coords(), z.coords()
    total = [Fraction(0)] * 16
    for rows in _pair_rows():
        coeff = sum(p * q for p, q in zip(cx, apply(rows, cy)))
        if coeff:
            iz = apply(rows, cz)
            total = [t + coeff * v for t, v in zip(total, iz)]
    scale = -Fraction(c, 4)
    return Vector16.from_coords([scale * t for t in total])


def mat9_mul(m1, m2):
    """The product of two 9 x 9 matrices of tuple rows, by definition."""
    return tuple(
        tuple(sum(m1[r][t] * m2[t][c] for t in range(9)) for c in range(9))
        for r in range(9)
    )


def dense_rank(rows, ncols):
    """Textbook Gaussian elimination over Fraction, as an independent oracle."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def row_to_int(row: dict) -> dict:
    """Scale a rational dict row {col: value} to integers and divide out the gcd."""
    ints, _ = clear_denominators(row.values())
    return _normalize({c: v for c, v in zip(row, ints) if v})


def _normalize(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _reduce(row: dict, pivots: dict) -> dict:
    """Eliminate the lead column of row until no pivot row holds it: one
    step is a*row - b*pivot, a and b the two lead entries, then the gcd
    is divided out; the result is empty when row lies in the pivots' span."""
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


def int_echelon_oracle(rows) -> list:
    """Fraction-free row echelon of integer dict rows, one row at a time.

    The sparse loop that `linalg.int_echelon` replaced, kept as its
    oracle: (pivot_col, row_dict) pairs sorted by pivot column, each row
    gcd-reduced with a positive pivot entry.  It is not reduced above the
    pivots, so only its rank, pivots and row space compare.
    """
    pivots = {}
    for raw in rows:
        row = _reduce(dict(raw), pivots)
        if row:
            lead = min(row)
            if row[lead] < 0:
                row = {c: -v for c, v in row.items()}
            pivots[lead] = _normalize(row)
    return sorted(pivots.items())


def reduce_against_oracle(echelon, raw: dict) -> dict:
    """Reduce a dict row against an `int_echelon_oracle` list; empty means
    the row lies in the echelon's row space."""
    return _reduce(row_to_int(raw), dict(echelon))


def rank(rows) -> int:
    """Rank of rational dict rows by the oracle echelon."""
    return len(int_echelon_oracle(row_to_int(r) for r in rows))


def nullspace_oracle(rows, ncols: int) -> list:
    """Primitive integer kernel basis of dict rows by back-substitution on
    the oracle echelon over Fraction: one vector per free column, in
    increasing order, positive in its free column."""
    ech = int_echelon_oracle(row_to_int(r) for r in rows)
    pivot_set = {c for c, _ in ech}
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        x = {f: Fraction(1)}
        for c, row in reversed(ech):
            s = sum((v * x[col] for col, v in row.items() if col != c and col in x),
                    Fraction(0))
            if s:
                x[c] = -s / row[c]
        row = row_to_int(x)
        sign = 1 if row[f] > 0 else -1
        vec = [0] * ncols
        for c, v in row.items():
            vec[c] = sign * v
        basis.append(vec)
    return basis


def dense_rows(rows, ncols):
    """Dict rows {col: int} as dense lists of ncols entries."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def det_oracle(m):
    """Textbook Fraction elimination with row swaps, as an independent oracle."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pval = rows[col][col]
        det *= pval
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] / pval
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def _int_det(m):
    """Determinant of an integer matrix by division-free elimination.

    Each step multiplies the rows below the pivot by the pivot before
    subtracting, which scales the determinant by the pivot once per row;
    those scalings are divided out, exactly, once at the end.
    """
    rows = [list(row) for row in m]
    n = len(rows)
    det, scale = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pval = rows[col][col]
        det *= pval
        for r in range(col + 1, n):
            f = rows[r][col]
            rows[r] = [pval * x - f * y for x, y in zip(rows[r], rows[col])]
        scale *= pval ** (n - col - 1)
    return det // scale


def evaluate_oracle(form, vectors):
    """form(v1, ..., vp) as one determinant per monomial, by definition.

    (dx_i1 ^ ... ^ dx_ip)(v1, ..., vp) = det [v_b[i_a]].  The determinant
    is linear in each vector, so each is cleared of its denominator first
    and every minor is an integer one (`_int_det`); slow, but it shares no
    code with the Laplace gather of `AlternatingForm.evaluate`.
    """
    cols, scale = [], 1
    for v in vectors:
        coords = [Fraction(x) for x in v.coords()]
        d = lcm(*(x.denominator for x in coords))
        cols.append([int(x * d) for x in coords])
        scale *= d
    assert len(cols) == form.degree
    total = sum(
        coeff * _int_det([[col[i] for i in idx] for col in cols])
        for idx, coeff in form.items()
    )
    return Fraction(total) / scale


def quat_mul(p, q):
    """Hamilton product of 4-tuples (1, i, j, k)."""
    a, b, c, d = p
    e, f, g, h = q
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def quat_conj(p):
    return (p[0], -p[1], -p[2], -p[3])


def oct_mul_oracle(x, y):
    """Octonion product via dense quaternion pairs.

    Doubling rule (p + q e)(r + s e) = (pr - conj(s) q) + (s p + q conj(r)) e,
    evaluated with the explicit Hamilton product instead of unit tables.
    """
    p, q = x[:4], x[4:]
    r, s = y[:4], y[4:]
    lo = tuple(
        a - b for a, b in zip(quat_mul(p, r), quat_mul(quat_conj(s), q))
    )
    hi = tuple(
        a + b for a, b in zip(quat_mul(s, p), quat_mul(q, quat_conj(r)))
    )
    return lo + hi


def unit_conj(a):
    """Conjugate of a signed basis unit (sign, index)."""
    return a if a[1] == 0 else (-a[0], a[1])


def associator(a, b, c):
    return (a * b) * c - a * (b * c)


@functools.cache
def _merge_sign(a, b):
    """Sign of dx_A ^ dx_B for disjoint masks, by inversion parity; cached
    per mask pair, since the quadruple-sum oracle meets each pair often."""
    parity = 0
    while b:
        low = b & -b
        parity ^= (a >> low.bit_length()).bit_count() & 1
        b ^= low
    return -1 if parity else 1


def _bits(mask):
    return [i for i in range(16) if mask >> i & 1]


def exact_terms(form):
    """The form's exact coefficients {mask: int or Fraction}: each
    numerator over the one denominator."""
    return {m: exact_ratio(v, form.denominator) for m, v in form.numerators.items()}


def form_of(degree, terms):
    """The form with exact coefficients {mask: value}, built by the public
    constructor; zero values drop out."""
    return AlternatingForm(degree, {tuple(_bits(m)): v for m, v in terms.items()})


def lie_derivative_oracle(form, op):
    """L_op form slot by slot: each index a becomes b, weighted by op[a][b].

    The monomial loop with its own merge-sign bookkeeping; it shares no
    code with the incidence kernel of `AlternatingForm.lie_derivative`.
    """
    out, rows = {}, op.rows
    for m, coeff in exact_terms(form).items():
        for a in _bits(m):
            rest = m & ~(1 << a)
            for b, v in enumerate(rows[a]):
                if not v or (b != a and rest >> b & 1):
                    continue
                s = _merge_sign(1 << a, rest) * _merge_sign(1 << b, rest)
                m2 = rest | 1 << b
                out[m2] = out.get(m2, 0) + s * coeff * v
    return form_of(form.degree, out)


def generator_image_oracle(form, r, c):
    """Terms {mask: coeff} of the Lie derivative of `form` along E_rc.

    One dict per matrix unit, by a loop over the monomials: E_rc turns
    the index r into c in every monomial that holds r and not c, and
    moving c to its sorted place passes the monomial's indices strictly
    between r and c, one sign flip each.  The diagonal unit E_rr keeps
    the monomials holding r.
    """
    rbit, terms = 1 << r, exact_terms(form)
    if r == c:
        return {m: v for m, v in terms.items() if m & rbit}
    cbit = 1 << c
    between = (1 << max(r, c)) - (2 << min(r, c))
    return {
        m ^ rbit ^ cbit: -v if (m & between).bit_count() & 1 else v
        for m, v in terms.items()
        if m & rbit and not m & cbit
    }


def stabilizer_system_oracle(form, n):
    """The equation rows of {A : L_A form = 0}, one `generator_image_oracle`
    dict per matrix unit E_rc in column n*r + c, rows sorted by mask."""
    equations = {}
    for r in range(n):
        for c in range(n):
            for m, v in generator_image_oracle(form, r, c).items():
                equations.setdefault(m, {})[n * r + c] = v
    return [equations[m] for m in sorted(equations)]


def _expand_pullback(rows, idx, depth, mask, coeff, out):
    """Add the leaves below one node to out."""
    if depth == len(idx):
        out[mask] = out.get(mask, 0) + coeff
        return
    for b, v in rows[idx[depth]]:
        bit = 1 << b
        if mask & bit:
            continue
        # the incoming factor moves left past the accumulated indices above b
        sign = -1 if (mask >> b).bit_count() & 1 else 1
        _expand_pullback(rows, idx, depth + 1, mask | bit, sign * coeff * v, out)


def pullback_oracle(form, op):
    """op* form by recursion, one Python call per leaf.

    Each index of a monomial expands over the nonzero entries of its row
    of op, on the operator's own int or Fraction entries; it shares no
    code with the vectorized kernel of `AlternatingForm.pullback`.
    """
    rows = [[(c, v) for c, v in enumerate(row) if v] for row in op.rows]
    out = {}
    for m, coeff in exact_terms(form).items():
        _expand_pullback(rows, _bits(m), 0, 0, coeff, out)
    return form_of(form.degree, out)


def w_tilde_oracle(v, vp, w, wp):
    """The literal S8 sum of `w_tilde`, one term per signed permutation."""
    mats = [
        [(x * (y * Octonion.unit(b))).coords() for b in range(8)]
        for x, y in ((v, w), (v, wp), (vp, w), (vp, wp))
    ]
    total = 0
    for perm in permutations(range(8)):
        term = perm_sign(perm)
        for k, mat in enumerate(mats):
            term *= mat[perm[2 * k + 1]][perm[2 * k]]
            if not term:
                break
        total += term
    return exact_ratio(total, 16)


def _wedge_dicts(ta, tb):
    out = {}
    _wedge_dicts_into(out, ta, tb)
    return out


def _wedge_dicts_into(acc, ta, tb):
    for ma, ca in ta.items():
        for mb, cb in tb.items():
            if ma & mb:
                continue
            m = ma | mb
            w = acc.get(m, 0) + _merge_sign(ma, mb) * ca * cb
            if w:
                acc[m] = w
            else:
                del acc[m]


def quadruple_sum_oracle(w2):
    """The literal quadruple sum on Python ints, one dict wedge at a time.

    w2 maps ordered (i, j), i != j, to two-form tables {mask: coeff}; the
    result is the sum over i, j, i', j' of w_ij ^ w_ij' ^ w_i'j ^ w_i'j'
    with j, j' outside {i, i'}.  Slow but exact for integers of any size,
    it is the differential oracle of the wedge kernel on int64 and on
    Python ints.
    """
    pair = {}
    for i in range(9):
        for j in range(9):
            for jp in range(9):
                if i not in (j, jp):
                    pair[(i, j, jp)] = _wedge_dicts(w2[(i, j)], w2[(i, jp)])
    acc = {}
    for i in range(9):
        for ip in range(9):
            for j in range(9):
                for jp in range(9):
                    if not {j, jp} & {i, ip}:
                        _wedge_dicts_into(
                            acc, pair[(i, j, jp)], pair[(ip, j, jp)]
                        )
    return acc


def alt_grouping_oracle(w):
    """The alternative grouping as written: -1/2 sum D^2 over 6561 quadruples.

    w(i, j) gives the two-form table {mask: coeff} for i != j; the sum runs
    over every ordered (i, i', j, j') with
    D = w(i, j) ^ w(i', j') - w(i', j) ^ w(i, j') (a repeated index gives
    an empty table), and no symmetry of D is used.
    """

    def table(i, j):
        return w(i, j) if i != j else {}

    def minor(i, ip, j, jp):
        neg = {m: -c for m, c in table(ip, j).items()}
        return wedge_sum([(table(i, j), table(ip, jp)), (neg, table(i, jp))])

    quads = product(range(9), repeat=4)
    squares = wedge_sum((d, d) for d in (minor(*q) for q in quads))
    return {m: exact_ratio(-c, 2) for m, c in squares.items()}


Decision = namedtuple("Decision", "module bound dtype")

_INT_DTYPE = linalg.int_dtype
_SUM_DTYPE = linalg.sum_dtype


class Decisions(list):
    """The `Decision`s recorded by `spy_dtypes`, in call order."""

    def of(self, module: str) -> list:
        """The dtypes decided in one module, in call order."""
        return [d.dtype for d in self if d.module == module]


def spy_dtypes(monkeypatch) -> Decisions:
    """Record every `linalg.int_dtype` and `linalg.sum_dtype` decision as
    a Decision(module, bound, dtype): the short name of the spin9 module
    that asked, the bound it passed and the dtype it got (`linalg.LIMBS`
    for two int64 limbs).  The spy replaces both in every spin9 module
    that holds them; a `sum_dtype` decision is one record, without the
    `int_dtype` calls it makes.  A later spy replaces this one."""
    seen = Decisions()
    for info in pkgutil.iter_modules(spin9.__path__):
        module = importlib.import_module(f"spin9.{info.name}")
        if hasattr(module, "int_dtype"):

            def spy(bound, name=info.name):
                dtype = _INT_DTYPE(bound)
                seen.append(Decision(name, bound, np.dtype(dtype)))
                return dtype

            monkeypatch.setattr(module, "int_dtype", spy)
        if hasattr(module, "sum_dtype"):

            def spy_sum(bound, product, count, name=info.name):
                inner = len(seen)
                dtype = _SUM_DTYPE(bound, product, count)
                del seen[inner:]
                seen.append(Decision(name, bound, np.dtype(dtype)))
                return dtype

            monkeypatch.setattr(module, "sum_dtype", spy_sum)
    return seen


Block = namedtuple("Block", "left right n m triangle weight group")


def spy_plans(monkeypatch) -> list:
    """Record the blocks of every `exterior._expand_grids` call, in call
    order, as lists of `Block`s.  A `wedge_sum` expands once, one block
    per pair; a `square_sums` twice: its grouped pairs, then one block per
    distinct four-form Q, a triangle of weight 2k when Q is a square of
    even terms, else a whole grid of weight k, k the groups that share Q."""
    seen = []
    expand = exterior._expand_grids

    def spy(masks, coeffs, blocks, dtype, grouped=False):
        seen.append([Block(*row) for row in blocks.tolist()])
        return expand(masks, coeffs, blocks, dtype, grouped)

    monkeypatch.setattr(exterior, "_expand_grids", spy)
    return seen


def square_groups(groups) -> dict:
    """`exterior.square_sums` of groups of pairs (x, y) of tables, handed
    over as one list with each table object once, and each pair as the
    positions a, b of its tables with the number of its group."""
    tables, at, a, b, group = [], {}, [], [], []
    for g, pairs in enumerate(groups):
        for x, y in pairs:
            for t in (x, y):
                if id(t) not in at:
                    at[id(t)] = len(tables)
                    tables.append(t)
            a.append(at[id(x)])
            b.append(at[id(y)])
            group.append(g)
    return exterior.square_sums(tables, a, b, group)


def squares_oracle(groups) -> dict:
    """sum_g Q_g ^ Q_g group by group: Q_g = `wedge_sum`(g), squared alone
    by `wedge_sum([(Q_g, Q_g)])`, the tables added as dicts."""
    total = {}
    for group in groups:
        q = wedge_sum(group)
        for m, v in wedge_sum([(q, q)]).items():
            total[m] = total.get(m, 0) + v
    return {m: v for m, v in total.items() if v}


def s8_star_oracle():
    """S*_8 filtered from all of S_8 by its defining inequalities."""
    reps = []
    for perm in permutations(range(8)):
        if any(perm[2 * i] > perm[2 * i + 1] for i in range(4)):
            continue
        if perm[0] > perm[2] or perm[4] > perm[6] or perm[0] > perm[4]:
            continue
        reps.append((perm, perm_sign(perm)))
    return tuple(reps)


# the 24 arrangements of four slots, each with its sign
S4_SIGNED = tuple((perm, perm_sign(perm)) for perm in permutations(range(4)))


def materialize_oracle(k, signed_perms, table):
    """The signed sum on every ascending basis k-tuple, one int64 4-index
    gather of `table` per 4-slot block of every permutation."""
    combos = np.array(list(combinations(range(16), k)))
    cols = [combos[:, t] for t in range(k)]
    acc = np.zeros(len(combos), dtype=np.int64)
    for perm, sign in signed_perms:
        term = sign
        for q in range(0, k, 4):
            slots = tuple(cols[p] for p in perm[q:q + 4])
            term = term * table[slots].astype(np.int64)
        acc += term
    masks = np.bitwise_or.reduce(1 << combos, axis=1)
    return AlternatingForm._raw(
        k, {int(m): int(v) for m, v in zip(masks, acc) if v}
    )


def np_tables_oracle():
    """The parity tables from per-bit suffix sums over all 2^16 masks."""
    masks = np.arange(1 << 16, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(16)[None, :]) & 1
    above = np.cumsum(bits[:, ::-1], axis=1)[:, ::-1]  # inclusive suffix sums
    strictly_above = (above - bits) & 1
    p16 = (strictly_above << np.arange(16)[None, :]).sum(axis=1)
    return p16, bits.sum(axis=1) & 1


def apply_oracle(op, v):
    """op v by definition: one Fraction product per matrix entry."""
    c = v.coords()
    return [
        sum((Fraction(x) * Fraction(y) for x, y in zip(row, c)), Fraction(0))
        for row in op.rows
    ]


def cross_oct(u, v):
    """The octonion cross product Im(conj(v) u) = (conj(v) u - conj(u) v) / 2."""
    return Octonion((0,) + (v.conj() * u).coords()[1:])


def bpt_cross_oracle(u, v):
    """The cross of two `Vector16`s on O^2, conjugated in the first half and
    plain in the second, from two `cross_oct` calls on `Octonion` objects."""
    (u1, u2), (v1, v2) = halves(u), halves(v)
    return cross_oct(u1.conj(), v1.conj()) + cross_oct(u2, v2)


def cross_table_oracle(vectors):
    """The crosses `bpt_cross_oracle` of the pairs i < j, by pair."""
    return {
        (i, j): bpt_cross_oracle(u, v)
        for (i, u), (j, v) in combinations(enumerate(vectors), 2)
    }


def bpt_reduced_oracle(vectors, reps):
    """The signed sum over the permutations reps of the slots of vectors (4
    or 8) of products of real parts Re(C_{p0 p1} C_{p2 p3}) ..., one
    `Octonion` product each; a descending pair reads the negated cross."""
    table = cross_table_oracle(list(vectors))

    def cross(a, b):
        return table[a, b] if a < b else -table[b, a]

    total = 0
    for perm, sign in reps:
        term = sign
        for k in range(0, len(perm), 4):
            a, b = cross(*perm[k:k + 2]), cross(*perm[k + 2:k + 4])
            term *= (a * b).coords()[0]
        total += term
    return total


def bpt_full_oracle(vectors):
    """The full BPT sum on `Octonion` objects: each 4-block's signed sum
    over its three pairings in both orders, times four, then the 70 split
    products with their shuffle signs, divided by 2^7."""
    table = cross_table_oracle(list(vectors))

    def block_sum(a, b, c, d):
        ab, cd = table[a, b], table[c, d]
        ac, bd = table[a, c], table[b, d]
        ad, bc = table[a, d], table[b, c]
        return ((ab * cd + cd * ab) - (ac * bd + bd * ac) + (ad * bc + bc * ad)).scale(4)

    blocks = {b: block_sum(*b) for b in combinations(range(8), 4)}
    total = Octonion((0,) * 8)
    for first, block in blocks.items():
        rest = tuple(k for k in range(8) if k not in first)
        total = total + (block * blocks[rest]).scale(perm_sign(first + rest))
    assert not any(total.coords()[1:])
    return exact_ratio(total.coords()[0], 128)
