"""The canonical eight-form on R^16 and its defining identities.

The two-forms omega_ij(X, Y) = <X, I_i I_j Y> for the nine involutions
assemble into the invariant eight-form

    Omega = sum_{i,j,i',j' = 0..8} omega_ij ^ omega_ij' ^ omega_i'j ^ omega_i'j'

with omega_ii = 0 and omega_ji = -omega_ij.  Every two-form, omega_ij and
sigma_ijk(X, Y) = <X, I_i I_j I_k Y> alike, is one cached table per index
tuple read off the cached Clifford product: empty on a repeated index,
otherwise the sorted product's table with the sign of the sorting
permutation (left out under the unsigned convention of the triple-form
sum).

The sum here is literal, over all ordered index quadruples; the
cancellations down to 702 surviving monomials are an output, never an
assumption.  It is grouped by plain distributivity as
sum_{j,j'} Q_jj' ^ Q_jj' with Q_jj' = sum_{i not in {j,j'}} omega_ij ^
omega_ij', so every ordered quadruple still contributes its term exactly
once.  The alternative grouping -1/2 sum D^2 squares the two-by-two
minors D of the skew matrix (omega_ij); D vanishes when i = i' or j = j'
and is antisymmetric in i <-> i' and in j <-> j', so each unordered pair
of pairs stands for four ordered quadruples and the sum is -2 sum D^2
over i < i', j < j'.  The triple-form sum is a sum of squared four-forms
too; each of the three is one call of the checked kernel
`exterior.square_sums`, handed one list of two-form tables, one per
index tuple that repeats no index, and the pairs as integer index
arrays (table a, table b, group) computed from the positions of the
tuples (`_tuple_positions`), so no pair is a Python object.  The kernel
builds every four-form at once and squares each distinct one once,
over unordered term pairs: 45 of the 81 Q_jj' (Q_jj' = Q_j'j) and 666
of the 1296 D.  The module also provides w~, a wedge of four skew Gram
two-forms, the vanishing corollaries, the verdict on the triple-form
sum, deterministic coefficient export, and Friedrich's expansions of
X-flat ^ Y-flat, read off `curvature.clifford_coefficients`, the sweep
behind the curvature and the plane multiplicities too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from typing import Optional

import numpy as np

from .curvature import clifford_coefficients, curvature_omega
from .exterior import (
    AlternatingForm,
    perm_sign,
    square_sums,
    two_form_from_operator,
    wedge_sum,
)
from .linalg import Num, clear_denominators, det, exact_ratio
from .octonion import Octonion
from .operators import (
    Operator16,
    RationalCirclePoint,
    Vector16,
    build_involutions,
    clifford_product,
    rotation,
)


# two-form coefficient tables ------------------------------------------------


@functools.cache
def _two_form_table(idx: tuple, signed: bool = True) -> dict:
    """Two-form table of the product I_{i1} ... I_{ir} in any index order.

    Empty on a repeated index; otherwise the table of the sorted product,
    negated when `signed` and the sorting permutation is odd.  Only sorted
    tuples are read off the product; the others reuse their table.
    """
    if len(set(idx)) < len(idx):
        return {}
    ordered = tuple(sorted(idx))
    if idx == ordered:
        return two_form_from_operator(clifford_product(idx)).numerators
    terms = _two_form_table(ordered)
    if signed and perm_sign(idx) < 0:
        return {m: -v for m, v in terms.items()}
    return terms


def omega2(i: int, j: int) -> AlternatingForm:
    """The two-form of I_i I_j; zero when i = j, skew in (i, j)."""
    if not (0 <= i <= 8 and 0 <= j <= 8):
        raise ValueError("indices must lie in 0..8")
    return AlternatingForm._raw(2, dict(_two_form_table((i, j))))


def sigma2(i: int, j: int, k: int) -> AlternatingForm:
    """The two-form of I_i I_j I_k for a strictly increasing triple."""
    if not (0 <= i < j < k <= 8):
        raise ValueError("need 0 <= i < j < k <= 8")
    return AlternatingForm._raw(2, dict(_two_form_table((i, j, k))))


# the canonical eight-form ---------------------------------------------------


@functools.cache
def canonical_8form() -> AlternatingForm:
    """The literal quadruple sum over the omega_ij tables."""
    w2 = {ij: _two_form_table(ij) for ij in permutations(range(9), 2)}
    return AlternatingForm._raw(8, build_8form_from_two_forms(w2))


@functools.cache
def _tuple_positions(r: int) -> tuple:
    """(tuples, at): the r-tuples of distinct indices 0..8 in
    lexicographic order, and the (9,) * r array at of each one's position
    there, -1 on a tuple that repeats an index."""
    tuples = tuple(permutations(range(9), r))
    at = np.full((9,) * r, -1, dtype=np.int64)
    at[tuple(np.array(tuples).T)] = np.arange(len(tuples))
    at.flags.writeable = False  # every caller shares the cached array
    return tuples, at


def _squares_of_distinct(tables, a, b, group) -> dict:
    """`square_sums` over the pairs whose two tuples repeat no index: the
    positions a and b both at least 0."""
    keep = (a >= 0) & (b >= 0)
    return square_sums(tables, a[keep], b[keep], group[keep])


def build_8form_from_two_forms(w2: dict) -> dict:
    """The quadruple sum over arbitrary integer two-form tables.

    w2 maps ordered (i, j), i != j, to {mask: coeff}.  By distributivity
    the sum is sum_{j,j'} Q_jj' ^ Q_jj' over the 81 ordered pairs
    (j, j'), with Q_jj' = sum_{i not in {j, j'}} omega_ij ^ omega_ij';
    every ordered quadruple still contributes its term exactly once, and
    no index-set reduction enters.  Exact for integer coefficients of
    any size.
    """
    tuples, at = _tuple_positions(2)
    j, jp, i = np.indices((9, 9, 9)).reshape(3, -1)
    tables = [w2[ij] for ij in tuples]
    return _squares_of_distinct(tables, at[i, j], at[i, jp], 9 * j + jp)


@functools.cache
def canonical_8form_alt() -> AlternatingForm:
    """Alternative grouping: -1/2 sum of D^2 over the 6561 ordered quadruples.

    D = omega_ij ^ omega_i'j' - omega_i'j ^ omega_ij' (the minus sign
    enters as omega_ji' = -omega_i'j) vanishes for i = i' (its two terms
    coincide) and for j = j' (two-forms commute), and changes sign under
    i <-> i' and under j <-> j'.  So each of the 1296 groups i < i', j < j'
    stands for four ordered quadruples with the same square, and the sum
    is -2 sum D^2 over those groups.
    """
    tuples, at = _tuple_positions(2)
    rising = np.array(list(combinations(range(9), 2)))
    group = np.arange(len(rising) ** 2)
    i, ip = rising[group // len(rising)].T
    j, jp = rising[group % len(rising)].T
    squares = _squares_of_distinct(
        [_two_form_table(ij) for ij in tuples],
        np.stack((at[i, j], at[j, ip]), axis=1).ravel(),
        np.stack((at[ip, jp], at[i, jp]), axis=1).ravel(),
        np.repeat(group, 2),
    )
    return AlternatingForm._raw(8, {m: -2 * c for m, c in squares.items()})


# the averaged coefficient w~ ------------------------------------------------


def w_tilde(v: Octonion, vp: Octonion, w: Octonion, wp: Octonion) -> Num:
    """The 2^-4-normalized S8 sum of four octonion Gram factors.

    The sum runs over permutations perm of 0..7 of
    sign(perm) prod_k M_k[perm(2k+1)][perm(2k)], where M_k[b][a] is
    coordinate a of x (y u_b) for the k-th pair (x, y) of (v, w), (v, w'),
    (v', w), (v', w').  It is the coefficient of dx_0 ^ ... ^ dx_7 in
    b_1 ^ b_2 ^ b_3 ^ b_4, b_k the skew part of M_k: the two-form with
    coefficient M_k[j][i] - M_k[i][j] on i < j.  Each b_k doubles the
    signed sum, and the wedge's 1/2! per two-form halves it again.
    """

    def skew(x: Octonion, y: Octonion) -> AlternatingForm:
        cols = [(x * (y * Octonion.unit(b))).coords() for b in range(8)]
        pairs = combinations(range(8), 2)
        return AlternatingForm(2, {(i, j): cols[j][i] - cols[i][j] for i, j in pairs})

    b1, b2, b3, b4 = (skew(x, y) for x in (v, vp) for y in (w, wp))
    top = b1.wedge(b2).wedge(b3.wedge(b4))
    return exact_ratio(top.numerators.get(0xFF, 0), 16 * top.denominator)


# vanishing corollaries ------------------------------------------------------


def four_form_omega_sum() -> AlternatingForm:
    """sum_{i<j} omega_ij ^ omega_ij; vanishes identically."""
    tables = map(_two_form_table, combinations(range(9), 2))
    return AlternatingForm._raw(4, wedge_sum((t, t) for t in tables))


def four_form_sigma_sum() -> AlternatingForm:
    """sum_{i<j<k} sigma_ijk ^ sigma_ijk; vanishes identically."""
    tables = map(_two_form_table, combinations(range(9), 3))
    return AlternatingForm._raw(4, wedge_sum((t, t) for t in tables))


def bianchi_cyclic_residual(x: Vector16, y: Vector16, z: Vector16) -> Vector16:
    """Cyclic sum over (x, y, z) of sum_{i<j} omega_ij(x, y) I_i I_j z.

    Identically zero; this is the algebraic heart of the first Bianchi
    identity for the associated curvature operator.  Each term is the
    two-form expansion `curvature_omega` at scale c = -4, where its
    factor -c/4 is 1.
    """
    return (
        curvature_omega(x, y, z, -4)
        + curvature_omega(y, z, x, -4)
        + curvature_omega(z, x, y, -4)
    )


# rotation invariance and frame independence ---------------------------------


def rotation_fixes(
    form: AlternatingForm, k: int, l: int, p: RationalCirclePoint
) -> bool:
    """Exact check that the (k, l) rotation pulls the form back to itself."""
    return form.pullback(rotation(k, l, p)) == form


_IDENTITY9 = tuple(tuple(Fraction(int(r == c)) for c in range(9)) for r in range(9))


def givens9(a: int, b: int, p: RationalCirclePoint):
    """Rational Givens rotation of R^9 in the (a, b) plane, as tuple rows."""
    if not (0 <= a < b <= 8):
        raise ValueError("need 0 <= a < b <= 8")
    if not p.is_rotation:
        raise ValueError("needs a circle point")
    rows = [list(row) for row in _IDENTITY9]
    rows[a][a] = rows[b][b] = p.c
    rows[a][b] = -p.s
    rows[b][a] = p.s
    return tuple(tuple(r) for r in rows)


def frame_change_fixes(m9) -> bool:
    """Whether rebuilding the eight-form from I'_i = sum_j m[i][j] I_j changes it.

    m9 must be a special orthogonal 9 x 9 matrix of int or Fraction
    entries; any other shape or entry raises ValueError.  Works with
    integer-scaled operators throughout and puts the rebuilt table over
    d^8 at the end, so no rational division enters the big sum.
    The products I'_i I'_j are taken in the rotated family here, not
    from `clifford_product`.
    """
    rows = tuple(tuple(row) for row in m9)
    if len(rows) != 9 or any(len(row) != 9 for row in rows):
        raise ValueError("frame matrix must be 9 x 9")
    entries, d = clear_denominators(v for row in rows for v in row)
    # m = E / d is orthogonal when the integer columns of E meet E^T E = d^2 I
    cols = [entries[c::9] for c in range(9)]
    for a, b in combinations_with_replacement(range(9), 2):
        if sum(x * y for x, y in zip(cols[a], cols[b])) != (d * d if a == b else 0):
            raise ValueError("frame matrix is not orthogonal")
    if det(rows) != 1:
        raise ValueError("frame matrix must have determinant 1")
    fam = build_involutions()
    scaled_ops = []
    for i in range(9):
        acc = Operator16.zero()
        for j, c in enumerate(entries[9 * i:9 * i + 9]):
            if c:
                acc = acc + fam[j].scale(c)
        scaled_ops.append(acc)
    w2 = {
        (i, j): two_form_from_operator(scaled_ops[i] @ scaled_ops[j]).numerators
        for i, j in permutations(range(9), 2)
    }
    rebuilt = build_8form_from_two_forms(w2)
    return AlternatingForm._raw(8, rebuilt, d**8) == canonical_8form()


# the triple-form sum --------------------------------------------------------


def conjecture_8form(convention: str = "antisymmetric") -> AlternatingForm:
    """One quarter of the sextuple sigma sum, under the stated convention.

    convention "antisymmetric": sigma with out-of-order indices picks up
    the sign of the sorting permutation (and vanishes on repeats).
    convention "unsigned": out-of-order indices give the sorted form with
    coefficient +1 (still zero on repeats).
    """
    if convention not in ("antisymmetric", "unsigned"):
        raise ValueError("convention must be 'antisymmetric' or 'unsigned'")
    return _conjecture_build(convention)


@functools.cache
def _conjecture_build(convention: str) -> AlternatingForm:
    signed = convention == "antisymmetric"
    tuples, at = _tuple_positions(3)
    p, pp, i, j = np.indices((9,) * 4).reshape(4, -1)
    squares = _squares_of_distinct(
        [_two_form_table(ijp, signed) for ijp in tuples],
        at[i, j, p],
        at[i, j, pp],
        9 * p + pp,
    )
    return AlternatingForm._raw(8, squares, 4)


@dataclass(frozen=True)
class ConjectureVerdict:
    equal: bool
    convention: str
    lhs_terms: int
    rhs_terms: int
    difference_terms: int
    sample_monomials: tuple
    alternative: Optional["ConjectureVerdict"] = None


def conjecture_verdict() -> ConjectureVerdict:
    """Definitive equality verdict for the triple-form sum, both conventions.

    The primary convention is the antisymmetric extension; when it fails,
    the unsigned extension is evaluated as well and attached.
    """
    lhs = canonical_8form()
    primary = _verdict_against(lhs, "antisymmetric")
    if primary.equal:
        return primary
    return replace(primary, alternative=_verdict_against(lhs, "unsigned"))


def _verdict_against(lhs: AlternatingForm, convention: str) -> ConjectureVerdict:
    rhs = conjecture_8form(convention)
    diff = lhs - rhs
    samples = tuple(
        (idx, str(Fraction(v))) for idx, v in diff.items()[:3]
    )
    return ConjectureVerdict(
        equal=not diff,
        convention=convention,
        lhs_terms=lhs.term_count(),
        rhs_terms=rhs.term_count(),
        difference_terms=diff.term_count(),
        sample_monomials=samples,
    )


# coefficient export ---------------------------------------------------------


def export_coefficients(form: AlternatingForm, fmt: str) -> bytes:
    """Deterministic byte serialization, sorted by index tuple.

    "json": one object per line with indices and num/den strings.
    "csv": header i1..ip,num,den then one row per monomial.
    """
    # a whole coefficient comes as an int, whose denominator is 1
    rows = [(",".join(map(str, t)), v.numerator, v.denominator) for t, v in form.items()]
    if fmt == "json":
        record = '{"indices":[%s],"num":"%s","den":"%s"}'
        lines = [record % row for row in rows]
    elif fmt == "csv":
        lines = [",".join(f"i{t + 1}" for t in range(form.degree)) + ",num,den"]
        lines += ["%s,%s,%s" % row for row in rows]
    else:
        raise ValueError("format must be 'json' or 'csv'")
    return ("\n".join(lines) + "\n").encode()


# flat-wedge expansion identities --------------------------------------------


def flat(x: Vector16) -> AlternatingForm:
    """The metric dual one-form of a vector."""
    return AlternatingForm._raw(1, {1 << k: t for k, t in x.entries()}, x.denominator)


def friedrich_identities(x: Vector16, y: Vector16) -> bool:
    """Expansion of 8 x-flat ^ y-flat in the omega and sigma two-forms.

    Whether both identities of the pair hold:

      8 xb ^ yb            = sum omega_ij(x,y) omega_ij + sum sigma_ijk(x,y) sigma_ijk
      8 sum_l (I_l x)b ^ (I_l y)b
                           = 5 sum omega_ij(x,y) omega_ij - 3 sum sigma_ijk(x,y) sigma_ijk

    with both sums over increasing index tuples, on the integer numerators
    of x and y (both sides are bilinear): one `clifford_coefficients` sweep
    per expansion, one `wedge_sum` per left-hand side.
    """
    x, y = Vector16._raw(x.numerators), Vector16._raw(y.numerators)

    def expansion(grade: int) -> AlternatingForm:
        """sum over increasing index tuples of <x, P y> times P's two-form."""
        total: dict = {}
        coeffs = clifford_coefficients(grade, x, y)
        for idx, c in zip(combinations(range(9), grade), coeffs):
            for m, v in _two_form_table(idx).items():
                total[m] = total.get(m, 0) + c * v
        return AlternatingForm._raw(2, {m: v for m, v in total.items() if v})

    def flat_wedges(pairs) -> AlternatingForm:
        """8 times the sum of a-flat ^ b-flat over the pairs (a, b)."""
        tables = ((flat(a).numerators, flat(b).numerators) for a, b in pairs)
        return AlternatingForm._raw(2, wedge_sum(tables)).scale(8)

    omega_part = expansion(2)
    sigma_part = expansion(3)
    lhs1 = flat_wedges([(x, y)])
    lhs2 = flat_wedges((op.apply(x), op.apply(y)) for op in build_involutions().ops)

    return (
        lhs1 == omega_part + sigma_part
        and lhs2 == omega_part.scale(5) - sigma_part.scale(3)
    )
