"""Audit of the cross-product 8-form and its invariance defect.

A published alternative construction builds an 8-form on O^2 from the
cross product U x V = conj(u1) x conj(v1) + u2 x v2, where the octonion
cross is x x y = Im(conj(y) x).  The form is a signed sum over S_8 of
products of paired crosses, normalized by 2^-7, or equivalently a sum
over the 315 canonical representatives S*_8 of products of real parts.
This module implements both sums literally, as exact integer array
stages (the crosses of all pairs in one batched `oct_mul`, then the
block sums and their split products, one batched `oct_mul` each, or the
real-part table): each stage bounds its sums by B, casts its inputs to
`int_dtype(B)` and runs once, and hands exact Python ints to the next.
It also materializes the form's full coefficient map (each distinct
4-slot block gathered once as int8 over all basis tuples, every term of
{-1, 0, 1} summed in the `int_dtype` of the term count) and, on the
wedge kernel, that of the companion 4-form, and computes the exact
invariance defect under the generator I_7 I_8: the defect is nonzero,
so the construction is not invariant and cannot equal the canonical
8-form in any scaling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .exterior import AlternatingForm, perm_sign, wedge_sum
from .linalg import exact_ratio, int_dtype
from .octonion import XOR_SIGN, oct_mul
from .operators import Vector16, clifford_product
from .report import VerificationReport


# the cross of (u, v) is Im(v1 conj(u1) + conj(v2) u2): the coefficient signs
# of the two products' left factors v1, conj(v2) and right factors conj(u1), u2
_CONJ = (1, -1, -1, -1, -1, -1, -1, -1)
_LEFT, _RIGHT = np.array([(1,) * 8, _CONJ]), np.array([_CONJ, (1,) * 8])
_BLOCK_SIGNS = np.array([1, 1, -1, -1, 1, 1])  # ab cd, cd ab, ac bd, bd ac, ad bc, bc ad


@cache
def _pair_slots(n: int) -> tuple:
    """(i, j, slot, skew) of n vectors: the pairs i < j in combinations
    order, the position slot[a, b] of the pair {a, b}, and skew[a, b] =
    sign(b - a), the sign of the cross of (a, b) read there."""
    i, j = np.triu_indices(n, 1)
    slot = np.zeros((n, n), dtype=np.intp)
    slot[i, j] = slot[j, i] = np.arange(i.size)
    return i, j, slot, np.sign(np.arange(n) - np.arange(n)[:, None])


def _crosses(vectors) -> tuple:
    """(C, d): row k of C is d^2 times the cross of the k-th pair i < j
    (exact ints), d the lcm of all denominators; one batched `oct_mul` on
    the numerators scaled to d, each coefficient 16 products: B = 16 M^2,
    M the largest scaled |numerator|."""
    d = math.lcm(*(v.denominator for v in vectors))
    ints = [x * (d // v.denominator) for v in vectors for x in v.numerators]
    dtype = int_dtype(16 * max(map(abs, ints)) ** 2)
    x = np.array(ints, dtype=dtype).reshape(-1, 2, 8)
    i, j, _, _ = _pair_slots(len(x))
    c = oct_mul(x[j] * _LEFT, x[i] * _RIGHT).sum(axis=1)
    c[:, 0] = 0
    return c.astype(object), d


def _pairings(block: tuple) -> tuple:
    """The three splits of an ascending 4-block into two ascending pairs."""
    a, b, c, d = block
    return (a, b, c, d), (a, c, b, d), (a, d, b, c)


@cache
def s8_star() -> tuple:
    """Signed canonical representatives of S_8 modulo pair symmetries.

    The defining inequalities (each of the four pairs ascends, the pairs
    ascend within each half, the halves ascend) put slot 0 first, so a
    representative is a block of slot 0 and three other slots, the
    complementary block, and one pairing of each: 35 * 3 * 3, listed in
    lexicographic order, positions 0-based.  The census (315 distinct
    permutations starting at the first slot) is checked at build time.
    """
    perms = sorted(
        first + second
        for rest in itertools.combinations(range(1, 8), 3)
        for first in _pairings((0,) + rest)
        for second in _pairings(tuple(k for k in range(1, 8) if k not in rest))
    )
    if len(set(perms)) != 315 or any(p[0] or sorted(p) != [*range(8)] for p in perms):
        raise AssertionError("S*_8 census is not 315 permutations starting at 0")
    return tuple((perm, perm_sign(perm)) for perm in perms)


@cache
def _factor_plan() -> tuple:
    """(factors, signs) of `bpt_8form_reduced`: for each signed
    representative of S*_8 the flat indices of its two factors
    Re(C_{p0 p1} C_{p2 p3}) and Re(C_{p4 p5} C_{p6 p7}) in the table of
    crosses, and its sign times the skew of each pair: a descending pair
    reads the negated cross."""
    signed = s8_star()
    i, _, slot, skew = _pair_slots(8)
    perms = np.array([perm for perm, _ in signed])
    pairs = slot[perms[:, 0::2], perms[:, 1::2]]
    turns = skew[perms[:, 0::2], perms[:, 1::2]].prod(axis=1).tolist()
    signs = np.array([s * t for (_, s), t in zip(signed, turns)], dtype=object)
    return pairs[:, 0::2] * i.size + pairs[:, 1::2], signs


def bpt_8form_reduced(vectors) -> Fraction | int:
    """The 315-term reduced sum of products of two real parts.

    The signed sum over `_factor_plan` of products of real parts, read
    from the table Re(C_s C_t) over the pairs s, t: with M the largest
    |cross coefficient|, Re(x y) = sum_a SIGN[a][a] x_a y_a, so B = 8 M^2.
    """
    vs = list(vectors)
    if len(vs) != 8:
        raise ValueError("the 8-form takes eight vectors")
    crosses, d = _crosses(vs)
    c = crosses.astype(int_dtype(8 * max(map(abs, crosses.flat)) ** 2))
    table = (c[:, None, :] * c[None, :, :] * XOR_SIGN[:, 0]).sum(axis=-1)
    table = table.astype(object)
    factors, terms = _factor_plan()
    for f in factors.T:
        terms = terms * table.flat[f]
    return exact_ratio(int(terms.sum()), d**8)


@cache
def _block_plan() -> tuple:
    """(left, right, shuffle) of `bpt_8form_full`: the pair slots of the
    products of each 4-block of the slots (combinations order), in the
    order of _BLOCK_SIGNS, and the shuffle sign of each block followed by
    its complement, which sits as many places from the end, as a column."""
    _, _, slot, _ = _pair_slots(8)
    blocks = list(itertools.combinations(range(8), 4))
    pairs = np.array([
        (slot[a, b], slot[c, d]) for block in blocks for a, b, c, d in _pairings(block)
    ])
    shuffle = [[perm_sign(b + c)] for b, c in zip(blocks, reversed(blocks))]
    return pairs.ravel(), pairs[:, ::-1].ravel(), np.array(shuffle)


def bpt_8form_full(vectors) -> Fraction | int:
    """The 2^-7-normalized sum over all of S_8, with octonion products.

    Factorized over the 70 ways to split the eight slots into two blocks
    of four: the inner signed sums over each block's 24 arrangements
    multiply as octonions, and the block interleaving contributes the
    shuffle sign.  Skewness of the cross folds a block's arrangements into
    its three pairings, each in both orders, times four: 420 literal
    products in one batched `oct_mul` (B = 4 * 6 * 8 M^2, M the largest
    |cross coefficient|), then the 70 split products of each block sum
    and its complement's in one more, on Python ints, times the shuffle
    signs.  The total must be a real octonion, which is asserted, not
    assumed.
    """
    vs = list(vectors)
    if len(vs) != 8:
        raise ValueError("the 8-form takes eight vectors")
    crosses, d = _crosses(vs)
    left, right, shuffle = _block_plan()
    c = crosses.astype(int_dtype(192 * max(map(abs, crosses.flat)) ** 2))
    prods = oct_mul(c[left], c[right]).reshape(70, 6, 8)
    blocks = (4 * (prods * _BLOCK_SIGNS[:, None]).sum(axis=1)).astype(object)
    total = (oct_mul(blocks, blocks[::-1]) * shuffle).sum(axis=0).tolist()
    if any(total[1:]):
        raise AssertionError("symmetrized cross-product sum is not real")
    return exact_ratio(total[0], 128 * d**8)


@cache
def _basis_cross_units() -> np.ndarray:
    """The crosses of the basis pairs a < b, from one `_crosses` call on the
    16 basis vectors; each must be zero or a signed imaginary unit."""
    units = _crosses([Vector16.basis(k) for k in range(16)])[0].astype(np.int64)
    if (abs(units).sum(axis=1) > 1).any() or units[:, 0].any():
        raise AssertionError("cross is not a signed imaginary unit")
    return units


@cache
def _re_pair_table() -> np.ndarray:
    """R[a,b,c,d] = Re[(e_a x e_b)(e_c x e_d)] over the 16 basis vectors:
    sum_k SIGN[k][k] x_k y_k over two signed units, so R is in {-1, 0, 1}."""
    _, _, slot, skew = _pair_slots(16)
    cross = _basis_cross_units()[slot] * skew[:, :, None]
    return np.tensordot(cross * XOR_SIGN[:, 0], cross, axes=(2, 2)).astype(np.int8)


@cache
def materialize_bpt_8form() -> AlternatingForm:
    """Coefficient map of the cross-product 8-form on all 12870 basis 8-tuples.

    The 315-representative reduced sum, vectorized.  On basis vectors a
    cross is zero or a signed imaginary unit, so each real-part factor is
    one int8 entry of `_re_pair_table`: each distinct 4-slot block is one
    `take` for all tuples, on cached per-position-pair codes.  Every term
    is in {-1, 0, 1}, so the accumulator takes the term count's `int_dtype`.
    """
    flat = _re_pair_table().reshape(-1)
    combos = itertools.chain.from_iterable(itertools.combinations(range(16), 8))
    combos = np.fromiter(combos, dtype=np.intp).reshape(-1, 8)

    @cache
    def code(i: int, j: int) -> np.ndarray:
        return combos[:, i] * 16 + combos[:, j]

    @cache
    def factor(block: tuple) -> np.ndarray:
        a, b, c, d = block
        return flat.take(code(a, b) << 8 | code(c, d))

    acc = np.zeros(len(combos), dtype=int_dtype(len(s8_star())))
    for perm, sign in s8_star():
        acc += sign * factor(perm[:4]) * factor(perm[4:])
    nz = np.flatnonzero(acc != 0)  # a bool scan is far faster than int64
    masks = np.bitwise_or.reduce(1 << combos[nz], axis=1)
    return AlternatingForm._raw(8, dict(zip(masks.tolist(), acc[nz].tolist())))


@cache
def materialize_bpt_4form() -> AlternatingForm:
    """Coefficient map of the companion 4-form on all 1820 basis 4-tuples.

    The signed S_4 sum of Re(C_{p0 p1} C_{p2 p3}) is -4 sum_k gamma_k ^
    gamma_k in one `wedge_sum`, gamma_k the two-form of coordinate k of the
    basis crosses (`_basis_cross_units`): crosses are imaginary, so
    Re(x y) = -sum_k x_k y_k, and the signed S_4 sum of a(p0, p1) b(p2, p3)
    over two two-forms is 4 times their wedge.
    """
    i, j, _, _ = _pair_slots(16)
    pairs = (1 << i | 1 << j).tolist()
    crosses = _basis_cross_units()[:, 1:].T.tolist()
    gammas = [{m: v for m, v in zip(pairs, k) if v} for k in crosses]
    squares = wedge_sum((g, g) for g in gammas)
    return AlternatingForm._raw(4, {m: -4 * v for m, v in squares.items()})


@dataclass(frozen=True)
class BptDefect:
    """Slotwise invariance defect of the 8-form under I_7 I_8."""

    terms: tuple
    total: Fraction | int


def defect_vectors() -> list:
    """The witness tuple: (0, u_0) followed by (u_0, 0) through (u_6, 0)."""
    return [Vector16.basis(8)] + [Vector16.basis(k) for k in range(7)]


def bpt_invariance_defect() -> BptDefect:
    """Exact slotwise Lie-derivative sum of the 8-form along I_7 I_8.

    A vanishing total for every argument tuple is necessary for
    invariance under the ninth-generator rotation plane; the witness
    tuple produces a nonzero total, refuting invariance.
    """
    gen = clifford_product((7, 8))
    vs = defect_vectors()
    terms = []
    for slot in range(8):
        moved = list(vs)
        moved[slot] = gen.apply(moved[slot])
        terms.append(bpt_8form_reduced(moved))
    total = sum(terms)
    return BptDefect(terms=tuple(terms), total=total)


def bpt_square_check() -> VerificationReport:
    """The 8-form is a constant multiple of the wedge square of the 4-form.

    The constant is computed from the two exact coefficient maps, never
    assumed; the report also certifies that the 4-form itself fails
    I_7 I_8-invariance, so no rescaling rescues either form.
    """
    report = VerificationReport()
    omega8 = materialize_bpt_8form()
    omega4 = materialize_bpt_4form()
    square = omega4.wedge(omega4)
    factor = next(
        (Fraction(omega8.coefficient(i), v) for i, v in square.items() if v),
        None,
    )
    proportional = factor is not None and omega8 == square.scale(factor)
    report.add("bpt.square-factor", proportional, factor=str(factor))
    gen = clifford_product((7, 8))
    report.add(
        "bpt.four-form-not-invariant",
        bool(omega4.lie_derivative(gen)),
    )
    return report


def head_to_head(canonical: AlternatingForm) -> VerificationReport:
    """L along I_7 I_8 moves the cross-product form but fixes the canonical one."""
    report = VerificationReport()
    gen = clifford_product((7, 8))
    report.add(
        "bpt.not-invariant",
        bool(materialize_bpt_8form().lie_derivative(gen)),
    )
    report.add(
        "bpt.canonical-invariant",
        not canonical.lie_derivative(gen),
    )
    return report
