"""Audit of the cross-product 8-form and its invariance defect.

A published alternative construction builds an 8-form on O^2 from the
cross product U x V = conj(u1) x conj(v1) + u2 x v2, where the octonion
cross is x x y = Im(conj(y) x).  The form is a signed sum over S_8 of
products of paired crosses, normalized by 2^-7, or equivalently a sum
over the 315 canonical representatives S*_8 of products of real parts.
This module implements both sums literally, materializes the form's full
coefficient map (each distinct 4-slot block gathered once as int8 over
all basis tuples, every term summed in int16 under a checked bound), and
computes the exact invariance defect under the generator I_7 I_8: the
defect is nonzero, so the construction is not invariant and cannot equal
the canonical 8-form in any scaling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .exterior import AlternatingForm, perm_sign
from .linalg import exact_ratio
from .octonion import Octonion, cross_oct, re_mul
from .operators import Vector16, clifford_product
from .report import VerificationReport


def bpt_cross(u: Vector16, v: Vector16) -> Octonion:
    """Cross product on O^2: conjugated in the first slot, plain in the second."""
    return cross_oct(u.x1.conj(), v.x1.conj()) + cross_oct(u.x2, v.x2)


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
def _s4_signed() -> tuple:
    return tuple(
        (perm, perm_sign(perm)) for perm in itertools.permutations(range(4))
    )


def _cross_table(vectors) -> dict:
    table = {}
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            table[i, j] = bpt_cross(vectors[i], vectors[j])
    return table


def bpt_8form_reduced(vectors) -> Fraction | int:
    """The 315-term reduced sum of products of two real parts."""
    vs = list(vectors)
    if len(vs) != 8:
        raise ValueError("the 8-form takes eight vectors")
    table = _cross_table(vs)
    total = 0
    for perm, sign in s8_star():
        a = table[perm[0], perm[1]]
        b = table[perm[2], perm[3]]
        first = re_mul(a, b)
        if not first:
            continue
        c = table[perm[4], perm[5]]
        d = table[perm[6], perm[7]]
        second = re_mul(c, d)
        if second:
            total += sign * first * second
    return total


def _signed_cross(table, a: int, b: int) -> Octonion:
    return table[a, b] if a < b else -table[b, a]


def bpt_8form_full(vectors) -> Fraction | int:
    """The 2^-7-normalized sum over all of S_8, with octonion products.

    Factorized over the 70 ways to split the eight slots into two
    blocks of four: the inner signed sums over each block's 24
    arrangements multiply as octonions, and the block interleaving
    contributes the shuffle sign.  Each of the 70 block sums is built
    once, as every block is the first of one split and the rest of
    another.  The grand total must be a real octonion, which is
    asserted, not assumed.
    """
    vs = list(vectors)
    if len(vs) != 8:
        raise ValueError("the 8-form takes eight vectors")
    table = _cross_table(vs)

    def block_sum(positions) -> Octonion:
        # skewness of the cross folds the 24 arrangements into the three
        # pairings of the block, each in both product orders, times four
        a, b, c, d = positions
        ab, cd = table[a, b], table[c, d]
        ac, bd = table[a, c], table[b, d]
        ad, bc = table[a, d], table[b, c]
        s = (ab * cd + cd * ab) - (ac * bd + bd * ac) + (ad * bc + bc * ad)
        return s.scale(4)

    blocks = {b: block_sum(b) for b in itertools.combinations(range(8), 4)}
    total = Octonion.zero()
    for first, block in blocks.items():
        rest = tuple(k for k in range(8) if k not in first)
        prod = block * blocks[rest]
        if perm_sign(first + rest) > 0:
            total = total + prod
        else:
            total = total - prod
    if total.im():
        raise AssertionError("symmetrized cross-product sum is not real")
    return exact_ratio(total.re(), 128)


def bpt_4form(vectors) -> Fraction | int:
    """Signed S_4 sum of the real part of one product of two crosses."""
    vs = list(vectors)
    if len(vs) != 4:
        raise ValueError("the 4-form takes four vectors")
    table = _cross_table(vs)
    total = 0
    for perm, sign in _s4_signed():
        a = _signed_cross(table, perm[0], perm[1])
        b = _signed_cross(table, perm[2], perm[3])
        v = re_mul(a, b)
        if v:
            total += sign * v
    return total


@cache
def _basis_cross_units() -> list:
    """(sign, imaginary index) of each nonzero basis-pair cross product."""
    entries = []
    for a in range(16):
        for b in range(16):
            if a == b:
                continue
            x = bpt_cross(Vector16.basis(a), Vector16.basis(b))
            cs = x.coeffs
            nz = [k for k, v in enumerate(cs) if v]
            if not nz:
                continue
            if len(nz) != 1 or nz[0] < 1 or cs[nz[0]] not in (1, -1):
                raise AssertionError("cross is not a signed imaginary unit")
            entries.append((a, b, nz[0], cs[nz[0]]))
    return entries


@cache
def _re_pair_table() -> np.ndarray:
    """R[a,b,c,d] = Re[(e_a x e_b)(e_c x e_d)] over the 16 basis vectors."""
    table = np.zeros((16, 16, 16, 16), dtype=np.int8)
    units = _basis_cross_units()
    for a, b, p, s in units:
        for c, d, q, t in units:
            if p == q:
                # the square of an imaginary unit is -1
                table[a, b, c, d] = -s * t
    return table


ACC_LIMIT = 1 << 15  # int16 accumulator: |sum| <= number of terms < 2^15


def _materialize(k: int, signed_perms) -> AlternatingForm:
    """The signed sum over all ascending basis k-tuples at once.

    On basis vectors every cross is zero or a signed imaginary unit, so
    each real-part factor (one 4-slot block of a permutation) is one
    int8 entry of `_re_pair_table`, in {-1, 0, 1}.  Each distinct block
    is gathered once for all tuples, by one `take` from the flat table
    on (a*16 + b) << 8 | (c*16 + d), from cached per-position-pair codes.
    Each term sign * factor * ... is in {-1, 0, 1} and is added on its
    own, so an int16 accumulator is exact below ACC_LIMIT terms (checked).
    """
    if len(signed_perms) >= ACC_LIMIT:
        raise OverflowError(f"{len(signed_perms)} terms overflow the int16 sum")
    flat = _re_pair_table().reshape(-1)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(16), k)),
        dtype=np.intp,
    ).reshape(-1, k)

    @cache
    def code(i: int, j: int) -> np.ndarray:
        return combos[:, i] * 16 + combos[:, j]

    @cache
    def factor(block: tuple) -> np.ndarray:
        a, b, c, d = block
        return flat.take(code(a, b) << 8 | code(c, d))

    acc = np.zeros(len(combos), dtype=np.int16)
    for perm, sign in signed_perms:
        blocks = (factor(perm[q:q + 4]) for q in range(0, k, 4))
        acc += math.prod(blocks, start=sign)
    nz = np.flatnonzero(acc)
    masks = np.bitwise_or.reduce(1 << combos[nz], axis=1)
    return AlternatingForm._raw(k, dict(zip(masks.tolist(), acc[nz].tolist())))


@cache
def materialize_bpt_8form() -> AlternatingForm:
    """Coefficient map of the cross-product 8-form on all 12870 basis 8-tuples.

    The 315-representative reduced sum, vectorized; spot-checked against
    the scalar evaluators in the tests.
    """
    return _materialize(8, s8_star())


@cache
def materialize_bpt_4form() -> AlternatingForm:
    """Coefficient map of the companion 4-form on all 1820 basis 4-tuples.

    The signed S_4 sum of `bpt_4form`, vectorized; the tests check every
    coefficient against the scalar evaluator.
    """
    return _materialize(4, _s4_signed())


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
