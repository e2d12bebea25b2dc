"""Infinitesimal stabilizer of an alternating form inside the matrix algebra.

The stabilizer algebra of a p-form w on R^n is the kernel of the linear
map A -> L_A w from the n x n matrices to p-forms.  The kernel is found
by one exact computation.  The matrix unit E_rc moves the monomial m to
m ^ e_r ^ e_c, so the sign group D of diagonal sign matrices that fix w
(`exterior.sign_characters`) splits the equations into blocks, one per
character of e_r ^ e_c: every unit of an equation has the character of
its monomial.  Each block is a dense integer array over its own units
(for the canonical 8-form, 16 blocks of 16 units, no row dropped), and
is eliminated once, by `linalg.nullspace`, int64 while its bound holds.
The kernel is one integer matrix, a row of n*n entries per basis
vector.  The system reads its blocks off the (monomial, unit)
incidences of `exterior.lie_incidences`, found once for all units, and
the certificate substitutes every kernel row's entries on each block
back into the form through `exterior.lie_images`, the Lie derivative's
kernel, and must get the zero form.  The blocks' units must partition
the n*n matrix units, which is checked; then the rank of the blocks
plus the kernel dimension is n*n, because `nullspace` returns one
vector per non-pivot column.  Containment in the kernel is reduction
against its echelon, computed once.

The solver is anchored on two closed-form cases before being trusted on
the canonical 8-form: the standard symplectic 2-form on R^4, whose
stabilizer is the rank-10 symplectic algebra, and the decomposable
8-form dx0^...^dx7, whose stabilizer is block-triangular of dimension
191.  Both oracles are independent computations, not recorded answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction

import numpy as np

from .exterior import AlternatingForm, lie_images, lie_incidences, sign_characters
from .linalg import int_array, int_dtype, int_echelon, nullspace, reduce_against
from .operators import (
    Operator16,
    RationalCirclePoint,
    Vector16,
    boost8,
    build_involutions,
    clifford_product,
    lambda_basis,
)
from .report import VerificationReport


def stabilizer_system(form: AlternatingForm, n: int) -> list:
    """Equation blocks of {A : L_A form = 0}, one per D-character.

    Column n*r + c carries the matrix entry A[r][c] and holds the image
    of the matrix unit E_rc; each equation demands that one monomial
    coefficient of L_A form vanish.  Units share a block when e_r ^ e_c
    have the same character on the sign group D of the form
    (`sign_characters`), and so do the equations they appear in.  A block
    is (units, rows): its columns in increasing order, and one row per
    image monomial, sorted by mask.  The `lie_incidences` of all n*n
    units are found once; each (monomial, unit) is one signed coefficient
    of the form, assigned to its image's row and its unit's column, as
    distinct monomials have distinct images under one unit.  Blocks come
    in the order of their first unit.
    """
    table = form.numerators
    r, c = np.divmod(np.arange(n * n), n)
    _, key = sign_characters(list(table), (1 << r) ^ (1 << c))
    out, odd, mon, unit = lie_incidences(list(table), r, c)
    peak = max(map(abs, table.values()), default=0)
    coeffs = np.array(list(table.values()), dtype=int_dtype(peak))
    terms = coeffs[mon] * (1 - 2 * odd)
    blocks = []
    for k in dict.fromkeys(key.tolist()):
        units = np.flatnonzero(key == k)
        hit = np.flatnonzero(key[unit] == k)
        masks, row = np.unique(out[hit], return_inverse=True)
        rows = np.zeros((masks.size, units.size), dtype=terms.dtype)
        rows[row, np.searchsorted(units, unit[hit])] = terms[hit]
        blocks.append((units, rows))
    return blocks


def operator_rows(ops, n: int = 16) -> np.ndarray:
    """The n x n blocks of ops as integer rows of n*n entries (`int_array`),
    sliced off each operator's row-major numerators.

    Each operator gives its numerators, a scale that keeps spans and
    ranks unchanged.  An entry outside the block raises
    ValueError: dropping it would let an operator on R^16 pass as one on
    R^n.
    """
    mats = int_array([op.numerators for op in ops]).reshape(-1, 16, 16)
    if mats[:, n:].any() or mats[:, :, n:].any():
        raise ValueError(f"operator has entries outside the {n} x {n} block")
    return mats[:, :n, :n].reshape(-1, n * n)


@dataclass(frozen=True, eq=False)
class StabilizerResult:
    """Exact kernel of A -> L_A form on R^n, with its certificates.

    kernel holds one primitive integer row of n*n entries per basis
    matrix, entry (r, c) at n*r + c, in increasing free-column order; each
    row is checked to annihilate the form by substitution, and that check
    is the certificate.  echelon is the kernel's `int_echelon`, computed
    on first use.  system_rank is the exact rank of the equation system,
    and system_rank plus kernel_dimension equals n*n by construction.
    """

    kernel: np.ndarray
    system_rank: int
    dimension: int

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel)

    @cached_property
    def echelon(self) -> np.ndarray:
        return int_echelon(self.kernel)


def infinitesimal_stabilizer(form: AlternatingForm, n: int = 16) -> StabilizerResult:
    """Solve {A in gl(n) : L_A form = 0} exactly.

    Each block of `stabilizer_system` is eliminated once, by `nullspace`;
    its rank is its unit count minus its kernel vectors.  The kernel
    basis is the one of the whole system, one vector per free column in
    increasing order: a block's kernel vector has its last nonzero entry
    in its free column, and is zero outside the block.  The kernel is
    returned only once `_certify` finds every image the exact zero form.
    """
    if not 1 <= n <= 16:
        raise ValueError("dimension must be between 1 and 16")
    if form.degree < 1 or form.degree > n:
        raise ValueError(f"degree {form.degree} form does not fit R^{n}")
    if max(map(int.bit_length, form.numerators), default=0) > n:
        raise ValueError(f"form uses coordinates beyond R^{n}")
    ncols = n * n
    blocks = stabilizer_system(form, n)
    if sorted(u for units, _ in blocks for u in units.tolist()) != [*range(ncols)]:
        raise AssertionError("the blocks do not partition the matrix units")
    rank, kernel = 0, []
    for units, rows in blocks:
        vecs = nullspace(rows)
        rank += len(units) - len(vecs)
        for vec in vecs:
            entries = dict(zip(units.tolist(), vec))
            kernel.append([entries.get(j, 0) for j in range(ncols)])
    kernel.sort(key=lambda row: max(j for j, v in enumerate(row) if v))
    kernel = int_array(kernel).reshape(-1, ncols)
    _certify(form.numerators, n, blocks, kernel)
    return StabilizerResult(kernel, rank, n)


def _certify(table: dict, n: int, blocks, kernel: np.ndarray) -> None:
    """Raise unless every kernel row annihilates the table {mask: int}.

    The blocks partition the units, so a row does when its entries on
    each block do, however the rows were sorted and scattered.  Per block
    one `lie_images` call takes every row nonzero there, straight from
    the form, and every image must be 0.
    """
    for units, _ in blocks:
        part = kernel[:, units]
        part = part[part.any(axis=1)].tolist()
        if part and lie_images(table, units // n, units % n, part)[1].any():
            raise AssertionError("kernel vector moves the form")


def in_kernel_span(result: StabilizerResult, ops) -> bool:
    """Whether every operator of ops lies in the span of the kernel: the
    `operator_rows` of all of them reduce to zero against its echelon."""
    rows = operator_rows(ops, result.dimension)
    return not reduce_against(result.echelon, rows).any()


def bracket_closure(result: StabilizerResult, name: str) -> VerificationReport:
    """Pairwise commutators of the kernel basis land back in the kernel,
    reported as the check `name`.

    All commutators come from one batched product of the n x n blocks,
    in the `int_dtype` of B = 2 n max|A| max|B|, which bounds every
    |[A, B]_rc|.  They are reduced against the kernel's echelon at once.
    """
    report = VerificationReport()
    n, basis = result.dimension, result.kernel
    peak = int(np.abs(basis).max(initial=0))
    mats = basis.astype(int_dtype(2 * n * peak * peak)).reshape(-1, n, n)
    a, b = np.triu_indices(len(mats), 1)
    comms = (mats[a] @ mats[b] - mats[b] @ mats[a]).reshape(-1, n * n)
    left = reduce_against(result.echelon, comms)
    bad = int(np.count_nonzero(left.any(axis=1)))
    report.add(name, bad == 0, pairs=len(a), failures=bad)
    return report


@cache
def pair_product_rank() -> int:
    """The rank of the 36 products I_i I_j, i < j, on R^16: the length of
    the `int_echelon` of their `operator_rows`, formed once per process."""
    return len(int_echelon(operator_rows(lambda_basis(2))))


def spans_involution_pairs(result: StabilizerResult) -> tuple:
    """(contained, equal) for the products I_i I_j, i < j, on R^16.

    contained: every product lies in the kernel's span (`in_kernel_span`),
    so each fixes the form, as every kernel row is certified.  equal: the
    spans are equal, which follows from containment when the 36 products
    are independent (`pair_product_rank`) and the kernel dimension is 36.
    """
    if result.dimension != 16:
        return False, False
    contained = in_kernel_span(result, lambda_basis(2))
    equal = contained and result.kernel_dimension == 36
    return contained, equal and pair_product_rank() == 36


def symplectic_form_r4() -> AlternatingForm:
    return AlternatingForm.monomial((0, 1)) + AlternatingForm.monomial((2, 3))


def decomposable_form_low() -> AlternatingForm:
    return AlternatingForm.monomial(tuple(range(8)))


def _dense_fraction_nullity(rows, ncols: int) -> int:
    """Textbook Gaussian elimination over Fraction; oracle-grade and slow."""
    m = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank_count = 0
    for col in range(ncols):
        piv = next(
            (r for r in range(rank_count, len(m)) if m[r][col]), None
        )
        if piv is None:
            continue
        m[rank_count], m[piv] = m[piv], m[rank_count]
        pivrow = m[rank_count]
        inv = 1 / pivrow[col]
        m[rank_count] = [x * inv for x in pivrow]
        for r in range(len(m)):
            if r != rank_count and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank_count])]
        rank_count += 1
    return ncols - rank_count


def sp4_oracle_dimension() -> int:
    """Brute-force stabilizer dimension of dx0^dx1 + dx2^dx3 on R^4.

    Built by evaluating the Lie derivative on basis pairs through the
    generic evaluator, then eliminating densely over Fraction: no code
    shared with the production assembly or the integer solver.
    """
    form = symplectic_form_r4()
    basis = [Vector16.basis(k) for k in range(4)]
    rows = []
    for i in range(4):
        for j in range(i + 1, 4):
            row = {}
            for r in range(4):
                for c in range(4):
                    # E_rc sends e_c to e_r and kills the other basis vectors
                    val = 0
                    if c == i:
                        val += form.evaluate([basis[r], basis[j]])
                    if c == j:
                        val += form.evaluate([basis[i], basis[r]])
                    if val:
                        row[4 * r + c] = val
            if row:
                rows.append(row)
    return _dense_fraction_nullity(rows, 16)


def sp4_certification() -> VerificationReport:
    """Production solver vs the independent symplectic oracle on R^4."""
    report = VerificationReport()
    oracle_dim = sp4_oracle_dimension()
    result = infinitesimal_stabilizer(symplectic_form_r4(), n=4)
    report.add(
        "stabilizer.sp4.dimension",
        result.kernel_dimension == 10 and oracle_dim == 10,
        solver_dim=result.kernel_dimension,
        oracle_dim=oracle_dim,
    )
    j = np.zeros((4, 4), dtype=np.int64)
    j[[0, 2], [1, 3]], j[[1, 3], [0, 2]] = 1, -1
    mats = result.kernel.reshape(-1, 4, 4)
    ok = not (j @ mats + mats.transpose(0, 2, 1) @ j).any()
    report.add("stabilizer.sp4.symplectic-condition", ok)
    report.extend(bracket_closure(result, "stabilizer.sp4.bracket-closure"))
    return report


def decomposable_certification() -> VerificationReport:
    """Stabilizer of dx0^...^dx7: block-triangular matrices, dimension 191."""
    report = VerificationReport()
    result = infinitesimal_stabilizer(decomposable_form_low(), n=16)
    report.add(
        "stabilizer.decomposable.dimension",
        result.kernel_dimension == 191,
        dim=result.kernel_dimension,
        expected=64 + 64 + 63,
    )
    mats = result.kernel.reshape(-1, 16, 16)
    trace = np.trace(mats[:, :8, :8], axis1=1, axis2=2)
    ok = not mats[:, :8, 8:].any() and not trace.any()
    report.add("stabilizer.decomposable.block-structure", ok)
    return report


def lambda1_exclusion(form: AlternatingForm) -> VerificationReport:
    """The nine involutions are not infinitesimal symmetries.

    A hyperbolic rotation generated by the ninth involution rescales the
    restriction of the 8-form to the first octonion block by the eighth
    power of (c - s); any factor other than one on a nonzero restriction
    rules the generator out of the stabilizer.  The direct Lie-derivative
    witness is run alongside as the cheaper equivalent.
    """
    report = VerificationReport()
    low = form.restrict_low()
    report.add("stabilizer.lambda1.restriction-nonzero", bool(low))

    trivial = RationalCirclePoint(1, 0)
    pulled = form.pullback(boost8(trivial)).restrict_low()
    report.add("stabilizer.lambda1.identity-boost", pulled == low)

    p = RationalCirclePoint(Fraction(5, 4), Fraction(3, 4))
    factor = (p.c - p.s) ** 8
    pulled = form.pullback(boost8(p)).restrict_low()
    report.add(
        "stabilizer.lambda1.boost-scaling",
        pulled == low.scale(factor),
        factor=str(factor),
    )

    witness = form.lie_derivative(build_involutions()[8])
    report.add("stabilizer.lambda1.lie-witness", bool(witness))
    return report


def lambda3_exclusion(form: AlternatingForm) -> VerificationReport:
    """A triple Clifford product moves the 8-form; a double does not.

    Together with the identity rescaling the degree-0 and degree-3 parts
    of the Clifford grading are excluded from the stabilizer, leaving
    the 36-dimensional degree-2 part found by the kernel solve.
    """
    report = VerificationReport()
    report.add(
        "stabilizer.lambda3.witness",
        bool(form.lie_derivative(clifford_product((0, 1, 2)))),
    )
    report.add(
        "stabilizer.lambda3.pair-control",
        not form.lie_derivative(clifford_product((0, 1))),
    )
    scaling = form.lie_derivative(Operator16.identity())
    report.add(
        "stabilizer.lambda0.identity-scaling",
        scaling == form.scale(8) and bool(form),
    )
    return report
