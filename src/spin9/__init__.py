"""Exact construction and verification of the invariant 8-form on R^16.

The sixteen coordinates are treated as a pair of octonions.  Nine
anticommuting symmetric involutions generate the two-forms omega_ij,
whose quadruple wedge sum is the canonical 8-form; everything downstream
(curvature ansatz, stabilizer algebra, competing-form audit) is exact
rational arithmetic over that construction.
"""

from .bpt import (
    bpt_8form_full,
    bpt_8form_reduced,
    bpt_invariance_defect,
    bpt_square_check,
    head_to_head,
    materialize_bpt_4form,
    materialize_bpt_8form,
    s8_star,
)
from .canonical import (
    canonical_8form,
    canonical_8form_alt,
    conjecture_8form,
    conjecture_verdict,
    export_coefficients,
    four_form_omega_sum,
    four_form_sigma_sum,
    omega2,
    sigma2,
    w_tilde,
)
from .curvature import (
    curvature_brown_gray,
    curvature_entry,
    curvature_omega,
    curvature_prime_octonion,
    curvature_prime_operator,
    s_prime_octonion,
    s_prime_operator,
    sectional_curvature,
)
from .exterior import AlternatingForm
from .octonion import Octonion, automorphism_from_triple
from .operators import (
    InvolutionFamily,
    Operator16,
    RationalCirclePoint,
    Vector16,
    boost8,
    build_involutions,
    clifford_product,
    commutator,
    inner16,
    rotation,
)
from .report import VerificationReport
from .stabilizer import (
    StabilizerResult,
    infinitesimal_stabilizer,
    sp4_certification,
    stabilizer_system,
)
from .suites import RunConfig, SUITE_NAMES, run_suite

__all__ = [
    "AlternatingForm",
    "InvolutionFamily",
    "Octonion",
    "Operator16",
    "RationalCirclePoint",
    "RunConfig",
    "SUITE_NAMES",
    "StabilizerResult",
    "Vector16",
    "VerificationReport",
    "automorphism_from_triple",
    "boost8",
    "bpt_8form_full",
    "bpt_8form_reduced",
    "bpt_invariance_defect",
    "bpt_square_check",
    "build_involutions",
    "canonical_8form",
    "canonical_8form_alt",
    "clifford_product",
    "commutator",
    "conjecture_8form",
    "conjecture_verdict",
    "curvature_brown_gray",
    "curvature_entry",
    "curvature_omega",
    "curvature_prime_octonion",
    "curvature_prime_operator",
    "export_coefficients",
    "four_form_omega_sum",
    "four_form_sigma_sum",
    "head_to_head",
    "infinitesimal_stabilizer",
    "inner16",
    "materialize_bpt_4form",
    "materialize_bpt_8form",
    "omega2",
    "rotation",
    "run_suite",
    "s8_star",
    "s_prime_octonion",
    "s_prime_operator",
    "sectional_curvature",
    "sigma2",
    "sp4_certification",
    "stabilizer_system",
    "w_tilde",
]
