"""Exact construction and verification of the invariant 8-form on R^16.

The sixteen coordinates are treated as a pair of octonions.  Nine
anticommuting symmetric involutions generate the two-forms omega_ij,
whose quadruple wedge sum is the canonical 8-form; everything downstream
(curvature ansatz, stabilizer algebra, competing-form audit) is exact
rational arithmetic over that construction.

The package exports nothing itself: each name is imported from the
module that defines it, for example
`from spin9.canonical import canonical_8form`.
"""
