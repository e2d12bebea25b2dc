"""Pointwise curvature of the Cayley-plane model at c = 4.

Two input kinds use the same layer differently, so a change that helps
one and costs the other shows:

* integer points: all 16^3 basis triples (the four expressions), all 120
  basis planes (sectional curvature), and seeded random triples with
  coordinates in -9..9;
* rational points: seeded random triples with coordinates a/b,
  a in -6..6, b in 1..4, as in the verify suites.

Every random triple runs the four expressions, the cyclic Bianchi sum,
pair symmetry against a fourth point and sectional curvature; every
fourth also runs the averaging identity.  The random counts are chosen
so that the two kinds take comparable shares of the pass.  The workload
never touches the exterior algebra.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from . import Raised, Tally, attempt
from reference import Reference, inner

C = 4
INTEGER_TRIPLES = 48
RATIONAL_TRIPLES = 48
AVERAGING_EVERY = 4
DENSE_SAMPLE = {"basis": 8, "integer": 4, "rational": 2}
ENDS = {(0, 8): 1, (0, 1): 4}  # K = c/4 across the blocks, K = c within one


def _draw(rng, kind):
    """Four coordinate lists (x, y, z, w) with x and y independent."""
    while True:
        if kind == "integer":
            pts = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(4)]
        else:
            pts = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(16)] for _ in range(4)]
        x, y = pts[0], pts[1]
        if inner(x, x) * inner(y, y) != inner(x, y) ** 2:
            return pts


def make_inputs(seed: int) -> dict:
    from spin9.operators import Vector16

    rng = random.Random(f"curvature:{seed}")
    basis = [Vector16.basis(k) for k in range(16)]
    inputs = {
        "seed": seed,
        "basis": [(basis[a], basis[b], basis[c])
                  for a, b, c in product(range(16), repeat=3)],
        "planes": [(basis[a], basis[b]) for a, b in combinations(range(16), 2)],
    }
    for kind, count in (("integer", INTEGER_TRIPLES),
                        ("rational", RATIONAL_TRIPLES)):
        inputs[kind] = [tuple(Vector16.from_coords(p) for p in _draw(rng, kind))
                        for _ in range(count)]
    return inputs


def prepare() -> None:
    pass


def run_pass(inputs, tracer) -> dict:
    from spin9 import curvature as cv

    exprs = (cv.curvature_omega, cv.curvature_brown_gray,
             cv.curvature_prime_operator, cv.curvature_prime_octonion)
    out = {"basis": [], "planes": [], "integer": [], "rational": []}
    for x, y, z in inputs["basis"]:
        with tracer.span("curvature.integer_triple"):
            out["basis"].append([attempt(f, x, y, z, C) for f in exprs])
    for x, y in inputs["planes"]:
        out["planes"].append(attempt(cv.sectional_curvature, x, y, C))
    for kind in ("integer", "rational"):
        for n, (x, y, z, w) in enumerate(inputs[kind]):
            with tracer.span(f"curvature.{kind}_triple"):
                four = [attempt(f, x, y, z, C) for f in exprs]
                cyclic = (attempt(cv.curvature_omega, y, z, x, C),
                          attempt(cv.curvature_omega, z, x, y, C))
                entries = (attempt(cv.curvature_entry, x, y, z, w, C),
                           attempt(cv.curvature_entry, z, w, x, y, C))
                k = attempt(cv.sectional_curvature, x, y, C)
                avg = (attempt(cv.averaging_identity, x, y, z, C)
                       if n % AVERAGING_EVERY == 0 else None)
            out[kind].append((four, cyclic, entries, k, avg))
    return out


def _coords(v):
    return None if isinstance(v, Raised) else v.coords()


def _agree(values) -> bool:
    coords = [_coords(v) for v in values]
    return None not in coords and all(c == coords[0] for c in coords[1:])


def _pinched(k) -> bool:
    return not isinstance(k, Raised) and 1 <= k <= 4


def check(inputs, out) -> Tally:
    from spin9.operators import build_involutions

    tally = Tally()
    for four in out["basis"]:
        tally.op("basis-four-expressions", _agree(four))

    planes = list(combinations(range(16), 2))
    for k in out["planes"]:
        tally.op("basis-sectional-pinched", _pinched(k))
    tally.op("pinching-ends-attained",
             all(out["planes"][planes.index(p)] == v for p, v in ENDS.items()))

    for kind in ("integer", "rational"):
        for four, cyclic, entries, k, avg in out[kind]:
            tally.op(f"{kind}-four-expressions", _agree(four))
            parts = [_coords(v) for v in (four[0],) + cyclic]
            tally.op(f"{kind}-bianchi", None not in parts
                     and not any(sum(t) for t in zip(*parts)))
            tally.op(f"{kind}-pair-symmetry",
                     not any(isinstance(e, Raised) for e in entries)
                     and entries[0] == entries[1])
            tally.op(f"{kind}-sectional-pinched", _pinched(k))
            if avg is not None:
                tally.op(f"{kind}-averaging",
                         not isinstance(avg, Raised) and avg.passed)

    ref = Reference([op.rows for op in build_involutions().ops])
    for text in ref.problems:
        tally.problem(f"reference: {text}")
    rng = random.Random(f"curvature-check:{inputs['seed']}")
    for kind, count in DENSE_SAMPLE.items():
        for n in rng.sample(range(len(out[kind])), min(count, len(out[kind]))):
            x, y, z = (list(v.coords()) for v in inputs[kind][n][:3])
            got = _coords(out[kind][n][0] if kind == "basis" else out[kind][n][0][0])
            tally.op(f"{kind}-dense-reference",
                     got is not None and list(got) == ref.curvature(x, y, z, C))
    return tally
