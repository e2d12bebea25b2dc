"""Cold construction and export of every coefficient table the paper defines.

One pass builds the 8-form, its alternative grouping, the triple-form
sum in both conventions, the two vanishing 4-form sums, the BPT 8- and
4-forms with their square check, exports the four exported forms as
json and csv, and rebuilds the 8-form in two rotated frames.  Nearly all
of its time is in the wedge-sum builders; it never evaluates a form,
solves a linear system or touches the curvature.

Frames: a Givens rotation of R^9 in a seeded plane, once with
denominator 25 and once with denominator 85.  The rebuild sums integer
two-forms scaled by d, and its result is d^8 times the 8-form.  At
d = 25 the a-priori bound on those sums is about 2^62, the int64 edge,
while the result itself needs 52 bits.  At d = 85 the result needs 66
bits, so an int64 kernel without its overflow check wraps and fails
this workload.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import Raised, Tally, attempt
from reference import Reference, parse_export, wedge

# Pythagorean triples (a, b, d): a^2 + b^2 = d^2 gives the rotation point
# (a/d, b/d).
FRAME_TRIPLES = ((7, 24, 25), (13, 84, 85))
EXPORTED = ("omega8", "omega8-alt", "conjecture-rhs", "bpt")
FORMATS = ("json", "csv")
UNSIGNED_DIFFERENCE = 766  # monomials where the unsigned convention differs
OMEGA_SAMPLE = 12  # support monomials, and as many random 8-subsets
BPT_SAMPLE = 12


def _givens(a: int, b: int, c: Fraction, s: Fraction):
    rows = [[Fraction(int(r == k)) for k in range(9)] for r in range(9)]
    rows[a][a] = rows[b][b] = c
    rows[a][b] = -s
    rows[b][a] = s
    return tuple(tuple(r) for r in rows)


def make_inputs(seed: int) -> dict:
    rng = random.Random(f"construct:{seed}")
    frames = []
    for p, q, d in FRAME_TRIPLES:
        a, b = sorted(rng.sample(range(9), 2))
        if rng.random() < 0.5:
            p, q = q, p
        c = Fraction(rng.choice((p, -p)), d)
        s = Fraction(rng.choice((q, -q)), d)
        frames.append({"plane": (a, b), "point": (c, s), "d": d,
                       "matrix": _givens(a, b, c, s)})
    return {"seed": seed, "frames": frames}


def _cached_builders():
    from spin9 import bpt, canonical

    names = (
        (canonical, "canonical_8form"), (canonical, "canonical_8form_alt"),
        (canonical, "_conjecture_build"), (bpt, "materialize_bpt_8form"),
        (bpt, "materialize_bpt_4form"),
    )
    return [getattr(mod, n) for mod, n in names
            if hasattr(getattr(mod, n, None), "cache_clear")]


def prepare() -> None:
    """Empty the builders' caches so the pass constructs everything cold.

    Each pass runs in a fresh process already; this also undoes any
    build that importing spin9 might do ahead of the pass.
    """
    for builder in _cached_builders():
        builder.cache_clear()


def run_pass(inputs, tracer) -> dict:
    from spin9 import bpt, canonical

    out = {}
    out["omega8"] = attempt(canonical.canonical_8form)
    out["omega8-alt"] = attempt(canonical.canonical_8form_alt)
    out["conjecture-rhs"] = attempt(canonical.conjecture_8form, "antisymmetric")
    out["conjecture-unsigned"] = attempt(canonical.conjecture_8form, "unsigned")
    out["four-form-omega-sum"] = attempt(canonical.four_form_omega_sum)
    out["four-form-sigma-sum"] = attempt(canonical.four_form_sigma_sum)
    out["bpt"] = attempt(bpt.materialize_bpt_8form)
    out["bpt4"] = attempt(bpt.materialize_bpt_4form)
    out["bpt-square-check"] = attempt(bpt.bpt_square_check)
    for name in EXPORTED:
        for fmt in FORMATS:
            form = out[name]
            out[f"export-{name}-{fmt}"] = (
                form if isinstance(form, Raised)
                else attempt(canonical.export_coefficients, form, fmt)
            )
    for frame in inputs["frames"]:
        out[f"frame-d{frame['d']}"] = attempt(
            canonical.frame_change_fixes, frame["matrix"]
        )
    return out


def _coefficients(form) -> dict:
    return {idx: Fraction(v) for idx, v in form.items()}


def _is_form(value, degree) -> bool:
    return not isinstance(value, Raised) and getattr(value, "degree", None) == degree


def check(inputs, out) -> Tally:
    from spin9.operators import build_involutions

    tally = Tally()
    rng = random.Random(f"construct-check:{inputs['seed']}")
    ref = Reference([op.rows for op in build_involutions().ops])
    for text in ref.problems:
        tally.problem(f"reference: {text}")

    omega = out["omega8"]
    ok = _is_form(omega, 8)
    if ok:
        coeffs = _coefficients(omega)
        sample = rng.sample(sorted(coeffs), min(OMEGA_SAMPLE, len(coeffs)))
        sample += [tuple(sorted(rng.sample(range(16), 8)))
                   for _ in range(OMEGA_SAMPLE)]
        ok = all(coeffs.get(s, 0) == ref.omega_coefficient(s) for s in sample)
    tally.op("omega8", ok)
    base = _coefficients(omega) if _is_form(omega, 8) else None

    for name in ("omega8-alt", "conjecture-rhs"):
        form = out[name]
        tally.op(name, base is not None and _is_form(form, 8)
                 and _coefficients(form) == base)

    form = out["conjecture-unsigned"]
    ok = base is not None and _is_form(form, 8)
    if ok:
        other = _coefficients(form)
        differing = sum(
            1 for k in set(base) | set(other) if base.get(k, 0) != other.get(k, 0)
        )
        ok = differing == UNSIGNED_DIFFERENCE
    tally.op("conjecture-unsigned", ok)

    for name in ("four-form-omega-sum", "four-form-sigma-sum"):
        form = out[name]
        tally.op(name, _is_form(form, 4) and not _coefficients(form))

    bpt8, bpt4 = out["bpt"], out["bpt4"]
    ok = _is_form(bpt8, 8)
    if ok:
        from spin9 import bpt
        from spin9.operators import Vector16

        coeffs = _coefficients(bpt8)
        tuples = rng.sample(sorted(coeffs), min(BPT_SAMPLE, len(coeffs)))
        tuples += [tuple(sorted(rng.sample(range(16), 8)))
                   for _ in range(BPT_SAMPLE)]
        ok = bool(coeffs) and all(
            coeffs.get(t, 0)
            == bpt.bpt_8form_reduced([Vector16.basis(k) for k in t])
            for t in tuples
        )
    tally.op("bpt-vs-reduced-sum", ok)

    ok = _is_form(bpt8, 8) and _is_form(bpt4, 4)
    if ok:
        square = wedge(_coefficients(bpt4), _coefficients(bpt4))
        target = _coefficients(bpt8)
        ok = bool(square) and set(square) == set(target)
        if ok:
            k = next(iter(square))
            factor = target[k] / square[k]
            ok = all(target[m] == factor * v for m, v in square.items())
    tally.op("bpt-square-proportional", ok)

    report = out["bpt-square-check"]
    tally.op("bpt-square-check",
             not isinstance(report, Raised) and bool(report.checks)
             and all(c.passed for c in report.checks))

    for name in EXPORTED:
        form = out[name]
        for fmt in FORMATS:
            data = out[f"export-{name}-{fmt}"]
            ok = _is_form(form, 8) and isinstance(data, bytes)
            if ok:
                try:
                    ok = parse_export(data, fmt, 8) == _coefficients(form)
                except (ValueError, KeyError, IndexError):
                    ok = False
            tally.op(f"export-{name}-{fmt}", ok)

    for frame in inputs["frames"]:
        tally.op(f"frame-d{frame['d']}", out[f"frame-d{frame['d']}"] is True)
    return tally
