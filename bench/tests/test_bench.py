"""Tests of the benchmark itself: its checks, references, tracer and runner.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from reference import Reference, parse_export, wedge
from spin9 import canonical, curvature as cv
from spin9.exterior import AlternatingForm
from spin9.operators import Vector16, build_involutions
from tracing import NullTracer, Tracer
from workloads import construct, curvature, verify

BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ref():
    return Reference([op.rows for op in build_involutions().ops])


# verify ---------------------------------------------------------------------

ANCHOR_LINES = [
    "canonical.eight-form PASS omega8_eval=-20160 omega8_terms=702",
    "canonical.conjecture PASS verdict=EQUAL convention=antisymmetric",
    "stabilizer.kernel PASS stabilizer_dim=36 system_rank=220 contains_spin9=True",
    "bpt.defect PASS bpt_defect=108 defect_total=108 t1=63 t2=-9",
    "bpt.materialized-form PASS terms=870",
]


def test_verify_counts_a_fail_line_as_a_failed_operation():
    text = "\n".join(ANCHOR_LINES + ["octonion.moufang-identity FAIL triples=343"])
    tally = verify.check([], [(1, text + "\n")])
    assert (tally.attempted, tally.failed, tally.problems) == (6, 1, [])
    assert tally.failures == ["octonion.moufang-identity"]


def test_verify_counts_a_wrong_anchor_as_a_failed_operation():
    lines = list(ANCHOR_LINES)
    lines[2] = "stabilizer.kernel PASS stabilizer_dim=37 system_rank=219"
    tally = verify.check([], [(0, "\n".join(lines))])
    assert (tally.failed, tally.failures, tally.problems) == (
        1, ["stabilizer.kernel"], [])


def test_verify_flags_a_missing_anchor_and_a_wrong_exit_code():
    tally = verify.check([], [(1, "\n".join(ANCHOR_LINES[1:]))])
    assert any("canonical.eight-form" in p for p in tally.problems)
    assert any("exit code" in p for p in tally.problems)


# construct ------------------------------------------------------------------


@pytest.fixture(scope="module")
def construct_outputs():
    """A construct pass without the two slow frame rebuilds."""
    inputs = dict(construct.make_inputs(3), frames=[])
    construct.prepare()
    return inputs, construct.run_pass(inputs, NullTracer())


def test_construct_pass_checks_clean(construct_outputs):
    tally = construct.check(*construct_outputs)
    assert (tally.failed, tally.problems) == (0, [])
    assert tally.attempted == 17


def _flip_one(form):
    terms = dict(form.items())
    idx = sorted(terms)[len(terms) // 2]
    terms[idx] = -terms[idx]
    return AlternatingForm(form.degree, terms)


def test_construct_counts_a_flipped_coefficient_as_failed(construct_outputs):
    inputs, out = construct_outputs
    tally = construct.check(inputs, dict(out, **{"omega8-alt": _flip_one(out["omega8-alt"])}))
    # the exports were made from the unflipped form, so they no longer match
    assert tally.failures == [
        "omega8-alt", "export-omega8-alt-json", "export-omega8-alt-csv"]

    negated = out["omega8"].scale(-1)
    tally = construct.check(inputs, dict(out, omega8=negated))
    assert "omega8" in tally.failures


def test_construct_counts_a_corrupt_export_as_failed(construct_outputs):
    inputs, out = construct_outputs
    data = out["export-bpt-csv"].replace(b",1\n", b",2\n", 1)
    tally = construct.check(inputs, dict(out, **{"export-bpt-csv": data}))
    assert tally.failures == ["export-bpt-csv"]


def test_construct_pass_is_not_served_from_an_earlier_cache(construct_outputs):
    canonical.canonical_8form()
    construct.prepare()
    builders = construct._cached_builders()
    assert len(builders) == 5
    assert all(b.cache_info().currsize == 0 for b in builders)
    canonical.canonical_8form()
    assert canonical.canonical_8form.cache_info().misses == 1


def test_frames_have_the_stated_denominators():
    for seed in range(5):
        frames = construct.make_inputs(seed)["frames"]
        assert [f["d"] for f in frames] == [25, 85]
        for f in frames:
            m = f["matrix"]
            assert all(
                sum(m[r][k] * m[c][k] for k in range(9)) == (r == c)
                for r in range(9) for c in range(9)
            )
            assert max(v.denominator for row in m for v in row) == f["d"]


# curvature ------------------------------------------------------------------


@pytest.fixture(scope="module")
def curvature_outputs():
    inputs = curvature.make_inputs(2)
    small = dict(inputs, basis=inputs["basis"][:40],
                 integer=inputs["integer"][:4], rational=inputs["rational"][:2])
    return small, curvature.run_pass(small, NullTracer())


def test_curvature_pass_checks_clean(curvature_outputs):
    tally = curvature.check(*curvature_outputs)
    assert (tally.failed, tally.problems) == (0, [])


def test_curvature_counts_out_of_range_sectional_curvature(curvature_outputs):
    inputs, out = curvature_outputs
    four, cyclic, entries, _, avg = out["integer"][1]
    bad = dict(out, integer=[out["integer"][0], (four, cyclic, entries, Fraction(9, 2), avg)]
               + out["integer"][2:])
    tally = curvature.check(inputs, bad)
    assert (tally.failed, tally.failures) == (1, ["integer-sectional-pinched"])


def test_curvature_counts_a_wrong_vector_as_failed(curvature_outputs):
    inputs, out = curvature_outputs
    four = list(out["basis"][5])
    four[2] = four[2].scale(2) if four[2] else Vector16.basis(0)
    tally = curvature.check(inputs, dict(out, basis=out["basis"][:5] + [four] + out["basis"][6:]))
    assert "basis-four-expressions" in tally.failures


# references -----------------------------------------------------------------


def test_involutions_pass_the_reference_relations(ref):
    assert ref.problems == []


def test_reference_coefficients_match_the_program(ref):
    omega = canonical.canonical_8form()
    rng = random.Random(0)
    support = rng.sample(omega.items(), 3)
    for idx, value in support:
        assert ref.omega_coefficient(idx) == value
    for _ in range(3):
        idx = tuple(sorted(rng.sample(range(16), 8)))
        assert ref.omega_coefficient(idx) == omega.coefficient(idx)
    assert ref.omega_coefficient(tuple(range(8))) == -20160


def test_reference_curvature_matches_the_program(ref):
    rng = random.Random(1)
    points = [
        [[int(t == k) for t in range(16)] for k in (0, 3, 9)],
        [[rng.randint(-9, 9) for _ in range(16)] for _ in range(3)],
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(16)]
         for _ in range(3)],
    ]
    for pts in points:
        got = cv.curvature_omega(*(Vector16.from_coords(p) for p in pts), 4)
        assert list(got.coords()) == ref.curvature(*pts, 4)


def test_reference_wedge_matches_the_program():
    rng = random.Random(2)
    for da, db in ((1, 2), (2, 2), (3, 4)):
        a = {tuple(sorted(rng.sample(range(16), da))): rng.randint(-5, 5) for _ in range(5)}
        b = {tuple(sorted(rng.sample(range(16), db))): rng.randint(-5, 5) for _ in range(5)}
        a = {k: v for k, v in a.items() if v}
        b = {k: v for k, v in b.items() if v}
        got = AlternatingForm(da, a).wedge(AlternatingForm(db, b))
        assert dict(got.items()) == wedge(a, b)


def test_parse_export_round_trip_and_rejections():
    form = AlternatingForm(2, {(0, 1): Fraction(-3, 2), (4, 9): 7})
    for fmt in ("json", "csv"):
        data = canonical.export_coefficients(form, fmt)
        assert parse_export(data, fmt, 2) == {(0, 1): Fraction(-3, 2), (4, 9): 7}
    data = canonical.export_coefficients(form, "csv")
    with pytest.raises(ValueError):
        parse_export(data + data.splitlines(keepends=True)[1], "csv", 2)


# tracer ---------------------------------------------------------------------


def test_tracer_counts_wedges_and_restores_the_originals():
    original = AlternatingForm.wedge
    original_omega2 = canonical.omega2
    tracer = Tracer()
    tracer.install()
    try:
        a, b = canonical.omega2(0, 1), canonical.omega2(2, 3)
        a.wedge(b)
        cv.curvature_omega(Vector16.basis(0), Vector16.basis(8), Vector16.basis(0), 4)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert AlternatingForm.wedge is original and canonical.omega2 is original_omega2
    metrics = tracer.layer_metrics()
    assert metrics["exterior.wedge_calls"] == 1
    assert metrics["exterior.wedge_term_pairs"] == 64
    assert metrics["curvature.omega_s"] > 0
    assert tracer.spans and all(s[4] >= s[3] for s in tracer.spans)


# runner ---------------------------------------------------------------------


def test_runner_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curvature", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_every_per_layer_metric():
    from tracing import PER_LAYER

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == ["verify", "construct", "curvature"]
