"""Suite dispatch, report grammar, and seeded reproducibility."""

import importlib
import pkgutil

import numpy as np
import pytest

import spin9
from spin9 import bpt, curvature, linalg, stabilizer
from spin9.operators import lambda_basis
from spin9.report import VerificationReport
from spin9.suites import SUITE_NAMES, RunConfig, run_suite


def test_suite_names_cover_modules():
    assert SUITE_NAMES == (
        "octonion",
        "operators",
        "exterior",
        "canonical",
        "curvature",
        "stabilizer",
        "bpt",
    )


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nonsense", RunConfig())


@pytest.mark.parametrize("samples", [0, -3])
def test_run_config_rejects_samples_below_one(samples):
    with pytest.raises(ValueError):
        RunConfig(samples=samples)


def test_octonion_suite_shape():
    report = run_suite("octonion", RunConfig(seed=3, samples=10))
    assert isinstance(report, VerificationReport)
    assert report.passed
    for line in report.lines():
        head, status = line.split(" ")[:2]
        assert head.startswith("octonion.")
        assert status in ("PASS", "FAIL")


def test_exterior_suite_passes():
    assert run_suite("exterior", RunConfig(seed=1, samples=8)).passed


def test_seeded_reproducibility():
    a = run_suite("operators", RunConfig(seed=9, samples=12))
    b = run_suite("operators", RunConfig(seed=9, samples=12))
    assert a.lines() == b.lines()


def test_rng_salt_separates_suites():
    config = RunConfig(seed=0)
    assert config.rng("octonion").random() != config.rng("exterior").random()
    assert config.rng("octonion").random() == config.rng("octonion").random()


@pytest.fixture
def fresh_factor_plans():
    # the reduced sums cache their plan from `bpt.s8_star`: clear it, so
    # that a patched S*_8 reaches them, and again, so that it goes away
    bpt._factor_plan.cache_clear()
    yield
    bpt._factor_plan.cache_clear()


def test_census_line_fails_on_a_swapped_pair(monkeypatch, fresh_factor_plans):
    # the cached BPT form is built from the true S*_8 before the patch
    bpt.materialize_bpt_8form()
    reps = list(bpt.s8_star())
    # the last two pairs of the last representative trade places: still
    # 315 distinct permutations starting at slot 0, but p[4] > p[6]
    perm, sign = reps[-1]
    reps[-1] = (perm[:4] + perm[6:] + perm[4:6], sign)
    assert reps[-1][0][0] == 0 and len(set(reps)) == 315
    monkeypatch.setattr(bpt, "s8_star", lambda: tuple(reps))
    lines = run_suite("bpt", RunConfig(samples=1)).lines()
    assert lines[0] == "bpt.representative-census FAIL count=315"


def test_a_descending_pair_fails_lines_instead_of_raising(
    monkeypatch, fresh_factor_plans
):
    # p[2] and p[3] of one representative trade places: the reduced sum
    # reads that pair's cross negated (the cross is skew), which flips the
    # term: the census and the sample sums report FAIL lines, no KeyError
    bpt.materialize_bpt_8form()
    reps = list(bpt.s8_star())
    perm, sign = reps[0]
    reps[0] = (perm[:2] + (perm[3], perm[2]) + perm[4:], sign)
    assert reps[0][0][2] > reps[0][0][3]
    monkeypatch.setattr(bpt, "s8_star", lambda: tuple(reps))
    lines = run_suite("bpt", RunConfig(samples=1)).lines()
    failed = {line.split(" ")[0] for line in lines if " FAIL" in line}
    assert {"bpt.representative-census", "bpt.full-vs-reduced"} <= failed


def test_rotation_line_fails_on_one_wrong_two_form_sign(monkeypatch):
    # coefficient 5 of the grade-2 sweep is omega_06 of the pair (0, 6);
    # a rotation in the plane (2, 5) alone cannot see its sign, since
    # I_2 I_5 commutes with I_0 I_6.  The averaging identity takes its
    # right side from the grade-1 sweep, so it sees the sign too
    sweep = curvature.clifford_coefficients

    def mutant(grade, x, y):
        coeff = sweep(grade, x, y)
        if grade == 2:
            coeff[5] = -coeff[5]
        return coeff

    monkeypatch.setattr(curvature, "clifford_coefficients", mutant)
    lines = run_suite("curvature", RunConfig()).lines()
    assert "curvature.rotation-equivariance FAIL" in lines
    assert "curvature.averaging FAIL" in lines


def test_verify_forms_the_pair_product_echelon_once(monkeypatch):
    # the operator suite's pair rank and the stabilizer's span check read
    # one elimination of the 36 pair products I_i I_j
    pairs = stabilizer.operator_rows(lambda_basis(2))
    echelon, seen = linalg.int_echelon, []

    def spy(rows):
        seen.append(np.array_equal(rows, pairs))
        return echelon(rows)

    for info in pkgutil.iter_modules(spin9.__path__):
        module = importlib.import_module(f"spin9.{info.name}")
        if getattr(module, "int_echelon", None) is echelon:
            monkeypatch.setattr(module, "int_echelon", spy)
    stabilizer.pair_product_rank.cache_clear()
    assert run_suite("all", RunConfig()).passed
    assert seen.count(True) == 1
