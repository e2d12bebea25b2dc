"""Exit codes, report grammar, export stability, bench determinism."""

import hashlib
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import curvature_oracle
from spin9 import cli
from spin9.bpt import (
    bpt_8form_reduced,
    materialize_bpt_4form,
    materialize_bpt_8form,
)
from spin9.canonical import (
    canonical_8form_alt,
    conjecture_8form,
    export_coefficients,
)
from spin9.operators import Vector16
from spin9.report import VerificationReport


def run_cli(args):
    return cli.main(args)


def test_verify_known_suite_passes(capsys):
    assert run_cli(["verify", "--suite", "octonion"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert all(" PASS" in l or " FAIL" in l for l in lines)
    assert any(l.startswith("octonion.") for l in lines)


def test_main_fixes_the_mmap_threshold(monkeypatch):
    # a threshold that follows the arrays freed would let the peak memory
    # of a run depend on the heap layout
    calls = []

    class Libc:
        def mallopt(self, *args):
            calls.append(args)

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    monkeypatch.setattr(cli.sys, "platform", "linux")
    assert run_cli(["verify", "--suite", "octonion"]) == 0
    monkeypatch.setattr(cli.sys, "platform", "darwin")
    assert run_cli(["verify", "--suite", "octonion"]) == 0
    assert calls == [(-3, 1 << 20)]


def test_verify_reports_anchor_values(omega8, capsys):
    assert run_cli(["verify", "--suite", "stabilizer"]) == 0
    out = capsys.readouterr().out
    assert "stabilizer_dim=36" in out
    assert "system_rank=220" in out

    assert run_cli(["verify", "--suite", "canonical"]) == 0
    out = capsys.readouterr().out
    assert "omega8_eval=-20160" in out
    assert "omega8_terms=702" in out

    assert run_cli(["verify", "--suite", "bpt"]) == 0
    out = capsys.readouterr().out
    assert "bpt_defect=108" in out
    assert "defect_total=108" in out


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = VerificationReport()
    failing.add("fake.check", False, witness="broken")
    monkeypatch.setattr(cli, "run_suite", lambda name, config: failing)
    assert run_cli(["verify", "--suite", "octonion"]) == 1
    out = capsys.readouterr().out
    assert "fake.check FAIL witness=broken" in out


def test_verify_seed_determinism(capsys):
    run_cli(["verify", "--suite", "operators", "--seed", "5"])
    first = capsys.readouterr().out
    run_cli(["verify", "--suite", "operators", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_export_byte_identical_runs(omega8, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli(["export", "omega8", "--out", str(a)]) == 0
    assert run_cli(["export", "omega8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 702


def test_export_csv_format(omega8, tmp_path):
    out = tmp_path / "o.csv"
    assert run_cli(["export", "omega8", "--format", "csv",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i1,i2,i3,i4,i5,i6,i7,i8,num,den"
    assert len(lines) == 703


def test_export_all_forms(omega8, tmp_path):
    counts = {}
    for name in ("omega8", "omega8-alt", "conjecture-rhs", "bpt"):
        out = tmp_path / f"{name}.jsonl"
        assert run_cli(["export", name, "--out", str(out)]) == 0
        counts[name] = len(out.read_text().splitlines())
    assert counts["omega8"] == 702
    assert counts["omega8-alt"] == 702
    assert counts["conjecture-rhs"] == 702
    assert counts["bpt"] == 870


# SHA-256 of each export; a regression fixture that any change to a
# builder or to the serialization must leave alone
OMEGA8_DIGESTS = {
    "json": "723f697a9784d93e2ced9262429f87166915dffe876a41a8d84a593af11b666a",
    "csv": "6a957113c58693cfad7e438197808812047871e60743539005e4e88cbde316fd",
}
EXPORT_DIGESTS = {
    "omega8": OMEGA8_DIGESTS,
    "omega8-alt": OMEGA8_DIGESTS,
    "conjecture-rhs": OMEGA8_DIGESTS,
    "bpt": {
        "json": "8a7dcbf9435b30b1e1a92e7f7fb3677d9f4a9e80e510e5f7ceb19f445ce65105",
        "csv": "b211cb2d8c323452cf228dddcce8991c673f0ae0d60db59845e793ce70bad293",
    },
    "bpt4": {
        "json": "41ad426fc6387ad3af857f3c9fe1296fa792b16090acaf43e3a6425483d606df",
        "csv": "3ef366aa79ce95902fb432e28a20f773becd43d3489741cd5bec1ae9c6522b18",
    },
}


def test_exports_match_the_pinned_digests(omega8):
    forms = {
        "omega8": omega8,
        "omega8-alt": canonical_8form_alt(),
        "conjecture-rhs": conjecture_8form("antisymmetric"),
        "bpt": materialize_bpt_8form(),
        "bpt4": materialize_bpt_4form(),
    }
    for name, form in forms.items():
        for fmt, digest in EXPORT_DIGESTS[name].items():
            data = export_coefficients(form, fmt)
            assert hashlib.sha256(data).hexdigest() == digest, (name, fmt)


def test_export_unwritable_destination(tmp_path, capsys):
    target = tmp_path / "missing" / "x.jsonl"
    assert run_cli(["export", "omega8", "--out", str(target)]) == 3


def test_export_unknown_form_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["export", "nonsense"])
    assert exc.value.code == 2


def test_export_stdout_payload(omega8, capsys):
    assert run_cli(["export", "omega8"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 702
    assert "records=702" in captured.err


def test_conjecture_verdict_line(omega8, capsys):
    assert run_cli(["conjecture"]) == 0
    out = capsys.readouterr().out
    assert "conjecture: EQUAL (convention=antisymmetric)" in out.splitlines()
    assert "difference_terms=0" in out


def test_conjecture_deterministic_across_settings(omega8, capsys):
    outputs = []
    for _ in range(2):
        assert run_cli(["conjecture"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # conjecture takes no run flags: it has no randomness and no workers
    with pytest.raises(SystemExit) as exc:
        run_cli(["conjecture", "--jobs", "2"])
    assert exc.value.code == 2


def test_bench_wedge_jobs_independent(capsys):
    results = []
    for _ in range(2):
        assert run_cli(["bench", "wedge"]) == 0
        out = capsys.readouterr().out.splitlines()
        # first line holds the deterministic counts, second the timing
        results.append(out[0])
        assert out[1].startswith("bench wedge: time=")
    assert results[0] == results[1]
    assert "term_pairs=" in results[0]
    # bench wedge runs serially and takes no --jobs
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "wedge", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--samples", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_run_flags_below_one_are_usage_errors(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "curvature", flag, value])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_pool_size_is_capped_by_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli.pool_size(1, 666) == 1
    assert cli.pool_size(10 ** 6, 666) == 2
    assert cli.pool_size(10 ** 6, 1) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.pool_size(8, 7) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli.pool_size(10 ** 6, 7) == 7
    assert cli.pool_size(3, 666) == 3


def test_verify_jobs_pool_prints_the_serial_lines(monkeypatch, capsys):
    # two CPUs seen here, so --jobs 2 fans the suites out to two workers
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    pools = []
    executor = cli.concurrent.futures.ProcessPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", spy)
    assert run_cli(["verify", "--jobs", "1", "--samples", "1"]) == 0
    serial = capsys.readouterr().out
    assert run_cli(["verify", "--jobs", "2", "--samples", "1"]) == 0
    assert capsys.readouterr().out == serial
    assert pools == [2]
    assert len(serial.splitlines()) == 58


def test_bench_stabilizer_assembly_dimensions(omega8, capsys):
    assert run_cli(["bench", "stabilizer-assembly"]) == 0
    out = capsys.readouterr().out
    assert "rows=12870 cols=256" in out


def test_bench_bpt_materialize(capsys):
    assert run_cli(["bench", "bpt-materialize"]) == 0
    out = capsys.readouterr().out
    assert "nonzero=870" in out


def test_bench_evaluate_reports_calls_terms_and_checksum(capsys):
    assert run_cli(["bench", "evaluate", "--seed", "3", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    head, timing = out.splitlines()
    # 870 monomials, each gathering its C(8, 4) = 70 splits, in int64
    assert head.startswith(
        "bench evaluate: calls=2 terms=870 products=121800 path=int64 checksum="
    )
    assert timing.startswith("bench evaluate: time=")
    # the checksum is sum |value| over the seeded tuples, by the reduced sum
    rng = random.Random("3:bench-evaluate")
    expected = 0
    for _ in range(2):
        vs = [Vector16.from_coords([rng.randint(-9, 9) for _ in range(16)])
              for _ in range(8)]
        expected += abs(bpt_8form_reduced(vs))
    assert head.endswith(f"checksum={expected}")


def test_bench_curvature_reports_calls_and_checksum(capsys):
    assert run_cli(["bench", "curvature", "--seed", "5", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    head, timing, basis = out.splitlines()
    assert head.startswith("bench curvature: calls=12 checksum=")
    assert timing.startswith("bench curvature: time=")
    # the four expressions on all 16^3 integer basis triples
    assert re.fullmatch(r"bench curvature: basis_calls=16384 time=\d+\.\d{3}s", basis)
    # all four expressions equal the Fraction oracle on the seeded triples
    rng = random.Random("5:bench-curvature")
    expected = 0
    for _ in range(3):
        x, y, z = (
            Vector16.from_coords(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(16)]
            )
            for _ in range(3)
        )
        r = curvature_oracle(x, y, z, 4)
        expected += 4 * sum(abs(v.numerator) + v.denominator for v in r.coords())
    assert head.endswith(f"checksum={expected}")


def test_bench_pullback_reports_rotations_leaves_and_path(omega8, capsys):
    assert run_cli(["bench", "pullback"]) == 0
    head, timing = capsys.readouterr().out.splitlines()
    # 59 872 leaves per rotation, the count of the recursive oracle
    assert re.fullmatch(
        r"bench pullback: rotations=72 leaves=4310784 path=int64 "
        r"checksum=[0-9a-f]{16}",
        head,
    )
    assert re.fullmatch(r"bench pullback: time=\d+\.\d{3}s", timing)
    # every rotation fixes omega, so the integer kernel returns d^8 omega
    # with d = 5 and 13, the denominators of the two circle points
    digest = hashlib.sha256()
    for _ in range(36):
        for d in (5, 13):
            terms = sorted((m, c * d ** 8) for m, c in omega8._terms.items())
            digest.update(repr(terms).encode())
    assert head.endswith(f"checksum={digest.hexdigest()[:16]}")


def test_bench_unknown_kernel_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "fft"])
    assert exc.value.code == 2


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


def test_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "spin9.cli", "verify", "--suite", "octonion"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "octonion.doubling-anchors PASS" in proc.stdout


@pytest.mark.skipif(shutil.which("spin9") is None,
                    reason="console script not on PATH")
def test_console_script_help():
    proc = subprocess.run(
        ["spin9", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "export" in proc.stdout
