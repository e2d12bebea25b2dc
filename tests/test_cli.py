"""Exit codes, report grammar, export stability."""

import concurrent.futures
import hashlib
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spin9 import cli
from spin9.bpt import materialize_bpt_4form, materialize_bpt_8form
from spin9.canonical import (
    canonical_8form_alt,
    conjecture_8form,
    export_coefficients,
)
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
    executor = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    assert run_cli(["verify", "--jobs", "1", "--samples", "1"]) == 0
    serial = capsys.readouterr().out
    assert run_cli(["verify", "--jobs", "2", "--samples", "1"]) == 0
    assert capsys.readouterr().out == serial
    assert pools == [2]
    assert len(serial.splitlines()) == 58


def test_verify_check_ids_are_unique(capsys):
    # each check line starts with its id, which names one check only
    assert run_cli(["verify", "--samples", "1"]) == 0
    ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert len(ids) == 58
    assert len(set(ids)) == len(ids)


def test_bench_is_not_a_command(capsys):
    # timing lives in the benchmark under bench/, not in the CLI
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "wedge"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    assert " {verify,export,conjecture} " in cli.build_parser().format_usage()


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


def test_declared_entry_point_runs_without_installing(capsys):
    # the console script of pyproject.toml, resolved by hand: the same
    # target an installer would wrap, so the declaration is checked on
    # every run and not only where `spin9` is on PATH
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    target = project["scripts"]["spin9"]
    assert target == "spin9.cli:main"
    module, _, name = target.partition(":")
    main = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in ("verify", "export", "conjecture"))
