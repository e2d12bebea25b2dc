"""Module boundaries that the package keeps, checked on the source."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import spin9
from spin9 import exterior


def _private_imports(path):
    """Underscore names that path imports from a spin9 module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "spin9":
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_private_names():
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert {"operators.py", "linalg.py", "exterior.py"} <= {p.name for p in sources}
    found = [line for path in sources for line in _private_imports(path)]
    assert found == []


def test_private_import_guard_sees_each_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from __future__ import annotations\n"
        "from .linalg import exact_ratio, _normalize\n"
        "from spin9.operators import _validate_indices\n"
        "from . import _private_module\n"
        "from fractions import _gcd\n"
    )
    assert [line.split(" imports ")[1] for line in _private_imports(src)] == [
        "_normalize",
        "_validate_indices",
        "_private_module",
    ]


def _assert_statements(path):
    """Bare `assert` statements in path; `python -O` strips them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}"


def test_no_module_checks_a_premise_with_assert():
    # checked premises must raise AssertionError explicitly
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert {"bpt.py", "octonion.py"} <= {p.name for p in sources}
    found = [line for path in sources for line in _assert_statements(path)]
    assert found == []


def test_assert_guard_sees_assert_statements(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "def f(x):\n"
        "    assert x, 'bare'\n"
        "    if not x:\n"
        "        raise AssertionError('explicit')\n"
    )
    assert list(_assert_statements(src)) == ["probe.py:2"]


def _driver_references(path):
    """Lines that name `_moduli` or `_crt` outside `exterior._exact`, the
    one exact driver every int64/CRT kernel goes through."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {
        id(node)
        for top in tree.body
        if path.name == "exterior.py"
        and isinstance(top, ast.FunctionDef) and top.name == "_exact"
        for node in ast.walk(top)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ("_moduli", "_crt") and id(node) not in inside:
            found.append((node.lineno, f"{path.name}:{node.lineno} names {name}"))
    return [line for _, line in sorted(found)]


def test_only_the_exact_driver_picks_moduli_and_rebuilds():
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert callable(exterior._moduli) and callable(exterior._crt)
    assert "_moduli(" in inspect.getsource(exterior._exact)
    found = [line for path in sources for line in _driver_references(path)]
    assert found == []


def test_driver_guard_sees_a_second_call_site(tmp_path):
    (tmp_path / "exterior.py").write_text(
        "def _exact(plan, bound, run):\n"
        "    moduli = _moduli(bound)\n"
        "    return _crt([run(plan, p) for p in moduli], moduli)\n"
        "\n"
        "def fifth_table(plan, bound):\n"
        "    moduli = _moduli(bound)\n"
        "    return exterior._crt([_fifth_mod(plan, p) for p in moduli], moduli)\n"
    )
    (tmp_path / "probe.py").write_text(
        "from .exterior import _moduli\n"
        "def _exact(bound):\n"
        "    return _moduli(bound)\n"
    )
    assert _driver_references(tmp_path / "exterior.py") == [
        "exterior.py:6 names _moduli",
        "exterior.py:7 names _crt",
    ]
    # a function called `_exact` elsewhere is not the driver
    assert _driver_references(tmp_path / "probe.py") == [
        "probe.py:1 names _moduli",
        "probe.py:3 names _moduli",
    ]


def test_importing_the_cli_builds_no_product():
    # a product built at import would land in every command's set-up time
    code = (
        "import spin9.cli\n"
        "from spin9 import operators\n"
        "print(operators._product.cache_info().currsize,"
        " operators.build_involutions.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_importing_the_cli_builds_no_exterior_table():
    # the parity tables and the Laplace subset positions are built on
    # first use, and no form holds a Laplace plan, so that no command pays
    # for them at import
    code = (
        "import gc, spin9.cli\n"
        "from spin9 import exterior\n"
        "print(exterior._np_tables.cache_info().currsize,"
        " exterior._subset_positions.cache_info().currsize,"
        " sum(hasattr(f, '_plan') for f in gc.get_objects()"
        " if isinstance(f, exterior.AlternatingForm)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]


def test_importing_the_cli_builds_no_bpt_table():
    # S*_8, the pair-index tables, the block and factor plans, the basis
    # crosses and the real-part table are built by the first BPT call,
    # not at import
    code = (
        "import spin9.cli\n"
        "from spin9 import bpt\n"
        "print(*(f.cache_info().currsize for f in (bpt.s8_star,"
        " bpt._pair_slots, bpt._block_plan, bpt._factor_plan,"
        " bpt._basis_cross_units, bpt._re_pair_table)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * 6
