"""Module boundaries that the package keeps, checked on the source."""

import ast
from pathlib import Path

import spin9


def _private_operator_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        relative = node.level == 1 and node.module == "operators"
        if relative or node.module == "spin9.operators":
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_private_operator_names():
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert "operators.py" in [p.name for p in sources]
    found = [
        line
        for path in sources
        if path.name != "operators.py"
        for line in _private_operator_imports(path)
    ]
    assert found == []
