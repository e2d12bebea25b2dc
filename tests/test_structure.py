"""Module boundaries that the package keeps, checked on the source."""

import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import spin9
from spin9 import exterior, linalg, octonion, operators


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


def _bit_counts(path):
    """Lines of path that call a `.bit_count()` method, sorted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "bit_count"
    )


def test_no_module_counts_bits_for_a_sign():
    # a parity comes from `exterior`'s parity tables or from `perm_sign`;
    # a popcount of its own would be a second sign rule
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert {"canonical.py", "exterior.py"} <= {p.name for p in sources}
    assert [line for path in sources for line in _bit_counts(path)] == []


def test_bit_count_guard_sees_each_call(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "def parity(s, a):\n"
        "    odd = (s >> (a + 1)).bit_count()\n"
        "    bit_count = int.bit_count\n"
        "    return odd + s.bit_count() + bit_count(a)\n"
    )
    # a call of the bound name is not a method call on a value
    assert _bit_counts(src) == ["probe.py:2", "probe.py:4"]


def _limit_readers(path):
    """Lines of path that read `INT64_LIMIT` anywhere but in the body of
    the top-level `int_dtype` of `linalg`, the one integer-width rule of
    every exact kernel, or that define it anywhere but at the top level of
    `linalg`; an import of the name, under any name, counts as a read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    for top in tree.body if path.name == "linalg.py" else ():
        if isinstance(top, ast.FunctionDef) and top.name == "int_dtype":
            allowed.update(id(node) for node in ast.walk(top))
        elif isinstance(top, ast.Assign):
            allowed.update(id(target) for target in top.targets)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read = node.id == "INT64_LIMIT"
        elif isinstance(node, ast.Attribute):
            read = node.attr == "INT64_LIMIT"
        elif isinstance(node, ast.alias):
            read = node.name == "INT64_LIMIT"
        else:
            continue
        if read and id(node) not in allowed:
            found.append(node.lineno)
    return [f"{path.name}:{line} reads INT64_LIMIT" for line in sorted(found)]


def test_only_the_exact_driver_reads_the_int64_limit():
    # `linalg.int_dtype` drives the width of every exact kernel
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert {"linalg.py", "exterior.py", "stabilizer.py", "bpt.py"} <= {
        p.name for p in sources
    }
    assert "INT64_LIMIT" in inspect.getsource(linalg.int_dtype)
    found = [line for path in sources for line in _limit_readers(path)]
    assert found == []


def test_driver_guard_sees_a_second_call_site(tmp_path):
    (tmp_path / "linalg.py").write_text(
        "INT64_LIMIT = 1 << 63\n"
        "def int_dtype(bound):\n"
        "    return np.int64 if bound < INT64_LIMIT else object\n"
        "\n"
        "def int_array(values):\n"
        "    return max(values) < INT64_LIMIT\n"
        "\n"
        "class Rule:\n"
        "    def int_dtype(self, bound):\n"
        "        return bound < INT64_LIMIT\n"
    )
    (tmp_path / "stabilizer.py").write_text(
        "from .linalg import INT64_LIMIT\n"
        "def bracket_closure(n, peak):\n"
        "    return 2 * n * peak * peak >= INT64_LIMIT\n"
        "\n"
        "def int_dtype(bound):\n"
        "    return bound < linalg.INT64_LIMIT\n"
        "from .linalg import INT64_LIMIT as LIMIT\n"
        "INT64_LIMIT = 1 << 63\n"
    )
    # a method called `int_dtype`, or the function in another module, is
    # not the rule; a second definition is not the constant
    assert _limit_readers(tmp_path / "linalg.py") == [
        "linalg.py:6 reads INT64_LIMIT",
        "linalg.py:10 reads INT64_LIMIT",
    ]
    assert _limit_readers(tmp_path / "stabilizer.py") == [
        "stabilizer.py:1 reads INT64_LIMIT",
        "stabilizer.py:3 reads INT64_LIMIT",
        "stabilizer.py:6 reads INT64_LIMIT",
        "stabilizer.py:7 reads INT64_LIMIT",
        "stabilizer.py:8 reads INT64_LIMIT",
    ]


def _lie_incidence_callers(path):
    """Lines of path that call `lie_incidences`, by name or as an
    attribute, or import it under any name, outside the body of the
    top-level `lie_images` of `exterior`, the one Lie-derivative kernel,
    and of the top-level `stabilizer_system` of `stabilizer`, which reads
    each incidence as one coefficient of its equation blocks and so
    substitutes no matrix entry; `stabilizer` may import it by its own
    name for that."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reader = {"exterior.py": "lie_images", "stabilizer.py": "stabilizer_system"}
    allowed = set()
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == reader.get(path.name):
            allowed.update(id(node) for node in ast.walk(top))
        elif isinstance(top, ast.ImportFrom) and path.name == "stabilizer.py":
            allowed.update(id(alias) for alias in top.names if alias.asname is None)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == "lie_incidences" and id(node) not in allowed:
            found.append(node.lineno)
    return [f"{path.name}:{line} reaches lie_incidences" for line in sorted(found)]


def test_only_lie_images_moves_a_form_by_a_matrix():
    # the Lie derivative and the stabilizer's certificate substitute
    # matrix entries through `lie_images`, and the stabilizer's equation
    # blocks read the incidences as they are; a further caller of the
    # incidences would be a second substitution
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert {"exterior.py", "stabilizer.py"} <= {p.name for p in sources}
    assert "lie_incidences(" in inspect.getsource(exterior.lie_images)
    found = [line for path in sources for line in _lie_incidence_callers(path)]
    assert found == []


def test_lie_incidence_guard_sees_a_second_caller(tmp_path):
    (tmp_path / "exterior.py").write_text(
        "def lie_incidences(masks, rows, cols):\n"
        "    return masks\n"
        "def lie_images(table, rows, cols, vectors):\n"
        "    return lie_incidences(list(table), rows, cols)\n"
        "def lie_table(table, entries):\n"
        "    return lie_incidences(list(table), *zip(*entries))\n"
        "class Form:\n"
        "    def lie_images(self, rows, cols):\n"
        "        return lie_incidences(self.masks, rows, cols)\n"
    )
    (tmp_path / "stabilizer.py").write_text(
        "from .exterior import lie_incidences as incidences\n"
        "from . import exterior\n"
        "def stabilizer_blocks(table, r, c):\n"
        "    return exterior.lie_incidences(list(table), r, c)\n"
        "NAME = 'lie_incidences'  # a string is no call\n"
        "from .exterior import lie_incidences\n"
        "def stabilizer_system(table, r, c):\n"
        "    return lie_incidences(list(table), r, c)\n"
        "def _certify(table, r, c):\n"
        "    return lie_incidences(list(table), r, c)\n"
    )
    # a method called `lie_images` is not the kernel
    assert _lie_incidence_callers(tmp_path / "exterior.py") == [
        "exterior.py:6 reaches lie_incidences",
        "exterior.py:9 reaches lie_incidences",
    ]
    # the system may read the incidences under their own name; a renamed
    # import or any other caller may not
    assert _lie_incidence_callers(tmp_path / "stabilizer.py") == [
        "stabilizer.py:1 reaches lie_incidences",
        "stabilizer.py:4 reaches lie_incidences",
        "stabilizer.py:10 reaches lie_incidences",
    ]


UNIT_TABLES = ("SIGN",)


def _unit_table_readers(path):
    """Lines that read the octonion unit product signs `SIGN`: by name, as
    an attribute, imported under any name, or through a star import of
    `octonion`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read = node.id in UNIT_TABLES
        elif isinstance(node, ast.Attribute):
            read = node.attr in UNIT_TABLES
        elif isinstance(node, ast.ImportFrom):
            star = (node.module or "").split(".")[-1] == "octonion"
            read = any(
                a.name in UNIT_TABLES or (star and a.name == "*") for a in node.names
            )
        else:
            continue
        if read:
            found.append(node.lineno)
    return [f"{path.name}:{line} reads a unit table" for line in sorted(found)]


def test_only_the_octonion_module_reads_the_unit_product_tables():
    # one scalar product loop (`_product`, under `term_mul` and
    # `Octonion.__mul__`) and its batched form (`oct_mul`) read the signs;
    # every other module multiplies through them
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert {"octonion.py", "curvature.py", "bpt.py"} <= {p.name for p in sources}
    assert "SIGN" in inspect.getsource(octonion._product)
    found = [
        line
        for path in sources
        if path.name != "octonion.py"
        for line in _unit_table_readers(path)
    ]
    assert found == []


def test_unit_table_guard_sees_a_second_product_loop(tmp_path):
    (tmp_path / "curvature.py").write_text(
        "from .octonion import SIGN\n"
        "from .octonion import SIGN as UNITS\n"
        "from . import octonion\n"
        "from .octonion import *\n"
        "def mul(x, y):\n"
        "    return [octonion.SIGN[a][b] * x[a] * y[b] for a in x for b in y]\n"
        "def sign(a, b):\n"
        "    return SIGN[a][b]\n"
        "XOR_SIGN = 'SIGN'  # another name and a string are no reads\n"
        "from .exterior import *\n"
    )
    assert _unit_table_readers(tmp_path / "curvature.py") == [
        "curvature.py:1 reads a unit table",
        "curvature.py:2 reads a unit table",
        "curvature.py:4 reads a unit table",
        "curvature.py:6 reads a unit table",
        "curvature.py:8 reads a unit table",
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


def _private_reads(module):
    """Lines of module that read `x._name` on another module's object.

    A private name is the module's own when a class that the module
    defines has it, inherited members included; `_raw`, the unchecked
    constructor of the exact types, is open to every module.  Dunder
    names are not private.
    """
    own = {
        name
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        for name in dir(obj)
    }
    path = Path(module.__file__)
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if name.startswith("_") and not name.endswith("__") and name != "_raw":
            if name not in own:
                found.append(f"{path.name}:{node.lineno} reads {name}")
    return found


def test_no_module_reads_another_modules_private_attributes():
    names = sorted(p.stem for p in Path(spin9.__file__).parent.glob("*.py"))
    assert {"canonical", "curvature", "exterior", "operators", "stabilizer"} <= set(
        names
    )
    modules = [importlib.import_module(f"spin9.{n}") for n in names if n != "__init__"]
    found = [line for module in modules for line in _private_reads(module)]
    assert found == []


def test_private_read_guard_sees_a_reach_into_another_module(tmp_path):
    src = tmp_path / "private_probe.py"
    src.write_text(
        "from spin9.exterior import AlternatingForm\n"
        "from spin9.linalg import Exact\n"
        "from spin9 import operators\n"
        "\n"
        "class Point(Exact):\n"
        "    __slots__ = ('_cache',)\n"
        "\n"
        "    def _mine(self):\n"
        "        return self._cache\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls, form, op):\n"
        "        p = cls.__new__(cls)\n"
        "        p._set((1,), 1)\n"
        "        p._mine()\n"
        "        AlternatingForm._raw(2, {3: 1}).__add__(form)\n"
        "        return form._plan, op._entries, operators._product, form._terms\n"
    )
    spec = importlib.util.spec_from_file_location("private_probe", src)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # its own slot and method, an inherited method, `_raw` and a dunder
    # pass; a slot of another module's class, a cached function of another
    # module and a name that no class here has do not
    assert _private_reads(module) == [
        "private_probe.py:17 reads _plan",
        "private_probe.py:17 reads _entries",
        "private_probe.py:17 reads _product",
        "private_probe.py:17 reads _terms",
    ]


def test_no_module_names_the_per_group_wedge_tables():
    # `square_sums` squares every group's four-form inside the kernel; a
    # list of per-group tables would bring back the round trip through
    # one Python dict per group
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert "exterior.py" in {p.name for p in sources}
    found = [
        f"{path.name}:{n}"
        for path in sources
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bwedge_sums\b", line)
    ]
    assert found == []


def test_no_module_names_the_retired_kernel_drivers():
    # the BPT stages and the pullback bound, pick their dtype and run
    # inline; a step callback or a plan tuple would bring back a second
    # layer between a kernel's bound and its arithmetic, and a wedge step
    # beside the pair-grid expander a second expansion of term pairs
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert {"bpt.py", "exterior.py"} <= {p.name for p in sources}
    found = [
        f"{path.name}:{n}"
        for path in sources
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(
            r"\b(exact_array|_pullback_plan|_pullback_step|_wedge_step|_square_step)\b",
            line,
        )
    ]
    assert found == []


def _product_callers(path):
    """Lines of path that call `_products`, by name or as an attribute, or
    import it under any name, outside the body of the top-level
    `_expand_grids` of `exterior`, the one expander of term pairs."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    for top in tree.body if path.name == "exterior.py" else ():
        if isinstance(top, ast.FunctionDef) and top.name == "_expand_grids":
            allowed.update(id(node) for node in ast.walk(top))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == "_products" and id(node) not in allowed:
            found.append(node.lineno)
    return [f"{path.name}:{line} calls _products" for line in sorted(found)]


def test_only_the_pair_grid_expander_forms_term_products():
    # every wedge, the squares of `square_sums` among them, expands its
    # term pairs from pair grids in `_expand_grids`; a second caller of
    # `_products` would be a second expander beside it
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert "exterior.py" in {p.name for p in sources}
    assert "_products(" in inspect.getsource(exterior._expand_grids)
    found = [line for path in sources for line in _product_callers(path)]
    assert found == []


def test_product_guard_sees_a_second_caller(tmp_path):
    (tmp_path / "exterior.py").write_text(
        "def _products(masks, c, left, right):\n"
        "    return masks\n"
        "def _expand_grids(masks, c, blocks, dtype):\n"
        "    return _products(masks, c, blocks, blocks)\n"
        "def _square_step(masks, c, squares, dtype):\n"
        "    return _products(masks, c, squares, squares)\n"
        "class Kernel:\n"
        "    def _expand_grids(self, blocks):\n"
        "        return _products(self.masks, self.c, blocks, blocks)\n"
        "NAME = '_products'  # a string is no call\n"
    )
    (tmp_path / "bpt.py").write_text(
        "from .exterior import _products as products\n"
        "from . import exterior\n"
        "def _expand_grids(masks, c, left, right):\n"
        "    return exterior._products(masks, c, left, right)\n"
    )
    # a method called `_expand_grids`, or a function of that name in
    # another module, is not the expander
    assert _product_callers(tmp_path / "exterior.py") == [
        "exterior.py:6 calls _products",
        "exterior.py:9 calls _products",
    ]
    assert _product_callers(tmp_path / "bpt.py") == [
        "bpt.py:1 calls _products",
        "bpt.py:4 calls _products",
    ]


def test_no_module_names_the_retired_round_trips():
    # the stabilizer's kernel is one integer matrix with one echelon, which
    # every reader takes as it is, and `items()` reads its index tuples off
    # `_positions`: an operator per kernel vector, a second echelon of the
    # kernel, a stored Lie-derivative verdict or a second mask-to-indices
    # table would bring back a conversion done twice; the keyword of the
    # `contains_spin9=` detail on the kernel line stays
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert {"exterior.py", "stabilizer.py", "suites.py"} <= {p.name for p in sources}
    names = "_block_rows|kernel_echelon|kernel_basis|contains_spin9|_byte_indices|_lex_key"
    found = [
        f"{path.name}:{n}"
        for path in sources
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(rf"\b({names})\b(?!=[^=])", line)
    ]
    assert found == []


def test_no_module_applies_an_operator_to_take_a_coefficient():
    # <x, P_i y> over the products of a grade comes from the one sweep,
    # `curvature.clifford_coefficients`; an inner product with an applied
    # operator would be a second one
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert {"canonical.py", "curvature.py", "suites.py"} <= {p.name for p in sources}
    found = [
        f"{path.name}:{n}"
        for path in sources
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\binner(16|_product)\(.*\.apply\(", line)
    ]
    assert found == []


TUPLE_ARITHMETIC = (
    "_raw", "__add__", "__sub__", "__neg__", "scale", "__eq__", "__hash__",
    "__setattr__",
)


def _class_members(path, name):
    """Names that the body of the top-level class `name` in path binds, by
    a def or an assignment."""
    tree = ast.parse(path.read_text(), filename=str(path))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    found = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(t.id for t in targets if isinstance(t, ast.Name))
    return found


def test_octonions_vectors_and_operators_share_one_tuple_arithmetic():
    # `linalg.ExactTuple` holds the arithmetic on integer numerators over
    # one denominator; a copy in any of the classes would be a second one
    for module, name, size in (
        (octonion, "Octonion", 8),
        (operators, "Vector16", 16),
        (operators, "Operator16", 256),
    ):
        cls = getattr(module, name)
        assert issubclass(cls, linalg.ExactTuple) and cls.size == size
        members = _class_members(Path(module.__file__), name)
        assert "__repr__" in members
        assert members.isdisjoint(TUPLE_ARITHMETIC), (name, members)
    # the bench tracer patches these two by name on the class itself
    assert {"__matmul__", "apply"} <= _class_members(
        Path(operators.__file__), "Operator16"
    )
    # the entries cache lives with the tuples, and a form lists none
    assert not hasattr(linalg.Exact, "entries")
    assert not hasattr(linalg.Exact, "_nonzero")
    sources = sorted(Path(spin9.__file__).parent.glob("*.py"))
    assert "octonion.py" in {p.name for p in sources}
    found = [
        f"{path.name}:{n}"
        for path in sources
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bcoeff_(mul|conj)\b", line)
    ]
    assert found == []


def test_class_member_guard_sees_defs_and_assignments(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "class Octonion(ExactTuple):\n"
        "    size = 8\n"
        "    scale: object = None\n"
        "    def __sub__(self, other):\n"
        "        _raw = 1\n"
        "        return self\n"
        "    __hash__ = ExactTuple.__hash__\n"
        "def _raw():\n"
        "    pass\n"
    )
    # a local of a method and a function outside the class are not members
    assert _class_members(src, "Octonion") == {"size", "scale", "__sub__", "__hash__"}


SRC = Path(spin9.__file__).parent

# Runs argv[2] in a fresh interpreter with a profile hook set before its
# first import, then writes the (file, first line, name) of every Python
# function it called to argv[3]; the files are resolved, so that they
# compare with the paths of SRC however `sys.path` names the package.
PROFILE = r"""
import os, sys
code, out = sys.argv[2], sys.argv[3]
called = set()

def profile(frame, event, arg):
    if event == "call":
        f = frame.f_code
        called.add((f.co_filename, f.co_firstlineno, f.co_name))

sys.setprofile(profile)
exec(code, {})
sys.setprofile(None)
with open(out, "w") as fh:
    for path, line, name in sorted(called):
        fh.write(f"{os.path.realpath(path)}\t{line}\t{name}\n")
"""

# `verify --samples 1` reaches every function that the default run does,
# and the `--samples` parser besides
COMMANDS = r"""
import contextlib, io, os, tempfile
from spin9 import cli
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["verify", "--samples", "1"]), cli.main(["conjecture"])]
    for form in cli.EXPORT_FORMS:
        for fmt in ("json", "csv"):
            dest = os.path.join(out, f"{form}.{fmt}")
            codes.append(cli.main(["export", form, "--format", fmt, "--out", dest]))
if any(codes):
    raise SystemExit(f"a command failed: exit codes {codes}")
"""

# the functions in `src/` that no command reaches, each with its reason
REACH_ALLOWED = {
    "linalg.Exact.__setattr__": "the immutability guard: no command assigns",
    "linalg.Exact.__hash__": "the hash contract of equal values, which test_operators checks",
    "octonion.Octonion.__repr__": "pytest prints it on a failed assertion",
    "operators.Vector16.__repr__": "pytest prints it on a failed assertion",
    "operators.Operator16.__repr__": "pytest prints it on a failed assertion",
    "exterior.AlternatingForm.__repr__": "pytest prints it on a failed assertion",
    "exterior.AlternatingForm.zero": "reached by `monomial` on a repeated index and by `scale(0)`",
}


def _reached(code, tmp_path):
    """(resolved file, first line, name) of every function that a fresh
    interpreter calls while it runs code under the `PROFILE` hook."""
    out = tmp_path / "reached.tsv"
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE, "--", code, str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (line.split("\t") for line in out.read_text().splitlines())
    return {(path, int(line), name) for path, line, name in rows}


def _defs(path):
    """(qualified name, first line, name) of every def in path, nested ones
    included; a decorated def's code starts at its first decorator."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((prefix + child.name, first, child.name))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{prefix}{child.name}."
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.")
    return found


def _unreached(paths, reached):
    """Qualified names of the defs in paths that no call in reached entered."""
    return [
        qualname
        for path in paths
        for qualname, line, name in _defs(path)
        if (str(path.resolve()), line, name) not in reached
    ]


def test_every_function_in_src_is_reached_by_a_command(tmp_path):
    sources = sorted(SRC.glob("*.py"))
    assert {"cli.py", "bpt.py", "stabilizer.py"} <= {p.name for p in sources}
    assert len(REACH_ALLOWED) <= 7
    unreached = _unreached(sources, _reached(COMMANDS, tmp_path))
    # an allowed def that a command reaches is a stale entry
    assert sorted(unreached) == sorted(REACH_ALLOWED)


def test_reach_guard_flags_an_uncalled_def(tmp_path):
    pkg = tmp_path / "probe"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import functools\n"
        "\n"
        "@functools.cache\n"
        "def cached():\n"
        "    return helper()\n"
        "\n"
        "def helper():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner() + Box().used\n"
        "\n"
        "class Box:\n"
        "    @property\n"
        "    def used(self):\n"
        "        return 2\n"
        "\n"
        "    def unused(self):\n"
        "        return [lambda: 3 for _ in range(2)]\n"
        "\n"
        "def uncalled(): return 4\n"
    )
    code = f"import sys\nsys.path.insert(0, {str(tmp_path)!r})\nimport probe.mod\nprobe.mod.cached()\n"
    reached = _reached(code, tmp_path)
    # the decorated def is reached at its decorator line; the class body
    # and the module, though entered, reach no def of their name
    assert _unreached([pkg / "mod.py"], reached) == ["mod.Box.unused", "mod.uncalled"]


def _unused_imports(paths):
    """Lines of the modules in paths that import a name which the module
    never reads.  The package `__init__` is one of them: a name imported
    there only to be exported again is a second path to one function."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    found.append(f"{path.name}:{node.lineno} imports {bound}")
    return found


def test_every_import_in_src_is_read():
    sources = sorted(SRC.glob("*.py"))
    assert {"__init__.py", "octonion.py", "operators.py", "suites.py"} <= {
        p.name for p in sources
    }
    assert _unused_imports(sources) == []


def test_import_guard_flags_an_unused_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import ZERO\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from .linalg import exact_ratio, inner_product as inner\n"
        "ZERO = np.zeros(1)\n"
        "def f(x: Fraction):\n"
        "    import math\n"
        "    exact_ratio = 1\n"
        "\n"
        "inner = 2\n"
    )
    (tmp_path / "b.py").write_text("from .a import inner\n")
    # a re-export from `__init__` and a name imported from `a` by `b` are
    # no reads of either, and a name that is only assigned is not read
    assert _unused_imports(sorted(tmp_path.glob("*.py"))) == [
        "__init__.py:1 imports ZERO",
        "a.py:3 imports os",
        "a.py:5 imports exact_ratio",
        "a.py:5 imports inner",
        "a.py:8 imports math",
        "b.py:1 imports inner",
    ]
