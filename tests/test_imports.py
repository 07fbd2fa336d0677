"""Every name a package module imports is used, and every public function has a caller.

No linter ships with the package's toolchain, so this stands in for two
checks. Each src/scmfpga/*.py but __init__.py (which imports to re-export) is
parsed with ast. An imported name that no expression of the module reads
fails the first check. A public top-level function or class, or a public
method or property of a public class, fails the second unless another
package module, bench/ or demos/ references it, its own module references it
outside its own body, or it is a test oracle on ORACLES, which a tests/*.py
file must reference. A method counts as referenced wherever an attribute of
its name is read.

A third check keeps layers built from arrays: only model.py, bench/ and the
test functions on NODE_LIST_CALLERS, which pin that path while the benchmark's
synthetic model uses it, call ScmNode(...) or ScmLayer(activation, nodes).

A fourth keeps each Q7.25 value rounded in one place: in the package, only
the functions on QUANTIZE_CALLERS call quantize_array.

A fifth keeps a model checked in one place, when it is built: in the
package, only ScmModel.__post_init__ calls .validate().

A sixth keeps training's float copies of its hidden outputs one block at a
time: train.py reads H in float64 only through linalg.row_blocks, so no
.astype call is made on a subscript of an attribute named H.

A seventh keeps the package's paths free of SVDs: it uses np.linalg only
through solve (an LU factorization) and norm, apart from the lstsq in
least_squares, the readout's test oracle, which no package function calls.

An eighth keeps the scalar oracles of tests/oracles.py apart from the batch
path: they import from scmfpga only Activation and fixedpoint's constants,
so they share no kernel with the code they check.

A ninth keeps per-value Decimal loops out of the package: no package module
imports decimal; fixedpoint.fx_to_decimal_string builds the exact decimal
strings of the outputs CSV from integers.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scmfpga"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")])

# public names that only the tests call, each kept as the oracle of a batch function
ORACLES = {"least_squares": "SVD least squares: the readout's test oracle"}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport json\nimport numpy as np\n"
              "from .bits import BitVec, WORD\n"
              "def f(x: BitVec) -> int:\n    return np.sum(x)\n")
    assert unused_imports(source) == ["line 2: json", "line 4: WORD"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names that tree reads, as a name, an attribute or an import, outside skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public(body: list[ast.stmt]) -> list[ast.FunctionDef | ast.ClassDef]:
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def uncalled(source: str, elsewhere: set[str]) -> list[str]:
    """Public top-level functions and classes of source, and public methods and
    properties of its public classes (as Class.name), that nothing references.

    elsewhere holds the names that the other modules and scripts reference.
    """
    tree = ast.parse(source)
    named = [(node.name, node) for node in _public(tree.body)]
    named += [(f"{cls.name}.{node.name}", node) for cls in _public(tree.body)
              if isinstance(cls, ast.ClassDef) for node in _public(cls.body)]
    return [name for name, node in named
            if node.name not in elsewhere and node.name not in referenced(tree, skip=node)]


def test_the_check_finds_an_uncalled_function():
    source = ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1) if n else used()\n"
              "def _private():\n    pass\n"
              "class Called:\n"
              "    def method(self):\n        return self.prop\n"
              "    @property\n    def prop(self):\n        return 1\n"
              "    def unread(self):\n        return self.unread()\n"
              "    def external(self):\n        pass\n"
              "    def _private(self):\n        pass\n"
              "def external():\n    pass\n"
              "X = Called().method()\n")
    assert uncalled(source, {"external"}) == ["recursive", "Called.unread"]


def test_every_public_function_has_a_caller():
    trees = {p: ast.parse(p.read_text()) for p in [*MODULES, *SCRIPTS]}
    flagged = []
    for path in MODULES:
        elsewhere = set().union(*(referenced(tree) for p, tree in trees.items() if p != path))
        flagged += [name for name in uncalled(path.read_text(), elsewhere) if name not in ORACLES]
    assert flagged == []


def test_every_oracle_is_a_public_name_of_the_package():
    defined = {node.name for path in MODULES for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(ORACLES) <= defined
    # an oracle that no test reads is as dead as an uncalled function
    tests = set().union(*(referenced(ast.parse(p.read_text()))
                          for p in (ROOT / "tests").glob("*.py")))
    assert set(ORACLES) - tests == set()


# test file -> its top-level functions that may call ScmNode or ScmLayer
NODE_LIST_CALLERS = {
    "test_modelfile.py": {"_packed", "test_a_node_refuses_a_bias_off_its_grid_value"},
}


def node_list_calls(source: str, allowed: set[str] = frozenset()) -> list[str]:
    """Calls of ScmNode or ScmLayer, by name or as an attribute, outside the
    top-level functions named in allowed. ScmLayer.from_arrays is not one."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = _called(node)
                if name in ("ScmNode", "ScmLayer"):
                    found.append(f"line {node.lineno}: {name}")
    return found


def _called(call: ast.Call) -> str | None:
    """The name a call calls, by name or as an attribute."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_the_check_finds_a_node_list_constructor():
    source = ("import scmfpga as s\nfrom scmfpga.model import ScmLayer, ScmNode\n"
              "def pin():\n    return ScmLayer(1, [ScmNode()])\n"
              "def other():\n    return s.ScmLayer(1, [])\n"
              "def arrays():\n    return ScmLayer.from_arrays(1, w, shift, bias, beta, raw)\n")
    assert node_list_calls(source) == ["line 4: ScmLayer", "line 4: ScmNode", "line 6: ScmLayer"]
    assert node_list_calls(source, {"pin"}) == ["line 6: ScmLayer"]


def test_layers_are_built_from_arrays_outside_the_benchmark_path():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "model.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    flagged = {p.name: node_list_calls(p.read_text(), NODE_LIST_CALLERS.get(p.name, set()))
               for p in files}
    assert {name: calls for name, calls in flagged.items() if calls} == {}


# package module -> its functions (methods as Class.name) that may call quantize_array
QUANTIZE_CALLERS = {
    "mechanism.py": {"MechanismModel.__post_init__"},  # the mechanism's raw values
    "model.py": {"ScmLayer._hold"},  # a layer's raw readouts
    "modelfile.py": {"_bias_pair"},  # a JSON bias given alone (a layer keeps only raws)
    "train.py": {"add_node"},  # the candidates' bias draws
}


def _scopes(source: str) -> list[tuple[str, ast.AST]]:
    """(name, top-level statement or method) over source, a class by its methods."""
    scopes = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            scopes += [(f"{top.name}.{getattr(node, 'name', '')}", node) for node in top.body]
        else:
            scopes.append((getattr(top, "name", "module level"), top))
    return scopes


def calls_of(callee: str, source: str, allowed: set[str] = frozenset()) -> list[str]:
    """Calls of callee, by name or as an attribute, outside the top-level
    functions and the methods (as Class.name) named in allowed."""
    return [f"line {node.lineno}: {name}" for name, scope in _scopes(source) if name not in allowed
            for node in ast.walk(scope)
            if isinstance(node, ast.Call) and _called(node) == callee]


def test_the_check_finds_a_quantize_call():
    source = ("from . import fixedpoint as fx\n"
              "class Model:\n"
              "    def __post_init__(self):\n        self.raw = fx.quantize_array(self.w)\n"
              "    def again(self):\n        return quantize_array(self.w)[1]\n"
              "def draw(x):\n    return fx.quantize_array(x)\n"
              "RAW = fx.quantize_array([0.5])\n")
    assert calls_of("quantize_array", source) == [
        "line 4: Model.__post_init__", "line 6: Model.again", "line 8: draw",
        "line 9: module level"]
    assert calls_of("quantize_array", source, {"Model.__post_init__", "draw"}) == [
        "line 6: Model.again", "line 9: module level"]


def test_values_are_rounded_to_q725_only_where_they_are_made():
    flagged = {p.name: calls_of("quantize_array", p.read_text(),
                                QUANTIZE_CALLERS.get(p.name, set()))
               for p in PACKAGE.glob("*.py")}
    assert {name: calls for name, calls in flagged.items() if calls} == {}


# package module -> its methods that may call validate
VALIDATE_CALLERS = {"model.py": {"ScmModel.__post_init__"}}  # a model checks itself once


def test_the_check_finds_a_validate_call():
    source = ("class Model:\n"
              "    def __post_init__(self):\n        self.validate()\n"
              "    def validate(self):\n        pass\n"
              "def write(model):\n    model.validate()\n    return b''\n")
    assert calls_of("validate", source) == ["line 3: Model.__post_init__", "line 7: write"]
    assert calls_of("validate", source, {"Model.__post_init__"}) == ["line 7: write"]


def test_a_model_is_validated_only_when_it_is_built():
    flagged = {p.name: calls_of("validate", p.read_text(), VALIDATE_CALLERS.get(p.name, set()))
               for p in PACKAGE.glob("*.py")}
    assert {name: calls for name, calls in flagged.items() if calls} == {}


def hidden_output_casts(source: str) -> list[str]:
    """.astype calls on a subscript of an attribute named H, such as self.H[rows]."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype" and isinstance(node.func.value, ast.Subscript)
            and getattr(node.func.value.value, "attr", None) == "H"]


def test_the_check_finds_a_float_copy_of_the_hidden_outputs():
    source = ("import numpy as np\n"
              "a = self.H[rows, cols].astype(np.float64)\n"
              "b = state.H[:n].astype(np.float32, copy=False)\n"
              "c = H[rows].astype(np.float64)\nd = self.H.astype(np.float64)\n"
              "e = h[:n].astype(np.float64)\nf = row_blocks(self.H[:, :k])\n")
    assert hidden_output_casts(source) == ["line 2", "line 3"]


def test_training_reads_its_hidden_outputs_through_row_blocks():
    source = (PACKAGE / "train.py").read_text()
    assert "row_blocks(self.H" in source and hidden_output_casts(source) == []


# package module -> its functions that may use an np.linalg routine other than solve and norm
LINALG_USERS = {"linalg.py": {"least_squares"}}  # lstsq, in the readout's SVD test oracle


def svd_uses(source: str, allowed: set[str] = frozenset()) -> list[str]:
    """Reads of np.linalg (or numpy.linalg) routines other than solve and norm,
    imports from numpy.linalg, and calls of least_squares, outside the
    top-level functions and the methods (as Class.name) named in allowed."""
    found = []
    for name, scope in _scopes(source):
        if name in allowed:
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and node.attr not in ("solve", "norm") \
                    and ast.unparse(node.value) in ("np.linalg", "numpy.linalg"):
                found.append(f"line {node.lineno}: {name} reads np.linalg.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found.append(f"line {node.lineno}: {name} imports from numpy.linalg")
            elif isinstance(node, ast.Call) and _called(node) == "least_squares":
                found.append(f"line {node.lineno}: {name} calls least_squares")
    return found


def test_the_check_finds_an_svd():
    source = ("import numpy as np\n"
              "def fit(g, c):\n    return np.linalg.solve(g, c) / np.linalg.norm(c)\n"
              "def least_squares(h, t):\n    return np.linalg.lstsq(h, t, rcond=None)[0]\n"
              "class Readout:\n    def start(self, g):\n        return np.linalg.svd(g)\n"
              "    def warm(self, g, c):\n        return linalg.least_squares(g, c)\n"
              "from numpy.linalg import pinv\n")
    assert svd_uses(source) == [
        "line 5: least_squares reads np.linalg.lstsq", "line 8: Readout.start reads np.linalg.svd",
        "line 10: Readout.warm calls least_squares",
        "line 11: module level imports from numpy.linalg"]
    assert svd_uses(source, {"least_squares"}) == [
        "line 8: Readout.start reads np.linalg.svd", "line 10: Readout.warm calls least_squares",
        "line 11: module level imports from numpy.linalg"]


def test_the_package_runs_no_svd():
    flagged = {p.name: svd_uses(p.read_text(), LINALG_USERS.get(p.name, set()))
               for p in PACKAGE.glob("*.py")}
    assert {name: found for name, found in flagged.items() if found} == {}


# the names tests/oracles.py may import from scmfpga: data types and constants, no kernel
ORACLE_IMPORTS = {"Activation", "FRAC_BITS", "RAW_MIN", "RAW_MAX", "SCALE"}


def package_imports(source: str, allowed: set[str] = frozenset(),
                    top: str = "scmfpga") -> list[str]:
    """Imports of the package top or its modules, and names imported from them,
    but those in allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == top]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == top:
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name not in allowed]
    return found


def test_the_check_finds_a_kernel_import_in_the_oracles():
    source = ("import math\nfrom scmfpga.fixedpoint import FRAC_BITS, RAW_MAX\n"
              "from scmfpga.emulate import _layer_bits\nfrom scmfpga import fixedpoint as fx\n"
              "import scmfpga.model\nfrom scmfpga.model import Activation\n")
    assert package_imports(source, ORACLE_IMPORTS) == [
        "line 3: _layer_bits", "line 4: fixedpoint", "line 5: scmfpga.model"]


def test_the_oracles_share_no_kernel_with_the_package():
    source = (ROOT / "tests" / "oracles.py").read_text()
    assert package_imports(source) and package_imports(source, ORACLE_IMPORTS) == []


# package modules that may import decimal
DECIMAL_USERS: set[str] = set()


def test_the_check_finds_a_decimal_import():
    source = ("import numpy as np, decimal as dec\nfrom decimal import Decimal, ROUND_DOWN\n"
              "import fractions\nfrom .bits import WORD\n"
              "def digits(v):\n    import decimal\n    return decimal.Decimal(repr(v))\n")
    assert package_imports(source, top="decimal") == [
        "line 1: decimal", "line 2: Decimal", "line 2: ROUND_DOWN", "line 6: decimal"]


def test_no_package_module_but_fixedpoint_imports_decimal():
    flagged = {p.name: package_imports(p.read_text(), top="decimal")
               for p in PACKAGE.glob("*.py") if p.name not in DECIMAL_USERS}
    assert {name: found for name, found in flagged.items() if found} == {}
    # an allowance that no module needs any longer goes too
    assert all(package_imports((PACKAGE / name).read_text(), top="decimal")
               for name in DECIMAL_USERS)
