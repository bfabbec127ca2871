"""Inventory of the settable options: parameters with defaults on public functions.

Caps, precisions and search limits are module constants, not parameters.
The only values a caller can pass to change a budget are the four oracle
timeouts; ``cli.main`` takes its argument vector. The package's runtime
checks are explicit raises, never ``assert``, which ``python -O`` strips.
Every public function, and every public method of a public class, has a
reader: code in the package, the package's exports, or README. No module
imports another module's private names, but for the one exception the test
names.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import intersective

EXPECTED = {
    "engine.best_bounds.oracle_timeout",
    "oracle.exact_avoidance.timeout",
    "oracle.max_independent_set.timeout",
    "constructions.product_lower_bound.timeout",
    "cli.main.argv",
}


# Public functions and methods that nothing reads yet; each needs a decision, not
# a pass. Only tests read these methods: ROADMAP direction 10 moves such methods
# into test helpers or deletes them.
UNREAD: set[str] = {
    "constructions.ConstructionInstance.iter_support",
    "constructions.ConstructionInstance.weight_polynomial",
    "cyclotomic.IntPolynomial.evaluate",
    "cyclotomic.IntPolynomial.monomial",
    "engine.BoundReport.method_value",
    "spectral.ComplexBall.contains_real",
    "spectral.ComplexBall.im",
    "spectral.ComplexBall.real_interval",
    "spectral.WeightFunction.is_symmetric",
}

SRC = Path(intersective.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _public_functions():
    """(module name, function name, function) for every public module-level
    function defined in the package."""
    for info in pkgutil.iter_modules(intersective.__path__):
        module = importlib.import_module(f"intersective.{info.name}")
        for name, fn in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(fn) \
                    and fn.__module__ == module.__name__:
                yield info.name, name, fn


def _public_methods():
    """(module name, class name, attribute name) for every public function,
    classmethod, staticmethod and property of a public class defined in the package."""
    for info in pkgutil.iter_modules(intersective.__path__):
        module = importlib.import_module(f"intersective.{info.name}")
        for cname, cls in vars(module).items():
            if cname.startswith("_") or not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for name, attr in vars(cls).items():
                if not name.startswith("_") and (inspect.isfunction(attr) or isinstance(
                        attr, (classmethod, staticmethod, property))):
                    yield info.name, cname, name


def _defaulted_parameters() -> set[str]:
    return {f"{module}.{name}.{p.name}" for module, name, fn in _public_functions()
            for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty}


def test_only_timeouts_are_settable():
    assert _defaulted_parameters() == EXPECTED


def test_every_public_function_has_a_reader():
    # read in the package (a name or attribute anywhere in src/, so a
    # dispatch table counts), exported by intersective, or named in README
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    documented = set(re.findall(r"\w+", README.read_text()))
    known = read | set(intersective.__all__) | documented
    unread = {f"{module}.{name}" for module, name, _ in _public_functions() if name not in known}
    unread |= {f"{module}.{cls}.{name}" for module, cls, name in _public_methods()
               if name not in known}
    assert unread == UNREAD


def test_no_assert_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _is_float_call(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id in ("float", "complex")
    return (isinstance(func, ast.Attribute) and func.attr in ("hypot", "log2")
            and isinstance(func.value, ast.Name) and func.value.id == "math")


def test_spectral_has_no_float():
    # sign decisions use exact integer balls only: no float constant, no true
    # division and no conversion to float or complex anywhere in the module
    path = SRC / "spectral.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Call) and _is_float_call(node.func)):
            found.append(f"spectral.py:{node.lineno}")
    assert found == []


def test_private_names_stay_in_their_module():
    # a private name imported by a sibling module means one concept lives in two
    # places; the CLI's use of the verified construction builder is the one exception
    imported: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                    "intersective")):
                source = (node.module or "").removeprefix("intersective.")
                for alias in node.names:
                    if alias.name.startswith("_"):
                        imported.setdefault(path.stem, set()).add(f"{source}.{alias.name}")
    assert imported == {"cli": {"constructions._build_verified"}}
