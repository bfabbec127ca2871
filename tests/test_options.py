"""Inventory of the settable options: parameters with defaults on public functions.

Caps, precisions and search limits are module constants, not parameters.
The only values a caller can pass to change a budget are the four oracle
timeouts; ``cli.main`` takes its argument vector. The package's runtime
checks are explicit raises, never ``assert``, which ``python -O`` strips.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import intersective

EXPECTED = {
    "engine.best_bounds.oracle_timeout",
    "oracle.exact_avoidance.timeout",
    "oracle.max_independent_set.timeout",
    "constructions.product_lower_bound.timeout",
    "cli.main.argv",
}


def _defaulted_parameters() -> set[str]:
    found = set()
    for info in pkgutil.iter_modules(intersective.__path__):
        module = importlib.import_module(f"intersective.{info.name}")
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            for p in inspect.signature(fn).parameters.values():
                if p.default is not inspect.Parameter.empty:
                    found.add(f"{info.name}.{name}.{p.name}")
    return found


def test_only_timeouts_are_settable():
    assert _defaulted_parameters() == EXPECTED


def test_no_assert_in_src():
    found = []
    for path in sorted(Path(intersective.__file__).parent.glob("*.py")):
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
    path = Path(intersective.__file__).parent / "spectral.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Call) and _is_float_call(node.func)):
            found.append(f"spectral.py:{node.lineno}")
    assert found == []
