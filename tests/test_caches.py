"""The shared fixture clears every per-process cache the package keeps."""

import importlib
import pkgutil

import intersective
from conftest import PER_PROCESS_CACHES


def test_fixture_clears_every_cache():
    found = {}
    for info in pkgutil.iter_modules(intersective.__path__):
        module = importlib.import_module(f"intersective.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and not isinstance(obj, type):
                found[id(obj)] = f"{info.name}.{name}"
    cleared = {id(c) for c in PER_PROCESS_CACHES}
    assert [name for key, name in found.items() if key not in cleared] == []
    assert cleared <= set(found)
