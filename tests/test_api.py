"""The package exports only what it runs: every name in a module's
``__all__`` is used by the package itself or by the benchmark (``perfbench``),
not only by tests. Code that only tests call belongs in ``tests/helpers.py``.

A use is a name read or an attribute taken anywhere in
``src/distillfuse/*.py`` or ``perfbench/*.py``; definitions, imports and
``__all__`` entries are not uses.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "distillfuse"
MODULES = sorted(PACKAGE.glob("*.py"))
EXEMPT = {"__version__"}


@functools.lru_cache(maxsize=None)
def _used_names() -> frozenset[str]:
    used = set()
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return frozenset(used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_used_outside_tests(path):
    name = "distillfuse" if path.stem == "__init__" else f"distillfuse.{path.stem}"
    exported = set(getattr(importlib.import_module(name), "__all__", ()))
    unused = sorted(exported - _used_names() - EXEMPT)
    assert not unused, f"{name} exports names nothing but tests use: {unused}"
