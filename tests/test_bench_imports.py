"""Every ``planwright`` name that ``bench/*.py`` and ``scripts/*.py`` use still resolves.

The benchmark and the fixture scripts import the program from outside it. A
rename or deletion in ``src/`` would otherwise surface only when they run: a
benchmark item that raises counts as crashed, and the run reads as failed.
Each file is scanned with `ast`, not run. Two uses are checked:

- ``from planwright… import X``: the module has the attribute ``X``, or a
  submodule of that name imports;
- an attribute chain on a name bound to a ``planwright`` module, by
  ``import planwright…`` or ``from planwright… import module``, such as
  ``jsonio.problem_from_json``: each step resolves while it reaches a module.

`tests/test_tracing_targets.py` checks the functions the tracer names in
strings.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import ModuleType
from typing import Any, Iterator

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_FILES = sorted([*_ROOT.glob("bench/*.py"), *_ROOT.glob("scripts/*.py")])
_MISSING = object()


def _is_planwright(module: str) -> bool:
    return module == "planwright" or module.startswith("planwright.")


def _member(module: ModuleType, name: str) -> Any:
    """``module.name``, or the submodule of that name, or `_MISSING`."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return _MISSING


def _bindings(tree: ast.AST) -> Iterator[tuple[str, str, Any]]:
    """(name bound, what it names, object) for each ``planwright`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and _is_planwright(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                yield alias.asname or alias.name, f"{node.module}.{alias.name}", _member(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_planwright(alias.name):
                    importlib.import_module(alias.name)
                    top = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else top
                    yield top, target, importlib.import_module(target)


def _chains(tree: ast.AST) -> Iterator[tuple[str, list[str]]]:
    """(base name, attribute names) of each outermost attribute chain."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                yield node.id, attrs[::-1]


def unresolved(path: Path) -> list[str]:
    """The ``planwright`` names ``path`` uses that do not resolve."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, missing = {}, []
    for name, target, value in _bindings(tree):
        if value is _MISSING:
            missing.append(target)
        else:
            bound[name] = (target, value)
    for base, attrs in _chains(tree):
        if base not in bound:
            continue
        target, value = bound[base]
        for attr in attrs:
            if not isinstance(value, ModuleType):
                break
            target, value = f"{target}.{attr}", _member(value, attr)
            if value is _MISSING:
                missing.append(target)
                break
    return missing


@pytest.mark.parametrize("path", _FILES, ids=[f"{p.parent.name}/{p.name}" for p in _FILES])
def test_planwright_names_resolve(path):
    assert unresolved(path) == []


def test_the_scan_sees_the_names_that_matter(tmp_path):
    assert any(p.name == "workloads.py" for p in _FILES)
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import planwright.cli\n"
        "from planwright.ir import jsonio, no_such_name\n"
        "from planwright.planner import Plan\n"
        "jsonio.problem_from_json(1)\n"
        "jsonio.domain_from_json(1)\n"
        "planwright.cli.main\n"
        "planwright.cli.no_such_function\n"
        "Plan.not_checked\n"
    )
    assert sorted(unresolved(probe)) == ["planwright.cli.no_such_function", "planwright.ir.jsonio.domain_from_json", "planwright.ir.no_such_name"]
