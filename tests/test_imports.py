"""Every name a toolgrid module imports is used in that module, every
import sits at module level, and no private definition is dead.

Stdlib stand-ins for three linter rules. The unused-import rule (F401): an
import that a refactor left behind fails here. A statement marked
``# noqa: F401`` is skipped, and so is ``from __future__``; a package's
``__all__`` counts as use. The import-outside-toplevel rule (PLC0415): an
import inside a function body fails here unless it is marked
``# noqa: PLC0415``, which is kept for breaking a real import cycle. The
dead-code rule (as vulture has it): a ``_``-prefixed function, method or class
that nothing in the package names fails here; dunder methods are exempt.
"""

import ast
from pathlib import Path

import pytest

import toolgrid

MODULES = sorted(Path(toolgrid.__file__).resolve().parent.glob("*.py"))


def marked(lines: list[str], node: ast.stmt, code: str) -> bool:
    return any(f"# noqa: {code}" in line
               for line in lines[node.lineno - 1:node.end_lineno])


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (marked(lines, node, "F401")
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path) == []


def nested_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and not marked(lines, node, "PLC0415")):
                found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_at_module_level(path):
    assert nested_imports(path) == []


def test_the_nested_import_check_sees_a_function_body(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def f():\n    import os\n    return os\n\n\n"
                      "def g():\n    import sys  # noqa: PLC0415\n    return sys\n")
    assert nested_imports(module) == ["sample.py:2"]


def unnamed_private_definitions(paths: list[Path]) -> list[str]:
    """Each ``_``-prefixed function, method or class defined in ``paths``
    whose name appears nowhere in ``paths`` but in its own definition."""
    defined: list[tuple[str, str]] = []
    named: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{where} {name}" for where, name in defined if name not in named]


def test_every_private_definition_is_named_elsewhere():
    assert unnamed_private_definitions(MODULES) == []


def test_the_dead_code_check_sees_an_unnamed_definition(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def _used():\n    return 1\n\n\n"
                      "def _dead():\n    return _used()\n\n\n"
                      "class _Gone:\n    def __init__(self):\n        pass\n\n"
                      "    def _helper(self):\n        return self\n\n\n"
                      "class Kept:\n    def run(self):\n        return self._helper()\n")
    assert unnamed_private_definitions([module]) == ["sample.py:5 _dead",
                                                     "sample.py:9 _Gone"]
