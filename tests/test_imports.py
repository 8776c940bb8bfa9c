"""Every name a toolgrid module imports is used in that module, and every
import sits at module level.

Stdlib stand-ins for two linter rules. The unused-import rule (F401): an
import that a refactor left behind fails here. A statement marked
``# noqa: F401`` is skipped, and so is ``from __future__``; a package's
``__all__`` counts as use. The import-outside-toplevel rule (PLC0415): an
import inside a function body fails here unless it is marked
``# noqa: PLC0415``, which is kept for breaking a real import cycle.
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
