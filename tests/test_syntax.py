"""Every Python file of the project parses as Python 3.10, the supported
minimum, no library module imports a name it never uses, and every private
function, method and class of the library is used in the library.

``ast.parse`` with ``feature_version=(3, 10)`` rejects the syntax that later
versions added (``except*``, PEP 695 type parameters, ...), so this holds on
whatever newer interpreter runs the suite.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "bench", "tests") for p in (ROOT / d).rglob("*.py"))


def parse_310(source: str, filename: str = "<snippet>") -> ast.Module:
    return ast.parse(source, filename, feature_version=(3, 10))


def test_sources_parse_as_python_310():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "bench", "tests"}
    for path in SOURCES:
        parse_310(path.read_text(encoding="utf-8"), str(path))


def test_later_syntax_is_rejected():
    parse_310("try:\n    pass\nexcept ValueError:\n    pass\n")
    with pytest.raises(SyntaxError):
        parse_310("try:\n    pass\nexcept* ValueError:\n    pass\n")


def test_library_modules_use_every_name_they_import():
    """``__init__.py`` imports to re-export, and ``from __future__`` imports
    switch on features, so both are exempt."""
    unused = []
    for path in sorted((ROOT / "src" / "coloredfans").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse_310(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert unused == []


def test_every_private_definition_is_referenced_in_the_library():
    """A function, method or class under ``src/`` whose name starts with one
    underscore is named somewhere in ``src/`` besides its definition, as a
    name or an attribute, so that a helper that was replaced does not
    linger.  Tests may call private helpers, but they do not count."""
    defined, named = {}, set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = parse_310(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert len(defined) > 50
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in named) == []
