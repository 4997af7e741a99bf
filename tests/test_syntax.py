"""Every Python file of the project parses as Python 3.10, the supported minimum.

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
