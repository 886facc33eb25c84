"""Every module of the package imports at module level only.

An import inside a function body hides an import cycle until that function
runs; this check keeps the cycle from coming back unnoticed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ufm"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = sorted({f"{path.name}:{node.lineno}"
                     for func in ast.walk(tree)
                     if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(func)
                     if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert not nested, f"imports inside a function body: {nested}"
