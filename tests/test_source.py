"""Static checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zenoslh"


def _redefined(body, prefix):
    """Names of functions and classes defined twice in ``body``, recursing
    into class bodies for their methods."""
    seen, twice = set(), []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                twice.append(prefix + node.name)
            seen.add(node.name)
            if isinstance(node, ast.ClassDef):
                twice += _redefined(node.body, f"{prefix}{node.name}.")
    return twice


def test_no_module_defines_a_name_twice():
    twice = []
    for path in sorted(SRC.glob("*.py")):
        twice += _redefined(ast.parse(path.read_text(), str(path)).body, f"{path.stem}.")
    assert twice == []
