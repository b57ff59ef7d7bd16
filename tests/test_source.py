"""Checks on the library source itself."""

import ast
from pathlib import Path

import genlink


def test_no_bare_assert_in_library():
    # `python -O` strips assert statements, so a check kept in one is skipped.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(genlink.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
