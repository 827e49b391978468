"""Source-level properties of the package."""

import ast
from pathlib import Path

import bpsing


def test_no_assert_statements():
    # invariant checks must survive python -O, which strips asserts
    found = []
    for path in sorted(Path(bpsing.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
