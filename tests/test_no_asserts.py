"""No check in the library is an ``assert``: ``python -O`` strips asserts,
so every check raises an error class of ``dadim.errors`` instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dadim"


def _assert_lines(tree) -> list:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_asserts_in_the_library(path):
    assert _assert_lines(ast.parse(path.read_text())) == []


def test_the_guard_sees_asserts():
    code = "assert x\ndef f():\n    assert y, 'msg'\nclass C:\n    z = 1\n"
    assert _assert_lines(ast.parse(code)) == [1, 3]
