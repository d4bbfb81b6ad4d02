"""No check in the package is an assert statement or an AssertionError.

`python -O` strips assert statements, and an AssertionError escapes the
command line as a traceback.  A broken invariant raises ConsistencyError,
which every command reports and which no optimization flag removes.
"""

import ast
from pathlib import Path

import plethy

PACKAGE = Path(plethy.__file__).parent


def asserts(source: str) -> list:
    """Line numbers of the assert statements and AssertionError names."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    )


def test_the_check_sees_asserts_and_assertion_errors():
    source = (
        "def f(x):\n    assert x\n    if not x:\n"
        "        raise AssertionError('no')\n    return 'assert x'\n"
    )
    assert asserts(source) == [2, 4]


def test_no_module_asserts():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 2
    found = {
        path.name: lines
        for path in modules
        if (lines := asserts(path.read_text(encoding="utf-8")))
    }
    assert found == {}
