"""No module of the package or of the tests imports a name it never uses.

Every module is parsed, and a name counts as used when any Name node
reads it, the base of an attribute chain included.  The package
__init__ modules are exempt: their imports are the public re-exports.
"""

import ast
from pathlib import Path

import plethy

PACKAGE = Path(plethy.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by the imports of a module that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\nimport os.path as osp\nfrom math import prod, gcd\n"
        "def f():\n    import json\n    return sys.argv, prod(os.sep)\n"
    )
    assert sorted(unused_imports(source)) == ["gcd", "json", "osp"]


def test_no_module_imports_an_unused_name():
    modules = [
        path
        for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(modules) > 2
    found = {
        path.name: names
        for path in modules
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
