"""No private function, method or class of the package goes unnamed.

Every module of the package is parsed.  A private name starts with one
underscore and is not a dunder; it counts as named when any Name node
reads it or any attribute chain ends in it, in any module of the package.
The tests do not count: a helper that only a test calls is dead code in
the package.
"""

import ast
from pathlib import Path

import plethy

PACKAGE = Path(plethy.__file__).parent

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unnamed_private_definitions(sources: dict) -> list:
    """(module, name) for each private definition in the modules, given as
    module name to source, whose name no node of any of them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    defined = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, DEFINITIONS) and _is_private(node.name):
                defined.append((module, node.name))
    return sorted((module, name) for module, name in defined if name not in named)


def test_the_check_sees_unnamed_private_definitions():
    sources = {
        "a": (
            "class _Hidden:\n    pass\n"
            "class Public:\n"
            "    def __init__(self):\n        self._helper()\n"
            "    def _helper(self):\n        pass\n"
            "    def _dead(self):\n        pass\n"
            "def _used():\n    pass\n"
            "def _unused():\n    return _used()\n"
            "def _elsewhere():\n    pass\n"
        ),
        "b": "from a import _elsewhere\n\ndef f():\n    return _elsewhere()\n",
    }
    assert unnamed_private_definitions(sources) == [
        ("a", "_Hidden"),
        ("a", "_dead"),
        ("a", "_unused"),
    ]


def test_every_private_definition_is_named_in_the_package():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert len(sources) > 2
    assert unnamed_private_definitions(sources) == []
