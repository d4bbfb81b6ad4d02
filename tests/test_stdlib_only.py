"""The package imports nothing beyond the standard library.

Every module of plethy is parsed, so an import inside a function body is
caught too, even when that function never runs in the suite.
"""

import ast
import sys
from pathlib import Path

import plethy

PACKAGE = Path(plethy.__file__).parent


def foreign_imports(source: str) -> list:
    """Top-level names of the absolute imports that are neither the standard
    library nor plethy itself."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = (name.partition(".")[0] for name in names)
    return [t for t in tops if t != "plethy" and t not in sys.stdlib_module_names]


def test_the_check_sees_nested_imports():
    source = "import json\nfrom . import rings\ndef f():\n    import numpy.linalg\n"
    assert foreign_imports(source) == ["numpy"]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = {
        path.name: bad
        for path in modules
        if (bad := foreign_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
