"""No module of the package but dump.py calls json.dump or json.dumps.

Every JSON payload goes through dump.json_text, whose bytes are those of
json.dumps(payload, indent=2).  Every module of the package is parsed, so
a reference inside a function body is caught too: an attribute dump or
dumps read off a name bound to the json module, or either name imported
from json.
"""

import ast
from pathlib import Path

import plethy

PACKAGE = Path(plethy.__file__).parent
WRITERS = {"dump", "dumps"}


def json_writer_references(source: str) -> list:
    """The json writers a module references, as written."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in WRITERS
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"json.{a.name}" for a in node.names if a.name in WRITERS]
    return found


def test_the_check_sees_every_way_to_a_json_writer():
    source = (
        "import json\nimport json as j\nfrom json import dumps, loads\n"
        "def f(x):\n    return json.dumps(x), j.dump(x, None), json.loads(x)\n"
        "text = y.dumps\n"
    )
    assert sorted(json_writer_references(source)) == ["j.dump", "json.dumps", "json.dumps"]


def test_only_dump_references_a_json_writer():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "dump.py" in modules
    assert json_writer_references((PACKAGE / "dump.py").read_text(encoding="utf-8"))
    found = {
        path.name: refs
        for path in modules
        if path.name != "dump.py"
        and (refs := json_writer_references(path.read_text(encoding="utf-8")))
    }
    assert found == {}
