"""Every fenced python block of the README runs as written.

Each block is executed in a fresh namespace, so a snippet that uses a
deleted or renamed public name fails here.
"""

import re
from pathlib import Path

import pytest

from plethy import iso_context

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("n", range(len(BLOCKS)))
def test_readme_python_block_runs(n):
    exec(compile(BLOCKS[n], f"README.md python block {n}", "exec"), {})


def test_the_library_example_builds_its_context_once():
    (block,) = [b for b in BLOCKS if "iso_context" in b]
    iso_context.cache_clear()
    exec(compile(block, "README.md library block", "exec"), {})
    info = iso_context.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
