"""Every fenced python block of the README runs as written.

Each block is executed in a fresh namespace, so a snippet that uses a
deleted or renamed public name fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("n", range(len(BLOCKS)))
def test_readme_python_block_runs(n):
    exec(compile(BLOCKS[n], f"README.md python block {n}", "exec"), {})
