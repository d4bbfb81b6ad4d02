"""Every demo script runs and prints exactly what it printed before.

Each script under demos/ runs in a fresh interpreter with the package on
PYTHONPATH; the sha256 of its stdout is pinned, so a change to the
package that alters any printed value fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "character_identities": "ee44e68f7b12c9a49e9bf4e1f674b81112c99fa0f421a196828ff6bb9ad4abd4",
    "map_tour": "8dd9bc09e410fb1289e267387effee3a67283f4c2c496dc95ba588ceb24b7ea0",
    "modular_fingerprints": "b5a8b6cd5ffec69ffd968f5d54093a889ce462e53967e5e660db46cca9f3c3aa",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
        timeout=300,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[name]
