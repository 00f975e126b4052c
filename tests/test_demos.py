"""The demos run cleanly and print exactly what they printed when pinned.

Each demo runs in a fresh interpreter from the repository root with
``src`` on the path and no coset cap in the environment; its standard
output is compared by the first 16 hex digits of its SHA-256.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "chirality_and_bounds": "44d198da5c21a5bc",
    "coset_enumeration_tour": "a60e3f28cd80b5df",
    "flatness_and_tightness": "ffdb2db76d26f913",
    "simplex_extensions_table": "2eb2bd93b5b6aeb5",
    "string_c_groups": "5ff668c9cac75386",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_pinned(name):
    env = {k: v for k, v in os.environ.items()
           if k != "POLYFLAG_MAX_COSETS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest()[:16] == DIGESTS[name]
