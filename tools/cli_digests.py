#!/usr/bin/env python3
"""Print digests of what a checkout's command line and demos print.

Usage: python3 tools/cli_digests.py CHECKOUT

Runs a fixed list of commands, each in a fresh interpreter started in
CHECKOUT with ``CHECKOUT/src`` on the path and ``POLYFLAG_MAX_COSETS``
unset: ``python -m polyflag --json`` on a set of ``construct`` families,
``analyze`` on every corpus file and the three ``verify`` suites, then
each script in ``demos/``.  Each line gives the command, its exit code
and the first 16 hex digits of the SHA-256 of its stdout and of its
stderr.  Run it on two checkouts (say, a ``git archive`` of the parent
commit and the working tree) and diff the output: a change that keeps
every report byte for byte leaves it unchanged.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

CONSTRUCT = (
    "torus44 1 2", "torus44 2 1", "torus44 3 5", "torus44 2 0",
    "torus44 1 1", "torus36 1 2", "torus36 4 7", "torus63 2 1", "hemi",
    "lambda 6 3 3", "amalgam coxeter:4,3 torus36:1,1", "named 4-cube",
    "coxeter 3 3",
)
VERIFY = ("table2", "table3", "props")


def commands(root):
    """(label, argv) pairs, in a fixed order."""
    cli = [sys.executable, "-m", "polyflag", "--json"]
    out = [(f"construct {params}", cli + ["construct", *params.split()])
           for params in CONSTRUCT]
    corpus = root / "src" / "polyflag" / "corpus"
    out += [(f"analyze {path.stem}", cli + ["analyze", str(path)])
            for path in sorted(corpus.glob("*.txt"))]
    out += [(f"verify {suite}", cli + ["verify", suite]) for suite in VERIFY]
    out += [(f"demo {path.stem}", [sys.executable, str(path)])
            for path in sorted((root / "demos").glob("*.py"))]
    return out


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/cli_digests.py CHECKOUT",
              file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    env = {k: v for k, v in os.environ.items()
           if k not in ("POLYFLAG_MAX_COSETS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    for label, cmd in commands(root):
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              timeout=600)
        print(f"{label}\texit {done.returncode}"
              f"\tstdout {digest(done.stdout)}\tstderr {digest(done.stderr)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
