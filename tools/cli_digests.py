#!/usr/bin/env python3
"""Print digests of what a checkout's command line and demos print.

Usage: python3 tools/cli_digests.py CHECKOUT

Runs a fixed list of commands, each in a fresh interpreter started in
CHECKOUT with ``CHECKOUT/src`` on the path and ``POLYFLAG_MAX_COSETS``
unset: ``python -m polyflag --json`` on a set of ``construct`` families,
on ``construct --help`` and on two unknown families; ``analyze`` on
every corpus file and on nine small presentations (written to a
temporary directory: five that each fail one shape condition, a rotation
group that fails the intersection condition, so the rotation report's
witness is digested too, and the rotation groups of {3,3,3}, {3,3,3,3}
and {4,3,3,3}, whose reports classify rank-4 and rank-5 facets and
vertex-figures); the three ``verify`` suites and ``verify table3 --rank
4``; then each script in ``demos/``.  Each line gives the command, its
exit code and the first 16 hex digits of the SHA-256 of its stdout and
of its stderr.  Run it on two checkouts (say, a ``git archive`` of the
parent commit and the working tree) and diff the output: a change that
keeps every report byte for byte leaves it unchanged.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONSTRUCT = (
    "torus44 1 2", "torus44 2 1", "torus44 3 5", "torus44 2 0",
    "torus44 1 1", "torus36 1 2", "torus36 4 7", "torus63 2 1", "hemi",
    "lambda 6 3 3", "amalgam coxeter:4,3 torus36:1,1", "named 4-cube",
    "coxeter 3 3", "--help", "bogus", "amalgam bogus:1 coxeter:3,3",
)
VERIFY = ("table2", "table3", "props", "table3 --rank 4")
# one presentation per shape message, one rotation group that is not a
# string C+-group, and three rotation groups of rank 4 and 5 with
# sections to classify: name -> file text
SMALL_INPUTS = {
    "non-involution": "rank 2\nkind reflection\nrel r0^3\nrel r1^2\n"
                      "rel (r0 r1)^2\n",
    "non-commuting": "rank 3\nkind reflection\nrel r0^2\nrel r1^2\n"
                     "rel r2^2\nrel (r0 r1)^2\nrel (r1 r2)^2\n"
                     "rel (r0 r2)^3\n",
    "collapse": "rank 3\nkind reflection\nschlafli 2 2\nrel r1\n",
    "rotation-product": "rank 3\nkind rotation\nrel s1^2\nrel s2^2\n"
                        "rel (s1 s2)^3\n",
    "rotation-period": "rank 3\nkind rotation\nschlafli 4 4\nrel s1^2\n",
    "rotation-not-c-plus": "rank 3\nkind rotation\nrel s1^4\nrel s2^4\n"
                           "rel (s1 s2)^2\nrel s1^2 s2^-2\n",
    "rotation-simplex-4": "rank 4\nkind rotation\nschlafli 3 3 3\n",
    "rotation-simplex-5": "rank 5\nkind rotation\nschlafli 3 3 3 3\n",
    "rotation-cube-5": "rank 5\nkind rotation\nschlafli 4 3 3 3\n",
}


def commands(root, scratch):
    """(label, argv) pairs, in a fixed order; the small input files are
    written to the directory scratch."""
    cli = [sys.executable, "-m", "polyflag", "--json"]
    out = [(f"construct {params}", cli + ["construct", *params.split()])
           for params in CONSTRUCT]
    corpus = root / "src" / "polyflag" / "corpus"
    out += [(f"analyze {path.stem}", cli + ["analyze", str(path)])
            for path in sorted(corpus.glob("*.txt"))]
    for name, text in SMALL_INPUTS.items():
        path = scratch / f"{name}.txt"
        path.write_text(text)
        out.append((f"analyze {name}", cli + ["analyze", str(path)]))
    out += [(f"verify {suite}", cli + ["verify", *suite.split()])
            for suite in VERIFY]
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
    with tempfile.TemporaryDirectory() as scratch:
        for label, cmd in commands(root, Path(scratch)):
            done = subprocess.run(cmd, cwd=root, env=env,
                                  capture_output=True, timeout=600)
            print(f"{label}\texit {done.returncode}"
                  f"\tstdout {digest(done.stdout)}"
                  f"\tstderr {digest(done.stderr)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
