#!/usr/bin/env python3
"""Print digests of what a checkout's command line, demos and coset
enumerator produce.

Usage: python3 tools/digests.py CHECKOUT

First it runs a fixed list of commands, each in a fresh interpreter
started in CHECKOUT with ``CHECKOUT/src`` on the path and
``POLYFLAG_MAX_COSETS`` unset: ``python -m polyflag --json`` on a set of
``construct`` families, on ``construct --help``, on two unknown families
and on three amalgams that fail (a facet collapse, the intersection
condition, a generator killed by the join); ``analyze`` on every corpus
file and on nine small presentations (written to a temporary directory:
five that each fail one shape condition, a rotation group that fails the
intersection condition, so the rotation report's witness is digested
too, and the rotation groups of {3,3,3}, {3,3,3,3} and {4,3,3,3}, whose
reports classify rank-4 and rank-5 facets and vertex-figures); the three
``verify`` suites and ``verify table3 --rank 4``; then each script in
``demos/``.  Each of these lines gives the command, its exit code and
the first 16 hex digits of the SHA-256 of its stdout and of its stderr.

Then it imports ``polyflag`` from ``CHECKOUT/src`` and enumerates a
fixed set of presentations over the trivial subgroup.  Each line gives
the label, the coset cap, and either the coset count with the first 16
hex digits of ``sha256(json.dumps(table.action))`` or the high-water
mark of the ``CosetLimitExceeded`` it raised.  Last come the tables of
groups: ``build_string_group`` on [3,3,5] and [4,3,3,3,3];
``build_rotation_group`` on the corpus entries rotation-338 and
rotation-44-2-0 and on the rotation groups of {3,3,3,3} and {4,3,3,3};
rotation torus maps (each built by ``build_rotation_group``: through
the pair orbit of ``pair_orbit_table``, as the dual of a {3,6} map, or
by the plain enumeration a degenerate torus, like rotation-44-2-0,
falls back to); the ``dual`` of corpus groups; and the ``enantiomorph``
of a corpus rotation group and of two chiral tori.  Each of these lines
digests the table's standard form, a breadth-first renumbering from
point 0 that reads each point's images column by column, so it names
the group's action whichever route built it and however that route
numbers points: two regular actions of one presentation standardize
alike, so an enantiomorph read off its group's table and one enumerated
from the mirrored presentation give the same line.

Run it on two checkouts (say, a ``git archive`` of the parent commit and
the working tree) and diff the output: a change that keeps every report
byte for byte, keeps the enumerator's coset numbering and keeps each
group's action leaves it unchanged.  The table digests in
``tests/test_coset_enum.py`` were recorded this way and are kept by
hand; do not regenerate them from a changed enumerator.
"""

import hashlib
import json
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
    "amalgam coxeter:3,4 torus44:1,1", "amalgam coxeter:2,4 torus44:1,1",
    "amalgam coxeter:3,3 hemi",
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


def _coxeter_text(symbol, rel=None):
    text = (f"rank {len(symbol) + 1}\nkind reflection\n"
            f"schlafli {' '.join(map(str, symbol))}\n")
    return text + (f"rel {rel}\n" if rel else "")


# (label, presentation text or "corpus:<name>", coset cap)
CASES = (
    ("coxeter [3,3,5]", _coxeter_text((3, 3, 5)), 2_000_000),
    ("coxeter [4,3,3,3,3]", _coxeter_text((4, 3, 3, 3, 3)), 2_000_000),
    ("corpus cube-5", "corpus:cube-5", 2_000_000),
    ("corpus lambda-6-3-3-3", "corpus:lambda-6-3-3-3", 2_000_000),
    ("corpus lambda-6-6-3-3", "corpus:lambda-6-6-3-3", 2_000_000),
    ("sweep 5 4 | (r0 r1 r2)^8", _coxeter_text((5, 4), "(r0 r1 r2)^8"),
     2000),
    ("sweep 5 4 | (r0 r1 r2)^8", _coxeter_text((5, 4), "(r0 r1 r2)^8"),
     300),
    ("sweep 3 6 3", _coxeter_text((3, 6, 3)), 2000),
    ("sweep 3 6 3", _coxeter_text((3, 6, 3)), 300),
    # these finish only because lookahead collapses the table at the cap
    ("sweep 6 3 4 | (r0 r1 r2 r3)^6",
     _coxeter_text((6, 3, 4), "(r0 r1 r2 r3)^6"), 2000),
    ("sweep 4 5 3 | (r0 r1 r2)^7", _coxeter_text((4, 5, 3), "(r0 r1 r2)^7"),
     2000),
    ("sweep 8 3 | (r0 r1 r2 r1)^4", _coxeter_text((8, 3), "(r0 r1 r2 r1)^4"),
     60),
)

# (label, route, arguments): a build is build_string_group of the Coxeter
# symbol, a rotation is build_rotation_group of the corpus entry or the
# symbol's rotation presentation, a torus map is
# rotation_torus_map(*arguments), a dual is dual() of the corpus group of
# that name, an enantiomorph is enantiomorph() of the corpus rotation
# group of that name or of rotation_torus_map(*arguments)
GROUP_CASES = (
    ("build [3,3,5]", "build", ((3, 3, 5),)),
    ("build [4,3,3,3,3]", "build", ((4, 3, 3, 3, 3),)),
    ("rotation corpus rotation-338", "rotation", ("rotation-338",)),
    ("rotation {3,3,3,3}", "rotation", ((3, 3, 3, 3),)),
    ("rotation {4,3,3,3}", "rotation", ((4, 3, 3, 3),)),
    # enumeration fallback
    ("rotation corpus rotation-44-2-0", "rotation", ("rotation-44-2-0",)),
    ("torus 44 1 2", "torus", ("44", 1, 2)),
    ("torus 36 8 11", "torus", ("36", 8, 11)),
    ("torus 63 2 1", "torus", ("63", 2, 1)),  # the dual of {3,6}_(2,1)
    ("torus 44 2 0", "torus", ("44", 2, 0)),  # enumeration fallback
    ("dual corpus cube-5", "dual", ("cube-5",)),
    ("dual corpus rotation-338", "dual", ("rotation-338",)),
    ("enantiomorph corpus rotation-338", "enantiomorph", ("rotation-338",)),
    ("enantiomorph torus 44 1 2", "enantiomorph", ("44", 1, 2)),
    ("enantiomorph torus 36 2 3", "enantiomorph", ("36", 2, 3)),
)


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


def print_command_digests(root):
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


def print_table_digests(root):
    sys.path.insert(0, str(root / "src"))
    from polyflag.corpus import load_entry
    from polyflag.coset_enum import CosetLimitExceeded, enumerate_cosets
    from polyflag.chiral import (build_rotation_group, enantiomorph,
                                 rotation_torus_map)
    from polyflag.presentation import (REFLECTION, ROTATION,
                                       make_presentation, parse_presentation)
    from polyflag.stringc import build_string_group, dual

    for label, text, cap in CASES:
        if text.startswith("corpus:"):
            pres = load_entry(text[len("corpus:"):])[0]
        else:
            pres = parse_presentation(text)
        try:
            table = enumerate_cosets(pres, (), max_cosets=cap)
        except CosetLimitExceeded as exc:
            outcome = f"limit high_water={exc.high_water}"
        else:
            action = json.dumps(table.action).encode()
            outcome = f"{table.num_cosets} {digest(action)}"
        print(f"{label}\tcap {cap}\t{outcome}")

    def corpus_dual(name):
        pres = load_entry(name)[0]
        build = (build_string_group if pres.kind == REFLECTION
                 else build_rotation_group)
        return dual(build(pres))

    def coxeter_build(symbol):
        return build_string_group(parse_presentation(_coxeter_text(symbol)))

    def rotation_build(source):
        pres = (load_entry(source)[0] if isinstance(source, str) else
                make_presentation(ROTATION, len(source) + 1, source))
        return build_rotation_group(pres)

    def mirror_of(*source):
        group = (rotation_build(*source) if len(source) == 1
                 else rotation_torus_map(*source))
        return enantiomorph(group)

    routes = {"build": coxeter_build, "rotation": rotation_build,
              "torus": rotation_torus_map, "dual": corpus_dual,
              "enantiomorph": mirror_of}
    for label, route, arguments in GROUP_CASES:
        table = routes[route](*arguments).table
        action = json.dumps(standard_rows(table.columns)).encode()
        print(f"{label}\t{table.num_cosets} {digest(action)}")


def standard_rows(columns):
    """The rows of the table in standard form: points renumbered in the
    order a breadth-first walk from point 0 first sees them, reading each
    point's images column by column."""
    new = [-1] * len(columns[0])
    new[0] = 0
    seen = [0]
    for c in seen:  # the list grows while it is walked
        for col in columns:
            d = col[c]
            if new[d] < 0:
                new[d] = len(seen)
                seen.append(d)
    return [[new[col[c]] for col in columns] for c in seen]


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/digests.py CHECKOUT", file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    print_command_digests(root)
    print_table_digests(root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
